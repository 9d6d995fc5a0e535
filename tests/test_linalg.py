from fractions import Fraction

import pytest

from hypothesis import assume, given, settings, strategies as st

import fraction_reference as ref
from slopes import linalg

small = st.integers(min_value=-4, max_value=4)


def matrices(rows, cols):
    return st.lists(
        st.lists(small, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(linalg.frac_matrix)


@given(matrices(3, 4))
def test_rref_is_idempotent_and_canonical(m):
    r = linalg.rref(m)
    assert linalg.rref(r) == r
    for row in r:
        piv = next(j for j, c in enumerate(row) if c != 0)
        assert row[piv] == 1
        for other in r:
            if other is not row:
                assert other[piv] == 0


@given(matrices(3, 4))
def test_kernel_annihilates(m):
    for v in linalg.kernel_basis(m):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert len(linalg.kernel_basis(m)) == 4 - linalg.rank(m)


@given(matrices(3, 3))
def test_det_vs_rank(m):
    assert (linalg.det(m) != 0) == (linalg.rank(m) == 3)


@given(matrices(2, 4), matrices(2, 4))
def test_sum_and_intersection_dimensions(a, b):
    sa, sb = linalg.rref(a), linalg.rref(b)
    inter = linalg.subspace_intersect(sa, sb)
    total = linalg.subspace_sum(sa, sb)
    assert len(inter) + len(total) == len(sa) + len(sb)
    for v in inter:
        assert linalg.subspace_contains(sa, (v,))
        assert linalg.subspace_contains(sb, (v,))


@given(matrices(3, 3))
def test_solve_solves(m):
    b = tuple(Fraction(i + 1) for i in range(3))
    x = linalg.solve(m, b)
    if x is not None:
        assert linalg.mat_vec(m, x) == b


# the library inverts no matrix; these keep the tests' reference honest
@given(matrices(3, 3))
def test_inverse_is_two_sided(m):
    assume(linalg.det(m) != 0)
    inv = ref.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(3)
    assert linalg.mat_mul(inv, m) == linalg.identity(3)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        ref.inverse(linalg.frac_matrix([[1, 2], [2, 4]]))


def test_inverse_of_unimodular_is_integral():
    u = [[2, 3, 1], [1, 2, 1], [1, 1, 1]]  # det 1
    inv = ref.inverse(u)
    assert all(c.denominator == 1 for row in inv for c in row)
    assert inv == linalg.frac_matrix([[1, -2, 1], [0, 1, -1], [-1, 1, 1]])


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4
    )
)
def test_smith_normal_form(m):
    u, d, v, u_inv = linalg.smith_normal_form(m)
    nr, nc = len(m), len(m[0])
    # u m v == d
    um = [[sum(u[i][k] * m[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
    umv = [[sum(um[i][k] * v[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
    assert umv == d
    # diagonal, divisibility, unimodular transforms
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(nr, nc)) if d[i][i] != 0]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert abs(linalg.det(linalg.frac_matrix(u))) == 1
    assert abs(linalg.det(linalg.frac_matrix(v))) == 1
    # the inverse kept beside u
    eye = [[int(i == j) for j in range(nr)] for i in range(nr)]
    assert [[sum(u[i][k] * u_inv[k][j] for k in range(nr)) for j in range(nr)] for i in range(nr)] == eye


def test_annihilator_dimensions():
    a = linalg.rref(((Fraction(1), Fraction(1), Fraction(0)),))
    ann = linalg.annihilator(a, 3)
    assert len(ann) == 2
    for v in ann:
        assert sum(x * y for x, y in zip(a[0], v)) == 0
