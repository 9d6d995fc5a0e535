"""The integer lattice backend against its Fraction reference
(fraction_reference.py): determinants, LDL pivots, norms, quotient Grams,
saturation and completion bases, short vectors and the budget stop must
agree exactly, and every LatticeError must carry the same text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from slopes import linalg
from slopes.core import Budget, BudgetExhausted
from slopes.lattices import (
    EuclideanLattice,
    LatticeError,
    Sublattice,
    completion,
    lagrange_gauss,
    quotient_with_metric,
    saturate,
    short_vectors,
)

small = st.integers(min_value=-3, max_value=3)
weights = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def grams(draw, min_rank=1, max_rank=5):
    """Symmetric rational matrices: A^T diag(w) A with w > 0, positive
    definite unless A is singular, or symmetric with free entries, mostly
    indefinite."""
    r = draw(st.integers(min_rank, max_rank))
    if draw(st.booleans()):
        a = [[draw(small) for _ in range(r)] for _ in range(r)]
        w = [draw(weights) for _ in range(r)]
        return [
            [sum(a[k][i] * w[k] * a[k][j] for k in range(r)) for j in range(r)] for i in range(r)
        ]
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = draw(rationals)
    return g


def lattice_or_error(gram):
    """The lattice of gram, or None when it raises LatticeError; the
    reference factorization must raise the same text exactly then."""
    try:
        lat = EuclideanLattice(gram)
    except LatticeError as exc:
        lat, text = None, str(exc)
    else:
        text = None
    try:
        ref.ldl(gram)
    except LatticeError as exc:
        assert text == str(exc)
    else:
        assert text is None
    return lat


@settings(max_examples=200)
@given(grams())
def test_ldl_pivots_and_det_match_reference(gram):
    lat = lattice_or_error(gram)
    if lat is None:
        return
    d, lmat = ref.ldl(gram)
    u, den = lat.ldl, lat.scaled[1]
    minors = [1] + [u[i][i] for i in range(lat.rank)]
    assert tuple(Fraction(minors[i + 1], minors[i] * den) for i in range(lat.rank)) == d
    for i in range(lat.rank):
        for j in range(i, lat.rank):
            assert Fraction(u[i][j], u[i][i]) == lmat[i][j]
    assert lat.det() == ref.det(gram) == linalg.det(lat.gram)


@st.composite
def square_matrices(draw, entries):
    n = draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a repeated row: singular
        m[draw(st.integers(1, n - 1))] = list(m[0])
    return m


@settings(max_examples=200)
@given(st.one_of(square_matrices(small), square_matrices(rationals)))
def test_det_matches_reference(m):
    assert linalg.det(m) == ref.det(m)
    assert linalg.det(linalg.frac_matrix(m)) == ref.det(m)


@st.composite
def lattices_with_vectors(draw, count):
    gram = draw(grams())
    try:
        lat = EuclideanLattice(gram)
    except LatticeError:
        lat = EuclideanLattice(linalg.identity(len(gram)))
    vectors = [[draw(small) for _ in range(lat.rank)] for _ in range(count)]
    return lat, vectors


@given(lattices_with_vectors(2))
def test_norms_match_reference(case):
    lat, (v, w) = case
    assert lat.norm(v) == ref.inner(lat.gram, v, v)
    assert lat.inner(v, w) == ref.inner(lat.gram, v, w)
    assert lat.gram_numerators([v, w]) == [
        [ref.inner(lat.gram, a, b) * lat.scaled[1] for b in (v, w)] for a in (v, w)
    ]


def outcome(f, *args):
    try:
        return f(*args)
    except LatticeError as exc:
        return "LatticeError: " + str(exc)


@settings(max_examples=150)
@given(lattices_with_vectors(5), st.integers(1, 5))
def test_saturate_completion_and_quotient_match_reference(case, k):
    lat, vectors = case
    # the zero sublattice: an empty S-block, so the quotient is the lattice
    zero = Sublattice(lat, ())
    assert quotient_with_metric(lat, zero).gram == ref.quotient_gram(lat, zero) == lat.gram
    cols = vectors[: min(k, lat.rank)]
    sub = outcome(saturate, lat, cols)
    assert sub == outcome(ref.saturate, lat, cols)
    if isinstance(sub, str):
        return
    assert completion(lat, sub) == ref.completion(lat, sub)
    assert quotient_with_metric(lat, sub).gram == ref.quotient_gram(lat, sub)
    # the basis as given, not saturated: completion must refuse the same
    given_basis = Sublattice(lat, tuple(tuple(c) for c in cols))
    assert outcome(completion, lat, given_basis) == outcome(ref.completion, lat, given_basis)


def test_saturate_errors_match_reference():
    lat = EuclideanLattice.standard(3)
    dependent = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    for cols in ([], [[1, 2, 3], [2, 4, 6]], [[0, 0, 0]], dependent):
        assert outcome(saturate, lat, cols) == outcome(ref.saturate, lat, cols)
        assert outcome(saturate, lat, cols).startswith("LatticeError")


@settings(max_examples=120, deadline=None)
@given(lattices_with_vectors(0), st.fractions(min_value=0, max_value=12, max_denominator=7))
def test_short_vectors_and_budget_stop_match_reference(case, bound):
    lat, _ = case
    budget = Budget(max_candidates=3000)
    try:
        expected, nodes = ref.short_vectors(lat.gram, bound, budget)
    except BudgetExhausted:
        with pytest.raises(BudgetExhausted, match="lattice enumeration budget exhausted"):
            short_vectors(lat, bound, budget)
        return
    assert short_vectors(lat, bound, budget) == expected
    assert short_vectors(lat, bound, Budget(max_candidates=nodes)) == expected
    with pytest.raises(BudgetExhausted, match="lattice enumeration budget exhausted"):
        short_vectors(lat, bound, Budget(max_candidates=nodes - 1))


@given(grams(2, 2))
def test_lagrange_gauss_matches_reference(gram):
    lat = lattice_or_error(gram)
    if lat is not None:
        assert lagrange_gauss(lat) == ref.lagrange_gauss(lat.gram)
