import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import slopes.diff as diff_mod
from slopes.diff import (
    DiffError,
    DifferentialModule,
    DifferentialOperator,
    _matrix_min_valuation,
    companion,
    gerard_levelt_irregularity,
    irregularity_cyclic,
    katz_rank_spectral,
    np_diff,
    polygon_height,
    rank_one_break,
    tensor_rank_one,
)
from slopes.series import PrecisionError, Series


def op(*vals):
    """Operator from coefficient valuations a_0, a_1, ...; None = zero."""
    return DifferentialOperator.from_valuations(vals)


def test_irregularity_examples():
    assert irregularity_cyclic(op(0, 2)) == 0
    assert irregularity_cyclic(op(-3, -1)) == 3
    assert irregularity_cyclic(op(-1, None)) == 1


def test_np_diff_examples():
    # hull of (0,0), (1,1), (2,3) is one segment of slope 3/2
    got = np_diff(op(-3, -1))
    assert got.to_json()["segments"] == [{"slope": "3/2", "mult": 2}]
    got = np_diff(op(-1, None))
    assert got.to_json()["segments"] == [{"slope": "1/2", "mult": 2}]
    got = np_diff(op(0, 2))
    assert got.to_json()["segments"] == [{"slope": "0", "mult": 2}]
    # genuinely mixed slopes with a vertex on the hull
    got = np_diff(op(-3, -2))
    assert got.to_json()["segments"] == [
        {"slope": "2", "mult": 1},
        {"slope": "1", "mult": 1},
    ]


def test_np_diff_clamps_negatives():
    got = np_diff(op(3, None))
    assert got.to_json()["segments"] == [{"slope": "0", "mult": 2}]
    got = np_diff(op(None, -3))
    assert got.to_json()["segments"] == [
        {"slope": "3", "mult": 1},
        {"slope": "0", "mult": 1},
    ]


def test_np_height_equals_irregularity():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        vals = [
            rng.choice([None, rng.randint(-5, 3)]) for _ in range(n)
        ]
        o = DifferentialOperator.from_valuations(vals)
        assert polygon_height(np_diff(o)) == irregularity_cyclic(o)


def test_breaks_non_negative_and_integral_height():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        vals = [rng.choice([None, rng.randint(-6, 4)]) for _ in range(n)]
        poly = np_diff(DifferentialOperator.from_valuations(vals))
        assert polygon_height(poly).denominator == 1
        for segkey, _m in poly.breaks_multiset():
            assert segkey.deg.value >= 0


def test_companion_shape():
    o = DifferentialOperator((Series.monomial(1, -3), Series.monomial(1, -1)))
    m = companion(o)
    assert m.rank == 2
    assert m.matrix[1][0].eq_to_precision(Series.one())
    assert m.matrix[0][1].eq_to_precision(Series.monomial(1, -3))


def test_katz_rank_one_examples():
    m = DifferentialModule(((Series.monomial(1, -2),),))
    est, diag = katz_rank_spectral(m, 16)
    assert est == 2
    assert all(r == 2 for r in diag["ratios"])
    m0 = DifferentialModule(((Series.monomial(7, 0),),))
    est, _ = katz_rank_spectral(m0, 16)
    assert est == 0


def test_katz_companion_matches_polygon():
    o = DifferentialOperator((Series.monomial(1, -1), Series.zero()))
    est, _ = katz_rank_spectral(companion(o), 64)
    assert abs(est - Fraction(1, 2)) <= Fraction(1, 64)
    o2 = DifferentialOperator((Series.monomial(1, -3), Series.monomial(1, -1)))
    est2, _ = katz_rank_spectral(companion(o2), 64)
    assert abs(est2 - Fraction(3, 2)) <= Fraction(1, 64)


def test_katz_zero_connection():
    m = DifferentialModule(((Series.zero(),),))
    est, diag = katz_rank_spectral(m, 8)
    assert est == 0 and diag["converged"]


def test_gerard_levelt_examples():
    m = DifferentialModule(((Series.monomial(1, -2),),))
    ir, stab, diag = gerard_levelt_irregularity(m, 12)
    assert (ir, stab) == (2, True)
    assert diag["increments"] == [2] * 12

    reg = DifferentialModule(
        (
            (Series.monomial(2, 0), Series.zero()),
            (Series.one(), Series.monomial(1, 1)),
        )
    )
    ir, stab, _ = gerard_levelt_irregularity(reg, 12)
    assert (ir, stab) == (0, True)

    o = DifferentialOperator((Series.monomial(1, -3), Series.monomial(1, -1)))
    ir, stab, _ = gerard_levelt_irregularity(companion(o), 12)
    assert (ir, stab) == (3, True)


def test_gl_precision_retry_names_what_ran_out(monkeypatch):
    import slopes.diff as diff_mod

    floors = []
    errors = []

    def starved(a, r, n_max, floor):
        floors.append(floor)
        errors.append(PrecisionError("column reduction ran out"))
        raise errors[-1]

    monkeypatch.setattr(diff_mod, "_gl_run", starved)
    m = DifferentialModule(((Series.monomial(1, -2),),))
    with pytest.raises(PrecisionError, match="floor=576") as info:
        gerard_levelt_irregularity(m, 12)
    assert floors == [36, 72, 144, 288, 576]
    assert info.value.__cause__ is errors[-1]


def test_gl_rejects_tiny_budget():
    m = DifferentialModule(((Series.one(),),))
    with pytest.raises(DiffError):
        gerard_levelt_irregularity(m, 2)


def test_tensor_rank_one_examples():
    assert tensor_rank_one(-2, -2, -2) == 2
    assert tensor_rank_one(-2, -2, -1) == 1
    assert tensor_rank_one(-2, -1) == 2
    assert tensor_rank_one(1, 2) == 0
    with pytest.raises(DiffError):
        tensor_rank_one(-2, -2)  # cancellation valuation required
    with pytest.raises(DiffError):
        tensor_rank_one(-2, -2, -3)  # below min impossible
    with pytest.raises(DiffError):
        tensor_rank_one(-2, -1, 0)  # contradicts forced minimum


def test_rank_one_break_and_duality():
    f = Series.from_coeffs(-2, [1, 0, 3])
    assert rank_one_break(f) == 2
    assert rank_one_break(-f) == rank_one_break(f)
    assert rank_one_break(Series.from_coeffs(1, [5])) == 0
    g = Series.from_coeffs(-2, [-1, 1])  # cancels the leading pole of f
    assert rank_one_break(f + g) == 1
    assert rank_one_break(f + g) <= max(rank_one_break(f), rank_one_break(g))


def test_gerard_levelt_takes_no_inverse(monkeypatch):
    """The unit-scaled elimination never calls Series.inverse; the lattice
    growth gives the same irregularity and dims as the pivot-inverse
    elimination did."""
    inverses = []
    real_inverse = Series.inverse

    def counting_inverse(self, prec):
        inverses.append(prec)
        return real_inverse(self, prec)

    monkeypatch.setattr(Series, "inverse", counting_inverse)
    mixed = DifferentialOperator(
        (
            Series.from_coeffs(-3, [2, -1, Fraction(3, 2)]),
            Series.from_coeffs(-1, [-3, 0, Fraction(1, 3)]),
        )
    )
    cases = [(op(-3, -1), 3), (op(-5, -3, -4), 5), (op(-2, None, -1, None), 2), (mixed, 3)]
    for o, ir in cases:
        gl, stabilized, diag = gerard_levelt_irregularity(companion(o), 12)
        assert (gl, stabilized) == (ir, True)
        assert diag["dims"] == [ir * k for k in range(1, 13)]
    assert inverses == []


def test_katz_exact_zeros_keep_precision():
    """Exact zero entries stay exact through the window cut and cost a
    product no precision, so B_n = +-2x^-1 finishes at the first keep."""
    zero = Series.zero()
    m = DifferentialModule(
        (
            (zero, zero, zero),
            (zero, zero, zero),
            (zero, Series.monomial(2, -1), zero),
        )
    )
    est, diag = diff_mod._katz_run(m, 64, 12, 16)
    assert est == 0 and diag["converged"]
    assert diag["valuations"] == [-1] * 64


def test_katz_zero_to_precision_entry_is_indeterminate():
    """An entry known to be zero only below x^-3 may have valuation -3,
    below the x^-1 of the other entry, so v(B_n) is not fixed: the
    completion with x^-3 has estimate 3, not 1."""
    x_inv = Series.monomial(1, -1)
    with pytest.raises(PrecisionError, match="power valuation indeterminate"):
        katz_rank_spectral(
            DifferentialModule(((x_inv, Series.zero()), (Series.zero(), Series.zero(-3))))
        )
    est, _ = katz_rank_spectral(
        DifferentialModule(((x_inv, Series.zero()), (Series.zero(), Series.monomial(1, -3))))
    )
    assert est == 3


# -- the Series-based Katz powers, kept as the reference ---------------------------
# Two rules depart from Series arithmetic, as in _katz_run: an exact zero
# stays exact through the cut, and a product with an exact zero factor
# costs no precision.


def _exact_zero(c):
    return c.prec is None and c.is_zero()


def _ref_truncate_matrix(mat, prec):
    return tuple(
        tuple(c if _exact_zero(c) else c.truncate(prec) for c in row) for row in mat
    )


def _ref_power_step(a, b):
    r = len(a)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = b[i][j].dlog_derivative()
            for k in range(r):
                if not (_exact_zero(a[i][k]) or _exact_zero(b[k][j])):
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _ref_katz_run(module, n_max, window, keep):
    a = module.matrix
    vals = []
    b = a
    for _n in range(1, n_max + 1):
        v = _matrix_min_valuation(b)
        if v is None:
            precs = [c.prec for row in b for c in row if c.prec is not None]
            if not precs or min(precs) >= 1:
                return Fraction(0), {
                    "valuations": vals,
                    "ratios": [],
                    "windowed": [],
                    "window": 0,
                    "converged": True,
                }
            raise PrecisionError("power valuation indeterminate")
        if any(
            c.prec is not None and c.prec < v and c.valuation_or(None) is None
            for row in b
            for c in row
        ):
            raise PrecisionError("power valuation indeterminate")
        vals.append(v)
        b = _ref_truncate_matrix(b, v + keep)
        if _n < n_max:
            b = _ref_power_step(a, b)
    ratios = [Fraction(-vals[n - 1], n) for n in range(1, n_max + 1)]
    w = min(window, n_max - 1)
    windowed = []
    for n in range(w + 1, n_max + 1):
        windowed.append(Fraction(vals[n - 1 - w] - vals[n - 1], w))
    est = max(Fraction(0), windowed[-1]) if windowed else max(Fraction(0), ratios[-1])
    converged = len(windowed) >= 2 and windowed[-1] == windowed[-2]
    return est, {
        "valuations": vals,
        "ratios": ratios,
        "windowed": windowed,
        "window": w,
        "converged": converged,
    }


def _outcome(run, *args):
    try:
        return run(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _entries(draw):
    vmin = draw(st.integers(-3, 2))
    coeffs = draw(st.lists(_coeff, min_size=0, max_size=4))
    prec = draw(st.one_of(st.none(), st.integers(vmin - 1, vmin + 6)))
    return Series.from_coeffs(vmin, coeffs, prec)


@st.composite
def _modules(draw):
    r = draw(st.integers(1, 3))
    return DifferentialModule(
        tuple(tuple(draw(_entries()) for _ in range(r)) for _ in range(r))
    )


# a module whose valuations depend on the common denominator scaling the
# delta term: random draws seldom hit such a cancellation
_CANCELLING = DifferentialModule(
    (
        (Series.zero(), Series.from_coeffs(1, [Fraction(2, 3), 1])),
        (Series.monomial(-3, -2), Series.from_coeffs(0, [Fraction(1, 2), Fraction(-1, 2)])),
    )
)


@settings(max_examples=300, deadline=None)
@given(_modules(), st.integers(2, 24), st.sampled_from([4, 16]))
@example(_CANCELLING, 24, 4)
def test_katz_run_matches_series_powers(module, n_max, keep):
    """The integer recurrence gives the Series powers' estimate and
    diagnostics, or the same PrecisionError, on rational, exact,
    finite-precision and zero entries."""
    assert _outcome(diff_mod._katz_run, module, n_max, 12, keep) == _outcome(
        _ref_katz_run, module, n_max, 12, keep
    )
