import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import slopes.diff as diff_mod
from slopes.diff import (
    DiffError,
    DifferentialModule,
    DifferentialOperator,
    companion,
    gerard_levelt_irregularity,
    irregularity_cyclic,
    katz_rank_spectral,
    np_diff,
    polygon_height,
    rank_one_break,
    tensor_rank_one,
)
from slopes.series import PrecisionError, Series, _integer_matrix
from test_acceptance import DIFF_FIXTURES


def op(*vals):
    """Operator from coefficient valuations a_0, a_1, ...; None = zero."""
    return DifferentialOperator.from_valuations(vals)


def _matrix_min_valuation(mat):
    """The least valuation of the nonzero Series entries of mat; None when
    every entry is zero as far as known."""
    vals = []
    for row in mat:
        for c in row:
            v = c.valuation_or(None)
            if v is not None:
                vals.append(v)
    return min(vals) if vals else None


def _int_katz_run(module, n_max, window, keep):
    """diff._katz_run on the integer matrix of the module's connection."""
    return diff_mod._katz_run(*_integer_matrix(module.matrix), n_max, window, keep)


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
    # one-sided on truncated operators: a coefficient zero only below x^p
    # that leaves the polygon certified cannot raise the Fuchs number
    decided = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        coeffs = []
        for _ in range(n):
            k = rng.randint(-5, 3)
            options = [Series.zero(), Series.zero(k), Series.monomial(1, k), Series.zero(k + 2)]
            coeffs.append(rng.choice(options))
        o = DifferentialOperator(tuple(coeffs))
        try:
            height = polygon_height(np_diff(o))
        except PrecisionError:
            continue
        decided += 1
        assert irregularity_cyclic(o) == height
    assert decided > 100


def test_open_coefficient_rule():
    """a_0 known only to O(x^p) beside a_1 = x^-1: at p = -5 the point
    (2, 5) lies above the clamped hull, so polygon and Fuchs number are
    open; at p = 3 both are certified and the irregularity is 1."""
    x_inv = Series.monomial(1, -1)
    open_op = DifferentialOperator((Series.zero(-5), x_inv))
    with pytest.raises(PrecisionError, match="a_0 is zero only below x\\^-5,"):
        np_diff(open_op)
    with pytest.raises(PrecisionError, match="a_0 is zero only below x\\^-5$"):
        irregularity_cyclic(open_op)
    closed = DifferentialOperator((Series.zero(3), x_inv))
    assert np_diff(closed).to_json()["segments"] == [
        {"slope": "1", "mult": 1},
        {"slope": "0", "mult": 1},
    ]
    assert irregularity_cyclic(closed) == 1
    # inside the hull's height but above the hull: only the polygon is open
    mid = DifferentialOperator((Series.monomial(1, -4), Series.zero(-3), Series.one()))
    with pytest.raises(PrecisionError, match="a_1 is zero only below x\\^-3,"):
        np_diff(mid)
    assert irregularity_cyclic(mid) == 4


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


def test_gl_raises_once_with_no_retry(monkeypatch):
    """With every basis an exact representative, only the input's own
    precision can run out: a nonzero entry of A known only below x^0
    raises after one run, naming the input, and a rank-one module whose
    entry is known to x^0 still returns."""
    runs = []
    real_run = diff_mod._gl_run

    def counting_run(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(diff_mod, "_gl_run", counting_run)
    x_inv = Series.monomial(1, -1)
    m = DifferentialModule(((x_inv, _S(-1, [1], 0)), (Series.zero(), x_inv)))
    with pytest.raises(PrecisionError) as info:
        gerard_levelt_irregularity(m, 12)
    assert str(info.value) == (
        "lattice growth indeterminate: the input's own precision ran out "
        "(series is zero to precision O(x^0); valuation unknown)"
    )
    assert isinstance(info.value.__cause__, PrecisionError)
    assert len(runs) == 1
    runs.clear()
    ir, stabilized, _ = gerard_levelt_irregularity(
        DifferentialModule(((_S(-2, [1], 0),),)), 12
    )
    assert (ir, stabilized, len(runs)) == (2, True, 1)


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
    """Lattice growth forms no Series product and takes no inverse, and
    runs its column reduction through the module global
    diff._reduce_columns once per step; it gives the same irregularity and
    dims as the pivot-inverse elimination did."""
    calls = {"mul": 0, "inverse": 0, "reduce": 0}
    real_mul, real_inverse = Series.__mul__, Series.inverse
    real_reduce = diff_mod._reduce_columns

    def counting_mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    def counting_inverse(self, prec):
        calls["inverse"] += 1
        return real_inverse(self, prec)

    def counting_reduce(cols, r):
        calls["reduce"] += 1
        assert len(cols) == 2 * r
        return real_reduce(cols, r)

    mixed = DifferentialOperator(
        (
            Series.from_coeffs(-3, [2, -1, Fraction(3, 2)]),
            Series.from_coeffs(-1, [-3, 0, Fraction(1, 3)]),
        )
    )
    cases = [(op(-3, -1), 3), (op(-5, -3, -4), 5), (op(-2, None, -1, None), 2), (mixed, 3)]
    modules = [(companion(o), ir) for o, ir in cases]
    monkeypatch.setattr(Series, "__mul__", counting_mul)
    monkeypatch.setattr(Series, "inverse", counting_inverse)
    monkeypatch.setattr(diff_mod, "_reduce_columns", counting_reduce)
    for m, ir in modules:
        calls["reduce"] = 0
        gl, stabilized, diag = gerard_levelt_irregularity(m, 12)
        assert (gl, stabilized) == (ir, True)
        assert diag["dims"] == [ir * k for k in range(1, 13)]
        assert calls["reduce"] == 12
    assert (calls["mul"], calls["inverse"]) == (0, 0)


def test_gerard_levelt_stops_at_its_fixed_point(monkeypatch):
    """On a regular module (v(A) >= 0) the first step already adds
    nothing, V_1 = V_0, so lattice growth stops after at most two
    reductions of 2r columns each and reports dims 0 at every step."""
    sizes = []
    real_reduce = diff_mod._reduce_columns

    def counting_reduce(cols, r):
        sizes.append((len(cols), r))
        return real_reduce(cols, r)

    monkeypatch.setattr(diff_mod, "_reduce_columns", counting_reduce)
    regular = [
        companion(op(0, 2)),
        companion(op(0, None, 1)),
        DifferentialModule(((Series.monomial(7, 0),),)),
        DifferentialModule(
            (
                (Series.monomial(2, 0), Series.zero()),
                (Series.one(), _S(1, [1, Fraction(-1, 2)], 5)),
            )
        ),
    ]
    for m in regular:
        for n_max in (4, 12, 24):
            sizes.clear()
            ir, stabilized, diag = gerard_levelt_irregularity(m, n_max)
            assert (ir, stabilized) == (0, True)
            assert diag["dims"] == [0] * n_max
            assert 1 <= len(sizes) <= 2
            assert all(n == 2 * r for n, r in sizes)


@pytest.mark.parametrize(
    "vals, reductions",
    [
        ((-3,), 1),
        ((-1, None), 2),
        ((-1, None, None), 3),
        ((-1, -1), 12),
        ((-2, -2, -2), 12),
        ((-3, -1), 12),
    ],
    ids=str,
)
def test_gerard_levelt_stops_at_a_shifted_lattice(monkeypatch, vals, reductions):
    """On an exact module, V_p = x^-c V_0 fixes every later lattice, V_(p+i)
    = x^-c V_i: the run stops after step p and gives the dims of the
    Series reference's 12 steps.  Where no V_p is x^-c V_0, all 12 steps
    run."""
    calls = []
    real_reduce = diff_mod._reduce_columns

    def counting_reduce(cols, r):
        calls.append(r)
        return real_reduce(cols, r)

    m = companion(op(*vals))
    expected = _ref_gerard_levelt(m, 12)
    monkeypatch.setattr(diff_mod, "_reduce_columns", counting_reduce)
    assert gerard_levelt_irregularity(m, 12) == expected
    assert len(calls) == reductions


def _count_katz_calls(monkeypatch):
    """Counts of the calls to diff._katz_run and diff._power_step through
    their module globals."""
    counts = {"run": 0, "step": 0}
    real_run, real_step = diff_mod._katz_run, diff_mod._power_step

    def counting_run(*args):
        counts["run"] += 1
        return real_run(*args)

    def counting_step(*args):
        counts["step"] += 1
        return real_step(*args)

    monkeypatch.setattr(diff_mod, "_katz_run", counting_run)
    monkeypatch.setattr(diff_mod, "_power_step", counting_step)
    return counts


def test_katz_calls_its_traced_names(monkeypatch):
    """The names the benchmark trace wraps stay live: katz_rank_spectral
    enters _katz_run once, and _katz_run calls diff._power_step through
    the module global once per power after the first, n_max - 1 times,
    on companion modules of the benchmark's shape whose leading matrix is
    nilpotent."""
    counts = _count_katz_calls(monkeypatch)
    for vals, rho in (((-1, None), Fraction(1, 2)), ((-1, None, None), Fraction(1, 3))):
        m = companion(op(*vals))
        for n_max in (64, 24):
            counts.update(run=0, step=0)
            est, diag = katz_rank_spectral(m, n_max)
            assert est == rho and diag["converged"]
            assert counts == {"run": 1, "step": n_max - 1}


@pytest.mark.parametrize("vals", [(-2, -2, -2), (None, None, None, -1), (0, 2), (2,)], ids=str)
def test_katz_reads_the_leading_matrix(monkeypatch, vals):
    """An exact A whose leading matrix is not nilpotent, or with v(A) > 0,
    fixes every v(B_n): katz_rank_spectral still enters _katz_run once,
    but no power is formed, and the estimate and diagnostics are the
    Series powers' at both keeps."""
    m = companion(op(*vals))
    counts = _count_katz_calls(monkeypatch)
    for keep in (4, 16):
        assert _int_katz_run(m, 64, 12, keep) == _ref_katz_run(m, 64, 12, keep)
    counts.update(run=0)
    assert katz_rank_spectral(m) == _ref_katz_run(m, 64, 12, 16)
    assert counts == {"run": 1, "step": 0}


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
    est, diag = _int_katz_run(m, 64, 12, 16)
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


def test_katz_blames_the_input_not_keep(monkeypatch):
    """An indeterminate v(A) is the input's own precision running out: no
    keep lifts it, so it raises once, before any retry, naming the entry's
    precision and the least known valuation."""
    runs = []
    real_run = diff_mod._katz_run

    def counting_run(*args):
        runs.append(args[-1])
        return real_run(*args)

    monkeypatch.setattr(diff_mod, "_katz_run", counting_run)
    x_inv = Series.monomial(1, -1)
    m = DifferentialModule(((x_inv, Series.zero()), (Series.zero(), Series.zero(-3))))
    with pytest.raises(PrecisionError) as info:
        katz_rank_spectral(m)
    assert str(info.value) == (
        "power valuation indeterminate: an entry is zero only below x^-3, "
        "under the least known valuation -1"
    )
    zero = DifferentialModule(((Series.zero(0),),))
    with pytest.raises(PrecisionError, match="below x\\^0, and no entry has a known term$"):
        katz_rank_spectral(zero)
    assert runs == []


def test_gerard_levelt_blames_the_input_not_floor(monkeypatch):
    """An entry of A zero only below x^p, p < 1, leaves the lattices open:
    it raises before any run, naming the entry's precision."""
    runs = []
    real_run = diff_mod._gl_run

    def counting_run(*args):
        runs.append(args[-1])
        return real_run(*args)

    monkeypatch.setattr(diff_mod, "_gl_run", counting_run)
    x_inv = Series.monomial(1, -1)
    m = DifferentialModule(((x_inv, Series.zero()), (Series.zero(), Series.zero(-3))))
    with pytest.raises(PrecisionError) as info:
        gerard_levelt_irregularity(m)
    assert str(info.value) == (
        "lattice growth indeterminate: an entry is zero only below x^-3, under x^1"
    )
    with pytest.raises(PrecisionError, match="below x\\^0, under x\\^1$"):
        gerard_levelt_irregularity(
            DifferentialModule(((x_inv, Series.zero(0)), (Series.zero(), x_inv)))
        )
    assert runs == []
    # a zero entry known to x^1 is safe: the run starts
    ir, _, _ = gerard_levelt_irregularity(DifferentialModule(((Series.zero(1),),)))
    assert (ir, len(runs)) == (0, 1)


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


def _ref_power_step(a, cols):
    """The columns of a N + delta(N), N given by its columns."""
    r = len(a)
    out = []
    for col in cols:
        img = []
        for i in range(r):
            acc = col[i].dlog_derivative()
            for k in range(r):
                if not (_exact_zero(a[i][k]) or _exact_zero(col[k])):
                    acc = acc + a[i][k] * col[k]
            img.append(acc)
        out.append(tuple(img))
    return tuple(out)


def _ref_window_check(b, v):
    """Raise as _katz_run does when an entry zero only below x^p, p under
    v (under x^1 when v is None), leaves v(B) open."""
    bottom = 1 if v is None else v
    open_precs = [
        c.prec for row in b for c in row if c.prec is not None and c.is_zero() and c.prec < bottom
    ]
    if open_precs:
        where = (
            "and no entry has a known term"
            if v is None
            else f"under the least known valuation {v}"
        )
        raise PrecisionError(
            "power valuation indeterminate: an entry is zero only below "
            f"x^{min(open_precs)}, {where}"
        )


def _ref_katz_run(module, n_max, window, keep):
    a = module.matrix
    vals = []
    b = tuple(zip(*a))  # the columns of B_n
    for _n in range(1, n_max + 1):
        v = _matrix_min_valuation(b)
        _ref_window_check(b, v)
        if v is None:
            return Fraction(0), {
                "valuations": vals,
                "ratios": [],
                "windowed": [],
                "window": 0,
                "converged": True,
            }
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


def _module(*rows):
    return DifferentialModule(tuple(tuple(row) for row in rows))


_Z = Series.zero()
_S = Series.from_coeffs


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
    assert _outcome(_int_katz_run, module, n_max, 12, keep) == _outcome(
        _ref_katz_run, module, n_max, 12, keep
    )


def _leading_fixes_powers(module):
    """Whether v(A) > 0, or else the matrix A_0 of the x^v(A) coefficients
    of A has A_0^r != 0, by Fraction arithmetic on the Series entries."""
    a, r = module.matrix, module.rank
    mu = _matrix_min_valuation(a)
    if mu is None or mu > 0:
        return mu is not None
    lead = [[c.coeff(mu) for c in row] for row in a]
    power = lead
    for _ in range(r - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*lead)] for row in power]
    return any(x != 0 for row in power for x in row)


@st.composite
def _leading_modules(draw):
    """Exact modules of rank 1 to 4 whose leading matrix fixes every
    v(B_n)."""
    r = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just(Series.zero()),
        st.builds(Series.from_coeffs, st.integers(-3, 2), st.lists(_coeff, max_size=4)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    module = DifferentialModule(tuple(tuple(row) for row in rows))
    assume(_leading_fixes_powers(module))
    return module


@settings(max_examples=150, deadline=None)
@given(_leading_modules(), st.integers(2, 24), st.sampled_from([4, 16]))
def test_katz_leading_matrix_matches_series_powers(module, n_max, keep):
    """Wherever A is exact and v(A) > 0 or its leading matrix is not
    nilpotent, _katz_run reads every v(B_n) off that matrix, and gives the
    Series powers' estimate and diagnostics."""
    a = _integer_matrix(module.matrix)[0]
    assert diff_mod._leading_valuations(a, n_max) is not None
    assert _int_katz_run(module, n_max, 12, keep) == _ref_katz_run(module, n_max, 12, keep)


def _katz_doubling(module, n_max):
    """The spectral estimate by the doubling schedule alone, keep = 16,
    32, ..., after the same check of v(A)."""
    diff_mod._window_valuation(_integer_matrix(module.matrix)[0])
    return diff_mod._doubling_retry(
        lambda keep: _int_katz_run(module, n_max, 12, keep), "keep", 16
    )


# the narrow window fails where the doubling schedule returns: its run
# raises on the first, and finds B_2 zero as far as known on the second,
# whose x^6 term only the wider windows keep
_NARROW_RAISES = _module(
    (_S(1, [1], 4), Series.monomial(1, -3)), (Series.monomial(1, 2), Series.monomial(3, 0))
)
_NARROW_EARLY = _module((_Z, _S(0, [1, 0, 0, 0, 0, 0, 1])), (_Z, _Z))
# a zero entry known only below x^-2 times another: O(x^-2) O(x^-2) is
# O(x^-4), so the narrow run must not certify what the wider ones cannot
_NARROW_OPEN_ZEROS = _module(
    (Series.zero(-2), Series.one(), Series.monomial(1, 2)),
    (_Z, _Z, Series.monomial(1, -2)),
    (_Z, _Z, _Z),
)


@settings(max_examples=300, deadline=None)
@given(_modules(), st.integers(2, 64))
@example(_NARROW_RAISES, 24)
@example(_NARROW_EARLY, 8)
@example(_NARROW_OPEN_ZEROS, 3)
def test_katz_narrow_window_matches_doubling(module, n_max):
    """Running a window of 4 first gives the doubling schedule's estimate
    and diagnostics, or its PrecisionError text."""
    assert _outcome(katz_rank_spectral, module, n_max) == _outcome(
        _katz_doubling, module, n_max
    )


def test_katz_narrow_window_falls_back(monkeypatch):
    """When the narrow run raises or stops early, katz_rank_spectral runs
    the doubling schedule from keep = 16, and returns its full run."""
    keeps = []
    real_run = diff_mod._katz_run

    def recording_run(*args):
        keeps.append(args[-1])
        return real_run(*args)

    monkeypatch.setattr(diff_mod, "_katz_run", recording_run)
    for m, n_max, vals in (
        (_NARROW_RAISES, 24, [-3, -2, -4, -4, -5, -5]),
        (_NARROW_EARLY, 8, [0, 6, 6, 6, 6, 6]),
    ):
        keeps.clear()
        _, diag = katz_rank_spectral(m, n_max)
        assert keeps == [4, 16]
        assert diag["valuations"][:6] == vals and len(diag["valuations"]) == n_max


# -- the Series-based lattice growth, kept as the reference ------------------------
# The elimination of _reduce_columns on Series entries with rational
# coefficients, every product and sum following Series precision.  Each
# column taken in or formed is cut at x^1 to its representative, as
# _reduce_columns does; given a floor, it is instead truncated there, the
# rule that came before, which the one-sided test below keeps as an oracle.
# The basis is mapped by the Katz reference's step, whose exact zero factor
# costs no precision; _ref_series_image, Series arithmetic with no such
# exemption, is the floor rule's image and a second one-sided oracle.


def _ref_safe_valuation(s):
    try:
        return s.valuation()
    except PrecisionError:
        if s.prec is not None and s.prec >= 1:
            return None
        raise


def _ref_safely_zero(s):
    return s.is_zero() and (s.prec is None or s.prec >= 1)


def _ref_shift(s, k):
    """s times x^k."""
    return Series(s.vmin + k, s.coeffs, None if s.prec is None else s.prec + k)


def _ref_representative(s):
    """s cut at x^1: its terms below x^1, exact, when s is known to x^1
    or beyond; s itself otherwise."""
    if s.prec is not None and s.prec < 1:
        return s
    t = s.truncate(1)
    return Series(t.vmin, t.coeffs)


def _ref_reduce_columns(cols, r, cut):
    active = []
    for c in cols:
        col = [cut(e) for e in c]
        if not all(_ref_safely_zero(e) for e in col):
            active.append(col)
    rows_left = list(range(r))
    pivots = []
    total = 0
    while rows_left:
        best = None
        for ci, col in enumerate(active):
            for row in rows_left:
                v = _ref_safe_valuation(col[row])
                if v is not None and (best is None or v < best[0]):
                    best = (v, row, ci)
        if best is None:
            raise PrecisionError("column reduction ran out of certified pivots")
        v, row, ci = best
        pivot = active.pop(ci)
        u = _ref_shift(pivot[row], -v)
        for col in active:
            e = col[row]
            if _ref_safe_valuation(e) is None:
                continue
            f = _ref_shift(e, -v)
            for i in range(r):
                col[i] = cut(col[i] * u - f * pivot[i])
        rows_left.remove(row)
        pivots.append(pivot)
        total += v
        active = [c for c in active if not all(_ref_safely_zero(e) for e in c)]
    return total, pivots


def _ref_identity_cols(r):
    return [[Series.one() if i == j else Series.zero() for i in range(r)] for j in range(r)]


def _ref_series_image(a, cols):
    """The columns of a N + delta(N) by Series arithmetic alone: a
    product with an exact zero factor is known only as far as the other
    factor is."""
    r = len(a)
    return [
        [sum((a[i][k] * col[k] for k in range(r)), col[i].dlog_derivative()) for i in range(r)]
        for col in cols
    ]


def _ref_gl_run(a, r, n_max, floor=None, identity=False, image=_ref_power_step):
    """The lattice growth on Series, mapping the basis by image and
    cutting at x^1, or at the floor when one is given; identity=True is
    the first form, which also reduces the identity columns at every step
    and runs all n_max steps."""
    dims = []
    basis = _ref_identity_cols(r)
    cut = _ref_representative
    for step in range(n_max):
        gens = (_ref_identity_cols(r) if identity else []) + basis + list(image(a, basis))
        if floor is not None:
            vmin = min((e.valuation_or(0) or 0) for col in gens for e in col)
            prec = floor + max(0, -vmin)
            cut = lambda s: s.truncate(prec)
        total, basis = _ref_reduce_columns(gens, r, cut)
        dims.append(-total)
        if not identity and dims[-1] == (dims[-2] if step else 0):
            dims += dims[-1:] * (n_max - len(dims))
            break
    increments = [dims[0]] + [b - a2 for a2, b in zip(dims, dims[1:])]
    quarter = max(1, n_max // 4)
    tail = increments[-quarter:]
    stabilized = all(t == tail[0] for t in tail)
    return tail[-1], stabilized, {"dims": dims, "increments": increments}


def _ref_check_input(a):
    """The input check that precedes any run: an entry zero only below
    x^p, p < 1, is rejected before any lattice is grown."""
    open_precs = [
        e.prec
        for row in a
        for e in row
        if e.prec is not None and e.prec < 1 and e.is_zero()
    ]
    if open_precs:
        raise PrecisionError(
            "lattice growth indeterminate: an entry is zero only below "
            f"x^{min(open_precs)}, under x^1"
        )


def _ref_gerard_levelt(module, n_max, image=_ref_power_step):
    """One run at x^1, its PrecisionError naming the input's precision."""
    a, r = module.matrix, module.rank
    _ref_check_input(a)
    try:
        return _ref_gl_run(a, r, n_max, image=image)
    except PrecisionError as exc:
        raise PrecisionError(
            f"lattice growth indeterminate: the input's own precision ran out ({exc})"
        ) from exc


def _floor_gerard_levelt(module, n_max, identity=False):
    """The floor rule: runs at the floor h (n_max + 2) + 8, h the largest
    pole order of A, doubled after each PrecisionError."""
    a, r = module.matrix, module.rank
    _ref_check_input(a)
    h = max(0, -(_matrix_min_valuation(a) or 0))
    return diff_mod._doubling_retry(
        lambda floor: _ref_gl_run(a, r, n_max, floor, identity, _ref_series_image),
        "floor",
        h * (n_max + 2) + 8,
    )


# random draws in which one side of a product's precision in the
# elimination step decides the outcome: prec(col) and prec(u) + v(col) of
# col u, and prec(pivot) + v(f) of f pivot
_ELIMINATION_PRECISION = [
    _module(
        (_S(2, [Fraction(-1, 4), 1]), _Z, _Z),
        (Series.zero(2), _Z, _S(1, [1])),
        (_S(-2, [1]), _S(1, [Fraction(-1, 3)]), _S(2, [Fraction(1, 3), Fraction(-3, 2)])),
    ),
    _module(
        (_S(-3, [-1, 3, -1]), _Z, _Z),
        (_S(-3, [-1, 0, Fraction(3, 4)]), _Z, _S(2, [Fraction(-3, 4), 1, 3, Fraction(3, 4)], 8)),
        (_Z, _S(-2, [-1, Fraction(1, 2)], 1), Series.zero(1)),
    ),
    _module(
        (_S(-1, [Fraction(-1, 2)]), _Z, _S(0, [1], 3)),
        (
            _S(-3, [Fraction(-3, 2), Fraction(-3, 2), -1]),
            _S(1, [Fraction(3, 4), 1]),
            Series.zero(2),
        ),
        (_Z, _S(1, [Fraction(1, 3)], 2), _S(0, [1, -1, -1], 6)),
    ),
]


# a nonzero entry known only below x^0, which leaves the second
# reduction a zero entry known only below x^0 whatever the cut
_OPEN_NONZERO = _module((Series.monomial(1, -1), _S(-1, [1], 0)), (_Z, Series.monomial(1, -1)))
# x^-1 + O(x^0) beside exact zeros: Series arithmetic gives its products
# with them, and so the images, zero entries known only below x^0
_EXACT_ZERO_FACTOR = _module((_Z, _Z), (_Z, _S(-1, [1], 0)))


@settings(max_examples=150, deadline=None)
@given(_modules())
@example(_ELIMINATION_PRECISION[0])
@example(_ELIMINATION_PRECISION[1])
@example(_ELIMINATION_PRECISION[2])
@example(_module((Series.monomial(1, -1), _Z), (_Z, Series.zero(-3))))
@example(_OPEN_NONZERO)
@example(_EXACT_ZERO_FACTOR)
@example(companion(op(-2, None, -1)))
def test_gerard_levelt_matches_series_reference(module):
    """The integer lattice growth returns the Series elimination's
    (irregularity, stabilized, diagnostics), or raises PrecisionError with
    the same text."""
    assert _outcome(gerard_levelt_irregularity, module, 12) == _outcome(
        _ref_gerard_levelt, module, 12
    )


def test_gerard_levelt_certifies_what_the_floor_could_not():
    """The first elimination-precision module: the floor rule runs out of
    precision at every floor, while the exact representatives certify
    irregularity 0, V_2 = V_1 of index 3."""
    m = _ELIMINATION_PRECISION[0]
    with pytest.raises(PrecisionError, match="after 5 attempts"):
        _floor_gerard_levelt(m, 12)
    ir, stabilized, diag = gerard_levelt_irregularity(m, 12)
    assert (ir, stabilized) == (0, True)
    assert diag["dims"] == [2] + [3] * 11
    for extra in ([], [1], [Fraction(-2, 3), 0, 5]):
        completed = _module(*[[_completion(e, extra) for e in row] for row in m.matrix])
        assert gerard_levelt_irregularity(completed, 12) == (ir, stabilized, diag)


@settings(max_examples=150, deadline=None)
@given(_modules())
@example(_ELIMINATION_PRECISION[1])
@example(_CANCELLING)
@example(companion(op(-2, None, -1)))
def test_gerard_levelt_returns_where_the_floor_rule_returns(module):
    """Wherever the floor rule returns, lattice growth on exact
    representatives returns the same irregularity, verdict, dims and
    increments."""
    try:
        expected = _floor_gerard_levelt(module, 12)
    except PrecisionError:
        return
    assert gerard_levelt_irregularity(module, 12) == expected


@settings(max_examples=150, deadline=None)
@given(_modules())
@example(_ELIMINATION_PRECISION[0])
@example(_ELIMINATION_PRECISION[1])
@example(_OPEN_NONZERO)
@example(_CANCELLING)
@example(companion(op(-2, None, -1)))
def test_gerard_levelt_returns_where_the_series_rule_returns(module):
    """Wherever the lattice growth by Series arithmetic alone returns,
    the growth whose exact zero factors cost no precision returns the same
    irregularity, verdict, dims and increments."""
    try:
        expected = _ref_gerard_levelt(module, 12, _ref_series_image)
    except PrecisionError:
        return
    assert gerard_levelt_irregularity(module, 12) == expected


def test_gerard_levelt_exact_zeros_keep_precision():
    """A product with an exact zero factor is exactly zero, so the images
    of x^-1 + O(x^0) beside exact zeros stay exact where Series arithmetic
    leaves them zero only below x^0: irregularity 1 on every completion,
    as Katz's estimate gives."""
    m = _EXACT_ZERO_FACTOR
    with pytest.raises(PrecisionError, match="precision O\\(x\\^0\\)"):
        _ref_gerard_levelt(m, 12, _ref_series_image)
    ir, stabilized, diag = gerard_levelt_irregularity(m, 12)
    assert (ir, stabilized) == (1, True)
    assert diag["dims"] == list(range(1, 13))
    assert katz_rank_spectral(m)[0] == 1
    for extra in ([], [1], [Fraction(-2, 3), 0, 5]):
        completed = _module(*[[_completion(e, extra) for e in row] for row in m.matrix])
        assert gerard_levelt_irregularity(completed, 12) == (ir, stabilized, diag)


def _completion(s, extra):
    """An exact series equal to s below its precision, with the terms
    extra from x^prec on."""
    if s.prec is None:
        return s
    terms = dict(enumerate(s.coeffs, s.vmin))
    terms.update(enumerate(extra, s.prec))
    lo = min(terms, default=0)
    return _S(lo, [terms.get(k, 0) for k in range(lo, max(terms, default=-1) + 1)])


@settings(max_examples=150, deadline=None)
@given(_modules(), st.lists(st.lists(_coeff, max_size=3), min_size=18, max_size=18))
@example(_EXACT_ZERO_FACTOR, [[k] for k in range(18)])
def test_gerard_levelt_holds_on_exact_completions(module, tails):
    """Completion oracle: wherever lattice growth returns on a module with
    truncated entries, it returns the same on exact completions of it,
    two of them, each entry's terms from x^prec on taken from tails."""
    try:
        expected = gerard_levelt_irregularity(module, 12)
    except PrecisionError:
        return
    if all(e.prec is None for row in module.matrix for e in row):
        return
    tails = iter(tails)
    for _ in range(2):
        completed = DifferentialModule(
            tuple(tuple(_completion(e, next(tails)) for e in row) for row in module.matrix)
        )
        assert gerard_levelt_irregularity(completed, 12) == expected


@settings(max_examples=150, deadline=None)
@given(_modules())
@example(companion(op(-2, None, -1)))
@example(_CANCELLING)
@example(_module((Series.monomial(2, 0), _Z), (Series.one(), Series.monomial(1, 1))))
# regular singular with a pole: V_1 gains x^-2 e_1, and V_2 = V_1
@example(_module((_Z, Series.monomial(1, -2)), (_Z, _Z)))
def test_gerard_levelt_values_match_identity_generators(module):
    """Wherever the first form of the lattice growth returns, reducing the
    identity columns at every step and running all 12 steps at the floor
    rule, the growth from the basis and its images, stopped at its fixed
    point, returns the same irregularity, verdict, dims and increments."""
    try:
        expected = _floor_gerard_levelt(module, 12, identity=True)
    except PrecisionError:
        return
    assert gerard_levelt_irregularity(module, 12) == expected


# Companion modules of the criterion-6 operators, orders 1 to 4, with
# a_i = c_i x^(v_i): the unit entries of the subdiagonal, monomials with
# coefficients +-1 and beyond, and the long stride-2 supports that order 4
# grows, which the random draws above seldom give.
_COEFFS = (1, -2, 3, -1)


def _criterion_6_module(vals):
    return companion(
        DifferentialOperator(
            tuple(
                Series.zero() if v is None else Series.monomial(c, v)
                for c, v in zip(_COEFFS, vals)
            )
        )
    )


@pytest.mark.parametrize("vals", DIFF_FIXTURES, ids=str)
def test_criterion_6_matches_series_reference(vals):
    """On every criterion-6 operator the integer Katz powers and lattice
    growth give the Series references' results."""
    m = _criterion_6_module(vals)
    assert _int_katz_run(m, 64, 12, 16) == _ref_katz_run(m, 64, 12, 16)
    assert gerard_levelt_irregularity(m, 12) == _ref_gerard_levelt(m, 12)
