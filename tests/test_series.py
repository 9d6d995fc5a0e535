import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slopes import diff, phi
from slopes.series import PrecisionError, Series, _integer_matrix, _window, trim


def ser(vmin, *coeffs):
    return Series.from_coeffs(vmin, [Fraction(c) for c in coeffs])


series_strategy = st.builds(
    ser,
    st.integers(min_value=-4, max_value=3),
    *(st.fractions(max_denominator=8) for _ in range(3)),
)


def test_valuation_and_zero():
    assert ser(-2, 0, 3).valuation() == -1
    assert ser(0, 0, 0).valuation() is None
    with pytest.raises(PrecisionError):
        Series(0, (Fraction(0),), prec=1).valuation()


def test_coeff_window():
    s = ser(-1, 1, 2).truncate(3)
    assert s.coeff(-1) == 1
    assert s.coeff(2) == 0
    with pytest.raises(PrecisionError):
        s.coeff(3)


@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    assert (a + b).eq_to_precision(b + a)
    assert (a * b).eq_to_precision(b * a)
    assert ((a + b) * c).eq_to_precision(a * c + b * c)
    assert (a * (b * c)).eq_to_precision((a * b) * c)


@given(series_strategy)
def test_dlog_derivative_raises_no_valuation(a):
    d = a.dlog_derivative()
    va, vd = a.valuation_or(None), d.valuation_or(None)
    if vd is not None:
        assert va is not None and vd >= va


@given(series_strategy, st.integers(min_value=-3, max_value=3))
def test_dilation_is_isometry(a, e):
    q = Fraction(2) ** e * 3  # any nonzero rational
    assert a.dilate(q).valuation_or(None) == a.valuation_or(None)


@given(series_strategy)
def test_inverse_roundtrip(a):
    if a.valuation_or(None) is None:
        return
    inv = a.inverse(6)
    prod = a * inv
    assert prod.coeff(0) == 1
    assert prod.eq_to_precision(Series.one(), 6)


def test_mul_precision_propagates():
    a = Series(0, (Fraction(1),), prec=5)
    b = ser(-2, 1)
    assert (a * b).prec == 3
    # a zero known only below x^-2 may start there: O(x^-2) O(x^-2) = O(x^-4)
    assert (Series.zero(-2) * Series.zero(-2)).prec == -4
    assert (Series.zero(3) * Series.zero(-2)).prec == -2


def test_truncate_precision():
    s = ser(0, 1, 1, 1).truncate(2)
    assert s.prec == 2
    assert len(s.coeffs) == 2


def test_json_roundtrip():
    s = Series(-1, (Fraction(1), Fraction(0), Fraction(-2)), prec=7)
    t = Series.from_json(s.to_json())
    assert t.eq_to_precision(s) and t.prec == 7


truncated_strategy = st.builds(
    lambda s, extra: s if extra is None else s.truncate(s.vmin + extra),
    series_strategy,
    st.one_of(st.none(), st.integers(min_value=-1, max_value=4)),
)


@given(series_strategy, st.fractions(min_value=-5, max_value=5).filter(bool))
def test_dilate_matches_termwise(a, q):
    d = a.dilate(q)
    assert d.prec == a.prec
    for i, c in enumerate(a.coeffs):
        assert d.coeff(a.vmin + i) == c * q ** (a.vmin + i)


def normal_form(vmin, coeffs, prec):
    """(vmin, coeffs, prec) with no leading or trailing zero coefficient,
    and the zero series at vmin 0."""
    out = list(coeffs)
    while out and out[0] == 0:
        out.pop(0)
        vmin += 1
    while out and out[-1] == 0:
        out.pop()
    return (vmin if out else 0), tuple(out), prec


def reference_inverse(s, prec):
    """Termwise Fraction recurrence for the inverse: (vmin, coeffs, prec)."""
    v = s.valuation()
    if v is None:
        raise ZeroDivisionError("inverse of the zero series")
    nterms = prec + v
    if nterms <= 0:
        return 0, (), prec
    if s.prec is not None and s.prec - v < nterms:
        raise PrecisionError("not enough terms")
    lead = s.coeffs[0]
    u = [c / lead for c in s.coeffs] + [Fraction(0)] * nterms
    inv = [Fraction(1)]
    for k in range(1, nterms):
        inv.append(-sum((u[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0)))
    return -v, tuple(c / lead for c in inv), prec


def random_window(rng, max_len=8):
    """Coefficients with frequent zeros (leading, inner and trailing)."""
    coeffs = [
        Fraction(0)
        if rng.random() < 0.35
        else Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 9, 12]))
        for _ in range(rng.randint(0, max_len))
    ]
    vmin = rng.randint(-5, 4)
    prec = None if rng.random() < 0.5 else vmin + rng.randint(-1, len(coeffs) + 3)
    return Series(vmin, tuple(coeffs), prec)


def outcome(fn):
    try:
        r = fn()
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc)
    return normal_form(*r) if isinstance(r, tuple) else (r.vmin, r.coeffs, r.prec)


def test_inverse_matches_fraction_recurrence():
    rng = random.Random(11)
    seen = set()
    for _ in range(3000):
        s = random_window(rng)
        prec = rng.randint(-8, 16)
        want = outcome(lambda: reference_inverse(s, prec))
        got = outcome(lambda: s.inverse(prec))
        assert got == want, (s, prec)
        if isinstance(got, tuple):
            assert all(type(c) is Fraction for c in got[1])
            seen.add("empty" if not got[1] else "terms")
        else:
            seen.add(got)
    assert seen == {"empty", "terms", PrecisionError, ZeroDivisionError}
    with pytest.raises(ZeroDivisionError):
        Series.zero().inverse(3)
    with pytest.raises(PrecisionError):
        Series(0, (Fraction(0),), prec=2).inverse(3)
    with pytest.raises(PrecisionError):
        Series(-1, (Fraction(2), Fraction(1)), prec=1).inverse(4)


@given(
    truncated_strategy.filter(lambda s: s.valuation_or(None) is not None),
    st.integers(min_value=-2, max_value=8),
)
def test_inverse_times_self_is_one(s, p):
    try:
        inv = s.inverse(p)
    except PrecisionError:
        return
    prod = s * inv
    assert prod.eq_to_precision(Series.one(), p)


def reference_add(a, b):
    """(vmin, coeffs, prec) of a + b: a dense Fraction window summed term by
    term, cut at the precision and trimmed; an empty operand passes the
    other through, cut and trimmed."""
    prec = a.prec if b.prec is None else b.prec if a.prec is None else min(a.prec, b.prec)
    if not a.coeffs or not b.coeffs:
        s = b if not a.coeffs else a
        cut = s.coeffs[: None if prec is None else max(0, prec - s.vmin)]
        return normal_form(s.vmin, cut, prec)
    lo = min(a.vmin, b.vmin)
    hi = max(a.vmin + len(a.coeffs), b.vmin + len(b.coeffs))
    if prec is not None:
        hi = max(lo, min(hi, prec))
    out = [
        sum((s.coeffs[k - s.vmin] for s in (a, b) if 0 <= k - s.vmin < len(s.coeffs)), Fraction(0))
        for k in range(lo, hi)
    ]
    return normal_form(lo, out, prec)


def reference_mul(a, b):
    """(vmin, coeffs, prec) of a * b: every term product summed into a
    dense Fraction window, cut at the precision and trimmed.  The product
    is known below min(prec_a + v(b), prec_b + v(a)) over the finite
    precisions, where a factor zero as stored to precision p counts
    v = min(0, p): its unknown terms may start at x^p."""
    va = next((a.vmin + i for i, c in enumerate(a.coeffs) if c), min(0, a.prec or 0))
    vb = next((b.vmin + j for j, c in enumerate(b.coeffs) if c), min(0, b.prec or 0))
    precs = [p + v for p, v in ((a.prec, vb), (b.prec, va)) if p is not None]
    prec = min(precs) if precs else None
    lo = a.vmin + b.vmin
    hi = lo + len(a.coeffs) + len(b.coeffs) - 1
    if prec is not None:
        hi = min(hi, prec)
    out = [Fraction(0)] * max(0, hi - lo)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            if i + j < len(out):
                out[i + j] += ca * cb
    return normal_form(lo, out, prec)


def test_add_matches_termwise():
    rng = random.Random(12)
    for _ in range(3000):
        a, b = random_window(rng), random_window(rng)
        for got, want in ((a + b, reference_add(a, b)), (a - b, reference_add(a, -b))):
            assert (got.vmin, got.coeffs, got.prec) == want, (a, b)
            assert all(type(c) is Fraction for c in got.coeffs)


@st.composite
def _stored_windows(draw):
    """Empty, zero-as-stored and rational windows with leading, inner and
    trailing zeros, exact or truncated inside or beyond the window."""
    digits = st.sampled_from([0, 0, 1, -1, Fraction(3, 2), Fraction(-5, 4)])
    coeffs = draw(st.lists(digits, max_size=6))
    vmin = draw(st.integers(-4, 4))
    prec = draw(st.one_of(st.none(), st.integers(vmin - 1, vmin + len(coeffs) + 2)))
    return Series(vmin, tuple(Fraction(c) for c in coeffs), prec)


@given(_stored_windows(), _stored_windows())
def test_sub_is_add_of_negation(a, b):
    """a - b is formed without negating b, and gives the (vmin, coeffs,
    prec) of a + (-b), trim included."""
    got, want = a - b, a + (-b)
    assert (got.vmin, got.coeffs, got.prec) == (want.vmin, want.coeffs, want.prec)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=300, deadline=None)
@given(_stored_windows(), _stored_windows())
def test_mul_matches_schoolbook(a, b):
    """a * b has the exact (vmin, coeffs, prec) of the dense termwise
    Fraction product: every known term, and the precision rule, over
    zero factors exact and truncated and precisions inside and beyond
    the window."""
    p = a * b
    assert (p.vmin, p.coeffs, p.prec) == reference_mul(a, b), (a, b)
    assert all(type(c) is Fraction for c in p.coeffs)


def _is_normal(v, coeffs):
    """No leading or trailing zero stored, and the zero series at vmin 0:
    checked by trim and directly."""
    direct = coeffs[0] != 0 and coeffs[-1] != 0 if coeffs else v == 0
    return direct and trim(v, coeffs) == (v, coeffs)


_digit = st.sampled_from([0, 0, 1, -1, Fraction(3, 2), Fraction(-5, 4)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_stored_windows(), min_size=4, max_size=4), st.data())
def test_every_series_and_window_is_normal(abcd, data):
    """Every Series the constructors, from_json and the arithmetic form is
    in normal form, and so is every integer window or entry that phi and
    diff form, whatever zeros the inputs were written with."""
    a, b, c, d = abcd
    k = data.draw(st.integers(-4, 6))
    q = data.draw(st.sampled_from([Fraction(2), Fraction(-2, 3)]))
    stored = data.draw(st.lists(_digit, max_size=5))
    prec = data.draw(st.none() | st.integers(k - 1, k + 6))
    doc = {"vmin": k, "c": [str(x) for x in stored]}
    if prec is not None:
        doc["prec"] = prec
    series = [
        Series(k, tuple(Fraction(x) for x in stored), prec),
        Series.zero(prec),
        Series.one(),
        Series.monomial(data.draw(_digit), k, prec),
        Series.from_coeffs(k, stored, prec),
        Series.from_json(doc),
        a + b,
        a - b,
        a * b,
        -a,
        a.dilate(q),
        a.truncate(k),
        a.scale(data.draw(_digit)),
    ]
    try:
        series.append(a.inverse(k))
    except (PrecisionError, ZeroDivisionError):
        pass
    for s in series:
        assert _is_normal(s.vmin, s.coeffs), s

    # phi: windows of Series, a monomial, merges and twisted product-sums
    wins = [_window(s) for s in abcd]
    num = data.draw(st.integers(-6, 6).filter(bool))
    den = data.draw(st.sampled_from([3, -2]))
    mono = phi._monomial(num, den, k, data.draw(st.integers(k - 1, k + 2)))
    res = wins[:3]
    phi._sub_products(res, [(wins[:2], wins[2:]), (wins[2:], [mono])], phi._Dilation(q))
    merged = [phi._merge(wins[0], mono), phi._merge(wins[1], (0, [], 1, k))]
    formed = wins + res + [mono] + merged
    for w in formed:
        assert _is_normal(w[0], w[1]), w

    # diff: the integer matrix, a Katz power step and a column reduction
    n, den = _integer_matrix([[a, b], [c, d]])
    entries = [e for row in n for e in row]
    # Katz cuts the columns of B_n to a window above its valuation before
    # each step
    cols = [list(col) for col in zip(*n)]
    b = [[diff._cut(e, k + 4) for e in col] for col in cols]
    step = diff._power_step(diff._sparse_rows(n), b, den)
    entries += [e for col in step for e in col]
    cols += step
    try:
        _, pivots = diff._reduce_columns(cols, 2)
    except PrecisionError:
        pivots = []
    entries += [e for col in pivots for e in col]
    for e in entries:
        assert _is_normal(e[0], e[1]), e


def test_normal_form_equality():
    """Two ways of writing one series are one Series."""
    assert Series(0, (0, 1)) == Series(1, (1,))
    assert Series(3, (0,)) == Series.zero() and Series(-2, (0, 0), 5) == Series.zero(5)
    assert hash(Series(-1, (0, 2, 0))) == hash(Series.monomial(2, 0))
