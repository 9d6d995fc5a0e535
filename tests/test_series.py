import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slopes.series import PrecisionError, Series


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


@given(truncated_strategy, truncated_strategy)
def test_mul_matches_schoolbook(a, b):
    """Coefficients known in the product equal the termwise Fraction sums."""
    p = a * b
    for k in range(p.vmin, p.vmin + len(p.coeffs)):
        want = sum(
            (
                ca * cb
                for i, ca in enumerate(a.coeffs)
                for j, cb in enumerate(b.coeffs)
                if a.vmin + i + b.vmin + j == k
            ),
            Fraction(0),
        )
        assert p.coeff(k) == want
    assert all(type(c) is Fraction for c in p.coeffs)


@given(series_strategy, st.fractions(min_value=-5, max_value=5).filter(bool))
def test_dilate_matches_termwise(a, q):
    d = a.dilate(q)
    assert d.prec == a.prec
    for i, c in enumerate(a.coeffs):
        assert d.coeff(a.vmin + i) == c * q ** (a.vmin + i)


def reference_inverse(s, prec):
    """Termwise Fraction recurrence for the inverse: (vmin, coeffs, prec)."""
    v = s.valuation()
    if v is None:
        raise ZeroDivisionError("inverse of the zero series")
    t = s.trimmed()
    nterms = prec + v
    if nterms <= 0:
        return 0, (), prec
    if t.prec is not None and t.prec - v < nterms:
        raise PrecisionError("not enough terms")
    lead = t.coeffs[0]
    u = [c / lead for c in t.coeffs] + [Fraction(0)] * nterms
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
    return r if isinstance(r, tuple) else (r.vmin, r.coeffs, r.prec)


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
    other through uncut of zeros."""
    prec = a.prec if b.prec is None else b.prec if a.prec is None else min(a.prec, b.prec)
    if not a.coeffs or not b.coeffs:
        s = b if not a.coeffs else a
        return s.vmin, s.coeffs[: None if prec is None else max(0, prec - s.vmin)], prec
    lo = min(a.vmin, b.vmin)
    hi = max(a.vmin + len(a.coeffs), b.vmin + len(b.coeffs))
    if prec is not None:
        hi = max(lo, min(hi, prec))
    out = [
        sum((s.coeffs[k - s.vmin] for s in (a, b) if 0 <= k - s.vmin < len(s.coeffs)), Fraction(0))
        for k in range(lo, hi)
    ]
    while out and out[0] == 0:
        out.pop(0)
        lo += 1
    while out and out[-1] == 0:
        out.pop()
    return lo, tuple(out), prec


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
