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
