import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slopes import phi
from slopes.degrees import SlopeError
from slopes.phi import (
    PhiMatrix,
    TwistError,
    TwistSpec,
    TwistedPolynomial,
    cyclic_form,
    diagonal_phi,
    dm_degree,
    dm_slope,
    fil_phi_degree,
    np_diagonal,
    np_of_poly,
    np_twisted,
    slope_factor,
    tensor_phi,
    twisted_mul,
)
from slopes.polygon import DIRECT_SUM, DUAL, TENSOR_MULT, polygon_combine
from slopes.series import PrecisionError, Series

Q2 = TwistSpec(Fraction(2))
ONE = Series.one()


def mono(c, k):
    return Series.monomial(c, k)


def poly(coeffs, twist=Q2):
    return TwistedPolynomial(tuple(coeffs), twist)


def test_twist_validation():
    with pytest.raises(TwistError):
        TwistSpec(0)
    with pytest.raises(TwistError):
        TwistSpec(1)
    with pytest.raises(TwistError):
        TwistSpec(-1)


def test_twisted_mul_example():
    # (phi - x^-1)(phi - 1) = phi^2 - (1 + x^-1) phi + x^-1
    p = poly([mono(-1, -1), ONE])
    q = poly([mono(-1, 0), ONE])
    prod = twisted_mul(p, q)
    assert prod.coeff(0).eq_to_precision(mono(1, -1))
    assert prod.coeff(1).eq_to_precision(Series.from_coeffs(-1, [-1, -1]))
    assert prod.coeff(2).eq_to_precision(ONE)


def test_twisted_mul_unit_and_twist_rule():
    p = poly([mono(1, -2), mono(1, 3), ONE])
    unit = poly([ONE])
    assert all(
        a.eq_to_precision(b)
        for a, b in zip(twisted_mul(p, unit).coeffs, p.coeffs)
    )
    # (phi - a)(phi - b) = phi^2 - (phi(b) + a) phi + a b for monomials
    a, b = mono(3, 1), mono(5, 2)
    prod = twisted_mul(poly([-a, ONE]), poly([-b, ONE]))
    assert prod.coeff(0).eq_to_precision(a * b)
    phi_b = b.dilate(Fraction(2))
    assert prod.coeff(1).eq_to_precision(-(phi_b + a))
    with pytest.raises(TwistError):
        twisted_mul(p, poly([ONE], TwistSpec(Fraction(3))))


def test_np_twisted_examples():
    got = np_twisted([-1, -1, 0])  # a_0, a_1, a_2
    assert got.to_json()["segments"] == [
        {"slope": "1", "mult": 1},
        {"slope": "0", "mult": 1},
    ]
    got = np_twisted([0, 1, 0])
    assert got.to_json()["segments"] == [{"slope": "0", "mult": 2}]
    with pytest.raises(SlopeError):
        np_twisted([None, None, 0])
    with pytest.raises(SlopeError):
        np_twisted([-1, -1, -1])  # not monic


def test_np_endpoint_is_constant_valuation():
    got = np_twisted([-5, -1, 0, 0])
    assert got.total_rank() == 3
    assert got.total_degree().value == 5


def single_slope_factor(rng, slope, twist=Q2):
    """Random monic linear factor phi - c x^-slope (unit c)."""
    c = Fraction(rng.randint(1, 5))
    if rng.random() < 0.5:
        c = -c
    return poly([mono(c, -slope)] + [ONE], twist)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_factor_roundtrip_random(seed):
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    slopes = rng.sample(range(-2, 4), k)
    factors = [single_slope_factor(rng, s) for s in slopes]
    prod = factors[0]
    for f in factors[1:]:
        prod = twisted_mul(prod, f)
    prod = prod.truncate(40)
    got = slope_factor(prod, 40)
    # slope multiset of the factors equals the polygon of the product
    got_slopes = sorted(
        np_of_poly(f).segments[0].reduced().deg.value for f in got
    )
    assert got_slopes == sorted(Fraction(s) for s in slopes)
    # ascending left to right
    assert got_slopes == [
        np_of_poly(f).segments[0].reduced().deg.value for f in got
    ]
    re = got[0]
    for f in got[1:]:
        re = twisted_mul(re, f)
    assert all(
        re.coeff(i).eq_to_precision(prod.coeff(i), 40)
        for i in range(prod.degree + 1)
    )


def test_factor_recovers_ordered_factors():
    """A product already in increasing slope order is its own slope
    factorization, so the factors come back exactly, at every exponent
    below the precision each coefficient claims."""
    for seed in range(60):
        rng = random.Random(seed)
        slopes = sorted(rng.sample(range(-2, 4), rng.choice((2, 3))))
        factors = [single_slope_factor(rng, s) for s in slopes]
        prod = factors[0]
        for f in factors[1:]:
            prod = twisted_mul(prod, f)
        got = slope_factor(prod.truncate(40), 40)
        assert [g.degree for g in got] == [f.degree for f in factors], seed
        for g, f in zip(got, factors):
            for gc, fc in zip(g.coeffs, f.coeffs):
                assert gc.eq_to_precision(fc), (seed, gc, fc)


def test_factor_lift_precision_errors(monkeypatch):
    """Both exits of the graded lift: a residual level that fails to rise,
    and the pass cap.  The s-Gauss valuation is stubbed to force each."""
    p = twisted_mul(poly([mono(-1, -1), ONE]), poly([mono(-1, 0), ONE]))
    monkeypatch.setattr(phi, "_gauss_val", lambda res, s: Fraction(0))
    with pytest.raises(PrecisionError, match="failed to increase"):
        slope_factor(p, 40)
    levels = itertools.count()
    monkeypatch.setattr(phi, "_gauss_val", lambda res, s: Fraction(next(levels)))
    with pytest.raises(PrecisionError, match="failed to converge"):
        slope_factor(p, 40)


def test_factor_known_example():
    p = twisted_mul(poly([mono(-1, -1), ONE]), poly([mono(-1, 0), ONE]))
    got = slope_factor(p, 40)
    assert len(got) == 2
    s0 = np_of_poly(got[0]).segments[0].reduced().deg.value
    s1 = np_of_poly(got[1]).segments[0].reduced().deg.value
    assert (s0, s1) == (0, 1)
    # canonical factors differ from the input pair (opposite slope order)
    assert not got[0].coeff(0).eq_to_precision(mono(-1, -1), 4)


def test_factor_single_slope_unchanged():
    p = poly([mono(1, -2), mono(1, -1), ONE])
    assert slope_factor(p, 40) == [p]


def random_monic(rng, deg):
    coeffs = [
        mono(Fraction(rng.randint(1, 4)) * rng.choice((1, -1)), rng.randint(-3, 2))
        for _ in range(deg)
    ]
    return poly(coeffs + [ONE])


def test_polygon_additivity_under_mul():
    rng = random.Random(11)
    for _ in range(10):
        a = single_slope_factor(rng, rng.randint(-1, 3))
        b = single_slope_factor(rng, rng.randint(-1, 3))
        prod = twisted_mul(a, b)
        want = polygon_combine(np_of_poly(a), np_of_poly(b), DIRECT_SUM)
        assert np_of_poly(prod).to_json() == want.to_json()
    # arbitrary monic polynomials, not just single-slope ones
    for _ in range(15):
        a = random_monic(rng, rng.randint(1, 3))
        b = random_monic(rng, rng.randint(1, 3))
        prod = twisted_mul(a, b)
        want = polygon_combine(np_of_poly(a), np_of_poly(b), DIRECT_SUM)
        assert np_of_poly(prod).to_json() == want.to_json()


def test_dm_degree_examples():
    d = diagonal_phi([mono(1, 1), ONE], Q2)
    assert dm_degree(d).value == -1
    assert dm_slope(d).reduced().deg.value == Fraction(-1, 2)
    assert dm_degree(diagonal_phi([ONE, ONE], Q2)).value == 0
    d2 = diagonal_phi([mono(1, -1), mono(1, -2)], Q2)
    assert dm_degree(d2).value == 3
    with pytest.raises(SlopeError):
        dm_degree(PhiMatrix(((Series.zero(),),), Q2))


def test_dm_tensor_law_diagonal():
    rng = random.Random(5)
    for _ in range(8):
        d1 = diagonal_phi(
            [mono(1, rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))], Q2
        )
        d2 = diagonal_phi(
            [mono(1, rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))], Q2
        )
        t = tensor_phi(d1, d2)
        assert (
            dm_degree(t).value
            == d2.rank * dm_degree(d1).value + d1.rank * dm_degree(d2).value
        )
        want = polygon_combine(np_diagonal(d1), np_diagonal(d2), TENSOR_MULT)
        assert np_diagonal(t).to_json() == want.to_json()


def test_dual_law_diagonal():
    d = diagonal_phi([mono(1, -2), mono(1, 1), ONE], Q2)
    inv = diagonal_phi([mono(1, 2), mono(1, -1), ONE], Q2)
    assert (
        np_diagonal(inv).to_json()
        == polygon_combine(np_diagonal(d), None, DUAL).to_json()
    )


def test_adams_sauloy_cyclic_form():
    m = PhiMatrix(
        (
            (mono(1, -1), mono(1, -1)),
            (Series.zero(), ONE),
        ),
        Q2,
    )
    cyc = cyclic_form(m)
    assert np_of_poly(cyc).to_json()["segments"] == [
        {"slope": "1", "mult": 1},
        {"slope": "0", "mult": 1},
    ]


def test_fil_phi_degree():
    assert fil_phi_degree(0, 0).value == 0
    assert fil_phi_degree(1, 1).value == 0
    assert fil_phi_degree(2, -1).value == 3


def test_factor_requires_monic():
    with pytest.raises(TwistError):
        slope_factor(poly([ONE, mono(2, 0)]), 10)
