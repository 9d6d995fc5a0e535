import collections
import itertools
import json
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from slopes import phi
from slopes.degrees import DegreeValue, SlopeError
from slopes.phi import (
    PhiMatrix,
    TwistError,
    TwistSpec,
    TwistedPolynomial,
    diagonal_phi,
    dm_degree,
    dm_slope,
    fil_phi_degree,
    np_diagonal,
    np_of_poly,
    np_phi_matrix,
    np_twisted,
    slope_factor,
    tensor_phi,
    twisted_mul,
)
from slopes.polygon import DIRECT_SUM, DUAL, TENSOR_MULT, polygon_combine
from slopes.series import PrecisionError, Series, _series

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


# -- the twisted product that forms every term, kept as the reference ------------


def _ref_twisted_mul(p, q):
    out = [Series.zero() for _ in range(p.degree + q.degree + 1)]
    for i, a in enumerate(p.coeffs):
        if a.is_zero() and a.prec is None:
            continue
        for j, b in enumerate(q.coeffs):
            term = a * (p.twist.apply(b, i) if a.coeffs else b)
            out[i + j] = out[i + j] + term
    return TwistedPolynomial(tuple(out), p.twist)


@st.composite
def _twisted_coeffs(draw):
    """Exact, zero-to-precision, exact-zero and truncated coefficients,
    stored with leading and trailing zeros as well as trimmed."""
    vmin = draw(st.integers(-3, 3))
    digits = st.sampled_from([0, 0, 1, -1, Fraction(3, 2), Fraction(-2, 3)])
    coeffs = draw(st.lists(digits, max_size=4))
    prec = draw(st.one_of(st.none(), st.integers(vmin - 1, vmin + 5)))
    return Series.from_coeffs(vmin, coeffs, prec)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_twisted_coeffs(), min_size=1, max_size=4),
    st.lists(_twisted_coeffs(), min_size=1, max_size=4),
    st.sampled_from([Fraction(2), Fraction(-1, 3)]),
)
def test_twisted_mul_matches_every_term_product(pc, qc, q):
    """Folding a product with a zero factor into the sum gives every
    output coefficient the (vmin, coeffs, prec) that forming it gives."""
    twist = TwistSpec(q)
    p, r = TwistedPolynomial(tuple(pc), twist), TwistedPolynomial(tuple(qc), twist)
    got, want = twisted_mul(p, r), _ref_twisted_mul(p, r)
    assert [(c.vmin, c.coeffs, c.prec) for c in got.coeffs] == [
        (c.vmin, c.coeffs, c.prec) for c in want.coeffs
    ]


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


def test_np_of_poly_open_coefficient():
    """phi^2 + a_1 phi + x^2 with a_1 zero only below x^p: the known points
    (0, 0) and (2, -2) put the hull at -1 over i = 1, so a_1 is certified
    absent for p >= 1 and leaves the polygon open for p < 1.  A constant
    term zero to precision stays a SlopeError."""
    def with_a1(a1):
        return poly([mono(1, 2), a1, ONE])

    for p in (1, 5):
        got = np_of_poly(with_a1(Series.zero(p)))
        assert got.to_json()["segments"] == [{"slope": "-1", "mult": 2}]
    for p in (0, -5):
        with pytest.raises(PrecisionError, match=f"a_1 is zero only below x\\^{p},"):
            np_of_poly(with_a1(Series.zero(p)))
    got = np_of_poly(with_a1(mono(1, -5)))
    assert [s["slope"] for s in got.to_json()["segments"]] == ["5", "-7"]
    with pytest.raises(SlopeError, match="constant coefficient"):
        np_of_poly(poly([Series.zero(3), mono(1, -1), ONE]))


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


# -- the Series lift, kept as the reference ----------------------------------------


def _ref_gauss_val(p, s):
    best = None
    for j, c in enumerate(p.coeffs):
        v = c.valuation_or(None)
        if v is None:
            continue
        w = Fraction(v) - s * j
        if best is None or w < best:
            best = w
    return best


def _ref_poly_add(p, q):
    d = max(p.degree, q.degree)
    return poly([p.coeff(i) + q.coeff(i) for i in range(d + 1)], p.twist)


def _ref_poly_sub(p, q):
    d = max(p.degree, q.degree)
    return poly([p.coeff(i) - q.coeff(i) for i in range(d + 1)], p.twist)


def _ref_split_once(p, prec):
    """The graded Hensel lift on Series, with three full twisted products
    a pass."""
    p = poly([phi._representative(c, prec) for c in p.coeffs], p.twist)
    segs = np_of_poly(p).segments
    lowest = segs[-1].reduced()
    second = segs[-2].reduced()
    m = segs[-1].rk
    n = p.degree
    s = (lowest.deg.value + second.deg.value) / 2
    twist = p.twist
    q = twist.q

    zero = Series.zero(prec)
    lser = [zero] * m + [Series.one()]
    cser = [zero] * (n - m + 1)
    cser[-1] = Series.one()
    cser[0] = twist.apply(p.coeff(m).truncate(prec), -m)
    lfac = poly(lser, twist)
    cfac = poly(cser, twist)

    uc = cfac.coeffs[0].valuation()
    alpha = cfac.coeffs[0].coeff(uc)

    def graded_solve(res, w):
        dl = [Series.zero(prec) for _ in range(m)]
        dc = [Series.zero(prec) for _ in range(n - m)]
        for j, cj in enumerate(res.coeffs):
            v = cj.valuation_or(None)
            if v is None or Fraction(v) - s * j != w:
                continue
            lead = cj.coeff(v)
            if j >= m:
                dc[j - m] = dc[j - m] + Series.monomial(
                    lead / q ** (m * v), v, prec
                )
            else:
                dl[j] = dl[j] + Series.monomial(
                    lead / (alpha * q ** (j * uc)), v - uc, prec
                )
        return (
            poly(dl + [Series.zero(prec)], twist),
            poly(dc + [Series.zero(prec)], twist),
        )

    pass_cap = 4 * (prec + int(abs(s)) * n + n + 8) * max(
        1, s.denominator, lowest.deg.value.denominator
    )
    res = _ref_poly_sub(p.truncate(prec), _ref_twisted_mul(lfac, cfac))
    w = _ref_gauss_val(res, s)
    for _ in range(pass_cap):
        if w is None:
            return lfac.truncate(prec), cfac.truncate(prec)
        dl, dc = graded_solve(res, w)
        res = _ref_poly_sub(
            res,
            _ref_poly_add(
                _ref_poly_add(_ref_twisted_mul(dl, cfac), _ref_twisted_mul(lfac, dc)),
                _ref_twisted_mul(dl, dc),
            ),
        )
        lfac = _ref_poly_add(lfac, dl)
        cfac = _ref_poly_add(cfac, dc)
        w_next = _ref_gauss_val(res, s)
        if w_next is not None and w_next <= w:
            raise PrecisionError("residual valuation failed to increase during lift")
        w = w_next
    raise PrecisionError("twisted factor lift failed to converge at this precision")


def _ref_slope_factor(p, precision):
    if len(np_of_poly(p).segments) <= 1:
        return [p]
    lfac, cfac = _ref_split_once(p, phi._lift_precision(p, precision))
    if len(np_of_poly(lfac).segments) != 1:
        raise PrecisionError("left factor polygon failed to be one-sloped")
    return [lfac] + _ref_slope_factor(cfac, precision)


def _factor_outcome(run, p, precision):
    try:
        return [f.to_json() for f in run(p, precision)]
    except (SlopeError, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


_TWISTS = [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5, 2)]
_lift_coeff = st.sampled_from(
    [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
)


@st.composite
def _one_slope_factor(draw, twist):
    """Monic phi^d + ... + a_0, d = 1 or 2, with a one-slope polygon: a_0
    of valuation -k, and for d = 2 an a_1 of valuation at least -k/2 or
    zero; a_0 and a_1 have up to three terms."""
    d = draw(st.integers(1, 2))
    k = draw(st.integers(-3, 4))
    a0 = Series.from_coeffs(
        -k, [draw(_lift_coeff)] + draw(st.lists(_lift_coeff | st.just(0), max_size=2))
    )
    coeffs = [a0]
    if d == 2:
        if draw(st.booleans()):
            v1 = -(k // 2) + draw(st.integers(0, 2))
            terms = draw(st.lists(_lift_coeff, min_size=1, max_size=3))
            coeffs.append(Series.from_coeffs(v1, terms))
        else:
            coeffs.append(Series.zero())
    return poly(coeffs + [ONE], twist)


@st.composite
def _lift_inputs(draw):
    twist = TwistSpec(draw(st.sampled_from(_TWISTS)))
    factors = draw(st.lists(_one_slope_factor(twist), min_size=2, max_size=3))
    prod = factors[0]
    for f in factors[1:]:
        prod = twisted_mul(prod, f)
    cut = draw(st.sampled_from([None, 30, 40, 60]))
    if cut is not None:
        # truncate every coefficient, or only the constant term
        if draw(st.booleans()):
            prod = prod.truncate(cut)
        else:
            prod = poly([prod.coeffs[0].truncate(cut)] + list(prod.coeffs[1:]), twist)
    if draw(st.booleans()):
        # store the coefficients with leading and trailing zeros
        prod = poly(
            [Series(c.vmin - 1, (0,) + c.coeffs + (0,), c.prec) for c in prod.coeffs],
            twist,
        )
    return prod, draw(st.sampled_from([20, 30, 40]))


@settings(max_examples=80, deadline=None)
@given(_lift_inputs())
def test_lift_matches_series_reference(case):
    """The integer lift returns the Series lift's factors, coefficient for
    coefficient in to_json(), or raises the same error with the same text,
    over rational twists and exact and truncated inputs."""
    p, precision = case
    assert _factor_outcome(slope_factor, p, precision) == _factor_outcome(
        _ref_slope_factor, p, precision
    )


@st.composite
def _lift_window(draw):
    """A window with stored leading and trailing zeros or in normal form,
    zero as stored, exact or known below a finite precision: _merge leaves
    its sum in normal form either way."""
    vmin = draw(st.integers(-4, 4))
    nums = draw(st.lists(st.integers(-6, 6) | st.just(0), max_size=5))
    prec = draw(st.just(math.inf) | st.integers(vmin - 1, vmin + 7))
    return (vmin, nums, draw(st.integers(1, 12)), prec)


@st.composite
def _lift_monomial(draw, q, prec):
    """A monomial as graded_solve forms one: (c q^-e)/d x^k known below
    prec, dropped at or beyond prec, or the zero window."""
    if draw(st.booleans()):
        return (0, [], 1, prec)
    qn, qd = phi._Dilation(q).power(draw(st.integers(-3, 3)))
    c = draw(st.integers(-6, 6).filter(bool))
    d = draw(st.integers(1, 12))
    k = draw(st.integers(-6, prec + 1 if prec != math.inf else 8))
    return phi._monomial(c * qd, d * qn, k, prec)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_matches_add(data):
    """Merging a pass's monomials into a window without the gcd division
    leaves every Series the lift reads off it as Series addition leaves
    it: a chain of merges and the chain of Series sums give the same
    Series at the working precision and exactly, and the merged window
    has the sum's vmin and length, over the twists q = 2, 1/2, -2/3."""
    q = data.draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-2, 3)]))
    prec = data.draw(st.integers(-2, 12))
    merged = data.draw(_lift_window())
    added = _series(merged)
    for _ in range(data.draw(st.integers(1, 4))):
        y = data.draw(_lift_monomial(q, data.draw(st.sampled_from([prec, math.inf]))))
        merged, added = phi._merge(merged, y), added + _series(y)
        for cut in (prec, math.inf):
            want = added if cut == math.inf else added.truncate(cut)
            assert _series(merged, cut) == want
        assert merged[0] == added.vmin and len(merged[1]) == len(added.coeffs)


def test_lift_calls_its_traced_names(monkeypatch):
    """The names the benchmark trace wraps stay live: slope_factor enters
    _split_once once through the module global, the lift calls _gauss_val
    once per pass (92 passes at precision 40 on this slopes -1, 0 shape),
    and forms no Series product and no twisted_mul per pass."""
    p = twisted_mul(poly([mono(2, 0), ONE]), poly([mono(-3, 1), ONE])).truncate(40)
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(phi, "_split_once", counting("split", phi._split_once))
    monkeypatch.setattr(phi, "_gauss_val", counting("gauss", phi._gauss_val))
    monkeypatch.setattr(phi, "twisted_mul", counting("twisted_mul", phi.twisted_mul))
    monkeypatch.setattr(Series, "__mul__", counting("series_mul", Series.__mul__))
    seen = []
    for precision in (40, 80):
        counts.clear()
        assert len(slope_factor(p, precision)) == 2
        seen.append(dict(counts))
    assert [c["split"] for c in seen] == [1, 1]
    assert [c["gauss"] for c in seen] == [93, 173]  # passes + 1
    for name in ("twisted_mul", "series_mul"):
        assert seen[0].get(name, 0) == seen[1].get(name, 0), name


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


def test_dm_degree_exact_singular():
    x = mono(1, 1)
    with pytest.raises(SlopeError, match="determinant is zero"):
        dm_degree(PhiMatrix(((ONE, x), (x, x * x)), Q2))


def _dense(rng, n):
    return PhiMatrix(
        tuple(
            tuple(
                Series.from_coeffs(
                    rng.randint(-2, 2),
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)],
                )
                for _ in range(n)
            )
            for _ in range(n)
        ),
        Q2,
    )


def test_dm_tensor_law_dense():
    """v(det(A (x) B)) = rank(B) v(det A) + rank(A) v(det B) on dense
    rank-3 and rank-4 matrices."""
    rng = random.Random(12)
    for _ in range(3):
        a, b = _dense(rng, 3), _dense(rng, 4)
        assert dm_degree(a).value == -_series_det(a.entries).valuation()
        assert (
            dm_degree(tensor_phi(a, b)).value
            == 4 * dm_degree(a).value + 3 * dm_degree(b).value
        )


# -- the Laplace expansion, kept as the reference ----------------------------------


def _series_det(m) -> Series:
    n = len(m)
    if n == 0:
        return Series.one()
    if n == 1:
        return m[0][0]
    total = Series.zero()
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = m[0][j] * _series_det(minor)
        if j % 2:
            term = -term
        total = total + term
    return total


def _ref_dm_degree(m: PhiMatrix):
    v = _series_det(m.entries).valuation()
    if v is None:
        raise SlopeError("matrix determinant is zero; degree undefined")
    return DegreeValue.rational(-v)


def _outcome(run, m):
    try:
        return ("value", run(m).value)
    except (SlopeError, PrecisionError) as exc:
        return (type(exc).__name__,)


def _completion(m: PhiMatrix, rnd) -> PhiMatrix:
    """An exact matrix that agrees with m wherever m is known."""

    def complete(e):
        if e.prec is None:
            return e
        tail = Series.from_coeffs(e.prec, [rnd.randint(-3, 3) for _ in range(3)])
        return Series(e.vmin, e.coeffs) + tail

    return PhiMatrix(tuple(tuple(complete(e) for e in row) for row in m.entries), m.twist)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _phi_cases(draw):
    """(kind, matrix) of rank 1-4: exact, every entry known to one
    precision, or a mix of exact and truncated entries; an exact matrix
    may have its last row a multiple of its first."""
    r = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["exact", "uniform", "mixed"]))
    uniform = draw(st.integers(-2, 4))

    def entry():
        vmin = draw(st.integers(-2, 2))
        coeffs = draw(st.lists(_coeff, max_size=3))
        if kind == "exact":
            prec = None
        elif kind == "uniform":
            prec = uniform
        else:
            prec = draw(st.one_of(st.none(), st.integers(vmin, vmin + 4)))
        return Series.from_coeffs(vmin, coeffs, prec)

    rows = [[entry() for _ in range(r)] for _ in range(r)]
    if kind == "exact" and r >= 2 and draw(st.booleans()):
        c = Series.from_coeffs(draw(st.integers(-1, 1)), [draw(_coeff)])
        rows[-1] = [c * e for e in rows[0]]
    return kind, PhiMatrix(tuple(tuple(row) for row in rows), Q2)


@settings(max_examples=300, deadline=None)
@given(_phi_cases(), st.randoms(use_true_random=False))
def test_dm_degree_matches_laplace(case, rnd):
    """The elimination gives the Laplace value or SlopeError on exact
    matrices, certifies every uniform-precision matrix the expansion
    certifies, and each value it certifies is v(det) of exact completions
    of the unknown tails."""
    kind, m = case
    got = _outcome(dm_degree, m)
    want = _outcome(_ref_dm_degree, m)
    if kind == "exact" or (kind == "uniform" and want[0] == "value"):
        assert got == want
    if got[0] == "value":
        if want[0] == "value":
            assert got == want
        for _ in range(3):
            assert _outcome(_ref_dm_degree, _completion(m, rnd)) == got


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
    assert np_phi_matrix(m).to_json()["segments"] == [
        {"slope": "1", "mult": 1},
        {"slope": "0", "mult": 1},
    ]


# -- the Series solve, kept as a reference for exact inputs ------------------------

NO_CANDIDATE = "no cyclic vector found among the candidates"


def _ref_cyclic_form(phi_m: PhiMatrix, precision: int = 40) -> TwistedPolynomial:
    """Monic twisted polynomial of the first candidate for which the Series
    solve at ``precision`` succeeds.

    A reference for exact matrices only: the solve skips a row whose
    factor is_zero(), and so drops the precision that a factor known only
    to some O(x^p) costs; on a truncated matrix it can certify what the
    known terms leave open."""
    for e in phi._candidates(phi_m.rank):
        try:
            return _ref_cyclic_from_vector(phi_m, e, precision)
        except (SlopeError, PrecisionError, ZeroDivisionError):
            continue
    raise SlopeError(NO_CANDIDATE)


def _ref_cyclic_from_vector(phi_m, e, precision):
    r = phi_m.rank
    iterates = [tuple(e)]
    for _ in range(r):
        iterates.append(phi._apply_phi(phi_m, iterates[-1]))
    coeffs = _ref_series_solve(iterates[:r], iterates[r], precision)
    # P = phi^r - sum c_k phi^k
    return TwistedPolynomial(tuple([-c for c in coeffs] + [ONE]), phi_m.twist)


def _ref_series_solve(cols, target, precision):
    """Solve sum_k c_k cols[k] = target by series Gaussian elimination."""
    r = len(cols)
    aug = [
        [cols[k][i].truncate(precision) for k in range(r)] + [target[i].truncate(precision)]
        for i in range(len(target))
    ]
    perm = []
    for col in range(r):
        piv, piv_v = None, None
        for row in range(len(aug)):
            if row in perm:
                continue
            v = aug[row][col].valuation_or(None)
            if v is not None and (piv_v is None or v < piv_v):
                piv, piv_v = row, v
        if piv is None:
            raise SlopeError("candidate vector is not cyclic")
        perm.append(piv)
        inv = aug[piv][col].inverse(precision)
        for row in range(len(aug)):
            if row == piv:
                continue
            factor = aug[row][col] * inv
            if factor.is_zero():
                continue
            aug[row] = [a - factor * b for a, b in zip(aug[row], aug[piv])]
    return [aug[perm[col]][r] * aug[perm[col]][col].inverse(precision) for col in range(r)]


_PHI_TWISTS = [TwistSpec(Fraction(2)), TwistSpec(Fraction(1, 2)), TwistSpec(Fraction(-2, 3))]


@st.composite
def _exact_phi(draw, ranks=(2, 4)):
    """An exact phi-matrix of rank in ranks: sparse monomial entries, or
    entries of 1-3 terms."""
    r = draw(st.integers(*ranks))
    twist = draw(st.sampled_from(_PHI_TWISTS))
    sparse = draw(st.booleans())

    def entry():
        vmin = draw(st.integers(-2, 2))
        lead = draw(st.sampled_from([1, 2, -1, 3]))
        if sparse:
            return mono(lead, vmin) if draw(st.integers(0, 9)) < 7 else Series.zero()
        return Series.from_coeffs(vmin, [lead] + draw(st.lists(_coeff, max_size=2)))

    return PhiMatrix(tuple(tuple(entry() for _ in range(r)) for _ in range(r)), twist)


def _np_outcome(run, m):
    try:
        return ("value", json.dumps(run(m).to_json()))
    except (SlopeError, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=120, deadline=None)
@given(_exact_phi())
def test_np_phi_matrix_matches_series_solve(m):
    """One-sided: wherever the Series solve returns a polygon on an exact
    matrix, the determinant valuations give the same JSON."""
    want = _np_outcome(lambda m: np_of_poly(_ref_cyclic_form(m)), m)
    if want[0] == "value":
        assert _np_outcome(np_phi_matrix, m) == want


def _mat_mul(a, b):
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), Series.zero())
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def _gauge(m: PhiMatrix, upper) -> PhiMatrix:
    """P^-1 A phi(P) for the unipotent upper triangular P over Q[x] whose
    entries above the diagonal are ``upper`` (row by row): P^-1 is
    sum_k (-N)^k with N = P - I nilpotent."""
    r = m.rank
    it = iter(upper)
    n = tuple(
        tuple(next(it) if j > i else Series.zero() for j in range(r)) for i in range(r)
    )
    ident = tuple(tuple(ONE if i == j else Series.zero() for j in range(r)) for i in range(r))
    p_mat = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(ident, n))
    inv, power = ident, ident
    for k in range(1, r):
        power = _mat_mul(power, n)
        sign = -ONE if k % 2 else ONE
        inv = tuple(
            tuple(a + sign * b for a, b in zip(ra, rb)) for ra, rb in zip(inv, power)
        )
    phi_p = tuple(tuple(m.twist.apply(c) for c in row) for row in p_mat)
    return PhiMatrix(_mat_mul(_mat_mul(inv, m.entries), phi_p), m.twist)


_poly_entry = st.builds(
    lambda cs: Series.from_coeffs(0, cs),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(_exact_phi(ranks=(2, 3)), st.lists(_poly_entry, min_size=3, max_size=3))
def test_np_phi_matrix_oracles(m, upper):
    """On a nonsingular exact matrix: the endpoint is (r, dm_degree); a
    gauge change by a unipotent triangular P over Q[x] keeps the polygon;
    every candidate that is cyclic gives the same polygon."""
    try:
        got = np_phi_matrix(m).to_json()
    except SlopeError:
        with pytest.raises(SlopeError):
            dm_degree(m)
        return
    assert got["endpoints"][-1] == [m.rank, str(dm_degree(m).value)]
    assert np_phi_matrix(_gauge(m, upper)).to_json() == got
    for e in phi._candidates(m.rank):
        with patch.object(phi, "_candidates", lambda r: iter([e])):
            outcome = _np_outcome(np_phi_matrix, m)
        assert outcome in {("value", json.dumps(got)), ("SlopeError", NO_CANDIDATE)}


def test_candidates_keep_their_order():
    z, x = Series.zero(), mono(1, 1)
    assert list(phi._candidates(3)) == [
        (ONE, z, z), (z, ONE, z), (z, z, ONE),
        (ONE, ONE, z), (ONE, x, z), (ONE, z, ONE), (ONE, z, x), (z, ONE, ONE), (z, ONE, x),
    ]


def test_np_phi_matrix_diagonal():
    """A diagonal matrix gives np_diagonal; on the identity e_0, e_1 and
    e_0 + e_1 span Phi-stable lines, and e_0 + x e_1 is cyclic."""
    rng = random.Random(7)
    for _ in range(20):
        vals = [rng.randint(-3, 3) for _ in range(2)]
        d = diagonal_phi([mono(rng.choice([1, 2, -3]), v) for v in vals], rng.choice(_PHI_TWISTS))
        assert np_phi_matrix(d).to_json() == np_diagonal(d).to_json()
    assert np_phi_matrix(diagonal_phi([ONE, ONE], Q2)).to_json()["segments"] == [
        {"slope": "0", "mult": 2}
    ]


def test_np_phi_matrix_exact_singular():
    x = mono(1, 1)
    for entries in (((ONE, ONE), (ONE, ONE)), ((ONE, x), (x, x * x)), ((Series.zero(),),)):
        with pytest.raises(SlopeError, match="^matrix determinant is zero$"):
            np_phi_matrix(PhiMatrix(entries, Q2))


def test_np_phi_matrix_open_determinant():
    """A = ((3x^-2 - x^-1, -2 + 3x), (x, O(x^2))): v(det A) is 0 unless the
    open x^2 coefficient of A_11 vanishes, and the two completions differ."""
    a = Series.from_coeffs(-2, [3, -1])
    b = Series.from_coeffs(0, [-2, 3])
    m = PhiMatrix(((a, b), (mono(1, 1), Series.zero(2))), Q2)
    with pytest.raises(PrecisionError):
        np_phi_matrix(m)
    completions = [PhiMatrix(((a, b), (mono(1, 1), c)), Q2) for c in (Series.zero(), mono(1, 2))]
    slopes = [[s["slope"] for s in np_phi_matrix(c).to_json()["segments"]] for c in completions]
    assert slopes == [["2", "-3"], ["2", "-2"]]


@st.composite
def _truncated_phi(draw):
    """A phi-matrix of rank 2-3 mixing exact entries and entries known to
    a precision."""
    r = draw(st.integers(2, 3))
    twist = draw(st.sampled_from(_PHI_TWISTS))

    def entry():
        vmin = draw(st.integers(-3, 1))
        coeffs = [draw(st.sampled_from([1, 2, -1, 3]))] + draw(st.lists(_coeff, max_size=2))
        prec = draw(st.one_of(st.none(), st.integers(vmin + 1, vmin + 6)))
        return Series.from_coeffs(vmin, coeffs, prec)

    return PhiMatrix(tuple(tuple(entry() for _ in range(r)) for _ in range(r)), twist)


@settings(max_examples=150, deadline=None)
@given(_truncated_phi(), st.randoms(use_true_random=False))
def test_np_phi_matrix_truncated_is_honest(m, rnd):
    """Wherever the polygon of a truncated matrix is returned, exact
    completions of its entries give the same polygon."""
    got = _np_outcome(np_phi_matrix, m)
    if got[0] == "value":
        for _ in range(3):
            assert _np_outcome(np_phi_matrix, _completion(m, rnd)) == got


def test_fil_phi_degree():
    assert fil_phi_degree(0, 0).value == 0
    assert fil_phi_degree(1, 1).value == 0
    assert fil_phi_degree(2, -1).value == 3


def test_factor_requires_monic():
    with pytest.raises(TwistError):
        slope_factor(poly([ONE, mono(2, 0)]), 10)
