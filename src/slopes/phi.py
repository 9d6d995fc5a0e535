"""Twisted polynomials over Q((x)) with a q-dilation twist, their Newton
polygons, and the unique factorization into single-slope factors.

The twist phi sends x to qx (q rational, |q| != 1), an isometry for the
x-adic valuation, and acts on polynomials by the rule phi * a = phi(a) * phi.
The Newton polygon of a monic P = sum a_i phi^i is the concave hull of the
points (i, -v(a_{n-i})); it equals the module polygon of K<phi>/K<phi>P.

Factorization peels the lowest-slope factor from the left by a graded
Hensel lift (Adams-Sauloy): pick a slope s strictly between the lowest break
and the rest, then the s-Gauss valuation makes the left factor
leading-dominated and the cofactor constant-dominated, so each graded level
of the residual p - L*C splits uniquely into corrections dL, dC of the two
factors.  Each pass kills one level, the lowest, and updates the residual by
bilinearity, res - (dL*C + L*dC + dL*dC), so the residual's s-valuation rises
with every pass.  Two exits raise PrecisionError rather than return a wrong
factor: a level that fails to rise, and a pass cap linear in the working
precision.

The lift and twisted_mul run on the integer windows (vmin, numerators,
den, prec) of series.py, with no Series in the loop.  A window keeps the
Series normal form (series.trim), so its vmin is its valuation, or 0 when
it is zero.  Both sum their products on one path, _sub_products and
_minus, which dilates each product a phi^i(b) and hands the sum to
series._product_sum: one convolution with the shorter factor outer, so a
lift pass, whose corrections dL and dC are monomials, costs O(window)
integer multiply-adds per product it forms, and the dilation by q = a/b
is integer too.  L, C and the residual are updated in place.  The sums
_minus forms are divided by the gcd of their numerators and denominator:
terms cancel there, and undivided numerators would grow pass after pass.
The merges of dL into L and dC into C are not: a monomial in lowest
terms is added at one place, and the window is rescaled only when its
denominator does not divide the window's.  A window scaled by a nonzero
constant stands for the same series, so nothing read off L or C moves,
and the factors are brought to lowest terms once, as Series, at the end.
Precision follows the Series rules term for term, so every factor, prec
field and error text is the one Series arithmetic gives.

Each TwistedPolynomial builds its Newton polygon once (``polygon``): a
two-factor split builds three, the input's and its two factors'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .degrees import DegreeValue, SlopeError, SlopeKey
from .diff import _check_open_points, _reduce_columns
from .errors import SlopesError
from .polygon import NewtonPolygon, polygon_from_points
from .series import (
    PrecisionError,
    Series,
    _cut,
    _integer_matrix,
    _make,
    _product_sum,
    _series,
    _shift,
    _trimmed,
    _window,
)

DEFAULT_PRECISION = 40


class TwistError(SlopesError, ValueError):
    pass


@dataclass(frozen=True)
class TwistSpec:
    """q-dilation twist x -> qx."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0 or self.q in (1, -1):
            raise TwistError("q must be nonzero and not a root of unity")

    def apply(self, s: Series, power: int = 1) -> Series:
        return s.dilate(self.q**power)

    def to_json(self):
        return {"q": str(self.q)}


@dataclass(frozen=True)
class TwistedPolynomial:
    """Monic polynomial sum a_i phi^i, coefficients low degree first."""

    coeffs: tuple[Series, ...]
    twist: TwistSpec

    def __post_init__(self):
        if not self.coeffs:
            raise TwistError("empty twisted polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        lead = self.coeffs[-1]
        return lead.eq_to_precision(Series.one())

    def coeff(self, i: int) -> Series:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Series.zero()

    def truncate(self, prec: int) -> "TwistedPolynomial":
        return TwistedPolynomial(
            tuple(c.truncate(prec) for c in self.coeffs), self.twist
        )

    def precision(self) -> Optional[int]:
        precs = [c.prec for c in self.coeffs if c.prec is not None]
        return min(precs) if precs else None

    @cached_property
    def polygon(self) -> NewtonPolygon:
        """The Newton polygon, built once per polynomial.

        A coefficient a_k zero only below x^p is left out of the hull: its
        point (n - k, -v(a_k)) lies on or below (n - k, -p), so it can move
        the polygon only if (n - k, -p) lies strictly above the hull of the
        known points.  Then the polygon is open at this precision and
        PrecisionError names a_k; otherwise the polygon is certified.
        """
        vals = [c.valuation_or(None) for c in self.coeffs]
        poly = np_twisted(vals)
        _check_open_points(poly, vals, self.coeffs, self.degree)
        return poly

    def to_json(self):
        return {
            "twist": self.twist.to_json(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    def __repr__(self):
        return " + ".join(
            f"({c!r})phi^{i}" for i, c in enumerate(self.coeffs)
        )


# -- integer windows -------------------------------------------------------------
# Twisted products and the lift run on the integer windows of series.py.


def _merge(x, y):
    """x + y for a monomial or empty y, by the rules of Series.__add__ up
    to one constant factor on x's numerators and denominator: y is brought
    to lowest terms, x is scaled only when y's denominator does not divide
    x's, and the sum is cut and trimmed with no gcd division, so _series
    gives the Series x + y.  An empty operand passes the other through,
    cut and trimmed."""
    prec = min(x[3], y[3])
    if not x[1] or not y[1]:
        v, nums, d, _ = y if not x[1] else x
        return _trimmed(v, _cut(v, nums, prec), d, prec)
    v, nums, d, _ = x
    k, (c,), e, _ = y
    g = math.gcd(c, e)
    c, e = c // g, e // g
    f = e // math.gcd(d, e)
    if f > 1:
        nums = [t * f for t in nums]
        d *= f
    else:
        nums = nums[:]
    lo = min(v, k)
    if k < v:
        nums[:0] = [0] * (v - k)
    elif k >= v + len(nums):
        nums += [0] * (k + 1 - v - len(nums))
    nums[k - lo] += c * (d // e)
    return _trimmed(lo, _cut(lo, nums, prec), d, prec)


class _Dilation:
    """phi^i on windows for the twist x -> qx: with q^i = A/B in lowest
    terms, coefficient t of a window of length n becomes
    num_t A^t B^(n-1-t) over den B^(n-1), times (A/B)^vmin.  The powers of
    A and B are kept per i and extended on demand."""

    def __init__(self, q: Fraction):
        self.a, self.b = q.numerator, q.denominator
        self.powers = {}  # i -> (A, B, [A^t], [B^t])

    def power(self, e: int) -> tuple[int, int]:
        """(num, den) of q^e, den > 0."""
        num, den = (self.a**e, self.b**e) if e >= 0 else (self.b**-e, self.a**-e)
        return (-num, -den) if den < 0 else (num, den)

    def apply(self, win, i: int, n: int):
        """(nums, num, den): phi^i of the window's first n coefficients is
        num * nums[t] / den at x^(vmin + t)."""
        v, nums, d, _ = win
        nums = nums[:n]
        if i == 0:
            return nums, 1, d
        if i not in self.powers:
            self.powers[i] = (self.a**i, self.b**i, [1], [1])
        big_a, big_b, pa, pb = self.powers[i]
        n = len(nums)
        while len(pa) < n:
            pa.append(pa[-1] * big_a)
            pb.append(pb[-1] * big_b)
        if big_b == 1:
            out = [c * pa[t] for t, c in enumerate(nums)]
        else:
            last = n - 1
            out = [c * pa[t] * pb[last - t] for t, c in enumerate(nums)]
            d *= pb[last]
        num, den = self.power(i * v)
        return out, num, d * den


def _minus(win, terms, prec, dilation: _Dilation):
    """win - sum of the products a phi^i(b) over the terms (a, b, i), known
    below x^prec: each product is dilated here and summed by
    series._product_sum.  With no terms the window is only cut to prec
    and trimmed."""
    v, nums, d, _ = win
    nums = _cut(v, nums, prec)
    if not terms:
        return _trimmed(v, nums, d, prec)
    parts = [(v, [1], nums, 1, d)] if nums else []  # (start, x, y, num, den)
    for a, b, i in terms:
        start = a[0] + b[0]
        n = min(prec - start, len(a[1]) + len(b[1]) - 1)
        if n > 0:
            bn, num, den = dilation.apply(b, i, n)
            parts.append((start, a[1][:n], bn, -num, a[2] * den))
    return _product_sum(parts, prec)


def _sub_products(res, pairs, dilation: _Dilation) -> None:
    """res -= left * right for each (left, right) in pairs, in K<phi> on
    windows, in place.

    Precision follows the Series rules: an exact zero left factor adds
    nothing; a product a phi^i(b) is known below
    min(prec_a + v(b), prec_b + v(a)) (the twist is an isometry), where
    each factor counts v = min(vmin, prec), so a zero one counts
    min(0, prec) and adds its precision but no term; a sum is known below
    its terms' least precision.
    """
    precs = [w[3] for w in res]
    terms = [[] for _ in res]
    for left, right in pairs:
        for i, a in enumerate(left):
            if not a[1] and a[3] == math.inf:
                continue
            va = min(a[0], a[3])
            for j, b in enumerate(right):
                k = i + j
                vb = b[0] if b[0] < b[3] else b[3]  # min(vmin, prec)
                precs[k] = min(precs[k], a[3] + vb, b[3] + va)
                if a[1] and b[1]:
                    terms[k].append((a, b, i))
    for k, w in enumerate(res):
        res[k] = _minus(w, terms[k], precs[k], dilation)


def twisted_mul(p: TwistedPolynomial, q: TwistedPolynomial) -> TwistedPolynomial:
    """Product in K<phi>: (a phi^i)(b phi^j) = a phi^i(b) phi^(i+j).

    It is _sub_products on a zero residual with p negated, so each output
    coefficient has the (vmin, coeffs, prec) that summing the Series
    products a phi^i(b) gives.
    """
    if p.twist != q.twist:
        raise TwistError("twist mismatch")
    out = [(0, [], 1, math.inf)] * (p.degree + q.degree + 1)
    left = [(v, [-c for c in nums], d, pr) for v, nums, d, pr in map(_window, p.coeffs)]
    _sub_products(out, [(left, list(map(_window, q.coeffs)))], _Dilation(p.twist.q))
    return TwistedPolynomial(tuple(map(_series, out)), p.twist)


def np_twisted(valuations: Sequence[Optional[int]]) -> NewtonPolygon:
    """Newton polygon from the valuations of a_0..a_n (monic: v(a_n) = 0).

    The polygon is the concave hull of the points (i, -v(a_{n-i})); None
    marks a coefficient that is zero (to precision), which is rejected in
    position 0 because the module polygon is then indeterminate.
    """
    vals = list(valuations)
    n = len(vals) - 1
    if n < 1:
        raise SlopeError("twisted polygon needs degree >= 1")
    if vals[n] != 0:
        raise SlopeError("polynomial must be monic (v(a_n) = 0)")
    if all(v is None for v in vals[:-1]) or vals[0] is None:
        raise SlopeError(
            "indeterminate polygon: constant coefficient zero to precision"
        )
    points = []
    for i in range(n + 1):
        v = vals[n - i]
        if v is None:
            continue
        points.append((i, DegreeValue.rational(-v)))
    poly = polygon_from_points(points)
    if poly.total_rank() != n:
        raise SlopeError("polygon lost its right endpoint")
    return poly


def np_of_poly(p: TwistedPolynomial) -> NewtonPolygon:
    return p.polygon


# -- slope factorization -------------------------------------------------------


def _gauss_val(res, s: Fraction) -> Optional[int]:
    """min over j of v(r_j) - s*j over the residual windows r_j, in normal
    form, as an integer in units of 1/sd (s = sn/sd); None when every
    window is zero to precision."""
    sn, sd = s.numerator, s.denominator
    return min(
        (v * sd - sn * j for j, (v, nums, _, _) in enumerate(res) if nums),
        default=None,
    )


def _representative(s: Series, prec: int) -> Series:
    """Zero-extend a truncated series to a specific representative known to
    ``prec``; exact series pass through unchanged."""
    if s.prec is None or s.prec >= prec:
        return s
    return _make(s.vmin, s.coeffs, prec)


def _monomial(num: int, den: int, k: int, prec: int):
    """(num/den) x^k known below x^prec, num != 0, stored with a positive
    denominator; at or beyond prec it is dropped, the zero window."""
    if k >= prec:
        return (0, [], 1, prec)
    return (k, [-num], -den, prec) if den < 0 else (k, [num], den, prec)


def _split_once(
    p: TwistedPolynomial, prec: int
) -> tuple[TwistedPolynomial, TwistedPolynomial]:
    """Split monic p = L * C with L the single lowest-slope factor.

    The lift runs against a zero-extended representative of p at the
    internal precision; the returned factors multiply back to p wherever
    p's own coefficients are certified.
    """
    # zero-extending moves no known valuation and no open coefficient above
    # the hull, so the representative has p's polygon
    segs = np_of_poly(p).segments
    p = TwistedPolynomial(
        tuple(_representative(c, prec) for c in p.coeffs), p.twist
    )
    lowest = segs[-1].reduced()
    second = segs[-2].reduced()
    m = segs[-1].rk
    n = p.degree
    s = (lowest.deg.value + second.deg.value) / 2
    twist = p.twist
    q = twist.q
    dilation = _Dilation(q)

    # initial approximations: L = phi^m, C = phi^(n-m) + phi^{-m}(a_m)
    c0 = twist.apply(p.coeff(m).truncate(prec), -m)
    zero = (0, [], 1, prec)
    one = (0, [1], 1, math.inf)
    lwin = [zero] * m + [one]
    cwin = [_window(c0)] + [zero] * (n - m - 1) + [one]

    uc = c0.valuation()  # v of the cofactor's constant term
    alpha = c0.coeff(uc)
    sn, sd = s.numerator, s.denominator

    def graded_solve(w: int):
        """Kill the s-graded level w/sd, the lowest of res: the monomial
        windows of dL and dC."""
        dl = [zero] * (m + 1)
        dc = [zero] * (n - m + 1)
        for j, (v, nums, d, _) in enumerate(res):
            if not nums or v * sd - sn * j != w:
                continue
            if j >= m:
                # phi^m * (dc_{j-m} x^v-ish): coefficient picks up q^(m*v)
                qn, qd = dilation.power(m * v)
                dc[j - m] = _monomial(nums[0] * qd, d * qn, v, prec)
            else:
                # dl_j * phi^j(c0): leading coeff alpha q^(j*uc) at x^uc
                qn, qd = dilation.power(j * uc)
                dl[j] = _monomial(
                    nums[0] * alpha.denominator * qd,
                    d * alpha.numerator * qn,
                    v - uc,
                    prec,
                )
        return dl, dc

    pass_cap = 4 * (prec + int(abs(s)) * n + n + 8) * max(
        1, s.denominator, lowest.deg.value.denominator
    )
    # p - (L + dL)(C + dC) = res - (dL C + L dC + dL dC): the twisted product
    # is bilinear, so the residual is updated rather than recomputed
    res = [_window(c) for c in p.truncate(prec).coeffs]
    _sub_products(res, [(lwin, cwin)], dilation)
    w = _gauss_val(res, s)
    for _ in range(pass_cap):
        if w is None:
            return (
                TwistedPolynomial(tuple(_series(x, prec) for x in lwin), twist),
                TwistedPolynomial(tuple(_series(x, prec) for x in cwin), twist),
            )
        dl, dc = graded_solve(w)
        _sub_products(res, [(dl, cwin), (lwin, dc), (dl, dc)], dilation)
        lwin = list(map(_merge, lwin, dl))
        cwin = list(map(_merge, cwin, dc))
        w_next = _gauss_val(res, s)
        if w_next is not None and w_next <= w:
            raise PrecisionError("residual valuation failed to increase during lift")
        w = w_next
    raise PrecisionError("twisted factor lift failed to converge at this precision")


def _lift_precision(p: TwistedPolynomial, precision: int) -> int:
    """Working precision with headroom for the valuation losses incurred by
    multiplying with negative-valuation coefficients."""
    poly = np_of_poly(p)
    variation = sum(abs(seg.deg.value) for seg in poly.segments)
    return precision + int(variation) + p.degree + 4


def slope_factor(
    p: TwistedPolynomial, precision: int = DEFAULT_PRECISION
) -> list[TwistedPolynomial]:
    """Unique slope factorization, factors ordered by increasing slope from
    the left; each factor is monic with a one-slope polygon and the twisted
    product of the factors reproduces p to the requested precision.

    Returned factors carry extra precision headroom so their re-multiplied
    product is verifiable modulo x^precision.
    """
    if not p.is_monic():
        raise TwistError("slope factorization expects a monic polynomial")
    poly = np_of_poly(p)
    if len(poly.segments) <= 1:
        return [p]
    lfac, cfac = _split_once(p, _lift_precision(p, precision))
    if len(np_of_poly(lfac).segments) != 1:
        raise PrecisionError("left factor polygon failed to be one-sloped")
    return [lfac] + slope_factor(cfac, precision)


# -- phi-matrices -----------------------------------------------------------------


@dataclass(frozen=True)
class PhiMatrix:
    """Matrix of the semilinear map Phi(v) = A phi(v) on K^r."""

    entries: tuple[tuple[Series, ...], ...]
    twist: TwistSpec

    @property
    def rank(self) -> int:
        return len(self.entries)

    def to_json(self):
        return {
            "twist": self.twist.to_json(),
            "matrix": [[c.to_json() for c in row] for row in self.entries],
        }


def _top(entry) -> Optional[int]:
    """Highest exponent known of an integer entry: prec - 1, or the last
    nonzero term of an exact one (None for the exact zero)."""
    v, nums, p = entry
    if p != math.inf:
        return p - 1
    return v + len(nums) - 1 if nums else None


def dm_degree(phi: PhiMatrix) -> DegreeValue:
    """Dieudonne-Manin style degree -v(det Phi), an exact rational, from
    _det_valuation: SlopeError when Phi is exact and singular,
    PrecisionError when its known terms leave v(det) open."""
    return DegreeValue.rational(-_det_valuation(phi.entries))


def _det_valuation(rows) -> int:
    """v(det) of a square matrix of Series, given by its rows.

    v(det) is the sum of the pivot valuations of the unit-scaled column
    reduction `diff._reduce_columns`: O(r^3) products, where a Laplace
    expansion takes r!.  It runs on the integer numerators of the matrix
    N / D, D the lcm of every coefficient denominator: det N = D^r det and
    D^r is a nonzero constant, so v(det N) is v(det), and every column
    the reduction forms may be scaled by a constant for the same reason.
    The reduction cuts every column at x^1 to an exact representative
    and takes its pivots among entries with a term below x^1, so every
    pivot has valuation <= 0 and the terms below x^1 of an entry it forms
    depend on no term at x^1 or beyond.  Column j is therefore first
    multiplied by x^(1 - k_j), k_j the least precision in the column:
    every entry is then known to x^1, and v(det) is the sum of the
    pivot valuations plus sum_j (k_j - 1).

    An exact column has no precision of its own; it gets
    k_j = s + B + 1, where s is the least valuation or precision of any
    entry and B sums over the rows of x^-s N their largest degree, so
    the cut at x^1 drops none of its terms.  The bound also decides
    singularity.  If N is exact and det N != 0, then det(x^-s N) is
    a polynomial of degree <= B (each Leibniz term takes one entry from
    every row), so the scaled matrix x^-(s+B) N has v(det) <= -(r-1)B.
    Its entries, and every entry the reduction forms from them, have
    valuation >= -B; a reduction that runs out of pivots after t < r of
    them leaves a block that is zero mod x, so v(det) >= -tB + r - t >
    -(r-1)B, and det N = 0: SlopeError.  On a matrix with a truncated
    entry the same stop only means the precision ran out:
    PrecisionError.
    """
    m, _ = _integer_matrix(rows)
    r = len(m)
    lows = [v if nums else p for row in m for v, nums, p in row]
    s = min((v for v in lows if v != math.inf), default=0)
    bound = sum(
        max([0] + [t - s for t in map(_top, row) if t is not None]) for row in m
    )
    ks = []
    for j in range(r):
        precs = [row[j][2] for row in m if row[j][2] != math.inf]
        ks.append(min(precs, default=s + bound + 1))
    cols = [[_shift(row[j], 1 - ks[j]) for row in m] for j in range(r)]
    try:
        total, _ = _reduce_columns(cols, r)
    except PrecisionError:
        if any(e[2] != math.inf for row in m for e in row):
            raise
        raise SlopeError("matrix determinant is zero") from None
    return total + sum(k - 1 for k in ks)


def dm_slope(phi: PhiMatrix) -> SlopeKey:
    return SlopeKey(dm_degree(phi), phi.rank)


def tensor_phi(a: PhiMatrix, b: PhiMatrix) -> PhiMatrix:
    """Kronecker product of the matrices (tensor of phi-modules)."""
    if a.twist != b.twist:
        raise TwistError("twist mismatch")
    entries = tuple(
        tuple(
            a.entries[i1][j1] * b.entries[i2][j2]
            for j1 in range(a.rank)
            for j2 in range(b.rank)
        )
        for i1 in range(a.rank)
        for i2 in range(b.rank)
    )
    return PhiMatrix(entries, a.twist)


def diagonal_phi(diag: Sequence[Series], twist: TwistSpec) -> PhiMatrix:
    r = len(diag)
    return PhiMatrix(
        tuple(
            tuple(diag[i] if i == j else Series.zero() for j in range(r))
            for i in range(r)
        ),
        twist,
    )


def np_diagonal(phi: PhiMatrix) -> NewtonPolygon:
    """Polygon of a diagonal phi-matrix: breaks -v(d_ii), merged."""
    from .polygon import DIRECT_SUM, polygon_combine

    out = None
    for i in range(phi.rank):
        v = phi.entries[i][i].valuation()
        if v is None:
            raise SlopeError("diagonal entry is zero")
        seg = NewtonPolygon((SlopeKey(DegreeValue.rational(-v), 1),))
        out = seg if out is None else polygon_combine(out, seg, DIRECT_SUM)
    assert out is not None
    return out


def np_phi_matrix(phi: PhiMatrix) -> NewtonPolygon:
    """Newton polygon of the phi-module of Phi, read off determinant
    valuations.

    For a candidate e let M have the columns e, Phi e, ..., Phi^(r-1) e.
    e is cyclic exactly when det M != 0, and then Phi^r e =
    sum_k c_k Phi^k e: the module is K<phi>/K<phi>P, P = phi^r -
    sum_k c_k phi^k.  Cramer's rule gives c_k = det M_k / det M, M_k
    being M with column k replaced by Phi^r e, so v(c_k) = v(det M_k) -
    v(det M), and an exactly zero det M_k is c_k = 0.  The polygon is
    np_twisted of those valuations; it ends at (r, -v(det Phi)), since
    M_0 is Phi applied to M, columns permuted.  Each valuation comes from
    _det_valuation, as -v(det Phi) does, so no series is inverted and no
    precision is chosen; the iterates are exact Series arithmetic, so
    what a truncated Phi certifies holds for every completion of it.

    An exact singular Phi is not a phi-module: SlopeError before the
    search.  A candidate whose determinants raise is skipped; when none
    is decided, the first PrecisionError met is raised, else SlopeError.
    """
    r = phi.rank
    if all(e.prec is None for row in phi.entries for e in row):
        _det_valuation(phi.entries)
    lost = None
    for e in _candidates(r):
        iterates = [e]
        for _ in range(r):
            iterates.append(_apply_phi(phi, iterates[-1]))
        cols, target = iterates[:r], iterates[r]
        try:
            base = _det_valuation(list(zip(*cols)))  # SlopeError: e is not cyclic
            vals = [_cramer_valuation(cols[:k] + [target] + cols[k + 1 :]) for k in range(r)]
        except SlopeError:
            continue
        except PrecisionError as exc:
            lost = lost or exc
            continue
        return np_twisted([v if v is None else v - base for v in vals] + [0])
    if lost is not None:
        raise lost
    raise SlopeError("no cyclic vector found among the candidates")


def _candidates(r: int):
    """The vectors tried for a cyclic one, in order: e_i, then e_i + e_j
    and e_i + x e_j for i < j."""
    one, x = Series.one(), Series.monomial(1, 1)
    supports = [((i, one),) for i in range(r)] + [
        ((i, one), (j, c)) for i in range(r) for j in range(i + 1, r) for c in (one, x)
    ]
    for terms in supports:
        e = [Series.zero()] * r
        for i, c in terms:
            e[i] = c
        yield tuple(e)


def _cramer_valuation(cols) -> Optional[int]:
    """v(det) of the matrix with these columns; None when it is exactly
    zero.  The Krylov vectors go in as columns, as for det M: the entries
    of one iterate are known to like precisions, and _det_valuation cuts
    each column at its least one."""
    try:
        return _det_valuation(list(zip(*cols)))
    except SlopeError:
        return None


def _apply_phi(phi: PhiMatrix, vec) -> tuple[Series, ...]:
    r = phi.rank
    twisted = [phi.twist.apply(v) for v in vec]
    return tuple(
        sum((phi.entries[i][j] * twisted[j] for j in range(r)), Series.zero())
        for i in range(r)
    )


def fil_phi_degree(notch: int, c_valuation: int) -> DegreeValue:
    """Middle degree of a filtered phi-module datum: notch - v(c)."""
    return DegreeValue.rational(notch - c_valuation)
