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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .degrees import DegreeValue, SlopeError, SlopeKey
from .diff import _integer_matrix, _reduce_columns, _shift
from .errors import SlopesError
from .polygon import NewtonPolygon, polygon_from_points
from .series import PrecisionError, Series, _make, _min_prec

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

    def to_json(self):
        return {
            "twist": self.twist.to_json(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    def __repr__(self):
        return " + ".join(
            f"({c!r})phi^{i}" for i, c in enumerate(self.coeffs)
        )


def _valuation0(s: Series) -> int:
    """v(s), or 0 for a series that is zero as stored, as Series.__mul__
    counts it."""
    for i, c in enumerate(s.coeffs):
        if c:
            return s.vmin + i
    return 0


def _zero_product_prec(a: Series, b: Series) -> Optional[int]:
    """Precision of the product a b when a or b is zero as stored:
    min(prec_a + v(b), prec_b + v(a)), by the Series.__mul__ rule."""
    prec = None if a.prec is None else a.prec + _valuation0(b)
    if b.prec is not None:
        p2 = b.prec + _valuation0(a)
        prec = p2 if prec is None else min(prec, p2)
    return prec


def _add_zero(s: Series, prec: Optional[int]) -> Series:
    """s + Series.zero(prec), exactly as Series.__add__ forms it."""
    prec = _min_prec(s.prec, prec)
    if not s.coeffs:
        return _make(0, (), prec)
    return s if prec == s.prec else _make(s.vmin, s.coeffs, prec)


def twisted_mul(p: TwistedPolynomial, q: TwistedPolynomial) -> TwistedPolynomial:
    """Product in K<phi>: (a phi^i)(b phi^j) = a phi^i(b) phi^(i+j).

    A product with a factor that is zero as stored is zero, known to a
    precision fixed by the factors' valuations and precisions (the twist
    is an isometry), so it is folded into the sum without being formed.
    """
    if p.twist != q.twist:
        raise TwistError("twist mismatch")
    out = [Series.zero() for _ in range(p.degree + q.degree + 1)]
    q_zero = [b.is_zero() for b in q.coeffs]
    for i, a in enumerate(p.coeffs):
        a_zero = a.is_zero()
        if a_zero and a.prec is None:
            continue
        for j, b in enumerate(q.coeffs):
            if a_zero or q_zero[j]:
                out[i + j] = _add_zero(out[i + j], _zero_product_prec(a, b))
            else:
                out[i + j] = out[i + j] + a * p.twist.apply(b, i)
    return TwistedPolynomial(tuple(out), p.twist)


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
    return np_twisted([c.valuation_or(None) for c in p.coeffs])


# -- slope factorization -------------------------------------------------------


def _gauss_val(p: TwistedPolynomial, s: Fraction) -> Optional[Fraction]:
    """min over j of v(a_j) - s*j; None when zero to precision."""
    best = None
    for j, c in enumerate(p.coeffs):
        v = c.valuation_or(None)
        if v is None:
            continue
        w = Fraction(v) - s * j
        if best is None or w < best:
            best = w
    return best


def _poly_add(p: TwistedPolynomial, q: TwistedPolynomial) -> TwistedPolynomial:
    d = max(p.degree, q.degree)
    return TwistedPolynomial(
        tuple(p.coeff(i) + q.coeff(i) for i in range(d + 1)), p.twist
    )


def _poly_sub(p: TwistedPolynomial, q: TwistedPolynomial) -> TwistedPolynomial:
    d = max(p.degree, q.degree)
    return TwistedPolynomial(
        tuple(p.coeff(i) - q.coeff(i) for i in range(d + 1)), p.twist
    )


def _representative(s: Series, prec: int) -> Series:
    """Zero-extend a truncated series to a specific representative known to
    ``prec``; exact series pass through unchanged."""
    if s.prec is None or s.prec >= prec:
        return s
    return _make(s.vmin, s.coeffs, prec)


def _split_once(
    p: TwistedPolynomial, prec: int
) -> tuple[TwistedPolynomial, TwistedPolynomial]:
    """Split monic p = L * C with L the single lowest-slope factor.

    The lift runs against a zero-extended representative of p at the
    internal precision; the returned factors multiply back to p wherever
    p's own coefficients are certified.
    """
    p = TwistedPolynomial(
        tuple(_representative(c, prec) for c in p.coeffs), p.twist
    )
    poly = np_of_poly(p)
    segs = poly.segments
    lowest = segs[-1].reduced()
    second = segs[-2].reduced()
    m = segs[-1].rk
    n = p.degree
    s = (lowest.deg.value + second.deg.value) / 2
    twist = p.twist
    q = twist.q

    # initial approximations: L = phi^m, C = phi^(n-m) + phi^{-m}(a_m)
    zero = Series.zero(prec)
    lser = [zero] * m + [Series.one()]
    cser = [zero] * (n - m + 1)
    cser[-1] = Series.one()
    cser[0] = twist.apply(p.coeff(m).truncate(prec), -m)
    lfac = TwistedPolynomial(tuple(lser), twist)
    cfac = TwistedPolynomial(tuple(cser), twist)

    uc = cfac.coeffs[0].valuation()  # v of the cofactor's constant term
    alpha = cfac.coeffs[0].coeff(uc)

    def graded_solve(res: TwistedPolynomial, w: Fraction):
        """Kill the s-graded level w, the lowest of res: returns (dL, dC)."""
        dl = [Series.zero(prec) for _ in range(m)]
        dc = [Series.zero(prec) for _ in range(n - m)]
        for j, cj in enumerate(res.coeffs):
            v = cj.valuation_or(None)
            if v is None or Fraction(v) - s * j != w:
                continue
            lead = cj.coeff(v)
            if j >= m:
                # phi^m * (dc_{j-m} x^v-ish): coefficient picks up q^(m*v)
                dc[j - m] = dc[j - m] + Series.monomial(
                    lead / q ** (m * v), v, prec
                )
            else:
                # dl_j * phi^j(c0): leading coeff alpha q^(j*uc) at x^uc
                dl[j] = dl[j] + Series.monomial(
                    lead / (alpha * q ** (j * uc)), v - uc, prec
                )
        return (
            TwistedPolynomial(tuple(dl + [Series.zero(prec)]), twist),
            TwistedPolynomial(tuple(dc + [Series.zero(prec)]), twist),
        )

    pass_cap = 4 * (prec + int(abs(s)) * n + n + 8) * max(
        1, s.denominator, lowest.deg.value.denominator
    )
    # p - (L + dL)(C + dC) = res - (dL C + L dC + dL dC): the twisted product
    # is bilinear, so the residual is updated rather than recomputed
    res = _poly_sub(p.truncate(prec), twisted_mul(lfac, cfac))
    w = _gauss_val(res, s)
    for _ in range(pass_cap):
        if w is None:
            return lfac.truncate(prec), cfac.truncate(prec)
        dl, dc = graded_solve(res, w)
        res = _poly_sub(
            res,
            _poly_add(
                _poly_add(twisted_mul(dl, cfac), twisted_mul(lfac, dc)),
                twisted_mul(dl, dc),
            ),
        )
        lfac = _poly_add(lfac, dl)
        cfac = _poly_add(cfac, dc)
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
    """Dieudonne-Manin style degree -v(det Phi), an exact rational.

    v(det) is the sum of the pivot valuations of the unit-scaled column
    reduction `diff._reduce_columns`: O(r^3) products, where a Laplace
    expansion takes r!.  It runs on the integer numerators of Phi = N / D,
    D the lcm of every coefficient denominator: det N = D^r det Phi and
    D^r is a nonzero constant, so v(det N) = v(det Phi), and every column
    the reduction forms may be scaled by a constant for the same reason.
    That reduction keeps its floor only while every pivot has valuation
    <= 0, so column j is first multiplied by x^(1 - k_j), k_j the least
    precision in the column: every known entry then has valuation <= 0
    and is known to x^1, the reduction runs at floor 1, and v(det Phi) is
    its sum plus sum_j (k_j - 1).

    An exact column has no precision of its own; it gets
    k_j = s + B + 1, where s is the least valuation or precision of any
    entry and B sums over the rows of x^-s Phi their largest degree, so
    the cut at x^1 drops none of its terms.  The bound also decides
    singularity.  If Phi is exact and det Phi != 0, then det(x^-s Phi) is
    a polynomial of degree <= B (each Leibniz term takes one entry from
    every row), so the scaled matrix x^-(s+B) Phi has v(det) <= -(r-1)B.
    Its entries, and every entry the reduction forms from them, have
    valuation >= -B; a reduction that runs out of pivots after t < r of
    them leaves a block that is zero mod x, so v(det) >= -tB + r - t >
    -(r-1)B, and det Phi = 0.  On a matrix with a truncated entry the
    same stop only means the precision ran out.
    """
    m, _ = _integer_matrix(phi.entries)
    r = phi.rank
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
        total, _ = _reduce_columns(cols, r, 1)
    except PrecisionError:
        if any(e[2] != math.inf for row in m for e in row):
            raise
        raise SlopeError("matrix determinant is zero; degree undefined") from None
    return DegreeValue.rational(-(total + sum(k - 1 for k in ks)))


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


def cyclic_form(
    phi: PhiMatrix, precision: int = DEFAULT_PRECISION
) -> TwistedPolynomial:
    """Monic twisted polynomial of a cyclic vector for Phi.

    Tries standard basis vectors and small sums deterministically; raises
    when none is cyclic (rare for the shipped fixtures).
    """
    r = phi.rank
    candidates = []
    for i in range(r):
        e = [Series.zero() for _ in range(r)]
        e[i] = Series.one()
        candidates.append(tuple(e))
    for i in range(r):
        for j in range(i + 1, r):
            e = [Series.zero() for _ in range(r)]
            e[i] = Series.one()
            e[j] = Series.one()
            candidates.append(tuple(e))
            e2 = list(e)
            e2[j] = Series.monomial(1, 1)
            candidates.append(tuple(e2))
    for e in candidates:
        try:
            return _cyclic_from_vector(phi, e, precision)
        except (SlopeError, PrecisionError, ZeroDivisionError):
            continue
    raise SlopeError("no cyclic vector found among the candidates")


def _apply_phi(phi: PhiMatrix, vec) -> tuple[Series, ...]:
    r = phi.rank
    twisted = [phi.twist.apply(v) for v in vec]
    return tuple(
        _sum_series(phi.entries[i][j] * twisted[j] for j in range(r))
        for i in range(r)
    )


def _sum_series(items) -> Series:
    total = Series.zero()
    for s in items:
        total = total + s
    return total


def _cyclic_from_vector(phi: PhiMatrix, e, precision: int) -> TwistedPolynomial:
    r = phi.rank
    iterates = [tuple(e)]
    for _ in range(r):
        iterates.append(_apply_phi(phi, iterates[-1]))
    # solve sum_{k<r} c_k iterates[k] = iterates[r] over K((x)) at precision
    cols = iterates[:r]
    target = iterates[r]
    coeffs = _series_solve(cols, target, precision)
    zero_minus = [
        -c for c in coeffs
    ]  # P = phi^r - sum c_k phi^k
    return TwistedPolynomial(tuple(zero_minus + [Series.one()]), phi.twist)


def _series_solve(cols, target, precision: int):
    """Solve sum_k c_k cols[k] = target by series Gaussian elimination."""
    r = len(cols)
    aug = [
        [cols[k][i].truncate(precision) for k in range(r)]
        + [target[i].truncate(precision)]
        for i in range(len(target))
    ]
    n = len(aug)
    perm = []
    for col in range(r):
        piv = None
        piv_v = None
        for row in range(n):
            if row in perm:
                continue
            v = aug[row][col].valuation_or(None)
            if v is not None and (piv_v is None or v < piv_v):
                piv, piv_v = row, v
        if piv is None:
            raise SlopeError("candidate vector is not cyclic")
        perm.append(piv)
        inv = aug[piv][col].inverse(precision)
        for row in range(n):
            if row == piv:
                continue
            factor = aug[row][col] * inv
            if factor.is_zero():
                continue
            aug[row] = [
                a - factor * b for a, b in zip(aug[row], aug[piv])
            ]
    sol = []
    for col in range(r):
        piv = perm[col]
        inv = aug[piv][col].inverse(precision)
        sol.append(aug[piv][r] * inv)
    return sol


def fil_phi_degree(notch: int, c_valuation: int) -> DegreeValue:
    """Middle degree of a filtered phi-module datum: notch - v(c)."""
    return DegreeValue.rational(notch - c_valuation)
