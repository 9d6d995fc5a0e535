"""Euclidean lattices with exact covolume degrees.

A lattice is Z^r carrying a positive-definite rational Gram matrix; its
degree is -1/2 log(det Gram), kept exact in the log-positive degree group.
Strict subobjects are saturated sublattices with the induced metric;
strict quotients carry the orthogonal-projection metric, so degrees add
exactly along every (sub, quotient) pair.

The destabilizer search is exact in rank <= 2 via Lagrange-Gauss
reduction.  In higher rank one search, _span_closure, enumerates
saturations of spans of short vectors (it also serves strict_subobjects),
and the destabilizer is picked from that list by the selection rule shared
by every backend, core.destabilizer_from_candidates.  This module adds
only the certificate: complete when a Minkowski-style bound shows no
destabilizing sublattice can need a longer generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import (
    Budget,
    BudgetExhausted,
    Certificate,
    COMPLETE,
    SlopeBackend,
    destabilizer_from_candidates,
)
from .degrees import DegreeValue, SlopeError, SlopeKey
from .errors import SlopesError, decoder

# gamma_k^k for the Hermite constants, k <= 4
_HERMITE_POW = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2), 4: Fraction(4)}


class LatticeError(SlopesError, ValueError):
    pass


def _check_gram(gram: linalg.Mat) -> None:
    r = len(gram)
    for i in range(r):
        if len(gram[i]) != r:
            raise LatticeError("gram matrix must be square")
        for j in range(r):
            if gram[i][j] != gram[j][i]:
                raise LatticeError("gram matrix must be symmetric")
    for k in range(1, r + 1):
        minor = tuple(row[:k] for row in gram[:k])
        if linalg.det(minor) <= 0:
            raise LatticeError("gram matrix is not positive definite")


@dataclass(frozen=True)
class EuclideanLattice:
    gram: linalg.Mat

    def __post_init__(self):
        object.__setattr__(self, "gram", linalg.frac_matrix(self.gram))
        _check_gram(self.gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return linalg.det(self.gram)

    def degree(self) -> DegreeValue:
        return DegreeValue.log_positive(self.det())

    def slope(self) -> SlopeKey:
        if self.rank == 0:
            raise SlopeError("zero lattice has no slope")
        return SlopeKey(self.degree(), self.rank)

    def norm(self, v) -> Fraction:
        return self.inner(v, v)

    def inner(self, v, w) -> Fraction:
        return sum(
            v[i] * self.gram[i][j] * w[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def to_json(self):
        return {"gram": [[str(c) for c in row] for row in self.gram]}

    @staticmethod
    @decoder
    def from_json(obj) -> "EuclideanLattice":
        return EuclideanLattice(
            tuple(tuple(Fraction(c) for c in row) for row in obj["gram"])
        )

    @staticmethod
    def standard(r: int) -> "EuclideanLattice":
        return EuclideanLattice(linalg.identity(r))


@dataclass(frozen=True)
class Sublattice:
    """Saturated sublattice of an ambient lattice, columns in ambient
    coordinates."""

    ambient: EuclideanLattice
    basis: tuple[tuple[int, ...], ...]  # r x k integer columns, stored as columns

    @property
    def rank(self) -> int:
        return len(self.basis)

    def induced_gram(self) -> linalg.Mat:
        cols = self.basis
        return tuple(
            tuple(
                self.ambient.inner(cols[i], cols[j]) for j in range(len(cols))
            )
            for i in range(len(cols))
        )

    def degree(self) -> DegreeValue:
        return DegreeValue.log_positive(linalg.det(self.induced_gram()))

    def span_key(self):
        """Canonical form of the rational span (saturated sublattices are
        determined by their span)."""
        return linalg.rref([tuple(Fraction(x) for x in col) for col in self.basis])

    def to_json(self):
        return {"basis_columns": [list(map(int, c)) for c in self.basis]}


def saturate(ambient: EuclideanLattice, columns) -> Sublattice:
    """Primitive closure of the integer span of the given columns."""
    cols = [list(int(x) for x in c) for c in columns]
    if not cols:
        raise LatticeError("cannot saturate an empty span")
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    rk = linalg.rank(linalg.frac_matrix(mat))
    if rk != len(cols):
        raise LatticeError("saturation input must have full column rank")
    u, d, _ = linalg.smith_normal_form(mat)
    uinv = linalg.inverse(u)
    basis = tuple(tuple(int(uinv[i][j]) for i in range(len(uinv))) for j in range(rk))
    return Sublattice(ambient, basis)


def is_saturated(ambient: EuclideanLattice, columns) -> bool:
    mat = [
        [int(columns[j][i]) for j in range(len(columns))]
        for i in range(len(columns[0]))
    ]
    return all(f in (1, -1) for f in linalg.invariant_factors(mat))


def completion(ambient: EuclideanLattice, sub: Sublattice):
    """Integer columns T with [sub.basis | T] a basis of Z^r."""
    r = ambient.rank
    k = sub.rank
    mat = [[sub.basis[j][i] for j in range(k)] for i in range(r)]
    u, d, v = linalg.smith_normal_form(mat)
    for i in range(k):
        if abs(d[i][i]) != 1:
            raise LatticeError("completion requires a saturated sublattice")
    uinv = linalg.inverse(u)
    # columns k..r-1 of u^-1 complete the span of the first k columns,
    # which equals the span of sub.basis.
    return tuple(tuple(int(uinv[i][j]) for i in range(r)) for j in range(k, r))


def quotient_with_metric(
    ambient: EuclideanLattice, sub: Sublattice
) -> EuclideanLattice:
    """Quotient lattice with the orthogonal-projection (Schur complement)
    metric; degree additivity det(L) = det(S) det(L/S) is exact."""
    if not is_saturated(ambient, sub.basis):
        raise LatticeError("quotient needs a saturated sublattice")
    if sub.rank == ambient.rank:
        return EuclideanLattice(())
    t_cols = completion(ambient, sub)
    s_cols = sub.basis
    gss = linalg.frac_matrix(
        [[ambient.inner(a, b) for b in s_cols] for a in s_cols]
    )
    gtt = [[ambient.inner(a, b) for b in t_cols] for a in t_cols]
    gts = [[ambient.inner(a, b) for b in s_cols] for a in t_cols]
    gss_inv = linalg.inverse(gss)
    m = len(t_cols)
    k = len(s_cols)
    schur = [
        [
            gtt[i][j]
            - sum(
                gts[i][a] * gss_inv[a][b] * gts[j][b]
                for a in range(k)
                for b in range(k)
            )
            for j in range(m)
        ]
        for i in range(m)
    ]
    return EuclideanLattice(tuple(tuple(row) for row in schur))


def tensor_lattice(a: EuclideanLattice, b: EuclideanLattice) -> EuclideanLattice:
    """Kronecker product Gram; deg(A (x) B) = rk B * deg A + rk A * deg B."""
    ra, rb = a.rank, b.rank
    gram = tuple(
        tuple(
            a.gram[i1][j1] * b.gram[i2][j2]
            for j1 in range(ra)
            for j2 in range(rb)
        )
        for i1 in range(ra)
        for i2 in range(rb)
    )
    return EuclideanLattice(gram)


# -- short vector enumeration -----------------------------------------------------


def _ldl(gram: linalg.Mat):
    """gram = L^T D L with L unit upper triangular (rational, exact)."""
    r = len(gram)
    d = [Fraction(0)] * r
    lmat = [[Fraction(0)] * r for _ in range(r)]
    g = [list(row) for row in gram]
    for i in range(r):
        d[i] = g[i][i] - sum(d[k] * lmat[k][i] ** 2 for k in range(i))
        lmat[i][i] = Fraction(1)
        for j in range(i + 1, r):
            lmat[i][j] = (
                g[i][j] - sum(d[k] * lmat[k][i] * lmat[k][j] for k in range(i))
            ) / d[i]
    return d, lmat


def short_vectors(lat: EuclideanLattice, bound: Fraction):
    """All nonzero integer vectors with norm <= bound, one per +/- pair,
    in a deterministic (norm, coordinates) order."""
    r = lat.rank
    d, lmat = _ldl(lat.gram)
    out = []
    vec = [0] * r

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            if any(vec):
                v = tuple(vec)
                out.append((lat.norm(v), v))
            return
        center = sum(lmat[i][j] * vec[j] for j in range(i + 1, r))
        # (x + center)^2 * d[i] <= remaining
        limit = remaining / d[i]
        width = int(math.isqrt(int(limit) + 1)) + 2
        lo = math.floor(-center) - width
        hi = math.ceil(-center) + width
        for x in range(lo, hi + 1):
            q = d[i] * (x + center) ** 2
            if q <= remaining:
                vec[i] = x
                recurse(i - 1, remaining - q)
        vec[i] = 0

    recurse(r - 1, Fraction(bound))
    canon = []
    seen = set()
    for nrm, v in out:
        neg = tuple(-x for x in v)
        rep = max(v, neg)
        if rep not in seen:
            seen.add(rep)
            canon.append((nrm, rep))
    # prefer all-non-negative representatives at equal norm
    canon.sort(key=lambda t: (t[0], any(x < 0 for x in t[1]), t[1]))
    return canon


def first_minimum(lat: EuclideanLattice) -> Fraction:
    """Exact lambda_1^2: some diagonal entry is an upper bound."""
    bound = min(lat.gram[i][i] for i in range(lat.rank))
    vs = short_vectors(lat, bound)
    return vs[0][0]


def lagrange_gauss(lat: EuclideanLattice):
    """Rank-2 reduction; returns (shortest vector, its norm) exactly."""
    if lat.rank != 2:
        raise LatticeError("Lagrange-Gauss reduction is rank-2 only")
    b1, b2 = (1, 0), (0, 1)
    while True:
        if lat.norm(b2) < lat.norm(b1):
            b1, b2 = b2, b1
        mu = lat.inner(b1, b2) / lat.norm(b1)
        m = math.floor(mu + Fraction(1, 2))
        if m == 0:
            break
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
    if lat.norm(b2) < lat.norm(b1):
        b1, b2 = b2, b1
    return b1, lat.norm(b1)


def default_bound(lat: EuclideanLattice) -> Fraction:
    return Fraction(lat.rank) * max(lat.gram[i][i] for i in range(lat.rank))


def _span_sort_key(s: Sublattice):
    key = s.span_key()
    negative = any(c < 0 for row in key for c in row)
    return (s.rank, negative, key)


def _span_closure(lat: EuclideanLattice, bound: Fraction, budget: Budget):
    """Saturations of spans of the short vectors of norm <= bound, grown
    one vector at a time up to rank r - 1, in _span_sort_key order; raises
    BudgetExhausted past budget.max_candidates.  Spans are keyed by their
    rref before saturating (saturation keeps the rational span), so each
    distinct span is saturated once."""
    vecs = [(v, tuple(Fraction(x) for x in v)) for _, v in short_vectors(lat, bound)]
    seen = {}
    frontier = []
    for v, vv in vecs:
        key = linalg.rref([vv])
        if key not in seen:
            seen[key] = saturate(lat, [v])
            frontier.append(key)
    while frontier:
        nxt = []
        for span in frontier:
            if len(span) >= lat.rank - 1:
                continue
            for v, vv in vecs:
                key = linalg.subspace_sum(span, (vv,))
                if key == span:
                    continue
                if key not in seen:
                    seen[key] = saturate(lat, list(seen[span].basis) + [list(v)])
                    nxt.append(key)
                if len(seen) > budget.max_candidates:
                    raise BudgetExhausted("lattice candidate budget exhausted")
        frontier = nxt
    return sorted(seen.values(), key=_span_sort_key)


def _search_bound(lat: EuclideanLattice, budget: Budget) -> Fraction:
    return Fraction(budget.bound) if budget.bound is not None else default_bound(lat)


def destabilizer_lattice(lat: EuclideanLattice, budget: Budget = Budget()):
    """(subobject-or-lattice, SlopeKey, Certificate); exact in rank <= 2."""
    r = lat.rank
    if r == 0:
        raise SlopeError("zero lattice")
    if r == 1:
        return lat, lat.slope(), COMPLETE
    if r == 2:
        v, m1 = lagrange_gauss(lat)
        line = saturate(lat, [v])
        if m1**2 < lat.det():
            return line, SlopeKey(line.degree(), 1), COMPLETE
        return lat, lat.slope(), COMPLETE

    bound = _search_bound(lat, budget)
    subs = _span_closure(lat, bound, budget)
    result, key, _ = destabilizer_from_candidates(LatticeBackend(), lat, subs, COMPLETE)
    return result, key, _completeness_certificate(lat, key, first_minimum(lat), bound)


def _pow_ceil(base: Fraction, num: int, den: int) -> int:
    """Smallest integer >= base**(num/den) for positive rational base."""
    if base <= 1:
        return 1
    u = base.numerator**num
    v = base.denominator**num
    target = -(-u // v)  # ceil(base**num)
    lo, hi = 1, 1
    while hi**den < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**den >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def semistability_bound(lat: EuclideanLattice) -> Fraction:
    """Norm bound whose enumeration certifies the destabilizer search when
    the lattice is semistable: any sublattice of slope >= mu(L) is
    generated by vectors within it (rank <= 3 only)."""
    r = lat.rank
    m1 = first_minimum(lat)
    d = lat.det()
    out = Fraction(1)
    for k in range(1, min(r, 4)):
        dk = Fraction(_pow_ceil(d, k, r))
        out = max(out, _HERMITE_POW[k] * dk / m1 ** (k - 1))
    return out


def _completeness_certificate(
    lat: EuclideanLattice, best: SlopeKey, m1: Fraction, bound: Fraction
) -> Certificate:
    """Complete when every sublattice of slope >= best must be generated by
    vectors of norm <= bound.

    A rank-k sublattice S of slope >= best has det(S)^r* <= d*^k, and its
    k-th successive minimum obeys lam_k^2 <= gamma_k^k det(S) / m1^(k-1);
    minima vectors generate S for k <= 3.
    """
    r = lat.rank
    if r - 1 > 3:
        return Certificate(False, "heuristic: rank > 4 enumeration")
    dstar = best.deg.value  # log-positive carrier
    rstar = best.rk
    for k in range(1, r):
        # need: bound >= gamma_k^k * det_S / m1^(k-1) for all det_S with
        # det_S^rstar <= dstar^k, i.e. bound * m1^(k-1) >= gamma^k * D_k.
        lhs = (bound * m1 ** (k - 1) / _HERMITE_POW[k]) ** rstar
        rhs = dstar**k
        if lhs < rhs:
            return Certificate(
                False,
                f"heuristic: bound {bound} below completeness threshold for rank {k}",
            )
    return COMPLETE


class LatticeBackend(SlopeBackend):
    """SlopeBackend over euclidean lattices; subobject handles are
    saturated sublattices."""

    name = "lattice"

    def rank(self, obj) -> int:
        return obj.rank

    def degree(self, obj) -> DegreeValue:
        return obj.degree()

    def candidate_key(self, sub):
        return _span_sort_key(sub)

    def destabilizer(self, lat, budget: Budget = Budget()):
        return destabilizer_lattice(lat, budget)

    def strict_subobjects(self, lat, budget: Budget = Budget()):
        subs = _span_closure(lat, _search_bound(lat, budget), budget)
        return subs, Certificate(False, "heuristic: norm-bounded enumeration")

    def quotient(self, lat, sub: Sublattice) -> EuclideanLattice:
        return quotient_with_metric(lat, sub)

    def pullback(self, lat, sub: Sublattice, quot, subquot: Sublattice):
        t_cols = completion(lat, sub)
        lifted = []
        for col in subquot.basis:
            vec = [0] * lat.rank
            for j, c in enumerate(col):
                for i in range(lat.rank):
                    vec[i] += c * t_cols[j][i]
            lifted.append(vec)
        return saturate(lat, list(sub.basis) + lifted)

    def contains(self, lat, small: Sublattice, big: Sublattice) -> bool:
        return linalg.subspace_contains(big.span_key(), small.span_key())

    def subquotient(self, lat, small, big) -> EuclideanLattice:
        if big is not lat:
            cols = linalg.transpose(linalg.frac_matrix(big.basis))
            lat = EuclideanLattice(big.induced_gram())
            if small is not None:
                # big is saturated, so small has integer coordinates in it
                coords = [linalg.solve(cols, c) for c in small.basis]
                small = Sublattice(lat, tuple(tuple(map(int, x)) for x in coords))
        return lat if small is None else quotient_with_metric(lat, small)

    def handle_json(self, handle):
        return handle.to_json()
