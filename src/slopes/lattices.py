"""Euclidean lattices with exact covolume degrees.

A lattice is Z^r carrying a positive-definite rational Gram matrix; its
degree is -1/2 log(det Gram), kept exact in the log-positive degree group.
Strict subobjects are saturated sublattices with the induced metric;
strict quotients carry the orthogonal-projection metric, so degrees add
exactly along every (sub, quotient) pair.

The destabilizer is exact in every rank: Lagrange-Gauss reduction in rank
2, and above it a search in the exterior powers resting on the Plücker
lemma.  A saturated rank-k sublattice S with basis s_1..s_k gives
p(S) = s_1 ^ ... ^ s_k in Lambda^k Z^r, primitive, decomposable and fixed
by S up to sign, and det S = |p(S)|^2 under the Gram of k x k minors
(Cauchy-Binet).  Conversely a primitive decomposable p is p(S) for S the
saturated kernel of v -> v ^ p.  As mu(S) = -1/2 log det(S) / k, S has
slope >= mu(L) iff det(S)^r <= det(L)^k.  So enumerating Lambda^k L below
det(L)^(k/r) for k = 1..r-1 meets every sublattice that can destabilize
and the certificate is always complete; after each hit the later bounds
shrink to det_best^(k/k_best).  The hits go through the selection rule
every backend shares, core.destabilizer_from_candidates.

The winner's basis is then rebuilt as _span_closure builds it.  That
closure grows spans breadth first, one short vector at a time in
short_vectors order, so it first reaches a span S along the greedy chain
of S's own vectors (the first, then each next one outside the span so
far), saturating at each step.  _first_seen_basis replays that chain
inside S, so an artifact keeps the basis the closure gave it.
_span_closure remains for strict_subobjects, which the laws enumerate.

The arithmetic runs on Python ints.  Each Gram is held as integer
numerators over one denominator (EuclideanLattice.scaled), converted once.
Inner products, induced Grams and exterior powers are integer sums and
minors.  One fraction-free elimination of the numerators (ldl) yields the
leading minors: they check positive definiteness, give det() and drive
short_vectors, which compares integer norms over one common denominator.
Saturation and completion read u^-1 off the Smith form, and the quotient
metric is the trailing block of a fraction-free elimination (Sylvester's
identity).  Fractions remain in the gram field and the JSON, in the
DegreeValue of each degree and in the span keys, whose rational RREF fixes
the order of the candidates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
from .degrees import DegreeValue, SlopeError, SlopeKey, ceil_root
from .errors import SlopesError, decoder, rational_field

class LatticeError(SlopesError, ValueError):
    pass


def _check_gram(lat: "EuclideanLattice") -> None:
    gram = lat.gram
    r = len(gram)
    for i in range(r):
        if len(gram[i]) != r:
            raise LatticeError("gram matrix must be square")
        for j in range(r):
            if gram[i][j] != gram[j][i]:
                raise LatticeError("gram matrix must be symmetric")
    lat.ldl  # factors gram once; raises unless it is positive definite


@dataclass(frozen=True)
class EuclideanLattice:
    gram: linalg.Mat

    def __post_init__(self):
        object.__setattr__(self, "gram", linalg.frac_matrix(self.gram))
        _check_gram(self)

    @functools.cached_property
    def scaled(self):
        """(g, den) with gram = g / den: den is the lcm of the entries'
        denominators and g holds the integer numerators over it."""
        den = math.lcm(*(c.denominator for row in self.gram for c in row))
        g = tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in self.gram)
        return g, den

    @functools.cached_property
    def ldl(self):
        """The numerators g after fraction-free elimination (see _ldl):
        row i holds the leading minor D_(i+1) of g on the diagonal and L's
        row i times D_(i+1), for gram = L^T diag(d) L with L unit upper
        triangular and d_i = D_(i+1) / (D_i den)."""
        return _ldl(self.scaled[0])

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        if not self.gram:
            return Fraction(1)
        return Fraction(self.ldl[-1][-1], self.scaled[1] ** self.rank)

    def degree(self) -> DegreeValue:
        return DegreeValue.log_positive(self.det())

    def slope(self) -> SlopeKey:
        if self.rank == 0:
            raise SlopeError("zero lattice has no slope")
        return SlopeKey(self.degree(), self.rank)

    def norm(self, v) -> Fraction:
        return self.inner(v, v)

    def inner(self, v, w) -> Fraction:
        return Fraction(self.gram_numerators([v, w])[0][1], self.scaled[1])

    def gram_numerators(self, cols) -> list[list[int]]:
        """The Gram matrix of the integer vectors cols, times den."""
        images = [[sum(map(operator.mul, row, c)) for row in self.scaled[0]] for c in cols]
        return [[sum(map(operator.mul, a, image)) for image in images] for a in cols]

    def to_json(self):
        return {"gram": [[str(c) for c in row] for row in self.gram]}

    @staticmethod
    @decoder
    def from_json(obj) -> "EuclideanLattice":
        return EuclideanLattice(
            tuple(tuple(rational_field(c, "gram entry") for c in row) for row in obj["gram"])
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
        den = self.ambient.scaled[1]
        return tuple(
            tuple(Fraction(c, den) for c in row)
            for row in self.ambient.gram_numerators(self.basis)
        )

    def degree(self) -> DegreeValue:
        det = linalg.det(self.ambient.gram_numerators(self.basis))
        return DegreeValue.log_positive(det / self.ambient.scaled[1] ** self.rank)

    def span_key(self):
        """Canonical form of the rational span (saturated sublattices are
        determined by their span), computed once per sublattice."""
        return self._span

    @functools.cached_property
    def _span(self):
        return linalg.rref([tuple(Fraction(x) for x in col) for col in self.basis])

    def to_json(self):
        return {"basis_columns": [list(map(int, c)) for c in self.basis]}


def saturate(ambient: EuclideanLattice, columns) -> Sublattice:
    """Primitive closure of the integer span of the given columns."""
    cols = [list(int(x) for x in c) for c in columns]
    if not cols:
        raise LatticeError("cannot saturate an empty span")
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    _, d, _, u_inv = linalg.smith_normal_form(mat)
    rk = sum(1 for i in range(min(len(d), len(cols))) if d[i][i])
    if rk != len(cols):
        raise LatticeError("saturation input must have full column rank")
    # u mat v = d, so the first rk columns of u^-1 span the saturation
    return Sublattice(ambient, tuple(tuple(col) for col in zip(*u_inv))[:rk])


def completion(ambient: EuclideanLattice, sub: Sublattice):
    """Integer columns T with [sub.basis | T] a basis of Z^r."""
    r = ambient.rank
    k = sub.rank
    mat = [[sub.basis[j][i] for j in range(k)] for i in range(r)]
    _, d, _, u_inv = linalg.smith_normal_form(mat)
    for i in range(k):
        if abs(d[i][i]) != 1:
            raise LatticeError("completion requires a saturated sublattice")
    # columns k..r-1 of u^-1 complete the span of the first k columns,
    # which equals the span of sub.basis.
    return tuple(tuple(col) for col in zip(*u_inv))[k:]


def quotient_with_metric(
    ambient: EuclideanLattice, sub: Sublattice
) -> EuclideanLattice:
    """Quotient lattice with the orthogonal-projection (Schur complement)
    metric; degree additivity det(L) = det(S) det(L/S) is exact.  The
    Schur complement of the S-block in the Gram numerators of [S | T] is
    the trailing block after fraction-free elimination of the S columns,
    divided by det of the S-block (Sylvester's identity), which is 1 when
    S has rank 0."""
    t_cols = completion(ambient, sub)
    if not t_cols:
        return EuclideanLattice(())
    k = sub.rank
    m = ambient.gram_numerators(sub.basis + t_cols)
    for _ in linalg.bareiss(m, k):
        pass
    den = (m[k - 1][k - 1] if k else 1) * ambient.scaled[1]
    return EuclideanLattice(tuple(tuple(Fraction(c, den) for c in row[k:]) for row in m[k:]))


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


def _ldl(g):
    """g after bareiss, with no row exchange: upper triangular, entry
    (i, j) the minor of g on rows 0..i and columns 0..i-1, j, so (i, i) is
    the leading minor D_(i+1).  Raises LatticeError at the first leading
    minor <= 0: all are positive exactly when g is positive definite
    (Sylvester's criterion)."""
    m = [list(row) for row in g]
    for k in linalg.bareiss(m, len(m)):
        if m[k][k] <= 0:
            raise LatticeError("gram matrix is not positive definite")
    return tuple(map(tuple, m))


def short_vectors(lat: EuclideanLattice, bound: Fraction, budget: Budget = Budget()):
    """All nonzero integer vectors with norm <= bound, one per +/- pair,
    in a deterministic (norm, coordinates) order.  Raises BudgetExhausted
    once the enumeration tries more than budget.max_candidates coordinate
    values (nodes of its search tree).

    Level i adds d_i (x_i + c_i / D_(i+1))^2 to the norm, with
    d_i = D_(i+1) / (D_i den) and c_i = sum over j > i of ldl[i][j] x_j.
    Norms are kept as integers over scale, a multiple of bound's
    denominator and of every den D_i D_(i+1), so each level adds
    weight_i (x_i D_(i+1) + c_i)^2."""
    r = lat.rank
    u = lat.ldl
    den = lat.scaled[1]
    bound = Fraction(bound)
    minors = [1] + [u[i][i] for i in range(r)]
    scale = math.lcm(bound.denominator, *(den * minors[i] * minors[i + 1] for i in range(r)))
    weight = [scale // (den * minors[i] * minors[i + 1]) for i in range(r)]
    total = bound.numerator * (scale // bound.denominator)
    out = []
    vec = [0] * r
    nodes = 0

    def recurse(i: int, remaining: int, top: bool):
        # top: every coordinate above i is zero, so x >= 0 keeps one of +/-v
        nonlocal nodes
        if i < 0:
            if any(vec):
                out.append((total - remaining, tuple(vec)))
            return
        row, w, piv = u[i], weight[i], minors[i + 1]
        c = sum(row[j] * vec[j] for j in range(i + 1, r))
        # w (x piv + c)^2 <= remaining, so |x + c / piv| < width + 1
        width = math.isqrt(remaining // (w * piv * piv))
        lo = 0 if top else -c // piv - width
        hi = -(c // piv) + width
        nodes += hi - lo + 1
        if nodes > budget.max_candidates:
            raise BudgetExhausted("lattice enumeration budget exhausted")
        for x in range(lo, hi + 1):
            q = w * (x * piv + c) ** 2
            if q <= remaining:
                vec[i] = x
                recurse(i - 1, remaining - q, top and x == 0)
        vec[i] = 0

    recurse(r - 1, total, True)
    # prefer all-non-negative representatives at equal norm
    found = sorted(((nrm, max(v, tuple(-x for x in v))) for nrm, v in out), key=_vector_order)
    return [(Fraction(nrm, scale), v) for nrm, v in found]


def _vector_order(item):
    nrm, v = item
    return (nrm, any(x < 0 for x in v), v)


def lagrange_gauss(lat: EuclideanLattice):
    """Rank-2 reduction; returns (shortest vector, its norm) exactly."""
    if lat.rank != 2:
        raise LatticeError("Lagrange-Gauss reduction is rank-2 only")
    b1, b2 = (1, 0), (0, 1)
    while True:
        # the Gram of (b1, b2) times den, compared as integers
        (n1, p), (_, n2) = lat.gram_numerators([b1, b2])
        if n2 < n1:
            b1, b2, n1 = b2, b1, n2
        # m = floor(<b1, b2> / |b1|^2 + 1/2)
        m = (2 * p + n1) // (2 * n1)
        if m == 0:
            return b1, Fraction(n1, lat.scaled[1])
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])


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
    vecs = [(v, tuple(Fraction(x) for x in v)) for _, v in short_vectors(lat, bound, budget)]
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


# -- the destabilizer: Plücker search ------------------------------------------


def exterior_power(lat: EuclideanLattice, k: int) -> EuclideanLattice:
    """Lambda^k L on the basis e_I, I in combinations(range(r), k) order:
    <e_I, e_J> is the k x k minor of the Gram on rows I and columns J."""
    if k == 1:
        return lat
    subsets = list(itertools.combinations(range(lat.rank), k))
    g, den = lat.scaled
    scale = den**k
    gram = [[None] * len(subsets) for _ in subsets]
    for a, rows in enumerate(subsets):
        for b in range(a, len(subsets)):
            minor = linalg.det([[g[i][j] for j in subsets[b]] for i in rows]) / scale
            gram[a][b] = gram[b][a] = minor
    return EuclideanLattice(gram)


def _plucker_span(r: int, k: int, p) -> linalg.Mat | None:
    """rref of the rational span S with p = c * (s_1 ^ ... ^ s_k) for a
    basis of S, or None when p is not decomposable: S is the kernel of
    v -> v ^ p, which has dimension k exactly when p is decomposable."""
    index = {s: n for n, s in enumerate(itertools.combinations(range(r), k))}
    rows = []
    for big in itertools.combinations(range(r), k + 1):
        row = [Fraction(0)] * r
        for pos, i in enumerate(big):
            row[i] = Fraction((-1) ** pos * p[index[big[:pos] + big[pos + 1 :]]])
        rows.append(tuple(row))
    span = linalg.kernel_basis(tuple(rows))
    return span if len(span) == k else None


def _pow_ceil(base: Fraction, num: int, den: int) -> Fraction:
    """Least y / b^num >= base^(num/den) with y an integer, where b is the
    denominator of base: the bound keeps the scale of base."""
    a, b = base.numerator, base.denominator
    return Fraction(ceil_root((a * b ** (den - 1)) ** num, den), b**num)


def _first_seen_basis(lat: EuclideanLattice, sub: Sublattice, budget: Budget) -> Sublattice:
    """sub with the basis of the greedy chain along its vectors of norm up
    to default_bound(lat), the basis _span_closure gives it, then along
    sub's own basis; the bound drops to sub's longest basis vector, as
    the vectors up to it span sub."""
    gram = sub.induced_gram()
    bound = min(default_bound(lat), max(gram[i][i] for i in range(sub.rank)))
    vecs = []
    for nrm, x in short_vectors(EuclideanLattice(gram), bound, budget):
        v = tuple(sum(c * col[i] for c, col in zip(x, sub.basis)) for i in range(lat.rank))
        vecs.append((nrm, max(v, tuple(-c for c in v))))
    span, basis = (), ()
    for v in [v for _, v in sorted(vecs, key=_vector_order)] + list(sub.basis):
        key = linalg.subspace_sum(span, (tuple(Fraction(c) for c in v),))
        if key != span:
            span, basis = key, saturate(lat, list(basis) + [v]).basis
            if len(basis) == sub.rank:
                break
    return Sublattice(lat, basis)


def destabilizer_lattice(lat: EuclideanLattice, budget: Budget = Budget()):
    """(subobject-or-lattice, SlopeKey, COMPLETE): exact in every rank."""
    r = lat.rank
    if r == 0:
        raise SlopeError("zero lattice")
    if r == 2:
        v, m1 = lagrange_gauss(lat)
        line = saturate(lat, [v])
        if m1**2 < lat.det():
            return line, SlopeKey(line.degree(), 1), COMPLETE
        return lat, lat.slope(), COMPLETE

    # (det, rank) of the best slope so far; slope(S) >= slope(best) iff
    # det(S)^best_rank <= best_det^rank(S), and only a strictly steeper
    # slope beats the lattice itself
    best_det, best_k = lat.det(), r
    subs = []
    for k in range(1, r):
        bound = _pow_ceil(best_det, k, best_k)
        for nrm, p in short_vectors(exterior_power(lat, k), bound, budget):
            lhs, rhs = nrm**best_k, best_det**k
            if lhs > rhs or (lhs == rhs and best_k == r):
                break
            if math.gcd(*p) != 1:
                continue
            span = _plucker_span(r, k, p)
            if span is None:
                continue
            scale = [math.lcm(*(c.denominator for c in row)) for row in span]
            subs.append(saturate(lat, [[int(c * m) for c in row] for row, m in zip(span, scale)]))
            if lhs < rhs:
                best_det, best_k = nrm, k
    if not subs:
        return lat, lat.slope(), COMPLETE
    best, key, _ = destabilizer_from_candidates(LatticeBackend(), lat, subs, COMPLETE)
    return _first_seen_basis(lat, best, budget), key, COMPLETE


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
        bound = default_bound(lat) if budget.bound is None else Fraction(budget.bound)
        subs = _span_closure(lat, bound, budget)
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
