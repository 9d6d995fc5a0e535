"""Multi-filtered finite-dimensional Q-vector spaces.

An object is Q^d carrying n separated exhaustive descending filtrations
with rational jumps; its degree is the sum over filtrations of
jump * dim(graded piece).  Subobjects inherit intersection filtrations,
quotients image filtrations, so degrees add along every subspace.  With
steps F_1 < ... < F_m of jumps j_1 > ... > j_m, the degree is

    deg = sum_nu sum_i j_i (d_i - d_{i-1}),   d_0 = 0,

where d_i = dim F_i for the whole space and, for a subspace W,
d_i = dim(W ∩ F_i) = dim W + dim F_i - dim(W + F_i).  So a subspace's
degree comes from dimension counts alone, without building its induced
filtration.

The destabilizer search runs over the subspace lattice generated by the
filtration steps under intersection and sum.  The closure has one
stopping rule: it runs to its fixed point, each pair combined once, or
stops with BudgetExhausted before the subspaces it forms (an
intersection and a sum per pair) would pass Budget.max_candidates.  For
n <= 2 the fixed point is always reached and provably attains the
optimum (two chains generate a finite distributive lattice and the
degree of a subspace only depends on its intersection profile with each
chain), so the certificate is complete; the same holds in dimension 2
for any n because a line's degree only depends on which step lines it
equals.  Everything else is heuristic.

With n >= 3 in dimension >= 3 the closure can be infinite.  Three
complete flags of Q^3 in general position give three step lines and
three step planes; the pairwise intersections of the planes are three
more lines, and among these six points of the projective plane there
are four in general position.  The points that joins and meets build
from such a quadrangle are all of P^2(Q) (the Moebius net of a
quadrangle is the plane over the prime field), so the closure never
reaches a fixed point and only the budget stops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .core import (
    Budget,
    BudgetExhausted,
    Certificate,
    COMPLETE,
    SlopeBackend,
    destabilizer_from_candidates,
)
from .degrees import DegreeValue, SlopeError
from .errors import SlopesError, decoder, integer_field, rational_field


class FilteredError(SlopesError, ValueError):
    pass


@dataclass(frozen=True)
class Filtration:
    """Descending chain: steps (jump, subspace) with strictly decreasing
    jumps and strictly increasing subspaces; the last step is the whole
    space."""

    steps: tuple[tuple[Fraction, linalg.Mat], ...]

    def __post_init__(self):
        jumps = [j for j, _ in self.steps]
        if any(b >= a for a, b in zip(jumps, jumps[1:])):
            raise FilteredError("filtration jumps must strictly decrease")
        dims = [len(s) for _, s in self.steps]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise FilteredError("filtration steps must strictly grow")
        for (_, small), (_, big) in zip(self.steps, self.steps[1:]):
            if not linalg.subspace_contains(big, small):
                raise FilteredError("filtration steps must be nested")


@dataclass(frozen=True)
class FilteredSpace:
    dim: int
    filtrations: tuple[Filtration, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise FilteredError("negative dimension")
        for f in self.filtrations:
            if not f.steps:
                raise FilteredError("empty filtration chain")
            top = f.steps[-1][1]
            if len(top) != self.dim:
                raise FilteredError("filtration is not exhaustive")

    @property
    def n(self) -> int:
        return len(self.filtrations)

    def full_space(self) -> linalg.Mat:
        return linalg.identity(self.dim)

    def to_json(self):
        return {
            "dim": self.dim,
            "filtrations": [
                {
                    "steps": [
                        {
                            "jump": str(j),
                            "basis": [[str(c) for c in row] for row in s],
                        }
                        for j, s in f.steps
                    ]
                }
                for f in self.filtrations
            ],
        }

    @staticmethod
    @decoder
    def from_json(obj) -> "FilteredSpace":
        dim = integer_field(obj["dim"], "dim")
        fils = []
        for f in obj["filtrations"]:
            steps = []
            for s in f["steps"]:
                rows = [tuple(rational_field(c, "basis entry") for c in row) for row in s["basis"]]
                for row in rows:
                    if len(row) != dim:
                        raise FilteredError(f"a basis row has {len(row)} entries, dim is {dim}")
                basis = linalg.subspace(rows)
                steps.append((rational_field(s["jump"], "jump"), basis))
            if not steps or len(steps[-1][1]) != dim:
                raise FilteredError(
                    "each filtration must end with the whole space"
                )
            fils.append(Filtration(tuple(steps)))
        return FilteredSpace(dim, tuple(fils))


def make_filtered(dim: int, chains) -> FilteredSpace:
    """chains: per filtration, list of (jump, rows) with the final step
    spanning the whole space."""
    fils = []
    for chain in chains:
        steps = tuple(
            (Fraction(j), linalg.subspace(linalg.frac_matrix(rows)))
            for j, rows in chain
        )
        fils.append(Filtration(steps))
    return FilteredSpace(dim, tuple(fils))


def degree_filtered(
    v: FilteredSpace, rows: Optional[linalg.Mat] = None
) -> DegreeValue:
    """Degree of v, or of the subspace spanned by ``rows`` with the
    intersection filtrations, from the dimension counts d_i."""
    if rows is not None:
        rows = linalg.rref(rows)
    total = Fraction(0)
    for f in v.filtrations:
        prev = 0
        for jump, step in f.steps:
            d = len(step)
            if rows is not None:
                d += len(rows) - len(linalg.subspace_sum(rows, step))
            total += jump * (d - prev)
            prev = d
    return DegreeValue.rational(total)


def _chain(pairs, dim: int, what: str) -> Filtration:
    """The filtration through the (jump, subspace) pairs, in order of
    decreasing jump, keeping each step that grows the dimension."""
    steps: list[tuple[Fraction, linalg.Mat]] = []
    for jump, space in pairs:
        if len(space) > (len(steps[-1][1]) if steps else 0):
            steps.append((jump, space))
    if not steps or len(steps[-1][1]) != dim:
        raise FilteredError(f"{what} filtration is not exhaustive")
    return Filtration(tuple(steps))


def induced_filtration(
    v: FilteredSpace, s: linalg.Mat, mode: str
) -> FilteredSpace:
    """Subobject (intersection) or quotient (image) filtered space.

    mode="sub": the space s with F^{>=j} = s ∩ F^{>=j}V.
    mode="quotient": V/s with the image filtration, in coordinates given by
    projection onto the non-pivot coordinates of s.
    """
    s = linalg.rref(s)
    if mode == "sub":
        newdim = len(s)

        def transform(step: linalg.Mat) -> linalg.Mat:
            return coords_in_basis(linalg.subspace_intersect(s, step), s)

    elif mode == "quotient":
        newdim = v.dim - len(s)
        proj = quotient_projection(s, v.dim)

        def transform(step: linalg.Mat) -> linalg.Mat:
            return linalg.rref([linalg.mat_vec(proj, row) for row in step])

    else:
        raise FilteredError(f"unknown mode {mode!r}")
    if newdim == 0:
        return FilteredSpace(0, tuple(Filtration(((Fraction(0), ()),)) for _ in range(v.n)))
    return FilteredSpace(
        newdim,
        tuple(
            _chain(((jump, transform(step)) for jump, step in f.steps), newdim, "induced")
            for f in v.filtrations
        ),
    )


def coords_in_basis(vectors: linalg.Mat, basis: linalg.Mat) -> linalg.Mat:
    """Rows of ``vectors`` written in coordinates w.r.t. the rows of
    ``basis`` (must lie in the row space)."""
    bt = linalg.transpose(basis)
    out = []
    for row in vectors:
        x = linalg.solve(bt, row)
        if x is None:
            raise FilteredError("vector outside the subspace")
        out.append(x)
    return linalg.rref(out)


def quotient_pivots(s: linalg.Mat, dim: int):
    pivots = [next(j for j in range(dim) if row[j] != 0) for row in s]
    free = [j for j in range(dim) if j not in pivots]
    return pivots, free


def quotient_projection(s: linalg.Mat, dim: int) -> linalg.Mat:
    """Coordinate projection V -> V/s: reduce modulo the RREF rows of s,
    then read off the non-pivot coordinates (deterministic in s)."""
    pivots, free = quotient_pivots(s, dim)
    proj = []
    for f in free:
        row_f = [Fraction(0)] * dim
        row_f[f] = Fraction(1)
        for row, piv in zip(s, pivots):
            row_f[piv] = -row[f]
        proj.append(tuple(row_f))
    return tuple(proj)


def quotient_section(s: linalg.Mat, dim: int) -> linalg.Mat:
    """Right inverse of quotient_projection: embed quotient coordinates at
    the free positions with zeros at s's pivots."""
    _, free = quotient_pivots(s, dim)
    rows = []
    for f in free:
        e = [Fraction(0)] * dim
        e[f] = Fraction(1)
        rows.append(tuple(e))
    return tuple(rows)


def candidate_subspaces(v: FilteredSpace, budget: Budget = Budget()):
    """Closure of the filtration steps under pairwise ∩ and + (plus 0, V),
    run to its fixed point; returns (sorted subspaces, Certificate, True).

    A worklist: each subspace, when its turn comes, is combined with every
    one found before it, and what is new joins the end of the list, so
    each pair is combined once.  Raises BudgetExhausted before the
    subspaces formed (two per pair, repeats included) would pass
    budget.max_candidates, so the work is linear in the budget.  The third
    element is always True, as every returned closure is at its fixed
    point; it stays for callers that unpack three values.
    """
    found: dict[linalg.Mat, None] = {(): None, v.full_space(): None}
    for f in v.filtrations:
        for _, step in f.steps:
            found[linalg.rref(step)] = None
    items = list(found)
    for j, b in enumerate(items):  # items grows while it is walked
        if j * (j + 1) > budget.max_candidates:  # formed once b is done
            raise BudgetExhausted("subspace closure budget exhausted")
        for a in items[:j]:
            for c in (linalg.subspace_intersect(a, b), linalg.subspace_sum(a, b)):
                if c not in found:
                    found[c] = None
                    items.append(c)
    cands = sorted(items, key=lambda m: (len(m), m))
    if v.n <= 2:
        cert = COMPLETE
    elif v.dim <= 2:
        # in dim 2 a line's degree depends only on which step lines it
        # equals; one generic line represents all the others.
        cert = COMPLETE
        generic = _generic_line(v, cands)
        if generic is not None and generic not in found:
            cands = sorted(cands + [generic], key=lambda m: (len(m), m))
    else:
        cert = Certificate(False, "heuristic: candidate lattice for n >= 3")
    return cands, cert, True


def _generic_line(v: FilteredSpace, existing) -> Optional[linalg.Mat]:
    if v.dim != 2:
        return None
    lines = {m for m in existing if len(m) == 1}
    t = 0
    while t < 4 * (len(lines) + 2):
        cand = linalg.subspace(((Fraction(1), Fraction(t)),))
        if cand not in lines:
            return cand
        t += 1
    cand = linalg.subspace(((Fraction(0), Fraction(1)),))
    return None if cand in lines else cand


def destabilizer_filtered(v: FilteredSpace, budget: Budget = Budget()):
    """(subspace, SlopeKey, Certificate): maximal slope then maximal
    dimension over the candidate lattice."""
    if v.dim == 0:
        raise SlopeError("zero filtered space")
    cands, cert, _ = candidate_subspaces(v, budget)
    best, key, cert = destabilizer_from_candidates(
        FilteredBackend(), v, [(v, s) for s in cands], cert
    )
    return (v.full_space() if best is v else best[1]), key, cert


def tensor_filtered(v: FilteredSpace, w: FilteredSpace) -> FilteredSpace:
    """Product filtrations on V (x) W, per filtration index."""
    if v.n != w.n:
        raise FilteredError("tensor needs the same number of filtrations")
    dim = v.dim * w.dim
    fils = []
    for nu in range(v.n):
        fv = v.filtrations[nu].steps
        fw = w.filtrations[nu].steps
        sums = sorted(
            {jv + jw for jv, _ in fv for jw, _ in fw}, reverse=True
        )
        steps = []
        for lam in sums:
            rows = [
                _kron_vec(rv, rw)
                for jv, sv in fv
                for jw, sw in fw
                if jv + jw >= lam
                for rv in sv
                for rw in sw
            ]
            steps.append((lam, linalg.rref(rows)))
        fils.append(_chain(steps, dim, "tensor"))
    return FilteredSpace(dim, tuple(fils))


def _kron_vec(a, b):
    return tuple(x * y for x in a for y in b)


def dual_filtered(v: FilteredSpace) -> FilteredSpace:
    """Dual space with F^{>=lam}(V∨) = annihilator of F^{>-lam}V."""
    dim = v.dim
    fils = []
    for f in v.filtrations:
        steps = []
        # F^{>-lam}V for lam in the negated jump set: the strictly-above
        # part of the chain at -lam.
        for lam in sorted((-j for j, _ in f.steps), reverse=True):
            above: linalg.Mat = ()
            for j, s in f.steps:
                if j > -lam:
                    above = s
            steps.append((lam, linalg.annihilator(above, dim)))
        fils.append(_chain(steps, dim, "dual"))
    return FilteredSpace(dim, tuple(fils))


class FilteredBackend(SlopeBackend):
    """SlopeBackend over filtered spaces; subobject handles are pairs
    (ambient, subspace rows)."""

    name = "filtered"

    def rank(self, obj) -> int:
        if isinstance(obj, tuple):
            return len(obj[1])
        return obj.dim

    def degree(self, obj) -> DegreeValue:
        if isinstance(obj, tuple):
            return degree_filtered(*obj)
        return degree_filtered(obj)

    def candidate_key(self, sub):
        return sub[1]

    def destabilizer(self, obj, budget: Budget = Budget()):
        rows, key, cert = destabilizer_filtered(obj, budget)
        return (obj if len(rows) == obj.dim else (obj, rows)), key, cert

    def strict_subobjects(self, obj, budget: Budget = Budget()):
        cands, cert, _ = candidate_subspaces(obj, budget)
        subs = [(obj, s) for s in cands if 0 < len(s) < obj.dim]
        return subs, cert

    def quotient(self, obj, sub) -> FilteredSpace:
        return induced_filtration(obj, sub[1], "quotient")

    def pullback(self, obj, sub, quot: FilteredSpace, subquot):
        srows = linalg.rref(sub[1])
        section = quotient_section(srows, obj.dim)
        st = linalg.transpose(section)
        lifted = [linalg.mat_vec(st, row) for row in subquot[1]]
        rows = linalg.rref(list(srows) + lifted)
        return (obj, rows)

    def contains(self, obj, small, big) -> bool:
        return linalg.subspace_contains(big[1], small[1])

    def subquotient(self, obj, small, big) -> FilteredSpace:
        rows = None if small is None else small[1]
        if big is not obj:
            if rows is not None:
                rows = coords_in_basis(rows, big[1])
            obj = induced_filtration(obj, big[1], "sub")
        return obj if rows is None else induced_filtration(obj, rows, "quotient")

    def handle_json(self, handle):
        if isinstance(handle, FilteredSpace):
            return {"whole": True, "dim": handle.dim}
        return {"subspace": [[str(c) for c in row] for row in handle[1]]}
