"""Newton polygons: concave hulls of flag data, dominance, and the
direct-sum / tensor / dual / highest-break calculus.

A polygon is stored as its segments, one per break, strictly decreasing
from left to right.  Each segment is a SlopeKey whose ``rk`` component is
the multiplicity of the break and whose ``deg`` component is the total
degree contributed by that graded piece.  Keeping the pair instead of a
divided-out slope makes vertex sums exact in both degree groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degrees import (
    LOG_POSITIVE,
    RATIONAL,
    DegreeValue,
    SlopeError,
    SlopeKey,
    VariantMismatchError,
)
from .errors import decoder, integer_field, rational_field


@dataclass(frozen=True)
class NewtonPolygon:
    segments: tuple[SlopeKey, ...]

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if not a.cmp(b) > 0:
                raise SlopeError("polygon breaks must strictly decrease")

    @property
    def variant(self) -> str:
        if not self.segments:
            return RATIONAL
        return self.segments[0].deg.variant

    def is_empty(self) -> bool:
        return not self.segments

    def total_rank(self) -> int:
        return sum(s.rk for s in self.segments)

    def total_degree(self) -> DegreeValue:
        deg = DegreeValue.zero(self.variant)
        for s in self.segments:
            deg = deg + s.deg
        return deg

    def vertices(self) -> list[tuple[int, DegreeValue]]:
        """Cumulative (rank, degree) points, starting at (0, 0)."""
        out = [(0, DegreeValue.zero(self.variant))]
        r, d = 0, DegreeValue.zero(self.variant)
        for s in self.segments:
            r, d = r + s.rk, d + s.deg
            out.append((r, d))
        return out

    def highest_break(self) -> SlopeKey:
        if not self.segments:
            raise SlopeError("empty polygon has no breaks")
        return self.segments[0]

    def height_at(self, i: int) -> tuple[int, DegreeValue]:
        """Hull height at integer abscissa i, as (scale, scale * height).

        The height there is (scaled degree) / scale; returning the pair keeps
        log-positive values exact.
        """
        if not 0 <= i <= self.total_rank():
            raise SlopeError("abscissa outside polygon")
        r, d = 0, DegreeValue.zero(self.variant)
        for s in self.segments:
            if i <= r + s.rk:
                # d + (i - r)/s.rk * s.deg, scaled by s.rk
                return s.rk, d.scale(s.rk) + s.deg.scale(i - r)
            r, d = r + s.rk, d + s.deg
        return 1, d

    def breaks_multiset(self) -> list[tuple[SlopeKey, int]]:
        return [(s.reduced(), s.rk) for s in self.segments]

    def to_json(self):
        return {
            "segments": [
                {"slope": s.slope_json(), "mult": s.rk} for s in self.segments
            ],
            "endpoints": [
                [0, DegreeValue.zero(self.variant).to_json()],
                [self.total_rank(), self.total_degree().to_json()],
            ],
        }

    @staticmethod
    @decoder
    def from_json(obj) -> "NewtonPolygon":
        segs = []
        for seg in obj["segments"]:
            slope = seg["slope"]
            mult = integer_field(seg["mult"], "mult")
            if isinstance(slope, dict):
                root = integer_field(slope.get("root", 1), "root")
                d = rational_field(slope["neg_half_log"], "neg_half_log")
                key = SlopeKey(DegreeValue.log_positive(d**mult), mult * root)
            else:
                key = SlopeKey(
                    DegreeValue.rational(rational_field(slope, "slope") * mult), mult
                )
            segs.append(key)
        return NewtonPolygon(tuple(segs))

    def __repr__(self):
        inner = ", ".join(
            f"({s.reduced()!r}, m={s.rk})" for s in self.segments
        )
        return f"NP[{inner}]"


def _merge_equal_breaks(segs: list[SlopeKey]) -> tuple[SlopeKey, ...]:
    """Sort descending by slope and merge slope-equal segments."""
    segs = sorted(segs, reverse=True)
    out: list[SlopeKey] = []
    for s in segs:
        if out and out[-1].slope_eq(s):
            out[-1] = SlopeKey(out[-1].deg + s.deg, out[-1].rk + s.rk)
        else:
            out.append(s)
    return tuple(out)


def polygon_from_points(
    points: list[tuple[int, DegreeValue]]
) -> NewtonPolygon:
    """Concave upper hull through (0, 0) and the given (rank, degree) points.

    Points must have non-negative ranks; the rightmost point is the polygon
    endpoint.  Equal ranks keep the larger degree.
    """
    if not points:
        return NewtonPolygon(())
    variant = points[0][1].variant
    best: dict[int, DegreeValue] = {0: DegreeValue.zero(variant)}
    for r, d in points:
        if r < 0:
            raise SlopeError("negative rank in polygon data")
        if r not in best or d.cmp(best[r]) > 0:
            best[r] = d
    pts = sorted(best.items())
    # Graham-style scan keeping strictly decreasing slopes.
    hull: list[tuple[int, DegreeValue]] = []
    for p in pts:
        while len(hull) >= 2 and _slope_cmp(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        while len(hull) == 1 and hull[-1][0] == p[0]:
            hull.pop()
        hull.append(p)
    segs = []
    for (r0, d0), (r1, d1) in zip(hull, hull[1:]):
        segs.append(SlopeKey(d1 - d0, r1 - r0))
    return NewtonPolygon(tuple(segs))


def _slope_cmp(a, b, c) -> int:
    """Compare slope(a,b) with slope(b,c); <= 0 means b is not a strict
    concave vertex."""
    (ra, da), (rb, db), (rc, dc) = a, b, c
    left = SlopeKey(db - da, rb - ra)
    right = SlopeKey(dc - db, rc - rb)
    return left.cmp(right)


def polygon_of_flag(steps: list[tuple[int, DegreeValue]]) -> NewtonPolygon:
    """Polygon of a flag given as strictly increasing (rank, degree) steps,
    the last step being the whole object."""
    if not steps:
        raise SlopeError("empty flag")
    ranks = [r for r, _ in steps]
    if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[0] <= 0:
        raise SlopeError("flag ranks must strictly increase from a positive rank")
    poly = polygon_from_points(steps)
    if poly.total_rank() != steps[-1][0]:
        raise SlopeError("flag endpoint lost in hull")
    return poly


def polygon_dominates(upper: NewtonPolygon, lower: NewtonPolygon) -> bool:
    """True iff both polygons share endpoints and ``lower`` lies pointwise at
    or below ``upper`` at every integer abscissa.

    Integer abscissas suffice: all vertices of both hulls are integral.
    """
    if upper.is_empty() or lower.is_empty():
        raise SlopeError("dominance needs nonempty polygons")
    if upper.total_rank() != lower.total_rank():
        return False
    if upper.total_degree().cmp(lower.total_degree()) != 0:
        return False
    for i in range(upper.total_rank() + 1):
        su, hu = upper.height_at(i)
        sl, hl = lower.height_at(i)
        if hu.scale(sl).cmp(hl.scale(su)) < 0:
            return False
    return True


DIRECT_SUM = "direct_sum"
TENSOR_MULT = "tensor_mult"
DUAL = "dual"
TENSOR_BOUNDED_MAX = "tensor_bounded_max"


def polygon_combine(
    p: NewtonPolygon, q: NewtonPolygon | None, mode: str
) -> NewtonPolygon:
    """Break calculus on polygons.

    direct_sum        multiset union of breaks,
    tensor_mult       breaks are pairwise sums with product multiplicities,
    dual              breaks negated, order reversed (q ignored),
    tensor_bounded_max one-segment witness (max highest break, product rank).
    """
    if q is None and mode in (DIRECT_SUM, TENSOR_MULT, TENSOR_BOUNDED_MAX):
        raise SlopeError(f"combine mode {mode!r} needs a second polygon q")
    if mode == DIRECT_SUM:
        return NewtonPolygon(_merge_equal_breaks(list(p.segments) + list(q.segments)))
    if mode == DUAL:
        if p.variant == LOG_POSITIVE:
            raise VariantMismatchError("dual polygon calculus needs rational slopes")
        return NewtonPolygon(
            tuple(SlopeKey(-s.deg, s.rk) for s in reversed(p.segments))
        )
    if mode == TENSOR_MULT:
        if p.variant == LOG_POSITIVE or q.variant == LOG_POSITIVE:
            raise VariantMismatchError(
                "tensor polygon calculus needs rational slopes; "
                "lattice tensor degrees live in the lattice module"
            )
        segs = []
        for a in p.segments:
            for b in q.segments:
                mult = a.rk * b.rk
                deg = a.deg.scale(b.rk) + b.deg.scale(a.rk)
                segs.append(SlopeKey(deg, mult))
        return NewtonPolygon(_merge_equal_breaks(segs))
    if mode == TENSOR_BOUNDED_MAX:
        if p.is_empty() or q.is_empty():
            raise SlopeError("highest-break bound needs nonempty polygons")
        rho = max(p.highest_break(), q.highest_break()).reduced()
        mult = p.total_rank() * q.total_rank()
        if rho.rk != 1:
            raise SlopeError("highest-break witness needs a rank-1 slope form")
        return NewtonPolygon((SlopeKey(rho.deg.scale(mult), mult),))
    raise SlopeError(f"unknown combine mode {mode!r}")
