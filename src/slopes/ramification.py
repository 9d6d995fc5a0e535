"""Herbrand breaks, slope polygons and Swan conductors from
lower-numbering ramification data.

The input is the sequence of orders of the lower-numbering subgroups
G_(0) >= G_(1) >= ... >= G_(m) = 1; representations enter as profiles of
fixed-space dimensions dim M^{G_(i)}, which is all the slope filtration
depends on (invariants and coinvariants agree in characteristic zero).

The i-th upper-numbering break is the step integral
lambda_i = sum_{j=1..i} |G_(j)| / |G_(0)|, the Herbrand transition of the
lower index i; the filtration of a representation jumps exactly where the
fixed dimensions do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .degrees import DegreeValue, SlopeKey
from .errors import SlopesError, decoder, integer_field
from .polygon import NewtonPolygon


class RamificationError(SlopesError, ValueError):
    pass


@dataclass(frozen=True)
class RamificationData:
    sizes: tuple[int, ...]  # |G_(0)|, ..., |G_(m)| = 1
    label: str = ""

    def __post_init__(self):
        s = self.sizes
        if not s or s[-1] != 1:
            raise RamificationError("sizes must end with the trivial group")
        if any(x <= 0 for x in s):
            raise RamificationError("group orders must be positive")
        if any(b > a for a, b in zip(s, s[1:])):
            raise RamificationError("group orders must be non-increasing")
        if any(a % b for a, b in zip(s, s[1:])):
            raise RamificationError("each group must contain the next")

    @property
    def m(self) -> int:
        return len(self.sizes) - 1


@dataclass(frozen=True)
class RepresentationData:
    dim: int
    fixed_dims: tuple[int, ...]  # dim M^{G_(i)} for i = 0..m

    def __post_init__(self):
        f = self.fixed_dims
        if self.dim <= 0:
            raise RamificationError("representation dimension must be positive")
        if any(b < a for a, b in zip(f, f[1:])):
            raise RamificationError("fixed dimensions must be non-decreasing")
        if f[-1] != self.dim:
            raise RamificationError("the trivial group fixes everything")
        if any(x < 0 for x in f):
            raise RamificationError("negative fixed dimension")


def herbrand_breaks(data: RamificationData) -> list[tuple[Fraction, int]]:
    """All (lambda_i, i) for i = 1..m; lambda strictly increases and is
    constant in i exactly while the group sizes repeat."""
    out = []
    lam = Fraction(0)
    g0 = data.sizes[0]
    for i in range(1, data.m + 1):
        lam += Fraction(data.sizes[i], g0)
        out.append((lam, i))
    return out


def galois_polygon(
    data: RamificationData, rep: RepresentationData
) -> NewtonPolygon:
    """Breaks at the lambda_i where the fixed dimensions jump, plus the
    slope-0 part fixed by the wild subgroup; endpoints (dim, swan)."""
    if len(rep.fixed_dims) != data.m + 1:
        raise RamificationError(
            "fixed_dims length must match the ramification data"
        )
    breaks = herbrand_breaks(data)
    segments: list[tuple[Fraction, int]] = []
    if data.m >= 1:
        tame_mult = rep.fixed_dims[1]  # fixed by the wild subgroup G_(1)
    else:
        tame_mult = rep.dim
    if tame_mult:
        segments.append((Fraction(0), tame_mult))
    for i in range(1, data.m):
        mult = rep.fixed_dims[i + 1] - rep.fixed_dims[i]
        if mult:
            segments.append((breaks[i - 1][0], mult))
    segments.sort(key=lambda t: t[0], reverse=True)
    keys = []
    for lam, mult in segments:
        keys.append(SlopeKey(DegreeValue.rational(lam * mult), mult))
    return NewtonPolygon(tuple(keys))


def swan(data: RamificationData, rep: RepresentationData):
    """(swan conductor, integral verdict).  Non-integral values on curated
    Galois fixtures are test failures; on synthetic profiles they are
    merely reported."""
    poly = galois_polygon(data, rep)
    total = poly.total_degree().value
    return total, total.denominator == 1


def direct_sum_rep(a: RepresentationData, b: RepresentationData) -> RepresentationData:
    if len(a.fixed_dims) != len(b.fixed_dims):
        raise RamificationError("summands need matching ramification data")
    return RepresentationData(
        a.dim + b.dim,
        tuple(x + y for x, y in zip(a.fixed_dims, b.fixed_dims)),
    )


@decoder
def load_ramification(doc) -> tuple[RamificationData, list[RepresentationData]]:
    sizes = tuple(integer_field(s, "size") for s in doc["sizes"])
    data = RamificationData(sizes, doc.get("label", ""))
    reps = [
        RepresentationData(
            integer_field(r["dim"], "dim"),
            tuple(integer_field(x, "fixed dimension") for x in r["fixed"]),
        )
        for r in doc.get("reps", [])
    ]
    return data, reps
