"""Backend contract and the generic slope engine.

A backend exposes objects of a slope category through a small duck-typed
surface: rank, degree, subobject search, quotients.  Everything here is a
pure function of its inputs; search results carry a certificate saying
whether the candidate set was provably complete or merely budget-bounded.
Heuristic certificates propagate and are never silently upgraded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .degrees import DegreeValue, SlopeError, SlopeKey
from .errors import SlopesError
from .polygon import NewtonPolygon, polygon_of_flag


class CapabilityError(RuntimeError):
    """The backend lacks an operation the caller needs."""


class BudgetExhausted(SlopesError, RuntimeError):
    """A search ran out of budget before producing any result."""


@dataclass(frozen=True)
class Budget:
    """Search limits.  max_candidates counts, per search: coordinate
    values tried by the lattice short-vector enumeration, distinct spans
    of the lattice span closure, and subspaces formed by the filtered
    closure (an intersection and a sum per pair); each raises
    BudgetExhausted past it."""

    bound: Optional[Any] = None  # norm bound for the lattice span closure
    max_candidates: int = 200000


@dataclass(frozen=True)
class Certificate:
    complete: bool
    detail: str = ""

    def merge(self, other: "Certificate") -> "Certificate":
        if self.complete and other.complete:
            return Certificate(True, self.detail or other.detail)
        detail = "; ".join(d for d in (self.detail, other.detail) if d and "heuristic" in d) or (
            self.detail if not self.complete else other.detail
        )
        return Certificate(False, detail)

    def to_json(self):
        return {"complete": self.complete, "detail": self.detail}


COMPLETE = Certificate(True, "")


class SlopeBackend:
    """Base class documenting the contract; backends override what they have.

    Eleven methods.  The engine (this module) calls eight: rank, degree,
    slope, quotient, pullback, destabilizer, strict_subobjects and
    candidate_key.  The law harnesses (``laws``) and the CLI call the other
    three: contains and subquotient, which the flag laws need, and
    handle_json, which defaults to str.  Only the backend module that
    creates a handle knows how it is represented.

    Required: rank, degree, quotient, pullback, and strict_subobjects or
    destabilizer.  The default destabilizer picks from strict_subobjects by
    destabilizer_from_candidates; a backend with a faster search overrides
    it.  The engine passes quotient, pullback, destabilizer and
    strict_subobjects whole objects (the input and its successive
    quotients) as ``obj``; rank, degree and candidate_key also take
    subobject handles.
    """

    name = "abstract"

    def rank(self, obj) -> int:
        raise CapabilityError(f"{self.name}: no rank")

    def degree(self, obj) -> DegreeValue:
        raise CapabilityError(f"{self.name}: no degree")

    def slope(self, obj) -> SlopeKey:
        r = self.rank(obj)
        if r == 0:
            raise SlopeError("slope of the zero object is undefined")
        return SlopeKey(self.degree(obj), r)

    def quotient(self, obj, sub):
        raise CapabilityError(f"{self.name}: no quotient")

    def pullback(self, obj, sub, quot, subquot):
        """Preimage in obj of subquot under obj -> quot = obj/sub."""
        raise CapabilityError(f"{self.name}: no pullback")

    def destabilizer(self, obj, budget: Budget):
        """(subobject, SlopeKey, Certificate) for the universal destabilizer;
        returns obj itself when semistable."""
        subs, cert = self.strict_subobjects(obj, budget)
        return destabilizer_from_candidates(self, obj, subs, cert)

    def strict_subobjects(self, obj, budget: Budget):
        """(list of nonzero strict subobjects != obj, Certificate)."""
        raise CapabilityError(f"{self.name}: no subobject enumeration")

    def candidate_key(self, sub) -> Any:
        """Deterministic tie-break order for equal-slope equal-rank picks."""
        return repr(sub)

    def contains(self, obj, small, big) -> bool:
        """Whether the strict subobject handle small of obj lies in big."""
        raise CapabilityError(f"{self.name}: no containment test")

    def subquotient(self, obj, small, big):
        """big/small as an object: big is a subobject handle of obj or obj
        itself, small a subobject handle inside big, or None for big
        itself."""
        raise CapabilityError(f"{self.name}: no subquotient")

    def handle_json(self, handle):
        """JSON form of a subobject handle or of a whole object."""
        return str(handle)


@dataclass(frozen=True)
class FlagStep:
    handle: Any
    rank: int
    degree: DegreeValue


@dataclass(frozen=True)
class Flag:
    obj: Any
    steps: tuple[FlagStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise SlopeError("a flag has at least one step")
        ranks = [s.rank for s in self.steps]
        if ranks[0] <= 0 or any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise SlopeError("flag ranks must strictly increase")

    def length(self) -> int:
        return len(self.steps)

    def points(self) -> list[tuple[int, DegreeValue]]:
        return [(s.rank, s.degree) for s in self.steps]


@dataclass(frozen=True)
class HNResult:
    flag: Flag
    polygon: NewtonPolygon
    certificates: tuple[Certificate, ...]

    @property
    def certificate(self) -> Certificate:
        out = COMPLETE
        for c in self.certificates:
            out = out.merge(c)
        return out

    def graded_slopes(self) -> list[SlopeKey]:
        return [s.reduced() for s in self.polygon.segments]

    def to_json(self, handle_json=repr):
        return {
            "flag": [
                {
                    "rank": s.rank,
                    "degree": s.degree.to_json(),
                    "subobject": handle_json(s.handle),
                }
                for s in self.flag.steps
            ],
            "polygon": self.polygon.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
        }


def universal_destabilizer(cat: SlopeBackend, obj, budget: Budget = Budget()):
    """Maximal-slope, then maximal-rank strict subobject; obj itself when
    semistable."""
    if cat.rank(obj) == 0:
        raise SlopeError("zero object has no destabilizer")
    return cat.destabilizer(obj, budget)


def destabilizer_from_candidates(cat: SlopeBackend, obj, subs, cert: Certificate):
    """(subobject, SlopeKey, cert): among the strict candidates, maximal
    slope, then maximal rank, then least candidate_key; obj itself when no
    candidate has slope above obj's."""
    mu = cat.slope(obj)
    best = None
    best_key = mu
    for s in subs:
        r = cat.rank(s)
        if r == 0 or r >= cat.rank(obj):
            continue
        key = SlopeKey(cat.degree(s), r)
        c = key.cmp(best_key)
        if c > 0 or (
            c == 0
            and best is not None
            and (
                r > best_key.rk
                or (r == best_key.rk and cat.candidate_key(s) < cat.candidate_key(best))
            )
        ):
            best, best_key = s, key
    if best is None:
        return obj, mu, cert
    return best, best_key, cert


def is_semistable(cat: SlopeBackend, obj, budget: Budget = Budget()):
    """(bool, Certificate) per the strict-subobject slope test."""
    if cat.rank(obj) == 0:
        raise SlopeError("semistability of the zero object is undefined")
    sub, key, cert = universal_destabilizer(cat, obj, budget)
    return key.cmp(cat.slope(obj)) <= 0, cert


def hn_filtration(cat: SlopeBackend, obj, budget: Budget = Budget()) -> HNResult:
    """Harder-Narasimhan flag by iterated universal destabilizers.

    The first step is the universal destabilizer of obj; later steps pull
    back the destabilizer of the successive quotients.  Terminates because
    quotient ranks strictly decrease.
    """
    r = cat.rank(obj)
    if r == 0:
        raise SlopeError("zero object has no slope filtration")
    steps: list[FlagStep] = []
    certs: list[Certificate] = []
    sub, key, cert = universal_destabilizer(cat, obj, budget)
    certs.append(cert)
    if cat.rank(sub) == r:
        steps.append(FlagStep(obj, r, cat.degree(obj)))
    else:
        steps.append(FlagStep(sub, cat.rank(sub), cat.degree(sub)))
        quot = cat.quotient(obj, sub)
        rest = hn_filtration(cat, quot, budget)
        certs.extend(rest.certificates)
        for qstep in rest.flag.steps:
            if qstep.rank == cat.rank(quot):
                handle = obj
            else:
                handle = cat.pullback(obj, sub, quot, qstep.handle)
            steps.append(
                FlagStep(
                    handle,
                    qstep.rank + cat.rank(sub),
                    qstep.degree + cat.degree(sub),
                )
            )
    flag = Flag(obj, tuple(steps))
    polygon = polygon_of_flag(flag.points())
    slopes = polygon.segments
    if len(slopes) != len(steps):
        raise SlopeError("HN flag produced a non-vertex step")
    return HNResult(flag, polygon, tuple(certs))
