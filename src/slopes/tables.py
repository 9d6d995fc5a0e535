"""Finite tabulated slope categories.

Objects, strict subobject triples and (optionally) morphisms are declared
in a JSON document and validated at load time: rank and degree must be
additive across every declared (sub, ambient, quotient) triple, ids must
resolve, and subs of declared subs must themselves be declared.  The
backend never synthesizes quotients; tabulated data cannot compute
cokernels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .core import Budget, COMPLETE, SlopeBackend
from .degrees import DegreeValue
from .errors import SlopesError, decoder, integer_field, rational_field

ZERO_ID = "0"


class TableError(SlopesError, ValueError):
    pass


@dataclass(frozen=True)
class TableObject:
    id: str
    rank: int
    degree: DegreeValue


@dataclass(frozen=True)
class TableMorphism:
    source: str
    target: str
    kernel: Optional[str] = None
    image: Optional[str] = None
    zero: bool = False


@dataclass
class TableCategory:
    objects: dict[str, TableObject]
    triples: list[tuple[str, str, str]]  # (sub, ambient, quotient)
    morphisms: list[TableMorphism] = field(default_factory=list)
    description: str = ""

    def __post_init__(self):
        if ZERO_ID not in self.objects:
            self.objects[ZERO_ID] = TableObject(
                ZERO_ID, 0, DegreeValue.rational(0)
            )
        self.validate()

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        for sub, amb, quot in self.triples:
            for oid in (sub, amb, quot):
                if oid not in self.objects:
                    raise TableError(f"dangling id {oid!r} in exact triple")
            s, a, q = (self.objects[i] for i in (sub, amb, quot))
            if s.rank + q.rank != a.rank:
                raise TableError(
                    f"rank not additive on ({sub}, {amb}, {quot})"
                )
            if (s.degree + q.degree).cmp(a.degree) != 0:
                raise TableError(
                    f"degree not additive on ({sub}, {amb}, {quot})"
                )
        # transitivity: a declared sub of a declared sub must be declared
        for s1, a1, _ in self.triples:
            for s2, a2, _ in self.triples:
                if a2 == s1 and s2 != ZERO_ID and s2 != s1:
                    if not any(
                        s == s2 and a == a1 for s, a, _ in self.triples
                    ):
                        raise TableError(
                            f"strict subs do not compose: {s2} < {s1} < {a1} "
                            f"but ({s2}, {a1}) is not declared"
                        )
        for m in self.morphisms:
            for oid in (m.source, m.target, m.kernel, m.image):
                if oid is not None and oid not in self.objects:
                    raise TableError(f"dangling id {oid!r} in morphism")

    # -- queries -----------------------------------------------------------------

    def subs_of(self, oid: str) -> list[str]:
        return [s for s, a, _ in self.triples if a == oid and s != ZERO_ID]

    def quotient_of(self, oid: str, sub: str) -> str:
        if sub == oid:
            return ZERO_ID
        if sub == ZERO_ID:
            return oid
        for s, a, q in self.triples:
            if s == sub and a == oid:
                return q
        raise TableError(f"no declared quotient for ({sub}, {oid})")


@decoder
def load_table(doc) -> TableCategory:
    """Build and validate a TableCategory from a JSON document or dict."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    objects = {}
    for o in doc.get("objects", []):
        oid = str(o["id"])
        if oid in objects:
            raise TableError(f"duplicate object id {oid!r}")
        objects[oid] = TableObject(
            oid,
            integer_field(o["rank"], "rank"),
            DegreeValue.rational(rational_field(o["deg"], "deg")),
        )
    triples = []
    for t in doc.get("exact", []):
        if len(t) != 3:
            raise TableError(f"exact triple needs 3 ids, got {t!r}")
        triples.append(tuple(str(x) for x in t))
    morphisms = [
        TableMorphism(
            source=str(m["source"]),
            target=str(m["target"]),
            kernel=str(m["kernel"]) if "kernel" in m else None,
            image=str(m["image"]) if "image" in m else None,
            zero=bool(m.get("zero", False)),
        )
        for m in doc.get("morphisms", [])
    ]
    return TableCategory(
        objects, triples, morphisms, description=str(doc.get("description", ""))
    )


class TableBackend(SlopeBackend):
    """SlopeBackend over a tabulated category; objects are ids."""

    name = "table"

    def __init__(self, cat: TableCategory):
        self.cat = cat

    def _get(self, oid: str) -> TableObject:
        try:
            return self.cat.objects[oid]
        except KeyError:
            raise TableError(f"unknown object id {oid!r}") from None

    def rank(self, oid: str) -> int:
        return self._get(oid).rank

    def degree(self, oid: str) -> DegreeValue:
        return self._get(oid).degree

    def candidate_key(self, oid: str):
        return oid

    def strict_subobjects(self, oid: str, budget: Budget = Budget()):
        self._get(oid)
        return self.cat.subs_of(oid), COMPLETE

    def quotient(self, oid: str, sub: str) -> str:
        return self.cat.quotient_of(oid, sub)

    def pullback(self, oid: str, sub: str, quot: str, subquot: str) -> str:
        """Declared object X with sub < X < oid and X/sub = subquot."""
        if subquot == ZERO_ID:
            return sub
        if subquot == quot:
            return oid
        for x in self.cat.subs_of(oid) + [oid]:
            try:
                if self.cat.quotient_of(x, sub) == subquot:
                    return x
            except TableError:
                continue
        raise TableError(
            f"no declared pullback of {subquot} along {oid} -> {quot}"
        )

    def contains(self, oid: str, small: str, big: str) -> bool:
        return small == big or any(
            s == small and a == big for s, a, _ in self.cat.triples
        )

    def subquotient(self, oid: str, small, big: str) -> str:
        return big if small is None else self.cat.quotient_of(big, small)

    def morphisms(self) -> list[TableMorphism]:
        return self.cat.morphisms
