import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from slopes import lattices as lattices_mod
from slopes import linalg
from slopes.core import Budget
from slopes.filtered import FilteredBackend
from slopes.lattices import EuclideanLattice, LatticeBackend, saturate
from slopes.laws import (
    bost_experiment,
    check_degree_axioms,
    check_dominance,
    check_exactness,
    check_hn_uniqueness,
    check_minmax,
    check_coprime_stability,
    check_duality_filtered,
    check_tensor_mult_filtered,
    gr_kernel_demo,
    morphism_slope_law,
    sample_filtered_space,
    sample_lattice,
    sample_saturated_sub,
)
from slopes.tables import TableBackend, load_table

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


def table(name):
    return TableBackend(load_table(json.loads((FIXTURES / name).read_text())))


def test_axioms_filtered_clean():
    report = check_degree_axioms("filtered", 60, seed=1)
    assert report["violations"] == []
    assert report["checked"] > 10


def test_axioms_lattice_clean():
    report = check_degree_axioms("lattice", 40, seed=2)
    assert report["violations"] == []


def test_axioms_table_eq5_2_additivity():
    report = check_degree_axioms("table", 0, seed=0, table=table("eq5_2.json"))
    assert report["violations"] == [] and report["checked"] == 1


def test_axioms_detect_fault_injection(monkeypatch):
    """A corrupted quotient metric must surface as an additivity violation."""

    real = lattices_mod.quotient_with_metric

    def corrupted(lat, sub):
        q = real(lat, sub)
        if q.rank == 0:
            return q
        g = [[2 * c for c in row] for row in q.gram]
        return EuclideanLattice(g)

    monkeypatch.setattr("slopes.lattices.quotient_with_metric", corrupted)
    report = check_degree_axioms("lattice", 40, seed=2)
    assert any(v["kind"] == "additivity" for v in report["violations"])


def test_exactness_lattice_counterexample():
    backend = LatticeBackend()
    report = check_exactness(backend, [EuclideanLattice.standard(2)])
    assert report["exact"] is False
    assert report["witness"]["subobject"] == {"basis_columns": [[1, 1]]}
    assert report["witness"]["sub_slope"] == {"neg_half_log": "2"}


def test_exactness_filtered_single_filtration_none():
    rng = random.Random(9)
    backend = FilteredBackend()
    objects = [sample_filtered_space(rng, dim_max=3, n=1) for _ in range(25)]
    report = check_exactness(backend, objects)
    assert report["exact"] is None


def test_exactness_table_eq5_1():
    t = table("eq5_1.json")
    report = check_exactness(t, ["O2"])
    assert report["exact"] is False
    assert report["witness"]["subobject"] == "Om1"


def test_gr_kernel_demo_cases():
    t = table("eq5_1.json")
    by_kernel = {m.kernel: m for m in t.morphisms()}
    assert gr_kernel_demo(t, by_kernel["Om1"])["iso_possible"] is False
    assert gr_kernel_demo(t, by_kernel["0"])["iso_possible"] is True
    assert gr_kernel_demo(t, by_kernel["O2"])["iso_possible"] is True


def test_gr_kernel_requires_kernel_data():
    t = table("eq5_1.json")
    m = t.morphisms()[0]
    broken = type(m)(source=m.source, target=m.target, kernel=None)
    with pytest.raises(ValueError):
        gr_kernel_demo(t, broken)


def test_morphism_slope_law():
    report = morphism_slope_law(table("eq5_1.json"))
    assert report["violations"] == [] and report["checked"] >= 1


def test_morphism_slope_law_filtered():
    from slopes.laws import morphism_slope_law_filtered

    report = morphism_slope_law_filtered(10, seed=21)
    assert report["checked"] >= 5
    assert report["violations"] == []


def test_minmax_random():
    report = check_minmax(80, seed=3)
    assert report["failures"] == []
    assert report["checked"] > 20


def test_uniqueness_and_dominance_on_fixture_tables():
    budget = Budget()
    for name in ("eq5_1.json", "rem3_2_5.json", "hn_chain.json"):
        t = table(name)
        for oid in t.cat.objects:
            if oid == "0":
                continue
            uni = check_hn_uniqueness(t, oid, budget)
            assert uni["qualifying"] == 1 and uni["matches_hn"], (name, oid)
            dom = check_dominance(t, oid, budget)
            assert dom["dominance_failures"] == 0


def test_uniqueness_and_dominance_filtered_random():
    rng = random.Random(13)
    backend = FilteredBackend()
    for _ in range(25):
        v = sample_filtered_space(rng, dim_max=3, n=2)
        uni = check_hn_uniqueness(backend, v)
        assert uni["qualifying"] == 1 and uni["matches_hn"]
        dom = check_dominance(backend, v)
        assert dom["dominance_failures"] == 0


def test_uniqueness_and_dominance_on_a_lattice():
    """The flag laws reach lattices through the backend contract; norm
    bound 9 keeps the enumeration at 65 flags (1640 without it)."""
    lat = EuclideanLattice.from_json(json.loads((FIXTURES / "rank3.json").read_text()))
    budget = Budget(bound=Fraction(9))
    dom = check_dominance(LatticeBackend(), lat, budget)
    assert dom == {"flags": 65, "dominance_failures": 0}
    uni = check_hn_uniqueness(LatticeBackend(), lat, budget)
    assert uni["qualifying"] == 1 and uni["matches_hn"]


def test_flag_laws_enumerate_once_per_object(monkeypatch):
    """check_flag_laws shares one flag enumeration per object between the
    dominance and the uniqueness check, and reports what they report."""
    import slopes.laws as laws_mod

    calls = []
    real = laws_mod.enumerate_flags

    def counting(backend, obj, budget=Budget()):
        calls.append(obj)
        return real(backend, obj, budget)

    monkeypatch.setattr(laws_mod, "enumerate_flags", counting)
    rng = random.Random(13)
    objects = [sample_filtered_space(rng, dim_max=3, n=2) for _ in range(6)]
    backend = FilteredBackend()
    report, _ = laws_mod.check_flag_laws(backend, objects)
    assert calls == objects
    doms = [check_dominance(backend, v) for v in objects]
    assert report == {
        "flags_checked": sum(d["flags"] for d in doms),
        "dominance_failures": sum(d["dominance_failures"] for d in doms),
        "uniqueness_failures": sum(
            not check_hn_uniqueness(backend, v)["matches_hn"] for v in objects
        ),
    }


def _nested_handles(kind, rng):
    """(backend, obj, small, big): big a strict subobject handle of obj,
    small one inside big; None when the draw is degenerate."""
    if kind == "filtered":
        obj = sample_filtered_space(rng, dim_max=4)
        if obj.dim < 2:
            return None
        big = linalg.rref(
            [
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(obj.dim))
                for _ in range(rng.randint(1, obj.dim - 1))
            ]
        )
        if not big:
            return None
        combos = [
            [rng.randint(-2, 2) for _ in big] for _ in range(rng.randint(1, len(big)))
        ]
        small = linalg.rref(
            [tuple(sum(c * row[i] for c, row in zip(cs, big)) for i in range(obj.dim)) for cs in combos]
        )
        if not small:
            return None
        return FilteredBackend(), obj, (obj, small), (obj, big)
    obj = sample_lattice(rng, rank_max=4)
    if obj.rank < 2:
        return None
    big = sample_saturated_sub(rng, obj)
    combos = [
        [rng.randint(-2, 2) for _ in range(big.rank)]
        for _ in range(rng.randint(1, big.rank))
    ]
    cols = [
        [sum(c[j] * big.basis[j][i] for j in range(big.rank)) for i in range(obj.rank)]
        for c in combos
    ]
    if linalg.rank(linalg.frac_matrix(cols)) != len(cols):
        return None
    return LatticeBackend(), obj, saturate(obj, cols), big


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("filtered", "lattice")), st.integers(0, 10**6))
def test_subquotient_and_contains_follow_nesting(kind, seed):
    drawn = _nested_handles(kind, random.Random(seed))
    assume(drawn is not None)
    backend, obj, small, big = drawn
    for lo, hi in ((None, big), (small, big), (None, obj), (small, obj), (big, obj)):
        piece = backend.subquotient(obj, lo, hi)
        if lo is None:
            assert backend.rank(piece) == backend.rank(hi)
            assert backend.degree(piece).cmp(backend.degree(hi)) == 0
        else:
            assert backend.rank(piece) == backend.rank(hi) - backend.rank(lo)
            total = backend.degree(piece) + backend.degree(lo)
            assert total.cmp(backend.degree(hi)) == 0
    assert backend.contains(obj, small, big)
    assert backend.contains(obj, big, small) == (backend.rank(small) == backend.rank(big))


def test_tensor_mult_filtered():
    report = check_tensor_mult_filtered(25, seed=5)
    assert report["failures"] == []


def test_bifil_tensor_semistable_evidence():
    from slopes.laws import check_bifil_tensor_semistable

    report = check_bifil_tensor_semistable(6, seed=15)
    assert report["found"] >= 4
    assert report["failures"] == []


def test_duality_filtered():
    report = check_duality_filtered(30, seed=6)
    assert report["failures"] == []


def test_coprime_stability():
    report = check_coprime_stability(8, seed=7)
    assert report["found"] >= 8
    assert report["failures"] == []


def test_bost_experiment_reports_no_counterexample():
    report = bost_experiment(3, seed=8)
    assert report["pairs"] >= 1
    assert report["counterexamples"] == []
