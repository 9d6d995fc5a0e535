import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slopes.core import (
    Budget,
    CapabilityError,
    Certificate,
    Flag,
    FlagStep,
    SlopeBackend,
    hn_filtration,
    is_semistable,
    universal_destabilizer,
)
from slopes.degrees import DegreeValue, SlopeError
from slopes.filtered import FilteredBackend
from slopes.laws import sample_filtered_space
from slopes.tables import TableBackend, load_table

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


def backend(name):
    doc = json.loads((FIXTURES / name).read_text())
    return TableBackend(load_table(doc))


def test_destabilizer_of_semistable_is_itself():
    t = backend("eq5_1.json")
    sub, key, cert = universal_destabilizer(t, "O2")
    assert sub == "O2" and cert.complete
    assert key.cmp(t.slope("O2")) == 0


def test_destabilizer_picks_max_slope_then_max_rank():
    t = backend("hn_chain.json")
    sub, key, cert = universal_destabilizer(t, "N")
    assert sub == "A"
    assert key.reduced().deg.value == 2


def test_zero_object_errors():
    t = backend("eq5_1.json")
    with pytest.raises(SlopeError):
        t.slope("0")
    with pytest.raises(SlopeError):
        universal_destabilizer(t, "0")
    with pytest.raises(SlopeError):
        hn_filtration(t, "0")
    with pytest.raises(SlopeError):
        is_semistable(t, "0")


def test_capability_error_without_search():
    class Bare(SlopeBackend):
        name = "bare"

        def rank(self, obj):
            return 1

        def degree(self, obj):
            return DegreeValue.rational(0)

    with pytest.raises(CapabilityError):
        is_semistable(Bare(), object())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_default_destabilizer_matches_native(seed):
    """The base destabilizer (strict_subobjects, then the shared selection
    rule) picks what the filtered backend's own search picks."""
    rng = random.Random(seed)
    v = sample_filtered_space(rng, dim_max=3, n=rng.choice((1, 2)))
    b = FilteredBackend()
    sub, key, cert = SlopeBackend.destabilizer(b, v, Budget())
    want_sub, want_key, want_cert = b.destabilizer(v, Budget())
    assert sub == want_sub
    assert key.cmp(want_key) == 0
    assert cert == want_cert


def test_hn_semistable_single_segment():
    t = backend("eq5_1.json")
    res = hn_filtration(t, "O2")
    assert res.flag.length() == 1
    assert res.polygon.total_rank() == 2
    assert res.polygon.total_degree().value == 0


def test_hn_endpoints_match_rank_degree():
    t = backend("hn_chain.json")
    for oid in ("N", "B", "C"):
        res = hn_filtration(t, oid)
        assert res.polygon.total_rank() == t.rank(oid)
        assert res.polygon.total_degree().cmp(t.degree(oid)) == 0
        slopes = res.graded_slopes()
        for a, b in zip(slopes, slopes[1:]):
            assert a.cmp(b) > 0


def test_certificate_merge():
    heur = Certificate(False, "heuristic: x")
    assert Certificate(True).merge(heur).complete is False
    assert Certificate(True).merge(Certificate(True)).complete is True


def test_flag_validation():
    with pytest.raises(SlopeError):
        Flag("x", ())
    with pytest.raises(SlopeError):
        Flag(
            "x",
            (
                FlagStep("a", 2, DegreeValue.rational(0)),
                FlagStep("b", 1, DegreeValue.rational(0)),
            ),
        )
