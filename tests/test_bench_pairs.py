"""The summary step of scripts/bench_pairs.py on canned run records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "kind_a_jobs_per_s", "better": "higher", "bound": 0.25},
    {"name": "job_ms_tail", "better": "lower", "bound": 0.25},
]


def run(side, pair, rate, tail, cycles=10, seed=0, correct=True):
    return {
        "set": f"lattice-filtered/seed{seed}", "side": side, "pair": pair,
        "workload": "lattice-filtered", "seed": seed, "cycles": cycles, "correct": correct,
        "metrics": {"kind_a_jobs_per_s": rate, "job_ms_tail": tail},
    }


def test_summary_medians_wins_and_bounds():
    runs = [
        run("parent", 1, 10.0, 90.0), run("change", 1, 15.0, 1000.0, cycles=11),
        run("change", 2, 14.0, 95.0), run("parent", 2, 11.0, 88.0),
        run("parent", 3, 12.0, 92.0), run("change", 3, 11.5, 91.0),
        run("parent", 1, 20.0, 80.0, seed=1), run("change", 1, 30.0, 80.0, seed=1, correct=False),
    ]
    summary = bench_pairs.summarize(runs, SPECS)
    assert list(summary) == ["lattice-filtered/seed0", "lattice-filtered/seed1"]
    s0 = summary["lattice-filtered/seed0"]
    assert s0["pairs"] == 3 and s0["correct_all"]
    assert s0["parent_cycles"] == [10, 10, 10] and s0["change_cycles"] == [11, 10, 10]
    assert s0["eleven_cycle_runs"] == [{"side": "change", "pair": 1, "cycles": 11}]
    rate = s0["kind_a_jobs_per_s"]
    assert rate["parent_runs"] == [10.0, 11.0, 12.0]
    assert rate["change_runs"] == [15.0, 14.0, 11.5]
    assert (rate["parent_median"], rate["change_median"]) == (11.0, 14.0)
    assert rate["wins"] == 2
    assert rate["change_over_parent"] == pytest.approx(3 / 11)
    assert rate["parent_quartiles"] == [10.0, 11.0, 12.0]
    assert rate["parent_quartile_distance"] == 2.0
    assert rate["within_bound"]
    tail = s0["job_ms_tail"]
    assert (tail["parent_median"], tail["change_median"]) == (90.0, 95.0)
    assert tail["wins"] == 1  # lower is better: only pair 3
    assert tail["within_bound"]
    s1 = summary["lattice-filtered/seed1"]
    assert not s1["correct_all"]
    assert s1["kind_a_jobs_per_s"]["wins"] == 1


def test_summary_flags_a_metric_outside_its_bound():
    runs = [run("parent", p, 10.0, 100.0) for p in (1, 2)] + [
        run("change", 1, 7.0, 140.0), run("change", 2, 7.4, 130.0)
    ]
    s = bench_pairs.summarize(runs, SPECS)["lattice-filtered/seed0"]
    assert not s["kind_a_jobs_per_s"]["within_bound"]  # median -28%
    assert not s["job_ms_tail"]["within_bound"]  # median +35%
    runs[-1]["metrics"]["job_ms_tail"] = 110.0
    s = bench_pairs.summarize(runs, SPECS)["lattice-filtered/seed0"]
    assert s["job_ms_tail"]["within_bound"]  # median +25%, at the bound
