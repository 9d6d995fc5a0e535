#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on the working tree in
alternating pairs, and summarize each end-to-end metric.

    python scripts/bench_pairs.py --parent REV --workload NAME \\
        --pairs SEED:COUNT [--pairs SEED:COUNT ...] --work DIR --out FILE \\
        [--traced SEED]

Both sides are exported with ``git archive`` into DIR/parent and DIR/change
(the change side is the working tree, untracked files included, as a
temporary index sees it), so each runs from a clean tree.  Pair p runs
the parent first when p is odd, the change first when p is even.  Every
run is the command of BENCHMARK.json for its ``run_seconds``, started
through an intermediate ``/bin/sh`` that does not exec it: ``ru_maxrss``
survives ``exec``, so a run started straight from this process would
read this process's memory as its ``peak_rss_mb``.  ``--traced SEED`` adds one ``--trace 1`` run per
side.

The JSON written to FILE holds every run (metrics, cycles, correct) and,
per seed, each metric's parent and change medians, the pairs the change
wins, the parent's quartiles and whether the change stays within the
metric's bound.  ``lattice-filtered`` runs that fit 11 or more cycles are
flagged: their ``job_ms_tail`` reads a hard-share deadline miss.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ELEVEN_CYCLES = 11  # lattice-filtered runs fit 9 or 10 cycles; an 11th reads a 1000-ms tail


def git(*args, env=None, text=True) -> str | bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=text
    ).stdout


def working_tree() -> str:
    """The tree object of the working tree, written through a temporary
    index so that the real index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env).strip()


def export(treeish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", treeish, text=False))) as tar:
        tar.extractall(dest)


def run_once(command, tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # sh forks before running the benchmark, as the command is not its last
    proc = subprocess.run(
        ["/bin/sh", "-c", f"{shlex.join(argv)}; exit $?"], cwd=tree, capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{shlex.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    record_path = tree / ".bench_work" / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "cycles": record.get("cycles"),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values) -> list[float]:
    """[q1, median, q3]; with fewer than 4 values, [min, median, max]."""
    if len(values) < 4:
        return [min(values), statistics.median(values), max(values)]
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, end_to_end) -> dict:
    """Per workload/seed set: every metric's medians, wins, parent quartiles
    and bound check, and the runs that fit ELEVEN_CYCLES or more cycles on
    lattice-filtered.  runs carry set, side, pair, cycles, correct and
    metrics; end_to_end is BENCHMARK.json's list of metric specs."""
    out = {}
    for name in dict.fromkeys(run["set"] for run in runs):
        sides = {
            side: sorted((r for r in runs if r["set"] == name and r["side"] == side),
                         key=lambda r: r["pair"])
            for side in ("parent", "change")
        }
        pairs = list(zip(sides["parent"], sides["change"]))
        entry = {
            "pairs": len(pairs),
            "correct_all": all(r["correct"] for r in sides["parent"] + sides["change"]),
            "parent_cycles": [r["cycles"] for r in sides["parent"]],
            "change_cycles": [r["cycles"] for r in sides["change"]],
            "eleven_cycle_runs": [
                {"side": r["side"], "pair": r["pair"], "cycles": r["cycles"]}
                for r in sides["parent"] + sides["change"]
                if r["workload"] == "lattice-filtered" and r["cycles"] >= ELEVEN_CYCLES
            ],
        }
        for spec in end_to_end:
            metric, higher = spec["name"], spec["better"] == "higher"
            parent = [p["metrics"][metric] for p, _ in pairs]
            change = [c["metrics"][metric] for _, c in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q = quartiles(parent)
            gain = (c_med - p_med) / p_med if p_med else 0.0
            worse = -gain if higher else gain
            entry[metric] = {
                "better": spec["better"],
                "bound": spec["bound"],
                "parent_runs": parent,
                "change_runs": change,
                "parent_median": p_med,
                "change_median": c_med,
                "change_over_parent": gain,
                "wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
                "parent_quartiles": q,
                "parent_quartile_distance": q[2] - q[0],
                "within_bound": worse <= spec["bound"],
            }
        out[name] = entry
    return out


def parse_pairs(text: str) -> tuple[int, int]:
    seed, count = text.split(":")
    return int(seed), int(count)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                    help="SEED:COUNT, repeatable")
    ap.add_argument("--traced", type=int, help="seed of one --trace 1 run per side")
    ap.add_argument("--work", type=Path, required=True, help="empty directory for the two trees")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    revs = {"parent": git("rev-parse", args.parent).strip(), "change": working_tree()}
    trees = {side: args.work / side for side in revs}
    for side, rev in revs.items():
        export(rev, trees[side])
    doc = {
        "parent_rev": revs["parent"],
        "change_tree": revs["change"],
        "command": f"{shlex.join(spec['command'])} --workload {args.workload} --seed <seed> "
                   f"--seconds {seconds} --trace 0, each side in its own git archive tree, "
                   "through /bin/sh; odd pairs run the parent first",
        "runs": [],
    }
    for seed, count in args.pairs:
        for pair in range(1, count + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = run_once(spec["command"], trees[side], args.workload, seed, seconds, 0)
                run.update(set=f"{args.workload}/seed{seed}", side=side, pair=pair,
                           first=order[0], workload=args.workload, seed=seed)
                doc["runs"].append(run)
                print(f"seed {seed} pair {pair} {side:6s} cycles {run['cycles']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
    if args.traced is not None:
        doc["traced"] = {
            side: run_once(spec["command"], tree, args.workload, args.traced, seconds, 1)
            for side, tree in trees.items()
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["summary"].items():
        for metric in spec["end_to_end"]:
            m = entry[metric["name"]]
            print(f"{name} {metric['name']:18s} "
                  f"{m['parent_median']:.4g} -> {m['change_median']:.4g} "
                  f"({m['change_over_parent']:+.1%}, wins {m['wins']}/{entry['pairs']}, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'} bound)")
        if entry["eleven_cycle_runs"]:
            print(f"{name} runs with {ELEVEN_CYCLES}+ cycles: {entry['eleven_cycle_runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
