"""Benchmark of the slopes CLI: one client, one job at a time, in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (``src/slopes`` must exist).  It
generates the workload's inputs from the seed (``gen.py``), runs each job
through ``slopes.cli.main(argv)`` under a per-job deadline, checks every
artifact against an independent reference (``oracle.py``) and, for seed 0,
against the sha256 digests recorded in ``digests.json``.

With ``--trace 0`` it runs whole cycles of the workload until the time
spent in jobs reaches ``--seconds`` and prints the end-to-end metrics, with
every time rescaled to a reference machine speed (see ``calibrate``).  With
``--trace 1`` it runs one cycle untraced, then the same jobs again with the
layer wrappers of ``tracing.py`` installed, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Inputs, artifacts, run records and spans go to ``.bench_work/`` in the checkout.

``--write-digests`` records the digests of the first two cycles of every
workload under seed 0 instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
DIGEST_CYCLES = 2
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# Times are reported at a reference machine speed: the speed at which
# calibrate() takes CAL_REFERENCE_S.  The 2-core box is shared, and the
# same loop runs up to 2x slower for spells of seconds to minutes; each
# job's latency is divided by the slowdown its calibrations saw.
CAL_REFERENCE_S = 0.0012
# Metrics of the JSON result line.  failed_ratio is printed but left out
# there because it is 0 on the workloads without a hard share; a failure
# outside the hard shares makes the line's "correct" false instead.
# kind_a / kind_b are jobs_per_s of the workload's two job kinds
# (gen.KINDS), so a change that helps one kind and costs the other shows.
E2E = ("setup_s", "jobs_per_s", "kind_a_jobs_per_s", "kind_b_jobs_per_s",
       "job_ms_p50", "job_ms_tail", "complete_ratio", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "kind_a_jobs_per_s": "1/s",
    "kind_b_jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
    "failed_ratio": "1", "complete_ratio": "1", "peak_rss_mb": "MB",
}


class JobDeadline(BaseException):
    """Raised by SIGALRM inside a job; the CLI's handlers do not catch it."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        raise JobDeadline()


def import_cli():
    if not (SRC / "slopes" / "__init__.py").is_file():
        sys.stderr.write(f"error: no slopes sources under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from slopes import cli

    return cli


def write_inputs(workload, seed, start, count, workdir):
    """Generate jobs start..start+count-1 and write their input files."""
    jobs = []
    for index in range(start, start + count):
        job = gen.job(workload, seed, index)
        job["index"] = index
        job["in"] = workdir / f"{index}.in.json"
        job["out"] = workdir / f"{index}.out.json"
        job["svg"] = workdir / f"{index}.svg"
        job["in"].write_text(json.dumps(job["doc"]))
        jobs.append(job)
    return jobs


def run_job(cli, job, deadline):
    """(status, seconds, detail) for one CLI call under a deadline; the
    status is the exit code or "deadline" / "exception"."""
    argv = [str(job["in"]) if a == "{in}" else a for a in job["argv"]]
    argv += ["--out", str(job["out"]), "--svg", str(job["svg"])]
    err = io.StringIO()
    detail = ""
    start = time.perf_counter()
    try:
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        with contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except JobDeadline:
        status = "deadline"
    except Exception as exc:  # a crash is a result the benchmark reports
        status, detail = "exception", repr(exc)
    finally:
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if status == "deadline":
        seconds = deadline
    return status, seconds, detail or err.getvalue().strip()


def _sha(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def verify(job, status, detail, digests):
    """(outcome, complete, cause); outcome is "ok", "stopped" or "failed"."""
    if status == 3:
        return "stopped", False, None
    if status != 0:
        if status in ("deadline", "exception"):
            return "failed", False, f"{status} {detail}".strip()
        return "failed", False, f"exit code {status}: {detail}"
    doc = json.loads(job["out"].read_text())
    problem = oracle.check(job["kind"], job["expect"], doc)
    if problem:
        return "failed", False, f"oracle: {problem}"
    want = digests.get(str(job["index"]))
    if want is not None and want != [_sha(job["out"]), _sha(job["svg"])]:
        return "failed", False, "digest: artifact differs from the recorded sha256"
    return "ok", oracle.complete(job["kind"], doc), None


def tolerated(result):
    """A hard-share job that missed its deadline: a known defect of the
    program, counted as failed but not making the run incorrect.  Any other
    failure, a hard-share job's wrong answer included, does."""
    return result["hard"] and result["status"] == "deadline"


def load_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


# -- set-up ---------------------------------------------------------------------------


def setup_probe(workload, seed):
    """Child-process set-up: import, write the first cycle, one warm-up job.
    Prints the raw time and the mean of the calibrations before and after."""
    before = statistics.median(calibrate() for _ in range(7))
    start = time.perf_counter()
    cli = import_cli()
    workdir = WORK / workload / "setup"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = write_inputs(workload, seed, 0, gen.cycle_length(workload), workdir)
    run_job(cli, jobs[0], jobs[0]["deadline"])
    raw = time.perf_counter() - start
    after = statistics.median(calibrate() for _ in range(7))
    print(raw, (before + after) / 2)


def measure_setup(workload, seed):
    """Median set-up time at reference speed, and the raw samples."""
    samples = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, cal = map(float, done.stdout.split())
        samples.append(raw)
        scaled.append(raw * CAL_REFERENCE_S / cal)
    return statistics.median(scaled), samples


# -- runs ------------------------------------------------------------------------------


def calibrate():
    """Seconds for a fixed exact-arithmetic loop, about 1 ms: the same kind
    of work as the jobs, so it slows down with them."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t0


def run_cycles(cli, workload, seed, seconds, workdir, digests):
    """Whole cycles until the time spent in jobs, at reference speed,
    reaches ``seconds``; the number of cycles then does not depend on how
    busy the machine is."""
    size = gen.cycle_length(workload)
    results = []
    spent = 0.0
    cycle = 0
    while cycle == 0 or spent < seconds:
        for job in write_inputs(workload, seed, cycle * size, size, workdir):
            before = calibrate()
            status, secs, detail = run_job(cli, job, job["deadline"])
            cal = (before, calibrate())
            outcome, complete, cause = verify(job, status, detail, digests)
            results.append(dict(index=job["index"], kind=job["kind"], share=job["share"],
                                hard=job["hard"], status=status,
                                seconds=secs, outcome=outcome, complete=complete,
                                cause=cause, deadline=job["deadline"], cal=cal))
            spent += secs if status == "deadline" else secs / slowdown(cal)
        cycle += 1
    return results, cycle


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0, 0
    n = len(ordered)
    return ordered[TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def slowdown(cal):
    """How much slower than reference speed the machine ran around a job:
    the mean of the calibrations just before and after it, over the
    reference.  Wider windows tracked the machine worse."""
    return (cal[0] + cal[1]) / 2 / CAL_REFERENCE_S


def at_reference_speed(results):
    """Job latencies rescaled to the reference machine speed.  A missed
    deadline is a wall-clock cut and stays at the deadline."""
    return [r["seconds"] if r["status"] == "deadline" else r["seconds"] / slowdown(r["cal"])
            for r in results]


def jobs_per_s(results, lat):
    """Verified jobs per second of (rescaled) job time."""
    return sum(r["outcome"] == "ok" for r in results) / sum(lat)


def end_to_end(results, setup_s, kinds):
    lat = at_reference_speed(results)
    n = len(results)
    failed = sum(r["outcome"] == "failed" for r in results)
    tail_s, pct, beyond = tail(lat)
    per_kind = {}
    for label, kind in zip(("kind_a", "kind_b"), kinds):
        mine = [(r, t) for r, t in zip(results, lat) if r["kind"] == kind]
        per_kind[f"{label}_jobs_per_s"] = jobs_per_s(*zip(*mine))
    return {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s(results, lat),
        **per_kind,
        "job_ms_p50": 1000 * statistics.median(lat),
        "job_ms_tail": 1000 * tail_s,
        "failed_ratio": failed / n,
        "complete_ratio": sum(r["complete"] for r in results) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"tail_percentile": pct, "tail_beyond": beyond}


def run_record(args, workload):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "slopes").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cycle_jobs": gen.cycle_length(workload),
        "deadlines_s": sorted({gen.job(workload, args.seed, i)["deadline"]
                               for i in range(gen.cycle_length(workload))}),
    }


def by_share(results):
    shares = {}
    for r in results:
        shares.setdefault(r["share"], []).append(r["seconds"])
    return {k: {"jobs": len(v), "median_ms": 1000 * statistics.median(v),
                "max_ms": 1000 * max(v)} for k, v in sorted(shares.items())}


def print_failures(results):
    bad = [r for r in results if r["outcome"] == "failed"]
    print(f"failures: {len(bad)} ({sum(map(tolerated, bad))} hard-share deadline misses)")
    for r in bad:
        note = "hard share" if tolerated(r) else "UNEXPECTED"
        print(f"  job {r['index']:5d}  {r['share']:<32} {note:<10} {r['cause'][:160]}")
    stopped = [r for r in results if r["outcome"] == "stopped"]
    if stopped:
        print(f"typed stops (exit 3, not failures, not verified): {len(stopped)}")


def main_measure(args, cli):
    workload = args.workload
    setup_s, setup_samples = measure_setup(workload, args.seed)
    workdir = WORK / workload / "run"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = load_digests(workload, args.seed)
    warm = write_inputs(workload, args.seed, 0, 1, workdir)[0]
    run_job(cli, warm, warm["deadline"])
    results, cycles = run_cycles(cli, workload, args.seed, args.seconds, workdir, digests)
    metrics, tail_info = end_to_end(results, setup_s, gen.KINDS[workload])
    record = run_record(args, workload)
    record.update(jobs=len(results), cycles=cycles, metrics=metrics, **tail_info,
                  raw_jobs_per_s=sum(r["outcome"] == "ok" for r in results)
                  / sum(r["seconds"] for r in results),
                  raw_job_ms_p50=1000 * statistics.median(r["seconds"] for r in results),
                  setup_samples_s=setup_samples, shares=by_share(results),
                  latencies_s=[[r["index"], r["seconds"], r["cal"]] for r in results],
                  failures=[r for r in results if r["outcome"] == "failed"])
    n = len(results)
    print(f"workload {workload}  seed {args.seed}  {n} jobs in {cycles} cycles of "
          f"{record['cycle_jobs']} ({sum(r['seconds'] for r in results):.2f} s in jobs)  deadlines {record['deadlines_s']} s  "
          f"rev {record['git_rev']}  python {record['python']}  nproc {record['nproc']}")
    print("load: closed loop, one client, one job at a time, in-process; "
          "no layer has a queue, so time waited does not exist here")
    counts = {kind: sum(r["kind"] == kind for r in results) for kind in gen.KINDS[workload]}
    samples = {"setup_s": f"median of {len(setup_samples)} set-ups",
               "jobs_per_s": f"n={n}; raw {record['raw_jobs_per_s']:.4f}",
               **{f"{label}_jobs_per_s": f"{kind}, n={counts[kind]}"
                  for label, kind in zip(("kind_a", "kind_b"), gen.KINDS[workload])},
               "job_ms_p50": f"n={n}; raw {record['raw_job_ms_p50']:.4f}",
               "job_ms_tail": f"p{tail_info['tail_percentile']:.1f}, "
                              f"{tail_info['tail_beyond']} beyond, n={n}",
               "peak_rss_mb": "one process, n=1"}
    for name in E2E[:-2] + ("failed_ratio",) + E2E[-2:]:
        print(f"  {name:<17} {metrics[name]:>12.4f} {UNITS[name]:<4} "
              f"({samples.get(name, f'n={n}')})")
    print_failures(results)
    save_record(record, workload, args)
    correct = all(r["outcome"] != "failed" or tolerated(r) for r in results)
    return correct, n, sum(r["outcome"] == "failed" for r in results), {
        name: {"value": metrics[name], "unit": UNITS[name]} for name in E2E
    }


def main_trace(args, cli):
    import tracing

    workload = args.workload
    workdir = WORK / workload / "trace"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = load_digests(workload, args.seed)
    jobs = write_inputs(workload, args.seed, 0, gen.cycle_length(workload), workdir)
    run_job(cli, jobs[0], jobs[0]["deadline"])  # warm-up, as in the timed run
    tracer = tracing.Tracer()
    results = []
    untraced_s = traced_s = 0.0
    for job in jobs:
        status, secs, detail = run_job(cli, job, job["deadline"])
        outcome, _, cause = verify(job, status, detail, digests)
        results.append(dict(index=job["index"], share=job["share"], hard=job["hard"],
                            status=status, outcome=outcome, cause=cause))
        if status == "deadline":
            # Not traced: what a job did before the alarm depends on speed,
            # and counts must repeat exactly.
            continue
        # Traced right after the untraced run, so both see the same machine
        # speed and their difference is the tracing overhead.
        tracer.start_job(job["index"])
        tracer.install()
        try:
            status, traced, detail = run_job(cli, job, 20 * job["deadline"])
        finally:
            tracer.uninstall()
        tracer.end_job()
        untraced_s += secs
        traced_s += traced
        outcome, _, cause = verify(job, status, detail, digests)
        if outcome == "failed":
            results.append(dict(index=job["index"], share=job["share"], hard=job["hard"],
                                status=status, outcome=outcome, cause="traced " + cause))
    overhead = traced_s - untraced_s
    tracer.write_spans(WORK / workload / "spans.tsv")
    metrics = tracer.metrics(overhead)
    failures = [r for r in results if r["outcome"] == "failed"]
    traced_jobs = len({r["index"] for r in results if r["status"] != "deadline"})
    record = run_record(args, workload)
    record.update(jobs=len(jobs), traced_jobs=traced_jobs, untraced_s=untraced_s,
                  traced_s=traced_s, metrics=metrics, failures=failures)
    print(f"workload {workload}  seed {args.seed}  traced {traced_jobs} of {len(jobs)} jobs "
          f"(one cycle; deadline misses are not traced)  rev {record['git_rev']}")
    print(f"  tracing overhead {overhead:.3f} s  (untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s)  spans {metrics['trace.spans']}  "
          f"written to {(WORK / workload / 'spans.tsv').relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in tracing.METRICS}
    for name, value in metrics.items():
        if value:
            print(f"  {name:<45} {value:>16.6g} {units[name]}")
    print_failures(results)
    save_record(record, workload, args)
    correct = all(map(tolerated, failures))
    return correct, len(jobs), len(failures), {
        name: {"value": metrics[name], "unit": units[name]} for name, _, _ in tracing.METRICS
    }


def save_record(record, workload, args):
    path = WORK / "records" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def write_digests(cli):
    table = {}
    for workload in gen.WORKLOADS:
        workdir = WORK / workload / "digests"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        size = gen.cycle_length(workload)
        table[workload] = {}
        for job in write_inputs(workload, DEFAULT_SEED, 0, DIGEST_CYCLES * size, workdir):
            status, _, _ = run_job(cli, job, job["deadline"])
            if status == 0:
                table[workload][str(job["index"])] = [_sha(job["out"]), _sha(job["svg"])]
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=tuple(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.write_digests and args.workload is None:
        p.error("--workload is required")
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    cli = import_cli()
    if args.write_digests:
        write_digests(cli)
        return 0
    run = main_trace if args.trace else main_measure
    correct, attempted, failed, metrics = run(args, cli)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
