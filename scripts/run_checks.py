#!/usr/bin/env python3
"""Run every law of ``slopes check`` on every backend it runs on and print
one row per (law, backend): ok when the law's verdict accepts the report,
FAIL otherwise.  Exit status 1 when a row fails.

Each row is ``slopes check`` itself, parsed and run by the CLI.  It gets
``--seed``, plus ``--samples``, ``--in`` and ``--bound`` where the law
reads them on that backend.

Usage: python scripts/run_checks.py [--samples N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slopes import cli  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"

# backend -> the --in and --bound given to the laws that read them there
INPUTS = {
    "lattice": {"--in": str(FIXTURES / "rank3.json"), "--bound": "9"},
    "table": {"--in": str(FIXTURES / "eq5_2.json")},
}


def rows(samples: int, seed: int):
    """(law, backend, slopes check argv) for every (law, backend) pair."""
    for name, law in cli.LAWS.items():
        for backend in law.reads:
            given = {"--samples": str(samples), **INPUTS.get(backend, {})}
            argv = ["check", "--law", name, "--backend", backend, "--seed", str(seed)]
            for flag in sorted(cli.check_reads(name, backend, given)):
                argv += [flag, given[flag]]
            yield name, backend, argv


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=cli.positive_int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    status = 0
    for name, backend, argv in rows(args.samples, args.seed):
        result, _ = cli.dispatch(cli.build_parser().parse_args(argv))
        ok = cli.LAWS[name].verdict(result["report"], backend)
        status |= not ok
        row = f"{name}/{backend}"
        print(f"{row:28s} {'ok' if ok else 'FAIL'}  {json.dumps(result['report'])[:120]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
