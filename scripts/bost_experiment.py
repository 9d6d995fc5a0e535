#!/usr/bin/env python3
"""Tensor semistability evidence run for euclidean lattices.

Samples semistable rank-2 pairs, decides with the exact destabilizer
search whether the Kronecker product has a destabilizing sublattice, and
writes a JSON report.  Evidence only: a clean run supports the conjecture that the
tensor product of semistable lattices is semistable; it decides nothing.

Usage: python scripts/bost_experiment.py [--samples N] [--seed S] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slopes.laws import bost_experiment  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    report = bost_experiment(args.samples, args.seed)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    print(
        f"# pairs={report['pairs']} complete={report['complete_pairs']} "
        f"counterexamples={len(report['counterexamples'])}",
        file=sys.stderr,
    )
    return 0 if not report["counterexamples"] else 1


if __name__ == "__main__":
    sys.exit(main())
