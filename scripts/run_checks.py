#!/usr/bin/env python3
"""Drive every law harness across backends and print a compact summary.

Usage: python scripts/run_checks.py [--samples N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slopes.cli import positive_int  # noqa: E402
from slopes.core import Budget  # noqa: E402
from slopes.laws import (  # noqa: E402
    bost_experiment,
    check_degree_axioms,
    check_duality_filtered,
    check_exactness,
    check_flag_laws,
    check_minmax,
    check_coprime_stability,
    check_tensor_bounded_rank_one,
    check_tensor_mult_filtered,
)
from slopes.lattices import EuclideanLattice, LatticeBackend  # noqa: E402
from slopes.tables import ZERO_ID, TableBackend, load_table  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "slopes" / "fixtures"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=positive_int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    n, seed = args.samples, args.seed

    rows = []
    rows.append(("axioms/filtered", check_degree_axioms("filtered", n, seed)))
    rows.append(("axioms/lattice", check_degree_axioms("lattice", n, seed)))
    eq52 = TableBackend(load_table(json.loads((FIXTURES / "eq5_2.json").read_text())))
    rows.append(("axioms/table", check_degree_axioms("table", 0, seed, table=eq52)))
    rows.append(
        (
            "exactness/lattice",
            check_exactness(LatticeBackend(), [EuclideanLattice.standard(2)]),
        )
    )
    # norm bound 9 keeps this rank-3 lattice at 65 flags (1640 without it)
    lat = EuclideanLattice(((2, 1, 0), (1, 2, 1), (0, 1, 9)))
    rows.append(
        (
            "dominance/lattice",
            check_flag_laws(LatticeBackend(), [lat], Budget(bound=Fraction(9)))[0],
        )
    )
    eq52_objects = [o for o in eq52.cat.objects if o != ZERO_ID]
    rows.append(("dominance/table", check_flag_laws(eq52, eq52_objects)[0]))
    rows.append(("minmax/filtered", check_minmax(n, seed)))
    rows.append(("tensor-mult/filtered", check_tensor_mult_filtered(n, seed)))
    rows.append(("tensor-bounded/diff", check_tensor_bounded_rank_one(n, seed)))
    rows.append(("duality/filtered", check_duality_filtered(n, seed)))
    rows.append(("coprime-stable/filtered", check_coprime_stability(max(4, n // 4), seed)))
    rows.append(("bost-experiment/lattice", bost_experiment(4, seed)))

    status = 0
    for name, report in rows:
        bad = (
            report.get("violations")
            or report.get("failures")
            or report.get("counterexamples")
            or report.get("dominance_failures")
            or report.get("uniqueness_failures")
        )
        if name.startswith("exactness"):
            bad = None if report["exact"] is False else ["missing counterexample"]
        if name.startswith("bost-experiment"):
            # the exact search decides every pair
            bad = bad or report["complete_pairs"] < report["pairs"]
        flag = "ok" if not bad else "FAIL"
        if bad:
            status = 1
        print(f"{name:28s} {flag}  {json.dumps(report, default=str)[:120]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
