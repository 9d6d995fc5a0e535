#!/usr/bin/env python3
"""Wall time of each CLI subcommand from a fresh interpreter.

    python scripts/cli_walltime.py

Runs ``python -m slopes.cli`` from this checkout's ``src`` on one shipped
fixture per subcommand (``combine`` has no shipped fixture and is left
out), 11 times each in round-robin order, and prints the median wall time
in milliseconds as JSON, beside that of a bare ``python -c pass``.  Every
run starts a new interpreter with no bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``), so the times include compiling every
module the subcommand imports.  A run that does not exit 0 stops the
script.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "slopes" / "fixtures"
RUNS = 11

# label -> slopes.cli arguments; a ".json" argument names a shipped fixture
CASES = {
    "factor": ["factor", "--in", "twisted_two_slopes.json"],
    "np --backend twisted": ["np", "--backend", "twisted", "--in", "adams_sauloy.json"],
    "np --backend diff": ["np", "--backend", "diff", "--in", "diff_op.json"],
    "hn --backend lattice": ["hn", "--backend", "lattice", "--in", "rank3.json"],
    "hn --backend filtered": ["hn", "--backend", "filtered", "--in", "filtered_two_jumps.json"],
    "hn --backend table": ["hn", "--backend", "table", "--in", "hn_chain.json", "--object", "N"],
    "swan": ["swan", "--in", "artin_schreier.json"],
    "check --law axioms --backend table": [
        "check", "--law", "axioms", "--backend", "table", "--in", "eq5_2.json",
    ],
}


def wall_ms(argv, env) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return elapsed * 1000


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.json")
        commands = {"python -c pass": [sys.executable, "-c", "pass"]}
        for label, args in CASES.items():
            args = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
            commands[label] = [sys.executable, "-m", "slopes.cli", *args, "--out", out]
        times = {label: [] for label in commands}
        for _ in range(RUNS):
            for label, argv in commands.items():
                times[label].append(wall_ms(argv, env))
    print(json.dumps({
        "tree": str(ROOT),
        "python": platform.python_version(),
        "runs": RUNS,
        "median_ms": {label: round(statistics.median(t), 1) for label, t in times.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
