"""The benchmark's tracer wraps slopes functions by name and its hooks
read their results; a rename in src/, or a change to a result shape a
hook reads, must fail here rather than when the traced benchmark runs."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from slopes.filtered import make_filtered
from slopes.lattices import EuclideanLattice
from slopes.series import Series

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "name, module, attr", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS]
)
def test_tracing_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    *classes, leaf = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer replaces a method through the class __dict__
    fn = owner.__dict__[leaf] if classes else getattr(owner, leaf)
    assert callable(fn), name


def _hook_fixtures():
    s = Series.from_coeffs(0, [1, 2, 3], 6)
    lat = EuclideanLattice([[2, 1, 0], [1, 2, 1], [0, 1, 3]])
    return {
        "series.mul": (s, s),
        "series.inverse": (s, 6),
        "series.dilate": (s, Fraction(2)),
        "lattices.short_vectors": (lat, Fraction(3)),
        "lattices.saturate": (lat, [[1, 1, 0]]),
        "lattices.destabilizer_lattice": (lat,),
        "filtered.candidate_subspaces": (
            make_filtered(2, [[(1, [[1, 0]]), (0, [[1, 0], [0, 1]])]]),
        ),
    }


@pytest.mark.parametrize("name", sorted(tracing.EXTRAS))
def test_tracing_hook_reads_its_target_result(name):
    """Each work counter takes the result its target returns today, so a
    change to a shape the tracer reads fails here too."""
    module, attr = next((m, a) for n, m, a in tracing.TARGETS if n == name)
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    args = _hook_fixtures()[name]
    tracing.EXTRAS[name](tracing.Tracer(), 0, args, owner(*args))


def test_tracer_sees_backends_cli_imports_when_it_runs(tmp_path):
    """cli imports each backend inside the handler that runs it, so the
    tracer's wrappers reach it through the backend module.  Each job runs
    once untraced before its traced run, as the traced benchmark runs it."""
    from slopes import cli

    fixtures = Path(__file__).resolve().parent.parent / "src" / "slopes" / "fixtures"
    jobs = [
        ["factor", "--in", str(fixtures / "twisted_two_slopes.json")],
        ["hn", "--backend", "lattice", "--in", str(fixtures / "rank3.json")],
    ]
    tracer = tracing.Tracer()
    for argv in jobs:
        argv += ["--out", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(0.0)
    for name in ("phi.slope_factor", "phi.split_once", "lattices.destabilizer_lattice"):
        assert metrics[f"{name}.calls"] > 0, name
