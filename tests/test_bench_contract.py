"""The benchmark's tracer wraps slopes functions by name; a rename in
src/ must fail here rather than when the traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
