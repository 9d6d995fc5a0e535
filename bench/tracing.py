"""Outside-in tracing of the slopes layers.

``Tracer.install()`` replaces module functions and ``Series`` methods with
wrappers from this file; nothing under ``src/`` knows about it.  A module
function is replaced in every ``slopes.*`` module that holds a reference
to it (``cli`` imports most names directly), so internal calls are seen
too.  ``uninstall()`` puts the originals back.

Each wrapped call records a span (id, name, start, end, parent id, job
id) in memory, a call count and its self time: the span's duration minus
the time covered by its child spans.  Some wrappers also count work done
(coefficient products, vectors enumerated, distinct spans saturated).
Those extra counts run with tracing suspended and their time is not
charged to any span.  ``write_spans`` dumps the spans when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (metric prefix, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("cli.main", "slopes.cli", "main"),
    ("core.hn_filtration", "slopes.core", "hn_filtration"),
    ("core.universal_destabilizer", "slopes.core", "universal_destabilizer"),
    ("series.mul", "slopes.series", "Series.__mul__"),
    ("series.add", "slopes.series", "Series.__add__"),
    ("series.inverse", "slopes.series", "Series.inverse"),
    ("series.dilate", "slopes.series", "Series.dilate"),
    ("series.dlog_derivative", "slopes.series", "Series.dlog_derivative"),
    ("phi.slope_factor", "slopes.phi", "slope_factor"),
    ("phi.split_once", "slopes.phi", "_split_once"),
    ("phi.twisted_mul", "slopes.phi", "twisted_mul"),
    ("diff.gerard_levelt_irregularity", "slopes.diff", "gerard_levelt_irregularity"),
    ("diff.gl_run", "slopes.diff", "_gl_run"),
    ("diff.reduce_columns", "slopes.diff", "_reduce_columns"),
    ("diff.katz_rank_spectral", "slopes.diff", "katz_rank_spectral"),
    ("diff.katz_run", "slopes.diff", "_katz_run"),
    ("diff.power_step", "slopes.diff", "_power_step"),
    ("lattices.destabilizer_lattice", "slopes.lattices", "destabilizer_lattice"),
    ("lattices.short_vectors", "slopes.lattices", "short_vectors"),
    ("lattices.saturate", "slopes.lattices", "saturate"),
    ("lattices.quotient_with_metric", "slopes.lattices", "quotient_with_metric"),
    ("linalg.smith_normal_form", "slopes.linalg", "smith_normal_form"),
    ("linalg.solve", "slopes.linalg", "solve"),
    ("linalg.det", "slopes.linalg", "det"),
    ("linalg.rref", "slopes.linalg", "rref"),
    ("linalg.subspace_intersect", "slopes.linalg", "subspace_intersect"),
    ("linalg.subspace_sum", "slopes.linalg", "subspace_sum"),
    ("filtered.destabilizer_filtered", "slopes.filtered", "destabilizer_filtered"),
    ("filtered.candidate_subspaces", "slopes.filtered", "candidate_subspaces"),
    ("filtered.induced_filtration", "slopes.filtered", "induced_filtration"),
)

# Every per-layer metric the traced run reports: (name, unit, better).
METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("core.hn_filtration.calls", "count", "lower"),
    ("core.hn_filtration.self_s", "s", "lower"),
    ("core.universal_destabilizer.calls", "count", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.coeff_products", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.add.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.inverse.calls", "count", "lower"),
    ("series.inverse.terms", "count", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.dilate.calls", "count", "lower"),
    ("series.dilate.coeffs", "count", "lower"),
    ("series.dilate.self_s", "s", "lower"),
    ("series.dlog_derivative.calls", "count", "lower"),
    ("phi.slope_factor.calls", "count", "lower"),
    ("phi.slope_factor.self_s", "s", "lower"),
    ("phi.split_once.calls", "count", "lower"),
    ("phi.split_once.self_s", "s", "lower"),
    ("phi.split_once.precision_errors", "count", "lower"),
    ("phi.twisted_mul.calls", "count", "lower"),
    ("phi.twisted_mul.self_s", "s", "lower"),
    ("diff.gerard_levelt_irregularity.calls", "count", "lower"),
    ("diff.gerard_levelt_irregularity.self_s", "s", "lower"),
    ("diff.gl_run.calls", "count", "lower"),
    ("diff.gl_run.retries", "count", "lower"),
    ("diff.reduce_columns.calls", "count", "lower"),
    ("diff.reduce_columns.self_s", "s", "lower"),
    ("diff.katz_rank_spectral.calls", "count", "lower"),
    ("diff.katz_rank_spectral.self_s", "s", "lower"),
    ("diff.katz_run.retries", "count", "lower"),
    ("diff.power_step.calls", "count", "lower"),
    ("lattices.destabilizer_lattice.calls", "count", "lower"),
    ("lattices.destabilizer_lattice.self_s", "s", "lower"),
    ("lattices.destabilizer_lattice.candidates", "count", "lower"),
    ("lattices.short_vectors.calls", "count", "lower"),
    ("lattices.short_vectors.vectors", "count", "lower"),
    ("lattices.short_vectors.self_s", "s", "lower"),
    ("lattices.saturate.calls", "count", "lower"),
    ("lattices.saturate.self_s", "s", "lower"),
    ("lattices.saturate.useful_ratio", "1", "higher"),
    ("lattices.quotient_with_metric.calls", "count", "lower"),
    ("lattices.quotient_with_metric.self_s", "s", "lower"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.det.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.subspace_intersect.calls", "count", "lower"),
    ("linalg.subspace_intersect.self_s", "s", "lower"),
    ("linalg.subspace_sum.calls", "count", "lower"),
    ("filtered.destabilizer_filtered.calls", "count", "lower"),
    ("filtered.destabilizer_filtered.self_s", "s", "lower"),
    ("filtered.candidate_subspaces.calls", "count", "lower"),
    ("filtered.candidate_subspaces.self_s", "s", "lower"),
    ("filtered.candidate_subspaces.candidates", "count", "lower"),
    ("filtered.candidate_subspaces.unstabilized", "count", "lower"),
    ("filtered.induced_filtration.calls", "count", "lower"),
    ("filtered.induced_filtration.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _nonzero(coeffs) -> int:
    return sum(1 for c in coeffs if c != 0)


# Work counters: fn(tracer, span id, args, result) -> None.
def _mul_products(tr, sid, args, res):
    tr.counts["series.mul.coeff_products"] += _nonzero(args[0].coeffs) * _nonzero(args[1].coeffs)


def _inverse_terms(tr, sid, args, res):
    tr.counts["series.inverse.terms"] += len(res.coeffs)


def _dilate_coeffs(tr, sid, args, res):
    tr.counts["series.dilate.coeffs"] += len(args[0].coeffs)


def _short_vectors(tr, sid, args, res):
    tr.counts["lattices.short_vectors.vectors"] += len(res)


def _saturate_span(tr, sid, args, res):
    key = res.span_key()
    tr.job_spans.add(key)
    for name, owner in reversed(tr.frames):
        if name == "lattices.destabilizer_lattice":
            tr.candidate_sets.setdefault(owner, set()).add(key)
            break


def _destabilizer_candidates(tr, sid, args, res):
    tr.counts["lattices.destabilizer_lattice.candidates"] += len(
        tr.candidate_sets.pop(sid, ())
    )


def _closure_size(tr, sid, args, res):
    cands, _, stabilized = res
    tr.counts["filtered.candidate_subspaces.candidates"] += len(cands)
    tr.counts["filtered.candidate_subspaces.unstabilized"] += not stabilized


EXTRAS = {
    "series.mul": _mul_products,
    "series.inverse": _inverse_terms,
    "series.dilate": _dilate_coeffs,
    "lattices.short_vectors": _short_vectors,
    "lattices.saturate": _saturate_span,
    "lattices.destabilizer_lattice": _destabilizer_candidates,
    "filtered.candidate_subspaces": _closure_size,
}


class Tracer:
    """Spans, counts and self times of one traced run."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = Counter()
        self.self_ns = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.frames = []  # (name, span id) of open spans
        self.child_ns = []  # time covered by children of each open span
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.next_id = 0
        self.job = -1
        self.job_spans = set()
        self.useful_spans = 0
        self.candidate_sets = {}
        self.on = False
        self._restore = []

    # -- spans ---------------------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        sid = self.next_id
        self.next_id += 1
        parent = self.frames[-1][1] if self.frames else -1
        self.calls[name] += 1
        self.frames.append((name, sid))
        self.child_ns.append(0)
        start = perf_counter_ns()
        try:
            res = fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[name, type(exc).__name__] += 1
            raise
        finally:
            end = perf_counter_ns()
            self.frames.pop()
            dur = end - start
            self.self_ns[name] += dur - self.child_ns.pop()
            if self.child_ns:
                self.child_ns[-1] += dur
            self.span_id.append(sid)
            self.span_name.append(self.index[name])
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_job.append(self.job)
        extra = EXTRAS.get(name)
        if extra is not None:
            self.on = False
            t0 = perf_counter_ns()
            try:
                extra(self, sid, args, res)
            finally:
                self.on = True
                if self.child_ns:
                    self.child_ns[-1] += perf_counter_ns() - t0
        return res

    def start_job(self, job_id: int):
        self.job = job_id
        self.job_spans = set()
        self.candidate_sets.clear()

    def end_job(self):
        self.useful_spans += len(self.job_spans)
        self.job_spans = set()

    # -- install / uninstall ---------------------------------------------------------------

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("slopes") and m]
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(name, fn))
                self._restore.append((cls, meth, fn))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrapper(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, fn))
        self.on = True

    def uninstall(self):
        self.on = False
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results -------------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        out = {name: 0 for name, _, _ in METRICS}
        for name in self.names:
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = self.calls[name]
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.counts)
        out["phi.split_once.precision_errors"] = self.errors["phi.split_once", "PrecisionError"]
        out["diff.gl_run.retries"] = (
            self.calls["diff.gl_run"] - self.calls["diff.gerard_levelt_irregularity"]
        )
        out["diff.katz_run.retries"] = (
            self.calls["diff.katz_run"] - self.calls["diff.katz_rank_spectral"]
        )
        calls = self.calls["lattices.saturate"]
        out["lattices.saturate.useful_ratio"] = self.useful_spans / calls if calls else 0
        out["trace.spans"] = len(self.span_id)
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path):
        """Tab-separated: id, name, start_ns, end_ns, parent id, job id."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for row in zip(
                self.span_id, self.span_name, self.span_start,
                self.span_end, self.span_parent, self.span_job,
            ):
                fh.write(
                    f"{row[0]}\t{self.names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]}\t{row[5]}\n"
                )
