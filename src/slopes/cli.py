"""Command line front end.

Subcommands: hn, np, factor, check, swan, combine.  SUBCOMMANDS gives each
one its handler and the flags that handler reads, plus the flags main reads
for all of them; LAWS gives each law of check its runner, its backends,
the flags it reads on each and its verdict.  All randomness is seeded (flag --seed, env SLOPES_SEED,
default 0) and recorded in the output, so identical invocations produce
byte-identical artifacts.

Each backend module (phi, diff, series, lattices, linalg, filtered, tables,
ramification) and laws is imported inside the handler, loader, HN_OBJECTS
decoder or law runner that uses it, so a subcommand loads only what it
runs; at module level stand the modules the package itself loads (core,
degrees, polygon) and errors.  main lifts Python's 4300-digit limit on
int/str conversion for the work after argument parsing, since an output
may need more, and restores the caller's limit when it returns; the --in
file is still decoded under the caller's limit.

Exit codes: 0 success; 2 bad input (a SlopesError) or bad usage; 3
heuristic-only result under --require-complete, or budget exhaustion; 4
a check whose report its law's verdict rejects (the report is still
written).  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import Budget, BudgetExhausted, hn_filtration
from .degrees import LOG_POSITIVE
from .errors import DECODE_ERRORS, SchemaError, SlopesError, integer_field, rational_field
from .polygon import NewtonPolygon, polygon_combine


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.input_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            result, complete = dispatch(args)
        except BudgetExhausted as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 3
        except SlopesError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        if args.require_complete and not complete:
            sys.stderr.write("error: result carries a heuristic certificate\n")
            return 3
        payload = json.dumps(result, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        if args.svg and result.get("polygon"):
            with open(args.svg, "w") as fh:
                fh.write(polygon_svg(NewtonPolygon.from_json(result["polygon"])))
        if args.command == "check" and not LAWS[args.law].verdict(result["report"], args.backend):
            sys.stderr.write(f"error: law {args.law} fails on {args.backend}\n")
            return 4
        return 0
    finally:
        sys.set_int_max_str_digits(args.input_digits)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slopes",
        description="slope filtrations, Newton polygons and their laws",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        s = sub.add_parser(name)
        for flag, options in flags + COMMON_FLAGS:
            s.add_argument(flag, **options)
    return p


def dispatch(args):
    handler, _ = SUBCOMMANDS[args.command]
    return handler(args, _seed(args))


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLOPES_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise SlopesError(f"SLOPES_SEED must be an integer, got {env!r}") from None


def _budget(args) -> Budget:
    """The search budget of check's --bound."""
    return Budget(bound=args.bound)


def _load(args, decode):
    """decode(JSON of --in), under the digit limit main's caller had, so
    an input integer past it is a bad input.  The one place that reads and
    decodes the input file: any failure there becomes a SchemaError naming
    the file."""
    if args.infile is None:
        raise SchemaError("missing --in input file")
    current = sys.get_int_max_str_digits()
    # dispatch called without main keeps the limit in force
    sys.set_int_max_str_digits(getattr(args, "input_digits", current))
    try:
        with open(args.infile) as fh:
            return decode(json.load(fh))
    except SchemaError as exc:
        raise SchemaError(f"{args.infile}: {exc}") from exc
    except SlopesError:
        raise
    except DECODE_ERRORS as exc:
        raise SchemaError(f"{args.infile}: {type(exc).__name__}: {exc}") from exc
    finally:
        sys.set_int_max_str_digits(current)


# -- hn, np --------------------------------------------------------------------


def _lattice_object(args, doc):
    from .lattices import EuclideanLattice, LatticeBackend

    return LatticeBackend(), EuclideanLattice.from_json(doc)


def _filtered_object(args, doc):
    from .filtered import FilteredBackend, FilteredSpace

    return FilteredBackend(), FilteredSpace.from_json(doc)


def _table_object(args, doc):
    from .tables import ZERO_ID, TableBackend, TableError, load_table

    backend = TableBackend(load_table(doc))
    oid = args.object or next((o for o in backend.cat.objects if o != ZERO_ID), None)
    if oid is None:
        raise TableError("the table has no nonzero object")
    if oid not in backend.cat.objects:
        raise TableError(f"no object {oid!r} in the table")
    return backend, oid


# hn backend name -> decode(args, doc) -> (backend, object); "diff" reads
# its flag off the Newton polygon instead
HN_OBJECTS = {
    "lattice": _lattice_object,
    "filtered": _filtered_object,
    "table": _table_object,
}


def cmd_hn(args, seed: int):
    header = {"command": "hn", "backend": args.backend, "seed": seed}
    if args.backend == "diff":
        from .diff import np_diff

        poly = np_diff(_load(args, _load_diff_operator))
        steps = [
            {"rank": r, "degree": str(d.value), "subobject": f"slope-part-{i}"}
            for i, (r, d) in enumerate(poly.vertices()[1:])
        ]
        certificates = [{"complete": True, "detail": "polygon-derived"}]
        result = {**header, "polygon": poly.to_json(), "flag": steps}
        return {**result, "certificates": certificates}, True
    backend, obj = _load(args, lambda doc: HN_OBJECTS[args.backend](args, doc))
    res = hn_filtration(backend, obj)
    return {**header, **res.to_json(backend.handle_json)}, res.certificate.complete


def _load_series_matrix(doc):
    from .series import Series

    rows = doc["matrix"]
    if any(len(row) != len(rows) for row in rows):
        raise SchemaError(f"matrix must be square, got row lengths {[len(row) for row in rows]}")
    return tuple(tuple(Series.from_json(c) for c in row) for row in rows)


def _load_twist(doc):
    from .phi import TwistSpec

    return TwistSpec(rational_field(doc["twist"]["q"], "q"))


def _load_diff_operator(doc):
    from .diff import DifferentialOperator
    from .series import Series

    if "valuations" in doc:
        return DifferentialOperator.from_valuations(
            [None if v is None else integer_field(v, "valuation") for v in doc["valuations"]]
        )
    return DifferentialOperator(
        tuple(Series.from_json(c) for c in doc["coeffs"])
    )


def _load_diff_input(doc):
    """A matrix-presented DifferentialModule or a DifferentialOperator."""
    from .diff import DifferentialModule

    if "matrix" in doc:
        return DifferentialModule(_load_series_matrix(doc))
    return _load_diff_operator(doc)


def _load_twisted(doc):
    from .phi import TwistedPolynomial
    from .series import Series

    coeffs = [Series.from_json(c) for c in doc["coeffs"]]
    prec = doc.get("precision")
    if prec is not None:
        coeffs = [c.truncate(integer_field(prec, "precision")) for c in coeffs]
    return TwistedPolynomial(tuple(coeffs), _load_twist(doc))


def _load_twisted_input(doc):
    """Coefficient valuations (leading coefficient first in the file,
    returned constant term first), a PhiMatrix or a TwistedPolynomial."""
    from .phi import PhiMatrix

    if "valuations" in doc:
        return [
            None if v is None else integer_field(v, "valuation")
            for v in reversed(doc["valuations"])
        ]
    if "matrix" in doc:
        return PhiMatrix(_load_series_matrix(doc), _load_twist(doc))
    return _load_twisted(doc)


def cmd_np(args, seed: int):
    if args.backend in HN_OBJECTS:
        result, complete = cmd_hn(args, seed)
        return {**result, "command": "np"}, complete
    header = {"command": "np", "backend": args.backend, "seed": seed}
    if args.backend == "twisted":
        from .phi import PhiMatrix, TwistedPolynomial, np_of_poly, np_phi_matrix, np_twisted

        src = _load(args, _load_twisted_input)
        if isinstance(src, PhiMatrix):
            poly = np_phi_matrix(src)
        elif isinstance(src, TwistedPolynomial):
            poly = np_of_poly(src)
        else:
            poly = np_twisted(src)
        return {**header, "polygon": poly.to_json()}, True
    from .diff import (
        DifferentialModule,
        gerard_levelt_irregularity,
        irregularity_cyclic,
        katz_rank_spectral,
        np_diff,
    )

    src = _load(args, _load_diff_input)
    if isinstance(src, DifferentialModule):
        # matrix-presented module: report the numeric invariants
        ir, stabilized, _ = gerard_levelt_irregularity(src)
        est, diag = katz_rank_spectral(src)
        result = {
            **header,
            "gerard_levelt_irregularity": ir,
            "stabilized": stabilized,
            "katz_rank_estimate": str(est),
            "katz_converged": diag["converged"],
        }
        return result, stabilized
    result = {
        **header,
        "polygon": np_diff(src).to_json(),
        "irregularity": irregularity_cyclic(src),
    }
    return result, True


# -- factor, swan, combine -----------------------------------------------------


def cmd_factor(args, seed: int):
    from .phi import np_of_poly, slope_factor, twisted_mul
    from .series import PrecisionError

    poly = _load(args, _load_twisted)
    prec = args.prec
    known = poly.precision()
    if known is not None and known < prec:
        # the product could only be checked modulo x^known
        raise PrecisionError(
            f"input is known only below x^{known}; cannot verify --prec {prec}"
        )
    factors = slope_factor(poly, prec)
    product = factors[0]
    for f in factors[1:]:
        product = twisted_mul(product, f)
    verified = all(
        product.coeff(i).eq_to_precision(poly.coeff(i), prec)
        for i in range(poly.degree + 1)
    )
    if not verified:
        raise PrecisionError("factor product failed verification")
    factor_docs = [f.to_json() for f in factors]
    canonical = json.dumps(factor_docs, sort_keys=True).encode()
    result = {
        "command": "factor",
        "seed": seed,
        "precision": prec,
        "polygon": np_of_poly(poly).to_json(),
        "factors": factor_docs,
        "factor_slopes": [np_of_poly(f).segments[0].slope_json() for f in factors],
        "product_verification": {
            "verified_mod_x_prec": verified,
            "sha256": hashlib.sha256(canonical).hexdigest(),
        },
    }
    return result, True


def cmd_swan(args, seed: int):
    from .ramification import galois_polygon, herbrand_breaks, load_ramification, swan

    data, reps = _load(args, load_ramification)
    out_reps = []
    for rep in reps:
        value, integral = swan(data, rep)
        poly = galois_polygon(data, rep).to_json()
        out_reps.append(
            {"dim": rep.dim, "polygon": poly, "swan": str(value), "integral": integral}
        )
    result = {
        "command": "swan",
        "seed": seed,
        "label": data.label,
        "herbrand_breaks": [
            {"lambda": str(lam), "i": i} for lam, i in herbrand_breaks(data)
        ],
        "reps": out_reps,
    }
    return result, True


def cmd_combine(args, seed: int):
    def decode(doc):
        q = NewtonPolygon.from_json(doc["q"]) if "q" in doc else None
        return args.mode or doc["mode"], NewtonPolygon.from_json(doc["p"]), q

    mode, p, q = _load(args, decode)
    out = polygon_combine(p, q, mode)
    return {"command": "combine", "seed": seed, "mode": mode, "polygon": out.to_json()}, True


# -- check ---------------------------------------------------------------------


def cmd_check(args, seed: int):
    law = LAWS[args.law]
    args.backend = args.backend or next(iter(law.reads))
    if args.backend not in law.reads:
        build_parser().error(f"--law {args.law} runs on {', '.join(law.reads)} only")
    given = [
        flag for flag, options in CHECK_TUNABLES if getattr(args, options["dest"]) is not None
    ]
    unread = [flag for flag in given if flag not in check_reads(args.law, args.backend, given)]
    if unread:
        build_parser().error(
            f"--law {args.law} --backend {args.backend} reads no {', '.join(unread)}"
        )
    args.samples = args.samples or CHECK_SAMPLES
    report, complete = law.run(args, seed)
    header = {"command": "check", "law": args.law, "backend": args.backend, "seed": seed}
    return {**header, "report": report}, complete


def check_reads(law: str, backend: str, given) -> set:
    """The check flags among given that law reads on backend.  An --in file
    replaces the sampled objects, so no law reads --samples beside its --in."""
    reads = LAWS[law].reads[backend]
    if "--in" in reads and "--in" in given:
        reads = reads - {"--samples"}
    return reads & set(given)


def _table_objects(args):
    """The table of --in as a backend, and its nonzero objects."""
    from .tables import ZERO_ID, TableBackend, load_table

    backend = TableBackend(_load(args, load_table))
    return backend, [o for o in backend.cat.objects if o != ZERO_ID]


def _law_axioms(args, seed):
    from . import laws

    table = None
    if args.backend == "table":
        from .tables import TableBackend, load_table

        table = TableBackend(_load(args, load_table))
    return laws.check_degree_axioms(args.backend, args.samples, seed, table=table), True


def _law_exactness(args, seed):
    from . import laws

    if args.backend == "lattice":
        from .lattices import EuclideanLattice, LatticeBackend

        backend = LatticeBackend()
        objects = [EuclideanLattice.standard(2), EuclideanLattice.standard(3)]
        if args.infile:
            objects.insert(0, _load(args, EuclideanLattice.from_json))
    elif args.backend == "filtered":
        from .filtered import FilteredBackend

        rng = random.Random(seed)
        backend = FilteredBackend()
        objects = [laws.sample_filtered_space(rng, dim_max=3, n=1) for _ in range(args.samples)]
    else:
        backend, objects = _table_objects(args)
    return laws.check_exactness(backend, objects, _budget(args)), True


def _law_dominance(args, seed):
    from . import laws

    rng = random.Random(seed)
    if args.backend == "lattice":
        from .lattices import EuclideanLattice, LatticeBackend

        backend = LatticeBackend()
        if args.infile:
            objects = [_load(args, EuclideanLattice.from_json)]
        else:
            objects = [laws.sample_lattice(rng) for _ in range(args.samples)]
    elif args.backend == "filtered":
        from .filtered import FilteredBackend

        backend = FilteredBackend()
        objects = [laws.sample_filtered_space(rng, dim_max=3, n=2) for _ in range(args.samples)]
    else:
        backend, objects = _table_objects(args)
    report, complete = laws.check_flag_laws(backend, objects, _budget(args))
    return {**report, "samples": len(objects), "seed": seed}, complete


def _law_morphism_slope(args, seed):
    from . import laws

    if args.backend == "table":
        from .tables import TableBackend, load_table

        return laws.morphism_slope_law(TableBackend(_load(args, load_table))), True
    return laws.morphism_slope_law_filtered(args.samples, seed), True


def _sampled(name, count=lambda samples: samples):
    """run(args, seed) of the harness laws.<name>(count, seed), which
    samples its own objects."""

    def run(args, seed):
        from . import laws

        return getattr(laws, name)(count(args.samples), seed), True

    return run


def _empty(*keys):
    """The verdict that every one of keys of the report is empty or zero."""
    return lambda report, backend: not any(report[key] for key in keys)


class Law(NamedTuple):
    run: Callable  # run(args, seed) -> (report, complete)
    reads: dict  # backend it runs on, the default first -> the check flags it reads there
    verdict: Callable  # verdict(report, backend) -> whether the report shows the law


CHECK_SAMPLES = 50

# law name -> Law; `check --law` runs one entry, scripts/run_checks.py every
# (law, backend) pair
LAWS = {
    "axioms": Law(
        _law_axioms,
        {"filtered": {"--samples"}, "lattice": {"--samples"}, "table": {"--in"}},
        _empty("violations"),
    ),
    # a witness of non-exactness is expected on lattices and on tables (the
    # Eq. 5.2 fixture), none on the tautological n = 1 filtrations
    "exactness": Law(
        _law_exactness,
        {"filtered": {"--samples"}, "lattice": {"--in", "--bound"}, "table": {"--in"}},
        lambda report, backend: (report["witness"] is None) == (backend == "filtered"),
    ),
    "dominance": Law(
        _law_dominance,
        {
            "filtered": {"--samples"},
            "lattice": {"--samples", "--in", "--bound"},
            "table": {"--in"},
        },
        _empty("dominance_failures", "uniqueness_failures"),
    ),
    "minmax": Law(_sampled("check_minmax"), {"filtered": {"--samples"}}, _empty("failures")),
    "morphism-slope": Law(
        _law_morphism_slope,
        {"filtered": {"--samples"}, "table": {"--in"}},
        _empty("violations"),
    ),
    "tensor-mult": Law(
        _sampled("check_tensor_mult_filtered"), {"filtered": {"--samples"}}, _empty("failures")
    ),
    "tensor-bounded": Law(
        _sampled("check_tensor_bounded_rank_one"), {"diff": {"--samples"}}, _empty("failures")
    ),
    "tensor-semistable": Law(
        _sampled("check_bifil_tensor_semistable"),
        {"filtered": {"--samples"}},
        _empty("failures"),
    ),
    "coprime-stable": Law(
        _sampled("check_coprime_stability", lambda n: max(1, n // 2)),
        {"filtered": {"--samples"}},
        _empty("failures"),
    ),
    # evidence: the exact search must decide every pair
    "bost-experiment": Law(
        _sampled("bost_experiment", lambda n: min(n, 8)),
        {"lattice": {"--samples"}},
        lambda report, backend: not report["counterexamples"]
        and report["complete_pairs"] == report["pairs"],
    ),
    "duality": Law(
        _sampled("check_duality_filtered"), {"filtered": {"--samples"}}, _empty("failures")
    ),
}

CHECK_BACKENDS = tuple(dict.fromkeys(b for law in LAWS.values() for b in law.reads))


# -- the subcommand table ------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a precision or a sample count)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_rational(text: str) -> Fraction:
    """argparse type: a rational > 0 (a lattice norm bound)."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


# (flag, add_argument options) for each flag a handler reads
IN = ("--in", dict(dest="infile", required=True, help="JSON input file"))
PREC = ("--prec", dict(type=positive_int, default=40, help="series precision"))
OBJECT = ("--object", dict(help="table object id"))


def _backend(*choices):
    return ("--backend", dict(choices=choices, default=choices[0]))


# the flags main reads, on every subcommand
COMMON_FLAGS = (
    ("--out", dict(help="write the JSON artifact here instead of stdout")),
    ("--svg", dict(help="write a presentation polygon here")),
    ("--seed", dict(type=int, help="default: env SLOPES_SEED, else 0")),
    ("--require-complete", dict(action="store_true")),
)

# the check flags a law may or may not read; None when not given, so that
# cmd_check can reject the ones the law does not read
CHECK_TUNABLES = (
    ("--samples", dict(dest="samples", type=positive_int, help=f"default: {CHECK_SAMPLES}")),
    ("--in", dict(dest="infile", help="JSON input file (table, lattice)")),
    ("--bound", dict(dest="bound", type=positive_rational, help="lattice norm bound")),
)

# subcommand -> (handler(args, seed) -> (result, complete), its own flags)
SUBCOMMANDS = {
    "hn": (cmd_hn, (_backend(*HN_OBJECTS, "diff"), IN, OBJECT)),
    "np": (cmd_np, (_backend("twisted", "diff", *HN_OBJECTS), IN, OBJECT)),
    "factor": (cmd_factor, (IN, PREC)),
    "check": (
        cmd_check,
        (
            ("--law", dict(choices=tuple(LAWS), required=True)),
            ("--backend", dict(choices=CHECK_BACKENDS, help="default: the law's first")),
            *CHECK_TUNABLES,
        ),
    ),
    "swan": (cmd_swan, (IN,)),
    "combine": (cmd_combine, (IN, ("--mode", dict(help="default: the file's mode field")))),
}


# -- svg ---------------------------------------------------------------------------


SVG_SCALE = 60


def polygon_svg(poly: NewtonPolygon) -> str:
    """Static SVG rendering; exact integer coordinates for rational
    polygons (scaled by the declared factor), float presentation otherwise.
    The JSON output is the authoritative record."""
    pts = []
    denom = 1
    values = []
    for r, d in poly.vertices():
        if d.variant == LOG_POSITIVE:
            y = -0.5 * math.log(float(d.value)) if d.value != 1 else 0.0
            values.append((r, y))
        else:
            values.append((r, d.value))
            denom = denom * d.value.denominator // math.gcd(
                denom, d.value.denominator
            )
    scale = SVG_SCALE * denom
    for r, y in values:
        if isinstance(y, Fraction):
            pts.append((r * scale, -int(y * scale)))
        else:
            pts.append((r * scale, -round(y * scale)))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = scale
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad
    path = " ".join(f"{x},{y}" for x, y in pts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{minx} {miny} '
        f'{maxx - minx} {maxy - miny}">\n'
        f"  <desc>scale factor {scale} per rank unit; y negated</desc>\n"
        f'  <polyline fill="none" stroke="black" stroke-width="2" points="{path}"/>\n'
        + "".join(
            f'  <circle cx="{x}" cy="{y}" r="4" fill="black"/>\n' for x, y in pts
        )
        + "</svg>\n"
    )


if __name__ == "__main__":
    sys.exit(main())
