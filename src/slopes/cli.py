"""Command line front end.

Subcommands: hn, np, factor, check, swan, combine.  All randomness is
seeded (flag --seed, env SLOPES_SEED, default 0) and recorded in the
output, so identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 domain/schema error, 3 heuristic-only result
under --require-complete or budget exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

from .core import Budget, BudgetExhausted, hn_filtration
from .degrees import LOG_POSITIVE, SlopeError
from .diff import (
    DifferentialOperator,
    gerard_levelt_irregularity,
    irregularity_cyclic,
    katz_rank_spectral,
    np_diff,
)
from .filtered import FilteredBackend, FilteredSpace
from .lattices import EuclideanLattice, LatticeBackend, LatticeError
from .laws import (
    bost_experiment,
    check_degree_axioms,
    check_dominance,
    check_duality_filtered,
    check_exactness,
    check_coprime_stability,
    check_hn_uniqueness,
    check_tensor_bounded_rank_one,
    check_tensor_mult_filtered,
    sample_filtered_space,
)
from .phi import (
    PhiMatrix,
    TwistSpec,
    TwistedPolynomial,
    cyclic_form,
    np_of_poly,
    np_twisted,
    slope_factor,
    twisted_mul,
)
from .polygon import NewtonPolygon, polygon_combine
from .ramification import galois_polygon, load_ramification, swan
from .series import PrecisionError, Series
from .tables import TableBackend, TableError, load_table
import random

DOMAIN_ERRORS = (
    SlopeError,
    TableError,
    LatticeError,
    PrecisionError,
    ValueError,
    KeyError,
    ZeroDivisionError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, complete = dispatch(args)
    except BudgetExhausted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except DOMAIN_ERRORS as exc:
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slopes",
        description="slope filtrations, Newton polygons and their laws",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("hn", "np", "factor", "check", "swan", "combine"):
        s = sub.add_parser(name)
        s.add_argument("--backend", default=None)
        s.add_argument("--in", dest="infile", default=None)
        s.add_argument("--out", default=None)
        s.add_argument("--svg", default=None)
        s.add_argument("--bound", default=None)
        s.add_argument("--prec", type=int, default=40)
        s.add_argument("--depth", type=int, default=8)
        s.add_argument("--samples", type=int, default=50)
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--require-complete", action="store_true")
        s.add_argument("--object", default=None, help="table object id")
        s.add_argument("--law", default=None)
        s.add_argument("--mode", default=None, help="combine mode")
    return p


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLOPES_SEED")
    return int(env) if env else 0


def _budget(args) -> Budget:
    bound = Fraction(args.bound) if args.bound is not None else None
    return Budget(bound=bound, depth=args.depth)


def _load(args):
    if not args.infile:
        raise ValueError("missing --in input file")
    with open(args.infile) as fh:
        return json.load(fh)


def dispatch(args):
    seed = _seed(args)
    if args.command == "hn":
        return cmd_hn(args, seed)
    if args.command == "np":
        return cmd_np(args, seed)
    if args.command == "factor":
        return cmd_factor(args, seed)
    if args.command == "check":
        return cmd_check(args, seed)
    if args.command == "swan":
        return cmd_swan(args, seed)
    if args.command == "combine":
        return cmd_combine(args, seed)
    raise ValueError(f"unknown command {args.command!r}")


def _backend_object(args, doc):
    backend_name = args.backend or "lattice"
    if backend_name == "lattice":
        return LatticeBackend(), EuclideanLattice.from_json(doc)
    if backend_name == "filtered":
        return FilteredBackend(), FilteredSpace.from_json(doc)
    if backend_name == "table":
        backend = TableBackend(load_table(doc))
        oid = args.object or next(
            o for o in backend.cat.objects if o != "0"
        )
        return backend, oid
    raise ValueError(f"no hn backend named {backend_name!r}")


def cmd_hn(args, seed: int):
    doc = _load(args)
    backend_name = args.backend or "lattice"
    if backend_name == "diff":
        op = _load_diff_operator(doc)
        poly = np_diff(op)
        steps = []
        r, d = 0, Fraction(0)
        for seg in poly.segments:
            r += seg.rk
            d += seg.deg.value
            steps.append(
                {"rank": r, "degree": str(d), "subobject": f"slope-part-{len(steps)}"}
            )
        result = {
            "command": "hn",
            "backend": "diff",
            "seed": seed,
            "polygon": poly.to_json(),
            "flag": steps,
            "certificates": [{"complete": True, "detail": "polygon-derived"}],
        }
        return result, True
    backend, obj = _backend_object(args, doc)
    res = hn_filtration(backend, obj, _budget(args))
    result = {
        "command": "hn",
        "backend": backend_name,
        "seed": seed,
        "polygon": res.polygon.to_json(),
        "flag": [
            {
                "rank": s.rank,
                "degree": s.degree.to_json(),
                "subobject": _handle_repr(backend_name, s.handle),
            }
            for s in res.flag.steps
        ],
        "certificates": [c.to_json() for c in res.certificates],
    }
    return result, res.certificate.complete


def _handle_repr(backend_name, handle):
    from .lattices import Sublattice

    if isinstance(handle, Sublattice):
        return {"basis_columns": [list(map(int, c)) for c in handle.basis]}
    if isinstance(handle, EuclideanLattice):
        return handle.to_json()
    if isinstance(handle, FilteredSpace):
        return {"whole": True, "dim": handle.dim}
    if isinstance(handle, tuple) and len(handle) == 2:
        return {"subspace": [[str(c) for c in row] for row in handle[1]]}
    return str(handle)


def _load_diff_operator(doc) -> DifferentialOperator:
    if "valuations" in doc:
        return DifferentialOperator.from_valuations(
            [None if v is None else int(v) for v in doc["valuations"]]
        )
    return DifferentialOperator(
        tuple(Series.from_json(c) for c in doc["coeffs"])
    )


def _load_diff_module(doc):
    from .diff import DifferentialModule

    return DifferentialModule(
        tuple(tuple(Series.from_json(c) for c in row) for row in doc["matrix"])
    )


def _load_twisted(doc) -> TwistedPolynomial:
    twist = TwistSpec(Fraction(str(doc["twist"]["q"])))
    coeffs = [Series.from_json(c) for c in doc["coeffs"]]
    prec = doc.get("precision")
    if prec is not None:
        coeffs = [c.truncate(int(prec)) for c in coeffs]
    return TwistedPolynomial(tuple(coeffs), twist)


def cmd_np(args, seed: int):
    doc = _load(args)
    backend = args.backend or "twisted"
    if backend == "twisted":
        if "valuations" in doc:
            # leading-coefficient-first in the file format
            vals = [None if v is None else int(v) for v in doc["valuations"]]
            poly = np_twisted(list(reversed(vals)))
        elif "matrix" in doc:
            twist = TwistSpec(Fraction(str(doc["twist"]["q"])))
            entries = tuple(
                tuple(Series.from_json(c) for c in row) for row in doc["matrix"]
            )
            cyc = cyclic_form(PhiMatrix(entries, twist), args.prec)
            poly = np_of_poly(cyc)
        else:
            poly = np_of_poly(_load_twisted(doc))
        return (
            {"command": "np", "backend": "twisted", "seed": seed, "polygon": poly.to_json()},
            True,
        )
    if backend == "diff":
        if "matrix" in doc:
            # matrix-presented module: report the numeric invariants
            module = _load_diff_module(doc)
            ir, stabilized, _ = gerard_levelt_irregularity(module)
            est, diag = katz_rank_spectral(module)
            return (
                {
                    "command": "np",
                    "backend": "diff",
                    "seed": seed,
                    "gerard_levelt_irregularity": ir,
                    "stabilized": stabilized,
                    "katz_rank_estimate": str(est),
                    "katz_converged": diag["converged"],
                },
                stabilized,
            )
        op = _load_diff_operator(doc)
        poly = np_diff(op)
        return (
            {
                "command": "np",
                "backend": "diff",
                "seed": seed,
                "polygon": poly.to_json(),
                "irregularity": irregularity_cyclic(op),
            },
            True,
        )
    if backend in ("lattice", "filtered", "table"):
        sub_args = argparse.Namespace(**vars(args))
        sub_args.backend = backend
        result, complete = cmd_hn(sub_args, seed)
        result["command"] = "np"
        return result, complete
    raise ValueError(f"no np backend named {backend!r}")


def cmd_factor(args, seed: int):
    doc = _load(args)
    poly = _load_twisted(doc)
    prec = args.prec
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
    canonical = json.dumps(
        [f.to_json() for f in factors], sort_keys=True
    ).encode()
    result = {
        "command": "factor",
        "seed": seed,
        "precision": prec,
        "polygon": np_of_poly(poly).to_json(),
        "factors": [f.to_json() for f in factors],
        "factor_slopes": [
            np_of_poly(f).segments[0].slope_json() for f in factors
        ],
        "product_verification": {
            "verified_mod_x_prec": verified,
            "sha256": hashlib.sha256(canonical).hexdigest(),
        },
    }
    return result, True


def cmd_swan(args, seed: int):
    doc = _load(args)
    data, reps = load_ramification(doc)
    from .ramification import herbrand_breaks

    out_reps = []
    for rep in reps:
        poly = galois_polygon(data, rep)
        value, integral = swan(data, rep)
        out_reps.append(
            {
                "dim": rep.dim,
                "polygon": poly.to_json(),
                "swan": str(value),
                "integral": integral,
            }
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
    doc = _load(args)
    mode = args.mode or doc.get("mode")
    if mode is None:
        raise ValueError("combine needs --mode or a mode field")
    p = NewtonPolygon.from_json(doc["p"])
    q = NewtonPolygon.from_json(doc["q"]) if "q" in doc else None
    out = polygon_combine(p, q, mode)
    return (
        {"command": "combine", "seed": seed, "mode": mode, "polygon": out.to_json()},
        True,
    )


def cmd_check(args, seed: int):
    law = args.law
    if law is None:
        raise ValueError("check needs --law")
    backend = args.backend or "filtered"
    samples = args.samples
    if law == "axioms":
        tb = None
        if backend == "table":
            tb = TableBackend(load_table(_load(args)))
        report = check_degree_axioms(backend, samples, seed, table=tb)
        complete = True
    elif law == "exactness":
        report, complete = _law_exactness(args, backend, samples, seed)
    elif law == "dominance":
        report, complete = _law_dominance(args, samples, seed)
    elif law == "tensor-mult":
        report = check_tensor_mult_filtered(samples, seed)
        complete = True
    elif law == "tensor-bounded":
        report = check_tensor_bounded_rank_one(samples, seed)
        complete = True
    elif law == "coprime-stable":
        report = check_coprime_stability(max(1, samples // 2), seed)
        complete = True
    elif law == "bost-experiment":
        report = bost_experiment(min(samples, 8), seed, bound=args.bound)
        complete = True
    elif law == "duality":
        report = check_duality_filtered(samples, seed)
        complete = True
    else:
        raise ValueError(f"unknown law {law!r}")
    result = {"command": "check", "law": law, "backend": backend, "seed": seed, "report": report}
    return result, complete


def _law_exactness(args, backend_name, samples, seed):
    if backend_name == "lattice":
        backend = LatticeBackend()
        objects = [EuclideanLattice.standard(2), EuclideanLattice.standard(3)]
        if args.infile:
            objects.insert(0, EuclideanLattice.from_json(_load(args)))
        report = check_exactness(backend, objects, _budget(args))
        return report, True
    if backend_name == "filtered":
        rng = random.Random(seed)
        backend = FilteredBackend()
        objects = [
            sample_filtered_space(rng, dim_max=3, n=1) for _ in range(samples)
        ]
        report = check_exactness(backend, objects, _budget(args))
        return report, True
    if backend_name == "table":
        doc = _load(args)
        backend = TableBackend(load_table(doc))
        objects = [o for o in backend.cat.objects if o != "0"]
        report = check_exactness(backend, objects, _budget(args))
        return report, True
    raise ValueError(f"no exactness sampler for {backend_name!r}")


def _law_dominance(args, samples, seed):
    rng = random.Random(seed)
    backend = FilteredBackend()
    budget = _budget(args)
    total_flags = 0
    failures = 0
    unique_failures = 0
    complete = True
    for _ in range(samples):
        v = sample_filtered_space(rng, dim_max=3, n=2)
        rep = check_dominance(backend, v, budget)
        uni = check_hn_uniqueness(backend, v, budget)
        total_flags += rep["flags"]
        failures += rep["dominance_failures"]
        if not uni["matches_hn"]:
            unique_failures += 1
        complete = complete and uni["complete"]
    report = {
        "samples": samples,
        "flags_checked": total_flags,
        "dominance_failures": failures,
        "uniqueness_failures": unique_failures,
        "seed": seed,
    }
    return report, complete


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
