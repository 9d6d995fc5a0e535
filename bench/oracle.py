"""Reference checks computed from the generating data, never by ``slopes``.

``check(kind, expect, doc)`` returns None when the CLI artifact ``doc``
agrees with what the generator knows about the input, else a one-line
reason.  ``complete(kind, doc)`` says whether the result carries only
complete certificates.
"""

from __future__ import annotations

from fractions import Fraction

from gen import int_det

KATZ_TOLERANCE = Fraction(1, 64)


def _factor(expect, doc):
    got = sorted(Fraction(s) for s in doc["factor_slopes"])
    if got != [Fraction(s) for s in expect["slopes"]]:
        return f"factor slopes {got} != {expect['slopes']}"
    if doc["product_verification"]["verified_mod_x_prec"] is not True:
        return "product not verified mod x^prec"
    return None


def _diff(expect, doc):
    vals = expect["valuations"]
    n = len(vals)
    known = [(i, v) for i, v in enumerate(vals) if v is not None]
    fuchs = max([0] + [-v for _, v in known])
    if doc["gerard_levelt_irregularity"] != fuchs:
        return f"GL irregularity {doc['gerard_levelt_irregularity']} != Fuchs number {fuchs}"
    rho = max([Fraction(0)] + [Fraction(-v, n - i) for i, v in known])
    est = Fraction(doc["katz_rank_estimate"])
    if abs(est - rho) > KATZ_TOLERANCE:
        return f"Katz estimate {est} not within 1/64 of {rho}"
    return None


def _flag_ranks(doc, rank):
    ranks = [step["rank"] for step in doc["flag"]]
    if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[-1:] != [rank]:
        return f"flag ranks {ranks} do not rise strictly to {rank}"
    return None


def _lattice(expect, doc):
    gram = expect["gram"]
    r = len(gram)
    end_rank, end_deg = doc["polygon"]["endpoints"][1]
    det = int_det(gram)
    if end_rank != r or Fraction(end_deg["neg_half_log"]) != det:
        return f"polygon endpoint {end_rank}, {end_deg} != {r}, det {det}"
    return _flag_ranks(doc, r)


def _filtered(expect, doc):
    dim = expect["dim"]
    end_rank, end_deg = doc["polygon"]["endpoints"][1]
    if end_rank != dim or Fraction(end_deg) != Fraction(expect["degree"]):
        return f"polygon endpoint {end_rank}, {end_deg} != {dim}, {expect['degree']}"
    return _flag_ranks(doc, dim)


CHECKS = {
    "twisted-factor": _factor,
    "diff-irregularity": _diff,
    "lattice-hn": _lattice,
    "filtered-hn": _filtered,
}


def check(kind: str, expect, doc):
    try:
        return CHECKS[kind](expect, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed artifact: {exc!r}"


def complete(kind: str, doc) -> bool:
    if kind == "twisted-factor":
        return True
    if kind == "diff-irregularity":
        return doc.get("stabilized") is True
    return all(c.get("complete") is True for c in doc.get("certificates", ()))
