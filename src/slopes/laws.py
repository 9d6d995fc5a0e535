"""Property harnesses: degree axioms, exactness probes, dominance and
uniqueness by brute force, min-max slope bounds, the morphism slope law,
tensor and duality laws, tensor semistability, coprimality, and the
lattice tensor experiment.

``cli.LAWS`` is the one list of them: each ``check --law`` name, the
backends it runs on, the flags it reads and its verdict on the report.
``gr_kernel_demo`` is not a law; it reports the rank accounting of a
tabulated morphism and decides nothing.

Everything is seeded and deterministic; reports are plain dicts ready for
JSON emission.  Heuristic certificates are propagated, never upgraded.

Each backend module (diff, filtered, lattices, linalg, series, tables) is
imported inside the sampler or runner that uses it, so a law loads only
the backends it runs on; at module level stand the modules the package
itself loads (core, degrees, polygon).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import Budget, hn_filtration, is_semistable
from .degrees import SlopeKey
from .polygon import (
    DUAL,
    TENSOR_MULT,
    NewtonPolygon,
    polygon_combine,
    polygon_dominates,
    polygon_of_flag,
)

if TYPE_CHECKING:
    from .filtered import FilteredSpace, Filtration
    from .lattices import EuclideanLattice, Sublattice
    from .linalg import Mat
    from .series import Series
    from .tables import TableBackend


# -- samplers ---------------------------------------------------------------------


def sample_filtered_space(
    rng: random.Random,
    dim_max: int = 3,
    n: int = 2,
    integer_jumps: bool = False,
) -> FilteredSpace:
    from .filtered import FilteredSpace

    dim = rng.randint(1, dim_max)
    fils = []
    for _ in range(n):
        fils.append(_sample_chain(rng, dim, integer_jumps))
    return FilteredSpace(dim, tuple(fils))


def _sample_chain(rng: random.Random, dim: int, integer_jumps: bool) -> Filtration:
    from . import linalg
    from .filtered import Filtration

    basis = _random_basis(rng, dim)
    nsteps = rng.randint(1, min(dim, 3))
    dims = sorted(rng.sample(range(1, dim + 1), nsteps))
    if dims[-1] != dim:
        dims.append(dim)
    jumps = sorted(_sample_jumps(rng, len(dims), integer_jumps), reverse=True)
    steps = []
    for jump, d in zip(jumps, dims):
        steps.append((jump, linalg.rref(basis[:d])))
    return Filtration(tuple(steps))


def _sample_jumps(rng: random.Random, k: int, integer_jumps: bool):
    out = set()
    while len(out) < k:
        if integer_jumps:
            out.add(Fraction(rng.randint(-3, 4)))
        else:
            out.add(Fraction(rng.randint(-6, 8), rng.choice((1, 1, 2))))
    return list(out)


def _random_basis(rng: random.Random, dim: int) -> list:
    from . import linalg

    while True:
        rows = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            for _ in range(dim)
        ]
        if linalg.det(tuple(rows)) != 0:
            return rows


def sample_lattice(rng: random.Random, rank_max: int = 3) -> EuclideanLattice:
    from . import linalg
    from .lattices import EuclideanLattice

    r = rng.randint(1, rank_max)
    while True:
        a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        mat = linalg.frac_matrix(a)
        if linalg.det(mat) != 0:
            gram = linalg.mat_mul(linalg.transpose(mat), mat)
            return EuclideanLattice(gram)


def sample_saturated_sub(rng: random.Random, lat: EuclideanLattice) -> Sublattice:
    from . import linalg
    from .lattices import saturate

    r = lat.rank
    k = rng.randint(1, max(1, r - 1))
    while True:
        cols = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
        mat = linalg.frac_matrix([[cols[j][i] for j in range(k)] for i in range(r)])
        if linalg.rank(mat) == k:
            return saturate(lat, cols)


def _random_subspace(rng: random.Random, dim: int) -> Mat:
    from . import linalg

    k = rng.randint(1, dim)
    rows = [
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(k)
    ]
    return linalg.rref(rows)


# -- degree axioms ---------------------------------------------------------------


def check_degree_axioms(
    backend: str, samples: int, seed: int, table: TableBackend | None = None
) -> dict:
    """Additivity on short exact sequences plus the epi-monic slope
    inequality; returns a violations report (expected empty)."""
    rng = random.Random(seed)
    violations = []
    checked = 0
    if backend == "filtered":
        from .filtered import FilteredBackend, FilteredSpace, Filtration, degree_filtered

        for i in range(samples):
            v = sample_filtered_space(rng)
            s = _random_subspace(rng, v.dim)
            if not 0 < len(s) < v.dim:
                continue
            checked += 1
            violations += _additivity(FilteredBackend(), v, (v, s), {"index": i})
            # epi-monic: raise every jump by a non-negative shift
            shift = Fraction(rng.randint(0, 2))
            w = FilteredSpace(
                v.dim,
                tuple(
                    Filtration(tuple((j + shift, s2) for j, s2 in f.steps))
                    for f in v.filtrations
                ),
            )
            mu_v = SlopeKey(degree_filtered(v), v.dim)
            mu_w = SlopeKey(degree_filtered(w), w.dim)
            if mu_v.cmp(mu_w) > 0:
                violations.append({"kind": "epi-monic", "index": i})
    elif backend == "lattice":
        from .lattices import EuclideanLattice, LatticeBackend

        for i in range(samples):
            lat = sample_lattice(rng)
            if lat.rank < 2:
                continue
            sub = sample_saturated_sub(rng, lat)
            if sub.rank == lat.rank:
                continue
            checked += 1
            violations += _additivity(LatticeBackend(), lat, sub, {"index": i})
            # epi-monic: shrink the metric in one rational direction
            g2 = _shrunk_gram(rng, lat)
            if g2 is not None:
                m = EuclideanLattice(g2)
                if SlopeKey(lat.degree(), lat.rank).cmp(
                    SlopeKey(m.degree(), m.rank)
                ) > 0:
                    violations.append({"kind": "epi-monic", "index": i})
    elif backend == "table":
        if table is None:
            raise ValueError("table axioms need a loaded table")
        for sub, amb, quot in table.cat.triples:
            checked += 1
            violations += _additivity(table, amb, sub, {"triple": [sub, amb, quot]})
    else:
        raise ValueError(f"no axiom sampler for backend {backend!r}")
    return {
        "backend": backend,
        "samples": samples,
        "checked": checked,
        "violations": violations,
        "seed": seed,
    }


def _additivity(backend, obj, sub, where: dict) -> list:
    """Violations of rank and degree additivity along obj, sub, obj/sub."""
    quo = backend.quotient(obj, sub)
    lhs = backend.degree(obj)
    rhs = backend.degree(sub) + backend.degree(quo)
    out = []
    if lhs.cmp(rhs) != 0:
        out.append(
            {"kind": "additivity", **where, "lhs": str(lhs.value), "rhs": str(rhs.value)}
        )
    if backend.rank(sub) + backend.rank(quo) != backend.rank(obj):
        out.append({"kind": "rank", **where})
    return out


def _shrunk_gram(rng: random.Random, lat: EuclideanLattice):
    from . import linalg

    r = lat.rank
    v = tuple(Fraction(rng.randint(-1, 1)) for _ in range(r))
    if all(x == 0 for x in v):
        return None
    eps = Fraction(1, rng.randint(2, 5))
    g2 = tuple(
        tuple(lat.gram[i][j] - eps * v[i] * v[j] for j in range(r))
        for i in range(r)
    )
    for k in range(1, r + 1):
        if linalg.det(tuple(row[:k] for row in g2[:k])) <= 0:
            return None
    return g2


# -- exactness ---------------------------------------------------------------------


def check_exactness(backend, objects, budget: Budget = Budget()) -> dict:
    """Search for a strict subobject of a semistable object with strictly
    smaller slope; that witnesses non-exactness of the filtration."""
    for obj in objects:
        ok, cert = is_semistable(backend, obj, budget)
        if not ok:
            continue
        mu = backend.slope(obj)
        subs, _ = backend.strict_subobjects(obj, budget)
        for s in subs:
            if backend.rank(s) in (0, backend.rank(obj)):
                continue
            key = SlopeKey(backend.degree(s), backend.rank(s))
            if key.cmp(mu) < 0:
                return {
                    "exact": False,
                    "witness": {
                        "object": backend.handle_json(obj),
                        "subobject": backend.handle_json(s),
                        "object_slope": mu.slope_json(),
                        "sub_slope": key.slope_json(),
                    },
                }
    return {"exact": None, "witness": None, "note": "no counterexample found"}


# -- graded kernel accounting ---------------------------------------------------------


def gr_kernel_demo(backend: TableBackend, morphism) -> dict:
    """Rank accounting for the canonical map gr Ker f -> Ker gr f.

    Per graded slope, an isomorphism needs
    mult(source) - mult(target) <= mult(kernel) <= mult(source).
    """
    from .tables import ZERO_ID

    if morphism.kernel is None:
        raise ValueError("morphism fixture lacks declared kernel data")
    budget = Budget()
    source_np = hn_filtration(backend, morphism.source, budget).polygon
    target_np = hn_filtration(backend, morphism.target, budget).polygon
    if morphism.kernel == ZERO_ID:
        kernel_np = NewtonPolygon(())
    else:
        kernel_np = hn_filtration(backend, morphism.kernel, budget).polygon
    if morphism.zero:
        target_mults = {}
    else:
        target_mults = _mult_map(target_np)
    source_mults = _mult_map(source_np)
    kernel_mults = _mult_map(kernel_np)
    possible = True
    detail = []
    slopes = set(source_mults) | set(kernel_mults)
    for lam in slopes:
        upper = source_mults.get(lam, 0)
        lower = max(0, upper - target_mults.get(lam, 0))
        have = kernel_mults.get(lam, 0)
        ok = lower <= have <= upper
        possible = possible and ok
        detail.append(
            {"slope": str(lam), "lower": lower, "upper": upper, "kernel": have, "ok": ok}
        )
    return {
        "source": morphism.source,
        "target": morphism.target,
        "kernel": morphism.kernel,
        "iso_possible": possible,
        "per_slope": detail,
    }


def _mult_map(poly: NewtonPolygon) -> dict:
    out = {}
    for seg in poly.segments:
        r = seg.reduced()
        lam = r.deg.value / r.rk
        out[lam] = out.get(lam, 0) + seg.rk
    return out


def morphism_slope_law(backend: TableBackend) -> dict:
    """Nonzero morphisms between semistable objects go slope-up."""
    results = []
    for m in backend.morphisms():
        if m.zero:
            continue
        src_ok, _ = is_semistable(backend, m.source, Budget())
        tgt_ok, _ = is_semistable(backend, m.target, Budget())
        if not (src_ok and tgt_ok):
            continue
        ok = backend.slope(m.source).cmp(backend.slope(m.target)) <= 0
        results.append({"source": m.source, "target": m.target, "ok": ok})
    return {"checked": len(results), "violations": [r for r in results if not r["ok"]]}


def _filtration_compatible(v: FilteredSpace, w: FilteredSpace, mat) -> bool:
    """mat rows map v-coordinates to w; compatible iff every step lands in
    the matching step of w."""
    from . import linalg

    for fv, fw in zip(v.filtrations, w.filtrations):
        for jump, step in fv.steps:
            image = linalg.rref([linalg.mat_vec(linalg.transpose(mat), row) for row in step])
            target = None
            for jw, sw in fw.steps:
                if jw >= jump:
                    target = sw
            if len(image) == 0:
                continue
            if target is None or not linalg.subspace_contains(target, image):
                return False
    return True


def morphism_slope_law_filtered(samples: int, seed: int) -> dict:
    """Sampled nonzero filtration-compatible maps between certified
    semistable spaces satisfy mu(source) <= mu(target)."""
    from .filtered import FilteredBackend

    rng = random.Random(seed)
    backend = FilteredBackend()
    budget = Budget()
    checked = 0
    violations = []
    attempts = 0
    while checked < samples and attempts < samples * 60:
        attempts += 1
        v = sample_filtered_space(rng, dim_max=2, n=2)
        w = sample_filtered_space(rng, dim_max=2, n=2)
        ok_v, cv = is_semistable(backend, v, budget)
        ok_w, cw = is_semistable(backend, w, budget)
        if not (ok_v and cv.complete and ok_w and cw.complete):
            continue
        mat = tuple(
            tuple(Fraction(rng.randint(-1, 1)) for _ in range(w.dim))
            for _ in range(v.dim)
        )
        if all(c == 0 for row in mat for c in row):
            continue
        if not _filtration_compatible(v, w, mat):
            continue
        checked += 1
        if backend.slope(v).cmp(backend.slope(w)) > 0:
            violations.append({"v": v.to_json(), "w": w.to_json()})
    return {"checked": checked, "violations": violations, "seed": seed}


# -- brute force flags: uniqueness and dominance ----------------------------------------


def enumerate_flags(backend, obj, budget: Budget = Budget()):
    """All flags through the backend's enumerable strict subobjects."""
    subs, cert = backend.strict_subobjects(obj, budget)
    proper = [s for s in subs if 0 < backend.rank(s) < backend.rank(obj)]
    flags = [[obj]]
    chains = [[s] for s in proper]
    while chains:
        chain = chains.pop()
        flags.append(chain + [obj])
        top = chain[-1]
        for s in proper:
            if backend.rank(s) <= backend.rank(top):
                continue
            if backend.contains(obj, top, s):
                chains.append(chain + [s])
    return flags, cert


def flag_polygon(backend, chain) -> NewtonPolygon:
    pts = [(backend.rank(s), backend.degree(s)) for s in chain]
    return polygon_of_flag(pts)


def check_hn_uniqueness(backend, obj, budget: Budget = Budget()) -> dict:
    """Brute force: exactly one enumerable flag has semistable graded
    pieces with strictly decreasing slopes, and it is the HN flag."""
    hn = hn_filtration(backend, obj, budget)
    flags, cert = enumerate_flags(backend, obj, budget)
    return _uniqueness(backend, obj, hn, flags, cert, budget)


def _uniqueness(backend, obj, hn, flags, cert, budget) -> dict:
    qualifying = []
    for chain in flags:
        if _qualifies(backend, obj, chain, budget):
            qualifying.append(chain)
    ok = len(qualifying) == 1 and _same_chain(backend, obj, qualifying[0], hn)
    return {
        "object_rank": backend.rank(obj),
        "flags": len(flags),
        "qualifying": len(qualifying),
        "matches_hn": ok,
        "complete": cert.complete and hn.certificate.complete,
    }


def _qualifies(backend, obj, chain, budget) -> bool:
    prev = None
    prev_key = None
    for step in chain:
        piece = backend.subquotient(obj, prev, step)
        r = backend.rank(piece)
        if r == 0:
            return False
        key = SlopeKey(backend.degree(piece), r)
        if prev_key is not None and not prev_key.cmp(key) > 0:
            return False
        ok, _ = is_semistable(backend, piece, budget)
        if not ok:
            return False
        prev, prev_key = step, key
    return True


def _same_chain(backend, obj, chain, hn) -> bool:
    if len(chain) != len(hn.flag.steps):
        return False
    for got, want in zip(chain, hn.flag.steps):
        if backend.rank(got) != want.rank:
            return False
        if backend.degree(got).cmp(want.degree) != 0:
            return False
        if backend.rank(got) < hn.flag.steps[-1].rank and not (
            backend.contains(obj, got, want.handle)
            and backend.contains(obj, want.handle, got)
        ):
            return False
    return True


def check_dominance(backend, obj, budget: Budget = Budget()) -> dict:
    """Every enumerable flag's polygon lies below NP with equal endpoints."""
    hn = hn_filtration(backend, obj, budget)
    flags, _ = enumerate_flags(backend, obj, budget)
    return _dominance(backend, hn, flags)


def _dominance(backend, hn, flags) -> dict:
    failures = 0
    for chain in flags:
        poly = flag_polygon(backend, chain)
        if not polygon_dominates(hn.polygon, poly):
            failures += 1
    return {"flags": len(flags), "dominance_failures": failures}


def check_flag_laws(backend, objects, budget: Budget = Budget()):
    """(report, complete): check_dominance and check_hn_uniqueness summed
    over objects, on one HN flag and one flag enumeration per object;
    uniqueness_failures counts the objects whose matches_hn is false."""
    flags = failures = unique_failures = 0
    complete = True
    for obj in objects:
        hn = hn_filtration(backend, obj, budget)
        chains, cert = enumerate_flags(backend, obj, budget)
        dom = _dominance(backend, hn, chains)
        uni = _uniqueness(backend, obj, hn, chains, cert, budget)
        flags += dom["flags"]
        failures += dom["dominance_failures"]
        unique_failures += not uni["matches_hn"]
        complete = complete and uni["complete"]
    report = {
        "flags_checked": flags,
        "dominance_failures": failures,
        "uniqueness_failures": unique_failures,
    }
    return report, complete


# -- tensor laws -------------------------------------------------------------------------


def check_tensor_mult_filtered(samples: int, seed: int, dim_max: int = 3) -> dict:
    """n = 1 filtered spaces: tensor polygon equals the pairwise-sum
    polygon (the tautological filtration is tensor-multiplicative)."""
    from .filtered import FilteredBackend, tensor_filtered

    rng = random.Random(seed)
    backend = FilteredBackend()
    budget = Budget()
    failures = []
    for i in range(samples):
        v = sample_filtered_space(rng, dim_max=dim_max, n=1)
        w = sample_filtered_space(rng, dim_max=dim_max, n=1)
        t = tensor_filtered(v, w)
        got = hn_filtration(backend, t, budget).polygon
        want = polygon_combine(
            hn_filtration(backend, v, budget).polygon,
            hn_filtration(backend, w, budget).polygon,
            TENSOR_MULT,
        )
        if got.to_json() != want.to_json():
            failures.append(i)
    return {"samples": samples, "failures": failures, "seed": seed}


def check_tensor_bounded_rank_one(samples: int, seed: int) -> dict:
    """Rank-one connections: the break of a tensor product (sum of the
    connection forms) is at most the larger break, and the dual (negated
    form) has the same break."""
    from .diff import rank_one_break

    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        f = _random_series(rng)
        g = _random_series(rng)
        bf, bg = rank_one_break(f), rank_one_break(g)
        bt = rank_one_break(f + g)
        if bt > max(bf, bg):
            failures.append({"index": i, "kind": "tensor-bound"})
        if rank_one_break(-f) != bf:
            failures.append({"index": i, "kind": "duality"})
    return {"samples": samples, "failures": failures, "seed": seed}


def _random_series(rng: random.Random) -> Series:
    from .series import Series

    vmin = rng.randint(-4, 1)
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    return Series.from_coeffs(vmin, coeffs)


def check_duality_filtered(samples: int, seed: int, dim_max: int = 3) -> dict:
    """Dual polygon = negated-reversed polygon; double dual = identity."""
    from .filtered import FilteredBackend, degree_filtered, dual_filtered

    rng = random.Random(seed)
    backend = FilteredBackend()
    budget = Budget()
    failures = []
    for i in range(samples):
        v = sample_filtered_space(rng, dim_max=dim_max, n=rng.choice((1, 2)))
        dual = dual_filtered(v)
        got = hn_filtration(backend, dual, budget).polygon
        want = polygon_combine(
            hn_filtration(backend, v, budget).polygon, None, DUAL
        )
        if got.to_json() != want.to_json():
            failures.append({"index": i, "kind": "polygon"})
        double = dual_filtered(dual)
        if double.to_json() != v.to_json():
            failures.append({"index": i, "kind": "double-dual"})
        if degree_filtered(dual).value != -degree_filtered(v).value:
            failures.append({"index": i, "kind": "degree"})
    return {"samples": samples, "failures": failures, "seed": seed}


def sample_multiline_space(rng: random.Random) -> FilteredSpace:
    """Dim-2 space with 3 or 5 filtrations, each jumping at its own line.

    With two filtrations, integer-jump semistability forces an even degree,
    so coprime fixtures need more chains; in dimension 2 the destabilizer
    search stays certified-complete for any number of them.
    """
    from . import linalg
    from .filtered import FilteredSpace, Filtration

    n = rng.choice((3, 3, 5))
    lines = []
    while len(lines) < n:
        cand = linalg.subspace(
            ((Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),)
        )
        if len(cand) == 1 and cand not in lines:
            lines.append(cand)
    full = linalg.identity(2)
    fils = []
    for line in lines:
        top = Fraction(rng.randint(1, 2))
        base = Fraction(rng.randint(-1, 0))
        fils.append(Filtration(((top, line), (base, full))))
    return FilteredSpace(2, tuple(fils))


def check_coprime_stability(samples: int, seed: int) -> dict:
    """Certified-semistable integer-jump spaces with gcd(deg, dim) = 1 have
    no proper strict subobject of equal slope (they are stable)."""
    from math import gcd

    from .filtered import FilteredBackend, degree_filtered

    rng = random.Random(seed)
    budget = Budget()
    backend = FilteredBackend()
    found = 0
    failures = []
    tried = 0
    while found < samples and tried < samples * 400:
        tried += 1
        v = sample_multiline_space(rng)
        deg = degree_filtered(v).value
        if deg.denominator != 1 or gcd(int(deg), v.dim) != 1:
            continue
        ok, cert = is_semistable(backend, v, budget)
        if not ok or not cert.complete:
            continue
        found += 1
        mu = backend.slope(v)
        subs, _ = backend.strict_subobjects(v, budget)
        for sub in subs:
            if SlopeKey(backend.degree(sub), backend.rank(sub)).cmp(mu) == 0:
                failures.append({"space": v.to_json()})
    return {
        "requested": samples,
        "found": found,
        "failures": failures,
        "seed": seed,
    }


def check_bifil_tensor_semistable(samples: int, seed: int) -> dict:
    """Evidence run: tensors of certified-semistable integer-jump
    two-filtration spaces stay semistable (asserted only on complete
    certificates; gathers evidence, decides nothing)."""
    from .filtered import FilteredBackend, tensor_filtered

    rng = random.Random(seed)
    backend = FilteredBackend()
    budget = Budget()
    found = 0
    tried = 0
    failures = []
    while found < samples and tried < samples * 300:
        tried += 1
        v = sample_filtered_space(rng, dim_max=2, n=2, integer_jumps=True)
        w = sample_filtered_space(rng, dim_max=2, n=2, integer_jumps=True)
        ok_v, cv = is_semistable(backend, v, budget)
        ok_w, cw = is_semistable(backend, w, budget)
        if not (ok_v and cv.complete and ok_w and cw.complete):
            continue
        t = tensor_filtered(v, w)
        ok_t, ct = is_semistable(backend, t, budget)
        if not ct.complete:
            continue
        found += 1
        if not ok_t:
            failures.append({"v": v.to_json(), "w": w.to_json()})
    return {"requested": samples, "found": found, "failures": failures, "seed": seed}


def check_minmax(samples: int, seed: int) -> dict:
    """Lemma-style min-max slope bounds on sampled short exact sequences."""
    from .filtered import degree_filtered, induced_filtration

    rng = random.Random(seed)
    failures = []
    checked = 0
    for i in range(samples):
        v = sample_filtered_space(rng)
        rows = _random_subspace(rng, v.dim)
        if not 0 < len(rows) < v.dim:
            continue
        checked += 1
        sub = induced_filtration(v, rows, "sub")
        quo = induced_filtration(v, rows, "quotient")
        mu_m = SlopeKey(degree_filtered(sub), sub.dim)
        mu_n = SlopeKey(degree_filtered(v), v.dim)
        mu_p = SlopeKey(degree_filtered(quo), quo.dim)
        lo = mu_m if mu_m.cmp(mu_p) <= 0 else mu_p
        hi = mu_m if mu_m.cmp(mu_p) >= 0 else mu_p
        if lo.cmp(mu_n) > 0 or mu_n.cmp(hi) > 0:
            failures.append(i)
        else:
            strict_needed = not (mu_m.cmp(mu_n) == 0 and mu_n.cmp(mu_p) == 0)
            if strict_needed and (lo.cmp(mu_n) == 0 or mu_n.cmp(hi) == 0):
                failures.append(i)
    return {"checked": checked, "failures": failures, "seed": seed}


def bost_experiment(samples: int, seed: int) -> dict:
    """Tensor semistability evidence for rank-2 semistable lattices.

    Report only.  Each sampled pair's Kronecker product gets the exact
    destabilizer search; a destabilizing sublattice is a counterexample.
    """
    from .lattices import destabilizer_lattice, tensor_lattice

    rng = random.Random(seed)
    found = 0
    tried = 0
    counterexamples = []
    complete_pairs = 0
    while found < samples and tried < samples * 200:
        tried += 1
        a = sample_lattice(rng, rank_max=2)
        b = sample_lattice(rng, rank_max=2)
        if a.rank != 2 or b.rank != 2:
            continue
        sa, _, _ = destabilizer_lattice(a)
        sb, _, _ = destabilizer_lattice(b)
        if not (sa is a and sb is b):
            continue  # not semistable
        found += 1
        t = tensor_lattice(a, b)
        sub, _, cert = destabilizer_lattice(t)
        complete_pairs += cert.complete
        if sub is not t:
            counterexamples.append(
                {"a": a.to_json(), "b": b.to_json(), "sub": sub.to_json()}
            )
    return {
        "pairs": found,
        "complete_pairs": complete_pairs,
        "counterexamples": counterexamples,
        "seed": seed,
    }
