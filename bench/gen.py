"""Seeded input generators for the benchmark workloads.

Nothing here imports ``slopes``: the inputs depend only on the workload
name, the seed and the job index, so a library change cannot change a
workload.  Each job draws from its own ``random.Random`` seeded with a
string, which Python hashes the same way on every platform and version.

There are four job kinds (``MAKERS``), each a tuple of strata, and each
workload is a fixed *cycle* holding every stratum of two kinds once
(``WORKLOADS``).  Job ``i`` belongs to the cycle's entry ``i % len(cycle)``.
The stratum fixes the shape of the input (slope set, valuation pattern,
lattice, filtration shape) and the seed draws the numbers inside it.  Cost
follows the shape, so whole cycles cost about the same under every seed,
which keeps the end-to-end figures steady across seeds.

A job is a dict: ``argv`` for ``slopes.cli.main`` (``{in}`` stands for the
input file), the input ``doc``, the facts the oracle needs (``expect``),
its ``kind``, a ``share`` label naming its stratum, its ``deadline`` in
seconds and ``hard``: whether its stratum is one of the two hard shares
(rank-4 lattices, three complete flags) whose jobs miss their deadline
until the program is fixed.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction


def int_det(m) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def _series_json(coeffs: dict):
    """{exponent: coefficient} -> the CLI's {"vmin", "c"} series form."""
    if not coeffs:
        return {"vmin": 0, "c": []}
    lo, hi = min(coeffs), max(coeffs)
    return {"vmin": lo, "c": [str(coeffs.get(k, 0)) for k in range(lo, hi + 1)]}


# -- twisted-factor -----------------------------------------------------------------

Q = Fraction(2)
FACTOR_PREC = 40

# Slope sets of the acceptance roundtrip distribution (distinct slopes in
# -2..3).  Adjacent slopes and three factors are the slow ones.
FACTOR_STRATA = (
    (-2, 3), (-2, -1), (-1, 2), (0, 1), (0, 3), (1, 3), (0, 2), (-2, 1),
    (-1, 0), (-2, 2, 3),
)


def _twisted_product(p, r):
    """(a phi^i)(b phi^j) = a phi^i(b) phi^(i+j) with phi(x) = q x.

    Polynomials are lists of {exponent: coefficient}, lowest phi power
    first."""
    out = [dict() for _ in range(len(p) + len(r) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            acc = out[i + j]
            for ea, ca in a.items():
                for eb, cb in b.items():
                    acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb * Q ** (i * eb)
    return [{k: c for k, c in d.items() if c != 0} for d in out]


def twisted_factor_job(rng: random.Random, position: int):
    """Product of monic one-slope factors c x^(-s) + phi, q = 2.  The
    magnitudes |c| in 1..4 are fixed per stratum, since the size of the
    rationals drives the cost; the seed draws the signs and the order of
    the factors."""
    sizes = random.Random(f"twisted-factor:base:{position}")
    slopes = list(FACTOR_STRATA[position])
    size = {s: sizes.randint(1, 4) for s in slopes}
    rng.shuffle(slopes)
    prod = None
    for s in slopes:
        c = Fraction(size[s] * rng.choice((1, -1)))
        factor = [{-s: c}, {0: Fraction(1)}]
        prod = factor if prod is None else _twisted_product(prod, factor)
    doc = {
        "twist": {"q": str(Q)},
        "coeffs": [_series_json(c) for c in prod],
        "precision": FACTOR_PREC,
    }
    return {
        "argv": ["factor", "--in", "{in}", "--prec", str(FACTOR_PREC)],
        "doc": doc,
        "expect": {"slopes": sorted(slopes)},
        "share": "slopes=" + ",".join(map(str, sorted(slopes))),
        "deadline": 15.0,
    }


# -- diff-irregularity --------------------------------------------------------------

# Valuation vectors v_0..v_{n-1} of a_i (None: a_i = 0), all taken from the
# acceptance criterion-6 list; the order-4 members whose Gerard-Levelt run
# takes 8-18 s on their own are left out so a cycle stays short.
DIFF_STRATA = (
    (0,), (-1, None), (None, None, -2), (-3,), (0, 2), (-1, -1),
    (None, None, None, -1), (2,), (None, -3), (-2, -2, -2), (-1,), (0, 0, 0),
    (-2, -2), (-1, None, None), (-2, None), (-1, None),
)


def diff_job(rng: random.Random, position: int):
    """Companion matrix of D^n - sum a_i D^i, a_i = c_i x^(v_i).  The
    magnitudes |c_i| in 1..3 are fixed per stratum, since the size of the
    rationals drives the cost; the seed draws the signs."""
    vals = DIFF_STRATA[position]
    sizes = random.Random(f"diff-irregularity:base:{position}")
    n = len(vals)
    zero = {"vmin": 0, "c": []}
    rows = [[zero] * n for _ in range(n)]
    for j in range(n - 1):
        rows[j + 1][j] = {"vmin": 0, "c": ["1"]}
    for i, v in enumerate(vals):
        if v is not None:
            c = sizes.randint(1, 3) * rng.choice((1, -1))
            rows[i][n - 1] = {"vmin": v, "c": [str(c)]}
    return {
        "argv": ["np", "--backend", "diff", "--in", "{in}"],
        "doc": {"matrix": rows},
        "expect": {"valuations": list(vals)},
        "share": "v=" + ",".join("0x" if v is None else str(v) for v in vals),
        "deadline": 30.0,
    }


# -- lattice-hn ---------------------------------------------------------------------

# (rank, lowest and highest short-vector count).  Cost grows with the
# number of vectors the destabilizer enumerates (about its square in rank
# 3), so each stratum draws Grams until the count lands in its band.  The
# rank-4 share takes minutes today and misses its deadline.
LATTICE_DEADLINE = 2.0
LATTICE_STRATA = tuple(
    [(2, 1, 10**9)] * 12 + [(3, 10, 20)] * 30 + [(4, 120, 400)]
)


def lattice_bound(gram) -> int:
    """The CLI's default enumeration bound: rank * largest diagonal entry."""
    return len(gram) * max(gram[i][i] for i in range(len(gram)))


def short_vector_count(gram) -> int:
    """Nonzero integer vectors of norm <= lattice_bound, up to sign."""
    r = len(gram)
    bound = lattice_bound(gram)
    inv = _inverse(gram)
    # |x_i| <= sqrt(bound * (G^-1)_ii) for every x of norm <= bound
    box = [math.isqrt(math.floor(bound * inv[i][i])) + 1 for i in range(r)]
    count = 0
    for x in itertools.product(*[range(-b, b + 1) for b in box]):
        if any(x):
            norm = sum(x[i] * gram[i][j] * x[j] for i in range(r) for j in range(r))
            count += norm <= bound
    return count // 2


def _inverse(m):
    r = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(r)]
         for i, row in enumerate(m)]
    for c in range(r):
        p = next(i for i in range(c, r) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for i in range(r):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [u - f * w for u, w in zip(a[i], a[c])]
    return [row[r:] for row in a]


@functools.lru_cache(maxsize=None)
def _base_gram(position: int):
    """The stratum's lattice: A^T A for a random nonsingular integer A
    (entries -2..2, or -1..1 in rank 4), drawn from a seed-independent
    sequence until its short-vector count lands in the stratum's band."""
    rng = random.Random(f"lattice-hn:base:{position}")
    r, lo, hi = LATTICE_STRATA[position]
    span = 1 if r == 4 else 2
    while True:
        a = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        det = int_det(a) ** 2
        if det == 0:
            continue
        gram = [[sum(a[k][i] * a[k][j] for k in range(r)) for j in range(r)]
                for i in range(r)]
        if r == 3 and math.prod(gram[i][i] for i in range(r)) > 2 * det:
            continue  # orthogonality defect above 2: too many short vectors
        if r == 2 or lo <= short_vector_count(gram) <= hi:
            return gram


def lattice_job(rng: random.Random, position: int):
    """An isometric copy of the stratum's lattice: the seed draws a signed
    permutation P of the basis and the job gets P^T G P.  Cost follows the
    geometry (the short-vector count, the size of the entries), which a
    seed-drawn Gram would change from job to job."""
    base = _base_gram(position)
    r = len(base)
    perm = list(range(r))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(r)]
    gram = [[sign[i] * sign[j] * base[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    return {
        "argv": ["hn", "--backend", "lattice", "--in", "{in}"],
        "doc": {"gram": [[str(x) for x in row] for row in gram]},
        "expect": {"gram": gram},
        "share": f"rank={r}",
        "deadline": LATTICE_DEADLINE,
        "hard": r == 4,
    }


# -- filtered-hn --------------------------------------------------------------------

# (dim, number of filtrations, chain shape).  "random" chains follow the
# property-test sampler; "short" chains have one proper step, so three of
# them in dim 3 finish fast with a heuristic certificate; "complete" flags
# in general position make the closure grow without bound.
FILTERED_DEADLINE = 1.0
_FILTERED_BASE = (
    (1, 1, "random"), (2, 1, "random"), (3, 1, "random"), (4, 1, "random"),
    (2, 2, "random"), (3, 2, "random"), (4, 2, "random"), (3, 2, "random"),
    (2, 1, "random"), (3, 1, "random"), (4, 1, "random"), (2, 2, "random"),
    (3, 2, "random"), (4, 2, "random"), (3, 3, "short"), (4, 2, "random"),
)
FILTERED_STRATA = _FILTERED_BASE * 20 + ((3, 3, "complete"),)


def _random_basis(rng: random.Random, dim: int):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if int_det(rows) != 0:
            return rows


def _jumps(rng: random.Random, k: int):
    out = set()
    while len(out) < k:
        out.add(Fraction(rng.randint(-6, 8), rng.choice((1, 1, 2))))
    return sorted(out, reverse=True)


def _chain(rng: random.Random, dim: int, shape: str, basis):
    if shape == "random":
        nsteps = rng.randint(1, min(dim, 3))
        dims = sorted(rng.sample(range(1, dim + 1), nsteps))
        if dims[-1] != dim:
            dims.append(dim)
    elif shape == "short":
        dims = [rng.randint(1, dim - 1), dim]
    else:
        dims = list(range(1, dim + 1))
    return list(zip(_jumps(rng, len(dims)), [basis[:d] for d in dims]))


def _general_position(bases) -> bool:
    """Three flags in dim 3: no flag's line lies in another flag's plane."""
    for i, b in enumerate(bases):
        for j, c in enumerate(bases):
            if i != j and int_det([b[0], c[0], c[1]]) == 0:
                return False
    return True


def filtered_job(rng: random.Random, position: int):
    """The stratum fixes the dimension, the number of chains, their step
    dimensions and jumps (the closure's size and the HN depth follow from
    those); the seed draws the subspaces, as flags of random bases."""
    dim, n, shape = FILTERED_STRATA[position]
    while True:
        bases = [_random_basis(rng, dim) for _ in range(n)]
        if shape != "complete" or _general_position(bases):
            break
    steps_rng = random.Random(f"filtered-hn:base:{position}")
    chains = [_chain(steps_rng, dim, shape, b) for b in bases]
    doc = {
        "dim": dim,
        "filtrations": [
            {"steps": [
                {"jump": str(j), "basis": [[str(x) for x in row] for row in rows]}
                for j, rows in steps
            ]}
            for steps in chains
        ],
    }
    degree = Fraction(0)
    for steps in chains:
        prev = 0
        for jump, rows in steps:
            degree += jump * (len(rows) - prev)
            prev = len(rows)
    return {
        "argv": ["hn", "--backend", "filtered", "--in", "{in}"],
        "doc": doc,
        "expect": {"degree": str(degree), "dim": dim},
        "share": f"dim={dim},n={n},{shape}",
        "deadline": FILTERED_DEADLINE,
        "hard": shape == "complete",
    }


MAKERS = {
    "twisted-factor": (twisted_factor_job, FACTOR_STRATA),
    "diff-irregularity": (diff_job, DIFF_STRATA),
    "lattice-hn": (lattice_job, LATTICE_STRATA),
    "filtered-hn": (filtered_job, FILTERED_STRATA),
}


def _interleave(*kinds):
    """One cycle holding every stratum of the given job kinds once, the
    kinds spread evenly through it; the last stratum of each kind (its
    hard share, where it has one) stays in the cycle's second half."""
    entries = []
    for kind in kinds:
        strata = MAKERS[kind][1]
        entries += [((i + 0.5) / len(strata), kind, i) for i in range(len(strata))]
    return tuple((kind, i) for _, kind, i in sorted(entries))


# The two job kinds of each workload, in the order of the kind_a / kind_b
# metrics.
KINDS = {
    "factor-diff": ("twisted-factor", "diff-irregularity"),
    "lattice-filtered": ("lattice-hn", "filtered-hn"),
}
WORKLOADS = {name: _interleave(*kinds) for name, kinds in KINDS.items()}


def job(workload: str, seed: int, index: int) -> dict:
    cycle = WORKLOADS[workload]
    kind, position = cycle[index % len(cycle)]
    maker = MAKERS[kind][0]
    out = maker(random.Random(f"{workload}:{seed}:{index}"), position)
    out["kind"] = kind
    out.setdefault("hard", False)
    out["share"] = f"{kind} {out['share']}"
    return out


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])
