"""The Fraction versions of the lattice backend's linear algebra, kept as
references for the integer code in slopes.linalg and slopes.lattices.

Each routine is the one the library ran before it moved to integer
numerators: Gaussian elimination on Fractions for det and the inverse, a
rational LDL^T, inner products summed on Fractions, the Schur complement
through the inverse of the S-block, and saturation and completion through
the inverse of the Smith transform u.  The tests assert that the integer
code returns exactly what these return and raises the same errors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from slopes import linalg
from slopes.core import Budget, BudgetExhausted
from slopes.lattices import LatticeError, Sublattice


def det(a) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(c) for c in r] for r in a]
    sign = 1
    prod = Fraction(1)
    for col in range(n):
        pr = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != col:
            m[col], m[pr] = m[pr], m[col]
            sign = -sign
        pivot = m[col][col]
        prod *= pivot
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pivot
                m[r] = [a2 - f * b2 for a2, b2 in zip(m[r], m[col])]
    return sign * prod


def inverse(a) -> linalg.Mat:
    """Exact inverse of a square rational or integer matrix, read off the
    reduced echelon form of [A | I]; raises ValueError when A is singular."""
    n = len(a)
    eye = linalg.identity(n)
    red = linalg.rref([tuple(Fraction(c) for c in a[i]) + eye[i] for i in range(n)])
    if tuple(row[:n] for row in red) != eye:
        raise ValueError("singular matrix has no inverse")
    return tuple(row[n:] for row in red)


def ldl(gram):
    """(d, L) with gram = L^T diag(d) L, L unit upper triangular; raises
    LatticeError at the first pivot <= 0."""
    r = len(gram)
    d = [Fraction(0)] * r
    lmat = [[Fraction(0)] * r for _ in range(r)]
    g = [[Fraction(c) for c in row] for row in gram]
    for i in range(r):
        d[i] = g[i][i] - sum(d[k] * lmat[k][i] ** 2 for k in range(i))
        if d[i] <= 0:
            raise LatticeError("gram matrix is not positive definite")
        lmat[i][i] = Fraction(1)
        for j in range(i + 1, r):
            lmat[i][j] = (
                g[i][j] - sum(d[k] * lmat[k][i] * lmat[k][j] for k in range(i))
            ) / d[i]
    return tuple(d), tuple(map(tuple, lmat))


def inner(gram, v, w) -> Fraction:
    r = len(gram)
    terms = (v[i] * Fraction(gram[i][j]) * w[j] for i in range(r) for j in range(r))
    return sum(terms, Fraction(0))


def saturate(ambient, columns) -> Sublattice:
    cols = [list(int(x) for x in c) for c in columns]
    if not cols:
        raise LatticeError("cannot saturate an empty span")
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    rk = linalg.rank(linalg.frac_matrix(mat))
    if rk != len(cols):
        raise LatticeError("saturation input must have full column rank")
    u = linalg.smith_normal_form(mat)[0]
    uinv = inverse(u)
    basis = tuple(tuple(int(uinv[i][j]) for i in range(len(uinv))) for j in range(rk))
    return Sublattice(ambient, basis)


def completion(ambient, sub: Sublattice):
    r = ambient.rank
    k = sub.rank
    mat = [[sub.basis[j][i] for j in range(k)] for i in range(r)]
    u, d = linalg.smith_normal_form(mat)[:2]
    for i in range(k):
        if abs(d[i][i]) != 1:
            raise LatticeError("completion requires a saturated sublattice")
    uinv = inverse(u)
    return tuple(tuple(int(uinv[i][j]) for i in range(r)) for j in range(k, r))


def quotient_gram(ambient, sub: Sublattice) -> linalg.Mat:
    """The Schur complement G_TT - G_TS G_SS^-1 G_ST on the completion T."""
    gram = ambient.gram
    t_cols = completion(ambient, sub)
    if not t_cols:
        return ()
    s_cols = sub.basis
    gss = [[inner(gram, a, b) for b in s_cols] for a in s_cols]
    gtt = [[inner(gram, a, b) for b in t_cols] for a in t_cols]
    gts = [[inner(gram, a, b) for b in s_cols] for a in t_cols]
    gss_inv = inverse(gss)
    m, k = len(t_cols), len(s_cols)
    return tuple(
        tuple(
            gtt[i][j]
            - sum(gts[i][a] * gss_inv[a][b] * gts[j][b] for a in range(k) for b in range(k))
            for j in range(m)
        )
        for i in range(m)
    )


def short_vectors(gram, bound: Fraction, budget: Budget = Budget()):
    """(vectors, nodes): the short vectors in (norm, coordinates) order and
    the number of search-tree nodes the enumeration tried."""
    r = len(gram)
    d, lmat = ldl(gram)
    out = []
    vec = [0] * r
    nodes = 0

    def recurse(i: int, remaining: Fraction, top: bool):
        nonlocal nodes
        if i < 0:
            if any(vec):
                out.append((bound - remaining, tuple(vec)))
            return
        center = sum(lmat[i][j] * vec[j] for j in range(i + 1, r))
        width = math.isqrt(math.floor(remaining / d[i]))
        lo = 0 if top else math.floor(-center) - width
        hi = math.ceil(-center) + width
        nodes += hi - lo + 1
        if nodes > budget.max_candidates:
            raise BudgetExhausted("lattice enumeration budget exhausted")
        for x in range(lo, hi + 1):
            q = d[i] * (x + center) ** 2
            if q <= remaining:
                vec[i] = x
                recurse(i - 1, remaining - q, top and x == 0)
        vec[i] = 0

    recurse(r - 1, bound, True)
    found = sorted(
        ((nrm, max(v, tuple(-x for x in v))) for nrm, v in out),
        key=lambda item: (item[0], any(x < 0 for x in item[1]), item[1]),
    )
    return found, nodes


def lagrange_gauss(gram):
    """Rank-2 reduction on Fractions: (shortest vector, its norm)."""

    def norm(v):
        return inner(gram, v, v)

    b1, b2 = (1, 0), (0, 1)
    while True:
        if norm(b2) < norm(b1):
            b1, b2 = b2, b1
        m = math.floor(inner(gram, b1, b2) / norm(b1) + Fraction(1, 2))
        if m == 0:
            break
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
    if norm(b2) < norm(b1):
        b1, b2 = b2, b1
    return b1, norm(b1)
