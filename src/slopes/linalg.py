"""Exact linear algebra over Q and Z: echelon forms, kernels, subspace
lattice operations, determinants and integer Smith normal form.

Subspaces of Q^n are represented by their reduced row echelon basis, a
tuple of tuples of Fractions; that form is canonical, so equality and
hashing of subspaces are literal.  rref, solve, kernel_basis and the
subspace operations run on Fractions.

Determinants and the Smith form run on Python ints: det scales each row
to integers and runs bareiss, the fraction-free elimination that the
lattice backend also uses for its LDL factors and Schur complements, and
smith_normal_form keeps the inverse of its row transform beside it, so no
caller inverts a matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = tuple[Fraction, ...]
Mat = tuple[Row, ...]


def frac_matrix(rows) -> Mat:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b:
        return ()
    cols = len(b[0])
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, v) -> Row:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def rref(rows) -> Mat:
    """Reduced row echelon form with zero rows dropped (canonical)."""
    m = [list(r) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    piv_r = 0
    for col in range(ncols):
        pr = None
        for r in range(piv_r, len(m)):
            if m[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        inv = 1 / m[piv_r][col]
        m[piv_r] = [c * inv for c in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        piv_r += 1
        if piv_r == len(m):
            break
    out = [tuple(r) for r in m[:piv_r] if any(c != 0 for c in r)]
    return tuple(out)


def rank(rows) -> int:
    return len(rref(rows))


def bareiss(m, steps: int):
    """Bareiss's fraction-free elimination (Bareiss 1968; Cohen, GTM 138,
    2.2) of the first `steps` columns of m, a list of integer rows changed
    in place.  Yields k before step k, so the caller may read the pivot
    m[k][k], exchange row k with a later row, or stop; the pivot must be
    nonzero when it resumes.  After step k every entry (i, j) with i, j > k
    is the minor of m on rows 0..k, i and columns 0..k, j, so every
    division is exact.  So m[k][k] is the leading (k+1)-minor, and the
    trailing block divided by it is the Schur complement of the leading
    (k+1)-block (Sylvester's identity)."""
    prev = 1
    for k in range(steps):
        yield k
        pivot_row = m[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for row in m[k + 1 :]:
            f = row[k]
            row[k:] = [0] + [(pivot * a - f * b) // prev for a, b in zip(row[k + 1 :], tail)]
        prev = pivot


def det(a) -> Fraction:
    """Exact determinant of a square rational or integer matrix: each row
    is scaled to integers, and bareiss runs with row exchanges."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m, scale = [], 1
    for row in a:
        den = math.lcm(*(c.denominator for c in row))
        m.append([c.numerator * (den // c.denominator) for c in row])
        scale *= den
    sign = 1
    for k in bareiss(m, n):
        if m[k][k] == 0:
            pr = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pr is None:
                return Fraction(0)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
    return Fraction(sign * m[n - 1][n - 1], scale)


def solve(a: Mat, b: Row):
    """One solution x of a x = b (free variables set to 0), or None."""
    n, nc = len(a), len(a[0]) if a else 0
    aug = rref([list(a[i]) + [b[i]] for i in range(n)])
    x = [Fraction(0)] * nc
    for row in aug:  # reduced rows: the pivot variable is the last entry
        piv = next(j for j in range(nc + 1) if row[j] != 0)
        if piv == nc:
            return None
        x[piv] = row[nc]
    return tuple(x)


def kernel_basis(a: Mat) -> Mat:
    """RREF basis of the right kernel of a."""
    if not a:
        return ()
    nc = len(a[0])
    red = rref(a)
    pivots = []
    for row in red:
        piv = next(j for j in range(nc) if row[j] != 0)
        pivots.append(piv)
    free = [j for j in range(nc) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for row, piv in zip(red, pivots):
            v[piv] = -row[f]
        basis.append(tuple(v))
    return rref(basis)


# -- subspaces of Q^n as canonical row spaces ---------------------------------


def subspace(rows) -> Mat:
    return rref(rows)


def subspace_sum(a: Mat, b: Mat) -> Mat:
    return rref(list(a) + list(b))


def subspace_intersect(a: Mat, b: Mat) -> Mat:
    """Rows spanning (row space of a) ∩ (row space of b) via the kernel of
    the stacked coefficient matrix."""
    if not a or not b:
        return ()
    # coefficients (u, v) with u a - v b = 0 give intersection vectors u a.
    rows = [list(r) for r in a] + [[-c for c in r] for r in b]
    coeff = kernel_basis(transpose(tuple(tuple(r) for r in rows)))
    na = len(a)
    out = []
    for c in coeff:
        vec = [Fraction(0)] * len(a[0])
        for i in range(na):
            if c[i] != 0:
                vec = [x + c[i] * y for x, y in zip(vec, a[i])]
        if any(x != 0 for x in vec):
            out.append(tuple(vec))
    return rref(out)


def subspace_contains(big: Mat, small: Mat) -> bool:
    return subspace_sum(big, small) == rref(big)


def annihilator(a: Mat, n: int) -> Mat:
    """Subspace of the dual (as coordinate rows) killing the row space of a."""
    if not a:
        return identity(n)
    return kernel_basis(a)


# -- integer matrices ----------------------------------------------------------


def smith_normal_form(a):
    """Smith normal form over Z.

    Returns (u, d, v, u_inv) with u a v = d, u and v unimodular, d
    diagonal with d[i] | d[i+1], and u_inv the inverse of u, kept as the
    product of the inverses of the row operations.  Matrices are lists of
    lists of ints.  The library reads only d and u_inv; u is kept so that
    the tests can check u u_inv = I and compare saturate and completion
    with their reference, which inverts u.
    """
    m = [[int(x) for x in row] for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    # the columns of u^-1: a row operation E on u multiplies u^-1 by E^-1
    # on the right, a column operation on u^-1
    u_inv_cols = [row[:] for row in u]

    def row_op(i, j, q):  # row i -= q * row j; so col j of u^-1 += q * col i
        m[i] = [a2 - q * b2 for a2, b2 in zip(m[i], m[j])]
        u[i] = [a2 - q * b2 for a2, b2 in zip(u[i], u[j])]
        u_inv_cols[j] = [a2 + q * b2 for a2, b2 in zip(u_inv_cols[j], u_inv_cols[i])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(nr):
            m[r][i] -= q * m[r][j]
        for r in range(nc):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        u_inv_cols[i], u_inv_cols[j] = u_inv_cols[j], u_inv_cols[i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        u_inv_cols[i] = [-x for x in u_inv_cols[i]]

    def swap_cols(i, j):
        for r in range(nr):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot of least absolute value
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if m[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce divisibility d[i] | d[i+1]
    k = min(nr, nc)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a2, b2 = m[i][i], m[i + 1][i + 1]
            if a2 and b2 and b2 % a2 != 0:
                # fold b into a's position and redo locally
                col_op(i, i + 1, -1)  # col i += col i+1
                changed = True
                # re-reduce the 2x2 block greedily
                while m[i + 1][i] != 0 or m[i][i + 1] != 0 or (
                    m[i][i] and m[i + 1][i + 1] % m[i][i] != 0
                ):
                    if m[i][i] == 0 or (
                        m[i + 1][i] != 0 and abs(m[i + 1][i]) < abs(m[i][i])
                    ):
                        swap_rows(i, i + 1)
                    if m[i][i] == 0 or (
                        m[i][i + 1] != 0 and abs(m[i][i + 1]) < abs(m[i][i])
                    ):
                        swap_cols(i, i + 1)
                    if m[i + 1][i] != 0:
                        row_op(i + 1, i, m[i + 1][i] // m[i][i])
                    if m[i][i + 1] != 0:
                        col_op(i + 1, i, m[i][i + 1] // m[i][i])
                    if m[i + 1][i] == 0 and m[i][i + 1] == 0:
                        break
                if m[i][i] < 0:
                    negate_row(i)
                if m[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    return u, m, v, [list(row) for row in zip(*u_inv_cols)]
