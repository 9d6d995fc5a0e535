"""Formal differential operators and modules over Q((x)) with the
logarithmic derivation x d/dx.

Four independent routes to the same invariants live here: the Fuchs
irregularity formula from coefficient valuations, the clamped Newton
polygon (only non-negative slopes), the spectral growth rate of powers of
the connection, and the lattice-growth irregularity.  The tests cross
check them against each other; a fixture where they disagree is a bug,
not something to patch around.

The last two iterate one map, N -> N_A N + D delta(N) with A = N_A / D:
Katz on the powers of the connection, Gérard–Levelt on the basis of each
lattice.  Both take it through _power_step, with one precision rule.

Where every entry of A is exact, each iteration stops as soon as its
later values are fixed, by two exact rules:

- Katz.  With mu = v(A) and A_0 the matrix of the x^mu coefficients,
  A = x^mu (A_0 + O(x)).  If mu > 0, then delta(B_n) = x^mu (mu c A_0 +
  O(x)) when B_n = x^mu (c A_0 + O(x)), while A B_n lies in x^(2 mu) and
  so in x^(mu + 1); hence B_n = x^mu (mu^(n-1) A_0 + O(x)) and v(B_n) =
  mu.  If mu <= 0 and A_0 is not nilpotent (A_0^r != 0), then B_n =
  x^(n mu) (A_0^n + O(x)) by induction: A B_n = x^((n + 1) mu)
  (A_0^(n+1) + O(x)), and delta(B_n) lies in x^((n + 1) mu + 1), in
  x^(n mu) when mu < 0 and, when mu = 0, in x because delta kills the
  constant A_0^n.  As A_0^n != 0, v(B_n) = n mu.  Either way the powers
  need not run.
- Gérard–Levelt.  If dim(V_p/V_0) = c r with c >= 1 and no entry of a
  basis of V_p has valuation below -c, then V_p lies in x^-c V_0 with the
  same index over V_0, so V_p = x^-c V_0.  Since nabla(x^-c v) = x^-c
  (nabla v - c v), F(V) = V + nabla(V) commutes with x^-c, so V_(p+i) =
  x^-c V_i and dim(V_(p+i)/V_0) = dim(V_i/V_0) + c r for every i: the
  run stops after step p.  A zero increment, V_(k+1) = V_k, is the same
  rule with shift 0 and period 1, and holds on any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .degrees import DegreeValue, SlopeKey
from .errors import SlopesError
from .polygon import NewtonPolygon, polygon_from_points
from .series import PrecisionError, Series, _integer_matrix, trim


class DiffError(SlopesError, ValueError):
    pass


@dataclass(frozen=True)
class DifferentialOperator:
    """P = D^n - a_{n-1} D^{n-1} - ... - a_0 with D = x d/dx; the a_i are
    the subtracted coefficients, low index first."""

    coeffs: tuple[Series, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DiffError("operator order must be >= 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def valuations(self) -> list[Optional[int]]:
        return [c.valuation_or(None) for c in self.coeffs]

    @staticmethod
    def from_valuations(vals: Sequence[Optional[int]]) -> "DifferentialOperator":
        coeffs = tuple(
            Series.zero() if v is None else Series.monomial(1, int(v))
            for v in vals
        )
        return DifferentialOperator(coeffs)

    def to_json(self):
        return {"coeffs": [c.to_json() for c in self.coeffs], "n": self.order}


def _known_zero(c: Series) -> bool:
    return c.prec is None and c.is_zero()


@dataclass(frozen=True)
class DifferentialModule:
    """Connection matrix of nabla(x d/dx) on a basis of K^r."""

    matrix: tuple[tuple[Series, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def to_json(self):
        return {"matrix": [[c.to_json() for c in row] for row in self.matrix]}


def companion(op: DifferentialOperator) -> DifferentialModule:
    """Companion module of the cyclic presentation: basis 1, D, ..., D^(n-1)."""
    n = op.order
    rows = [[Series.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n - 1):
        rows[j + 1][j] = Series.one()
    for i in range(n):
        rows[i][n - 1] = op.coeffs[i]
    return DifferentialModule(tuple(tuple(r) for r in rows))


def irregularity_cyclic(op: DifferentialOperator) -> int:
    """Fuchs number max(0, max_i(-ord a_i)); zero exactly for regular
    operators.  A coefficient zero only below x^p could still raise it
    when -p exceeds the number the known coefficients give: then
    PrecisionError names it."""
    vals = op.valuations()
    worst = max([0] + [-v for v in vals if v is not None])
    for i, (v, c) in enumerate(zip(vals, op.coeffs)):
        if v is None and c.prec is not None and -c.prec > worst:
            raise PrecisionError(
                f"indeterminate irregularity: a_{i} is zero only below x^{c.prec}"
            )
    return worst


def np_diff(op_or_vals) -> NewtonPolygon:
    """Clamped Newton polygon: concave hull of (i, -v(a_{n-i})) with every
    negative slope flattened into the slope-zero segment.

    The hull height equals the irregularity and the highest break is the
    Poincare-Katz rank.  A coefficient a_i of an operator that is zero
    only below x^p is left out, as in TwistedPolynomial.polygon: its point
    lies on or below (n - i, -p), so PrecisionError names a_i when that
    point lies strictly above the clamped hull of the known points.
    """
    if isinstance(op_or_vals, DifferentialOperator):
        vals, coeffs = op_or_vals.valuations(), op_or_vals.coeffs
    else:
        vals, coeffs = list(op_or_vals), ()
    n = len(vals)
    points = [(0, DegreeValue.rational(0))]
    for i, v in enumerate(vals):
        if v is None:
            continue
        points.append((n - i, DegreeValue.rational(-v)))
    hull = polygon_from_points(points)
    segs = []
    kept = 0
    zero = DegreeValue.rational(0)
    for seg in hull.segments:
        if seg.deg.cmp(zero) > 0:
            segs.append(seg)
            kept += seg.rk
        else:
            break
    if kept < n:
        segs.append(SlopeKey(DegreeValue.rational(0), n - kept))
    poly = NewtonPolygon(tuple(segs))
    _check_open_points(poly, vals, coeffs, n)
    return poly


def _check_open_points(poly: NewtonPolygon, vals, coeffs, n: int) -> None:
    """PrecisionError naming the first coefficient a_k zero only below
    x^p (valuation None, a prec) whose point (n - k, -p) lies strictly
    above poly, the hull of the known points; nothing otherwise."""
    for k, (v, c) in enumerate(zip(vals, coeffs)):
        if v is None and c.prec is not None:
            scale, height = poly.height_at(n - k)
            if -c.prec * scale > height.value:
                raise PrecisionError(
                    f"indeterminate polygon: a_{k} is zero only below x^{c.prec}, "
                    f"and ({n - k}, {-c.prec}) lies above the hull of the known points"
                )


def polygon_height(poly: NewtonPolygon) -> Fraction:
    """Right-endpoint ordinate (the degree; for clamped polygons, the
    irregularity)."""
    return poly.total_degree().value


def highest_break(poly: NewtonPolygon) -> Fraction:
    seg = poly.highest_break().reduced()
    return seg.deg.value / seg.rk if seg.rk != 1 else seg.deg.value


# -- spectral Katz rank ------------------------------------------------------------


def _trimmed(v: int, nums: list, prec):
    """The entry (v, nums, prec) in the normal form of series.trim."""
    return (*trim(v, nums), prec)


def _cut(entry, prec: int):
    """The entry known only below x^prec, as Series.truncate cuts it,
    except that an exact zero stays exact."""
    v, nums, p = entry
    if p <= prec or not nums and p == math.inf:
        return entry
    return _trimmed(v, nums[: max(0, prec - v)], prec)


def _primitive(col):
    """The column divided by the gcd of its numerators.  A nonzero
    rational constant is a unit of Q[[x]], so no valuation, precision or
    Q[[x]]-span moves; the division only bounds coefficient growth."""
    g = math.gcd(*[c for _, nums, _ in col for c in nums])
    if g <= 1:
        return col
    return [(v, [c // g for c in nums], p) for v, nums, p in col]


def _sparse_rows(a):
    """Each row of a as its entries that are not exact zeros, (k, va, ca,
    pa, x) for the entry (va, ca, pa) in column k, va replaced by
    min(va, pa) as the product rule counts it; x is the one numerator of
    a monomial entry, None otherwise."""
    return [
        [
            (k, min(va, pa), ca, pa, ca[0] if len(ca) == 1 else None)
            for k, (va, ca, pa) in enumerate(row)
            if ca or pa != math.inf
        ]
        for row in a
    ]


def _power_step(rows, cols, d: int):
    """The columns of a N + d delta(N), N given by its columns of
    (vmin, numerators, prec) entries, a the numerators of the connection
    given by its _sparse_rows and delta(c_k x^k) = k c_k x^k.  Katz's
    powers and Gérard–Levelt's images both take this one step.

    a is fixed for a whole run, so its exact zeros are dropped once, in
    _sparse_rows, and each entry of a N loops over the entries of a that
    are left.  A monomial entry of a multiplies one scalar into the
    product, and the unit numerator 1 none at all.

    Precision follows Series arithmetic with one departure: a product
    with an exact zero factor is exactly zero and costs no precision.
    Otherwise a product is known below min(prec_a + v_b, prec_b + v_a),
    with v = min(vmin, prec), so min(0, prec) for a zero known only below
    x^prec; a sum below the least precision of its terms; delta keeps
    precision.  An entry whose precision stays infinite, as on
    Gérard–Levelt's exact basis, is exact and ends where its terms end.
    """
    out = []
    for col in cols:
        image = []
        for arow, (vb, cb, prec) in zip(rows, col):
            lo = vb if cb else math.inf
            prods = []
            for k, va, ca, pa, x in arow:
                vk, ck, pk = col[k]
                if not ck:
                    if pk == math.inf:
                        continue
                    if pk < vk:
                        vk = pk
                if pa + vk < prec:
                    prec = pa + vk
                if pk + va < prec:
                    prec = pk + va
                if ca and ck:
                    v = va + vk
                    if v < lo:
                        lo = v
                    prods.append((v, ca, x, ck))
            if lo >= prec:
                image.append((0, [], prec))
                continue
            hi = prec
            if hi == math.inf:
                hi = max((v + len(ca) + len(ck) - 1 for v, ca, _, ck in prods), default=lo)
                if cb and vb + len(cb) > hi:
                    hi = vb + len(cb)
            n = hi - lo
            acc = [0] * n
            for t, c in enumerate(cb[: max(0, hi - vb)], vb):
                acc[t - lo] += d * t * c
            for v, ca, x, ck in prods:
                off = v - lo
                if off >= n:
                    continue
                if x is None:
                    for s, c in enumerate(ca[: n - off], off):
                        if c:
                            for t, y in enumerate(ck[: n - s], s):
                                acc[t] += c * y
                elif x == 1:
                    for t, y in enumerate(ck[: n - off], off):
                        acc[t] += y
                else:
                    for t, y in enumerate(ck[: n - off], off):
                        acc[t] += x * y
            image.append(_trimmed(lo, acc, prec))
        out.append(image)
    return out


def _window_valuation(b):
    """v(B) of a window of entries, or None when every entry is zero to a
    precision x^1 or beyond.

    Raises PrecisionError when an entry zero only below x^p, with p under
    the least known valuation (under x^1 when no entry has a known
    term), leaves v(B) open: that entry may have valuation p.
    """
    v, p = None, math.inf  # least known valuation, least precision of a zero
    for row in b:
        for ve, nums, pe in row:
            if not nums:
                p = min(p, pe)
            elif v is None or ve < v:
                v = ve
    if p < (1 if v is None else v):
        where = (
            "and no entry has a known term"
            if v is None
            else f"under the least known valuation {v}"
        )
        raise PrecisionError(
            f"power valuation indeterminate: an entry is zero only below x^{p}, {where}"
        )
    return v


PRECISION_ATTEMPTS = 5


def _doubling_retry(run, name: str, value: int):
    """run(value), doubling value after each PrecisionError; after
    PRECISION_ATTEMPTS failures, raise a PrecisionError naming the
    working-precision parameter and its last value."""
    for attempt in range(1, PRECISION_ATTEMPTS + 1):
        try:
            return run(value)
        except PrecisionError as exc:
            if attempt == PRECISION_ATTEMPTS:
                raise PrecisionError(
                    f"{exc} ({name}={value} after {attempt} attempts)"
                ) from exc
            value *= 2


def katz_rank_spectral(
    module: DifferentialModule, n_max: int = 64, window: int = 12
):
    """Highest-break estimate from the valuation growth of connection
    powers.

    Raw ratios -v(B_n)/n converge only at rate rho/n, so the returned
    estimate is the windowed difference (v(B_{n-w}) - v(B_n))/w at n_max,
    exact once the extremal monomial pattern becomes periodic (period
    divides the break denominator, hence 12 covers orders <= 4).
    Diagnostics carry both sequences and a convergence verdict.

    The powers B_1 = A, B_{n+1} = A B_n + delta(B_n) run on integer
    numerators: with A = N_A / D, D the lcm of the coefficient
    denominators of A, B_n = N_n / D^n where N_1 = N_A and
    N_{n+1} = N_A N_n + D delta(N_n).  A nonzero constant factor moves
    no valuation and no precision, so v(B_n) = v(N_n) and every
    diagnostic is the one the rational powers give, with no gcd taken.

    An indeterminate v(B_1) = v(A) is the input's own precision running
    out, which no larger window lifts, so it raises before any retry.

    The powers first run once keeping 4 terms above the running minimum.
    That run's entries are the series of a wider window's run, known to
    less precision, so where it certifies v(B_n) for every n <= n_max,
    each value, and hence the estimate and every diagnostic, is the one
    the wider window gives.  Otherwise, when it raises PrecisionError or
    finds some B_n zero as far as known, the powers run again keeping 16
    terms, doubled after each PrecisionError, and that schedule alone
    gives the result or the error.
    """
    if n_max < 2:
        raise DiffError("n_max must be >= 2")
    a, d = _integer_matrix(module.matrix)
    _window_valuation(a)
    try:
        est, diagnostics = _katz_run(a, d, n_max, window, 4)
    except PrecisionError:
        pass
    else:
        if len(diagnostics["valuations"]) == n_max:
            return est, diagnostics
    return _doubling_retry(
        lambda keep: _katz_run(a, d, n_max, window, keep), "keep", 16
    )


def _exact(a) -> bool:
    """Whether every entry of the integer matrix a is exact."""
    return all(p == math.inf for row in a for _, _, p in row)


def _leading_valuations(a, n_max: int):
    """[v(B_1), ..., v(B_n_max)] read off the leading matrix A_0 of A =
    a / d, by the module docstring's Katz rule: mu for every n when mu =
    v(A) > 0, n mu when mu <= 0 and A_0^r != 0.  None when an entry of a
    is not exact, a is zero, or mu <= 0 and A_0 is nilpotent: then only
    the powers tell.  A_0^r is taken on the numerators, d^r A_0^r."""
    if not _exact(a):
        return None
    mu = min((v for row in a for v, nums, _ in row if nums), default=None)
    if mu is None:
        return None
    if mu > 0:
        return [mu] * n_max
    lead = [[nums[0] if nums and v == mu else 0 for v, nums, _ in row] for row in a]
    power = lead
    for _ in range(len(a) - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*lead)] for row in power]
    if not any(any(row) for row in power):
        return None
    return [n * mu for n in range(1, n_max + 1)]


def _katz_run(a, d: int, n_max: int, window: int, keep: int):
    """(estimate, diagnostics) of the powers of A = a / d, a from
    _integer_matrix, keeping keep terms above the running minimum.

    When _leading_valuations fixes every v(B_n), that is, when A is exact
    and v(A) > 0 or its leading matrix is not nilpotent, no power is
    formed.  The valuations are those the powers give: with A exact, the
    entries of B_(n+1) are known below x^(v(B_n) + keep + min(0, v(A))),
    above the v(B_(n+1)) the rule names, so the powers certify it at every
    keep.  Either way the estimate and diagnostics come from the
    valuations alone."""
    vals = _leading_valuations(a, n_max)
    if vals is None:
        rows = _sparse_rows(a)
        vals = []
        b = [list(col) for col in zip(*a)]  # columns of B_n = N_n / d^n
        for _n in range(1, n_max + 1):
            v = _window_valuation(b)
            if v is None:
                # zero as far as known: v(B_n) is at least the window
                # bottom, and superadditivity of power valuations then
                # pins rho = 0 provided that bottom is positive.
                return Fraction(0), {
                    "valuations": vals,
                    "ratios": [],
                    "windowed": [],
                    "window": 0,
                    "converged": True,
                }
            vals.append(v)
            # keep a bounded window above the running minimum
            b = [[_cut(e, v + keep) for e in col] for col in b]
            if _n < n_max:
                b = _power_step(rows, b, d)
    ratios = [Fraction(-vals[n - 1], n) for n in range(1, n_max + 1)]
    w = min(window, n_max - 1)
    windowed = []
    for n in range(w + 1, n_max + 1):
        windowed.append(Fraction(vals[n - 1 - w] - vals[n - 1], w))
    est = max(Fraction(0), windowed[-1]) if windowed else max(Fraction(0), ratios[-1])
    converged = len(windowed) >= 2 and windowed[-1] == windowed[-2]
    diagnostics = {
        "valuations": vals,
        "ratios": ratios,
        "windowed": windowed,
        "window": w,
        "converged": converged,
    }
    return est, diagnostics


# -- Gerard-Levelt lattice growth ----------------------------------------------------


def _terms(v: int, nums: list):
    """The nonzero terms (exponent, numerator) of x^v nums, in order."""
    return [(t, c) for t, c in enumerate(nums, v) if c]


def _representative(entry):
    """The entry cut at x^1: exact, with its terms below x^1, when it is
    known to x^1 or beyond; itself when it is known only below x^p, p < 1."""
    v, nums, p = entry
    if p < 1:
        return entry
    return _trimmed(v, nums[: max(0, 1 - v)], math.inf)


def _reduce_columns(cols, r: int):
    """DVR column reduction over Q[[x]]; returns (sum of pivot diagonal
    valuations, pivot columns).  Columns are lists of integer entries
    (vmin, numerators, prec) in normal form, prec math.inf for an exact
    entry.

    Each step takes as pivot the entry p of least valuation v over the
    rows left and the columns left, and replaces every other column by
    col u - f pivot, where u = p / x^v and f = e / x^v for the column's
    entry e in the pivot row.  That entry becomes e u - f p = 0, and since
    u is a unit the Q[[x]]-span of the columns is kept.  The step takes
    only shifts and products, no inverse: the DVR form of fraction-free
    elimination (Bareiss; Cohen, GTM 138, 2.4).

    Every column taken in or formed is cut to its _representative at x^1.
    Pivots are taken among entries with a known term, so each has
    valuation <= 0; the search raises PrecisionError at a zero entry known
    only below x^p, p < 1, and when no entry is left to take.  A column
    that is exactly zero is dropped.

    The cut keeps the span and the pivots when the span M of the columns
    contains V_0 = Q[[x]]^r, as Gérard–Levelt's generators do: they span
    V_{k+1}, which contains V_k and V_0.  After pivots in some rows the
    columns left span N, the vectors of M zero in those rows (a vector of
    M zero in the pivot row has no share of the pivot), so N contains the
    unit vector of each row left.  What the cut drops from a column of N
    lies in x V_0, inside x N, so by Nakayama's lemma the cut columns still
    span N, and a column cut to zero is not needed.  Each pivot valuation
    is then the least valuation over N, as in the exact elimination, and
    is <= 0, so the search never runs out.  The r pivots span M and are
    triangular, a basis of M, and the total is v(det) of that basis.

    Entries known only below x^p, p < 1, come from the input's own
    truncation and follow Series arithmetic: a product a b is known below
    min(prec_a + v(b), prec_b + v(a)), v = min(vmin, prec) (0 for an exact
    zero), and a sum below the least precision of its terms.  On any exact
    completion of the input the same steps form the same exact entries,
    and entries that agree with the others below their precision, so what
    the reduction returns holds for every completion.

    A column stands for itself times any nonzero rational constant.  Such
    a constant is a unit of Q[[x]], so scaling by it moves no valuation,
    no precision, no pivot and no span: u and f are taken on numerators,
    and each column formed is divided by the gcd of its numerators.  The
    results are those of the rational elimination, with bounded integers.

    The nonzero terms of u and of the pivot column are listed once per
    pivot, and f's once per column.
    """
    active = []
    for c in cols:
        col = [_representative(e) for e in c]
        if any(e[1] or e[2] < 1 for e in col):
            active.append(col)
    rows_left = list(range(r))
    pivots = []
    total = 0
    while rows_left:
        best = None  # (val, row, col index)
        for ci, col in enumerate(active):
            for row in rows_left:
                v, nums, p = col[row]
                if nums:
                    if best is None or v < best[0]:
                        best = (v, row, ci)
                elif p < 1:
                    raise PrecisionError(
                        f"series is zero to precision O(x^{p}); valuation unknown"
                    )
        if best is None:
            raise PrecisionError("column reduction ran out of certified pivots")
        v, row, ci = best
        pivot = active.pop(ci)
        _, cu, pu = pivot[row]
        pu -= v
        u = _terms(0, cu)
        ulen = len(cu)
        # per row of the pivot: (min(vmin, prec), prec, end exponent,
        # nonzero terms)
        pinfo = [(min(vp, pp), pp, vp + len(cp), _terms(vp, cp)) for vp, cp, pp in pivot]
        formed = []
        for col in active:
            ve, ce, pe = col[row]
            if not ce:  # exactly zero: the search above raised otherwise
                formed.append(col)
                continue
            vf, pf = ve - v, pe - v
            f = _terms(vf, ce)
            ftop = vf + len(ce) - 1
            new = []
            for (vc, cc, pc), (vp, pp, pend, pt) in zip(col, pinfo):
                prec = min(pc, pu + (vc if vc < pc else pc), pf + vp, pp + vf)
                # the exponents [lo, hi) that col[i] u - f pivot[i] can reach,
                # cut at x^1
                lo, hi = (vc, vc + len(cc) + ulen - 1) if cc else (math.inf, 0)
                if pt:
                    if vf + vp < lo:
                        lo = vf + vp
                    if ftop + pend > hi:
                        hi = ftop + pend
                hi = min(hi, prec, 1)
                if prec >= 1:
                    prec = math.inf
                if lo >= hi:
                    new.append((0, [], prec))
                    continue
                n = hi - lo
                acc = [0] * n
                for s, x in enumerate(cc[: max(0, hi - vc)], vc - lo):
                    if x:
                        for t, y in u:
                            if s + t >= n:
                                break
                            acc[s + t] += x * y
                for s, x in f:
                    s -= lo
                    for t, y in pt:
                        if s + t >= n:
                            break
                        acc[s + t] -= x * y
                new.append(_trimmed(lo, acc, prec))
            if any(e[1] or e[2] < 1 for e in new):
                formed.append(_primitive(new))
        active = formed
        rows_left.remove(row)
        pivots.append(pivot)
        total += v
    return total, pivots


def gerard_levelt_irregularity(
    module: DifferentialModule, n_max: int = 12
):
    """Irregularity via lattice growth V_{k+1} = V_k + nabla(V_k).

    Returns (irregularity, stabilized, diagnostics).  The reported value is
    the increment of dim(V_k/V_0) once constant over the final quarter of
    the iterations; stabilized=False marks an advisory result.

    Each step reduces 2r columns: the basis of V_k and its images; V_k
    contains V_0 = Q[[x]]^r, so the identity is not among them.  The basis
    is the one _reduce_columns returns, cut at x^1, which still spans V_k
    and is exact wherever A is.  A zero increment means V_{k+1} = V_k, and
    then every later lattice is V_k again: the run stops there and repeats
    the last dimension up to n_max, so a regular module (v(A) >= 0) takes
    one step.  Where A is exact, the run also stops at the first V_p =
    x^-c V_0 and fills every later dimension from the earlier ones
    (_gl_run); a rank-one module stops after one step.  With A = N_A / D
    as in the Katz powers, the image of a column is N_A col + D
    delta(col), a constant multiple of nabla(col) that spans the same
    lattice.

    No working precision is chosen, so one run gives the result or the
    error, which names the input's own precision: there is no retry.  An
    entry of A zero only below x^p with p < 1 raises before the run: its
    unknown terms lie outside x Q[[x]], so the lattices depend on them.
    """
    if n_max < 4:
        raise DiffError("n_max must be >= 4")
    a, d = _integer_matrix(module.matrix)
    open_precs = [p for row in a for _, nums, p in row if not nums and p < 1]
    if open_precs:
        raise PrecisionError(
            "lattice growth indeterminate: an entry is zero only below "
            f"x^{min(open_precs)}, under x^1"
        )
    try:
        return _gl_run(a, d, n_max)
    except PrecisionError as exc:
        raise PrecisionError(
            f"lattice growth indeterminate: the input's own precision ran out ({exc})"
        ) from exc


def _gl_run(na, d: int, n_max: int):
    """(increment, stabilized, diagnostics) of the lattices of A = na / d,
    na from _integer_matrix.

    The basis columns are mapped by _power_step, the step of the Katz
    powers, with its rule that an exact zero factor costs no precision;
    each image column is divided by the gcd of its numerators.

    The run stops once V_p = x^-c V_q for some q < p, and fills dims[t] =
    dims[t - (p - q)] + c r, since V_(p+i) = x^-c V_(q+i) (module
    docstring).  Two cases are read off each step at no extra reduction:
    a zero increment, V_p = V_(p-1) with c = 0, on any input; and, when A
    is exact, V_p = x^-c V_0, where dim(V_p/V_0) = c r, c >= 1, and no
    entry of the basis of V_p has valuation below -c.  That basis, cut at
    x^1, lies in V_p and spans it, so it lies in x^-c V_0 exactly when
    its entries do."""
    r = len(na)
    exact = _exact(na)
    rows = _sparse_rows(na)
    basis = [[(0, [1] if i == j else [], math.inf) for i in range(r)] for j in range(r)]
    dims = []
    for step in range(n_max):
        gens = basis + [_primitive(col) for col in _power_step(rows, basis, d)]
        total, basis = _reduce_columns(gens, r)
        dims.append(-total)
        c, rem = divmod(dims[-1], r)
        if dims[-1] == (dims[-2] if step else 0):
            period, gain = 1, 0  # V_p = V_(p-1)
        elif exact and not rem and all(v >= -c for col in basis for v, nums, _ in col if nums):
            period, gain = step + 1, dims[-1]  # V_p = x^-c V_0
        else:
            continue
        for t in range(len(dims), n_max):
            dims.append(dims[t - period] + gain)
        break
    increments = [dims[0]] + [b - a2 for a2, b in zip(dims, dims[1:])]
    quarter = max(1, n_max // 4)
    tail = increments[-quarter:]
    stabilized = all(t == tail[0] for t in tail)
    return tail[-1], stabilized, {"dims": dims, "increments": increments}


# -- rank-one tensor law --------------------------------------------------------------


def tensor_rank_one(
    f_valuation: Optional[int],
    g_valuation: Optional[int],
    cancellation_valuation: Optional[int] = None,
) -> Fraction:
    """Break of the tensor of two rank-one modules with connections f and g.

    The tensor connection is f + g; v(f + g) must be supplied when the two
    valuations coincide (cancellation possible) and is forced to min(vf, vg)
    otherwise.  The highest-break bound is asserted.
    """

    def brk(v):
        return Fraction(max(0, -v)) if v is not None else Fraction(0)

    if f_valuation is None and g_valuation is None:
        vsum = cancellation_valuation
    elif f_valuation is None:
        vsum = g_valuation
    elif g_valuation is None:
        vsum = f_valuation
    elif f_valuation != g_valuation:
        forced = min(f_valuation, g_valuation)
        if cancellation_valuation is not None and cancellation_valuation != forced:
            raise DiffError(
                "v(f+g) must equal min(v(f), v(g)) when the valuations differ"
            )
        vsum = forced
    else:
        if cancellation_valuation is None:
            raise DiffError("equal valuations: supply v(f+g)")
        if cancellation_valuation < f_valuation:
            raise DiffError("v(f+g) cannot drop below min(v(f), v(g))")
        vsum = cancellation_valuation
    result = brk(vsum)
    bound = max(brk(f_valuation), brk(g_valuation))
    if result > bound:
        raise DiffError("tensor break exceeded the highest-break bound")
    return result


def rank_one_break(f: Series) -> Fraction:
    """Break of the rank-one module with connection f."""
    if _known_zero(f):
        return Fraction(0)
    return Fraction(max(0, -f.valuation()))
