"""Truncated Laurent series over Q with explicit precision tracking.

A series is a window of exact rational coefficients starting at ``vmin``;
exponents at or beyond ``prec`` are unknown.  ``prec=None`` marks an exact
Laurent polynomial (every unstored coefficient is genuinely zero), which is
what all shipped fixtures use; truncation only enters through the slope
factorization, whose outputs carry finite precision.

Every series is stored in one normal form (``trim``): no leading or
trailing zero coefficient, and the zero series, exact or O(x^p), at vmin 0.
So ``vmin`` is the valuation of a nonzero series.  The product's
precision rule counts each factor at min(vmin, prec): its valuation when
it is nonzero, and for a zero one min(0, p), p its precision, since its
unknown terms may start at x^p.

This module also owns the integer window format that ``phi`` and ``diff``
run on: one conversion of a Series to integer numerators (``_window``;
``_integer_matrix`` for a matrix over one common denominator), one cut
(``_cut``) and one trim (``_trimmed``), and one product-sum,
``_product_sum``.  ``Series`` multiplication, addition and subtraction and
phi's twisted products all sum on it, so they share one set of precision
rules.

Arithmetic propagates precision pessimistically and never invents a
coefficient: asking for the valuation of a window that is zero out to its
precision raises ``PrecisionError`` instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import SchemaError, SlopesError, integer_field

Rat = Union[Fraction, int, str]


class PrecisionError(SlopesError, ArithmeticError):
    """A quantity is indeterminate at the working precision."""


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def trim(v: int, nums):
    """(v, nums) in normal form: no leading or trailing zero stored, and the
    zero series (exact or O(x^p)) at vmin 0.  nums is a tuple or list of
    coefficients or numerators, returned as the same type."""
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        return 0, nums[:0]
    while not nums[hi - 1]:
        hi -= 1
    if lo == 0 and hi == len(nums):
        return v, nums
    return v + lo, nums[lo:hi]


def _store(s: "Series", vmin: int, coeffs: tuple, prec: Optional[int]) -> "Series":
    """Set the fields of s to the window cut to ``prec``, in normal form."""
    if prec is not None and vmin + len(coeffs) > prec:
        coeffs = coeffs[: max(0, prec - vmin)]
    vmin, coeffs = trim(vmin, coeffs)
    object.__setattr__(s, "vmin", vmin)
    object.__setattr__(s, "coeffs", coeffs)
    object.__setattr__(s, "prec", prec)
    return s


def _make(vmin: int, coeffs: tuple, prec: Optional[int]) -> "Series":
    """Series from a tuple that already holds Fractions, cut to ``prec``;
    skips the per-coefficient conversion of the public constructor."""
    return _store(object.__new__(Series), vmin, coeffs, prec)


# -- integer windows -------------------------------------------------------------
# phi's twisted products and lift run on windows (vmin, nums, den, prec): the
# series sum_t nums[t]/den x^(vmin + t), den > 0, known below x^prec
# (math.inf: exact), in the normal form of trim.  diff's entries are the
# windows (vmin, nums, prec) over one common denominator.  Each rule below
# is the Series rule it names, so a window converts back to the Series that
# Series arithmetic would build.


def _window(s: Series, d: int = 0):
    """s as a window over d, a multiple of every denominator of s; by
    default d is their lcm."""
    d = d or math.lcm(*[c.denominator for c in s.coeffs])
    return (
        s.vmin,
        [c.numerator * (d // c.denominator) for c in s.coeffs],
        d,
        math.inf if s.prec is None else s.prec,
    )


def _integer_matrix(mat):
    """(N, D) with mat = N / D: D is the lcm of every coefficient
    denominator, and N holds the (vmin, numerators, prec) entries of the
    windows of mat over D."""
    d = math.lcm(*(c.denominator for row in mat for s in row for c in s.coeffs))
    wins = [[_window(s, d) for s in row] for row in mat]
    return [[(v, nums, p) for v, nums, _, p in row] for row in wins], d


def _shift(entry, k: int):
    """The entry times x^k; a zero entry keeps vmin 0."""
    v, nums, p = entry
    return (v + k if nums else 0, nums, p + k)


def _cut(v: int, nums: list, prec) -> list:
    """The numerators below x^prec, as Series cuts a stored window."""
    return nums if prec == math.inf else nums[: max(0, prec - v)]


def _series(win, prec=math.inf) -> Series:
    """The window known below x^prec as a Series."""
    v, nums, d, p = win
    p = min(p, prec)
    coeffs = tuple(Fraction(c, d) for c in _cut(v, nums, p))
    return _make(v, coeffs, None if p == math.inf else p)


def _trimmed(v: int, nums: list, d: int, prec):
    """The window in the normal form of trim; a zero window has den 1."""
    v, nums = trim(v, nums)
    return (v, nums, d if nums else 1, prec)


def _product_sum(parts, prec):
    """The window of the sum of num/den x^start (x * y) over the parts
    (start, x, y, num, den), x * y the product of two numerator lists,
    known below x^prec: one common denominator and one convolution loop,
    the shorter factor outer, so a product with a monomial side costs
    O(window).  The sum is cut at prec, trimmed and divided by the gcd of
    its numerators and denominator.  Each part's shorter factor ends below
    x^prec, as the Series product rule and the callers' cuts ensure."""
    if not parts:
        return (0, [], 1, prec)
    big_d = math.lcm(*[p[4] for p in parts])
    lo = min(p[0] for p in parts)
    n = min(prec, max(p[0] + len(p[1]) + len(p[2]) - 1 for p in parts)) - lo
    acc = [0] * n
    for start, x, y, num, den in parts:
        f = num * (big_d // den)
        if len(x) > len(y):
            x, y = y, x
        for s, c in enumerate(x, start - lo):
            if c:
                c *= f
                for t, e in enumerate(y[: n - s], s):
                    acc[t] += c * e
    v, acc, d, prec = _trimmed(lo, acc, big_d, prec)
    g = math.gcd(d, *acc)
    if g > 1:
        acc = [c // g for c in acc]
        d //= g
    return (v, acc, d, prec)


def _min_prec(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class Series:
    vmin: int
    coeffs: tuple[Fraction, ...]
    prec: Optional[int] = None  # exponents >= prec are unknown; None = exact

    def __post_init__(self):
        _store(self, self.vmin, tuple(_frac(c) for c in self.coeffs), self.prec)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(prec: Optional[int] = None) -> "Series":
        return Series(0, (), prec)

    @staticmethod
    def one() -> "Series":
        return Series(0, (Fraction(1),))

    @staticmethod
    def monomial(c: Rat, k: int, prec: Optional[int] = None) -> "Series":
        return Series(k, (_frac(c),), prec)

    @staticmethod
    def from_coeffs(vmin: int, coeffs, prec: Optional[int] = None) -> "Series":
        return Series(vmin, tuple(_frac(c) for c in coeffs), prec)

    # -- basic queries -----------------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; raises if k is beyond the known window."""
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(f"coefficient of x^{k} beyond precision {self.prec}")
        i = k - self.vmin
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        """True when zero as far as known (exactly zero if exact)."""
        return not self.coeffs

    def valuation(self) -> Optional[int]:
        """Least exponent with a nonzero coefficient.

        Returns None for the exact zero series; raises PrecisionError when a
        truncated series is zero out to its precision.
        """
        if self.coeffs:
            return self.vmin
        if self.prec is None:
            return None
        raise PrecisionError(
            f"series is zero to precision O(x^{self.prec}); valuation unknown"
        )

    def valuation_or(self, default=None):
        try:
            return self.valuation()
        except PrecisionError:
            return default

    def truncate(self, prec: int) -> "Series":
        return _make(self.vmin, self.coeffs, _min_prec(self.prec, prec))

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1)

    def __neg__(self) -> "Series":
        return _make(self.vmin, tuple(-c for c in self.coeffs), self.prec)

    def __sub__(self, other: "Series") -> "Series":
        """self + (-other), without forming -other."""
        return self._combine(other, -1)

    def _combine(self, other: "Series", sign: int) -> "Series":
        """self + sign * other, sign = 1 or -1."""
        a, b = _window(self), _window(other)
        prec = min(a[3], b[3])
        ops = ((a, 1), (b, sign))
        parts = [(w[0], [1], w[1], s, w[2]) for w, s in ops if w[1] and w[0] < prec]
        return _series(_product_sum(parts, prec))

    def __mul__(self, other: "Series") -> "Series":
        # O(x^p) * (q + ...) is O(x^(p + v(q))); both cross terms count, and
        # each factor counts v = min(vmin, prec): min(0, prec) when zero.
        a, b = _window(self), _window(other)
        parts = [(a[0] + b[0], a[1], b[1], 1, a[2] * b[2])] if a[1] and b[1] else []
        prec = min(a[3] + min(b[0], b[3]), b[3] + min(a[0], a[3]))
        return _series(_product_sum(parts, prec))

    def scale(self, c: Rat) -> "Series":
        c = _frac(c)
        return _make(self.vmin, tuple(c * a for a in self.coeffs), self.prec)

    def dlog_derivative(self) -> "Series":
        """Apply x d/dx: c_k x^k -> k c_k x^k.  Valuation never drops."""
        return _make(
            self.vmin,
            tuple(c * (self.vmin + i) for i, c in enumerate(self.coeffs)),
            self.prec,
        )

    def dilate(self, q: Fraction) -> "Series":
        """Substitute x -> q x (the q-dilation twist); an isometry."""
        q = _frac(q)
        if q == 1 or not self.coeffs:
            return self
        out = []
        pw = q**self.vmin
        for c in self.coeffs:
            out.append(c * pw)
            pw *= q
        return _make(self.vmin, tuple(out), self.prec)

    def inverse(self, prec: int) -> "Series":
        """Multiplicative inverse to O(x^prec); needs a known valuation."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverse of the zero series")
        nterms = prec - (-v)
        if nterms <= 0:
            return Series.zero(prec)
        if self.prec is not None and self.prec - v < nterms:
            raise PrecisionError("not enough terms to invert at this precision")
        # With self = (n_0 + n_1 x + ...) x^v / d, the k-th inverse coefficient
        # is d m_k / n_0^(k+1), where m_0 = 1 and
        # m_k = -sum_{j>=1} n_j n_0^(j-1) m_{k-j}: integers only, and one
        # normalisation per output coefficient.
        _, nums, d, _ = _window(self.truncate(v + nterms))
        n0 = nums[0]
        terms = []  # (j, n_j n_0^(j-1)) for the nonzero n_j, j >= 1
        pw = 1
        for j in range(1, len(nums)):
            if nums[j]:
                terms.append((j, nums[j] * pw))
            pw *= n0
        m = [1]
        for k in range(1, nterms):
            acc = 0
            for j, aj in terms:
                if j > k:
                    break
                acc += aj * m[k - j]
            m.append(-acc)
        out = []
        den = n0
        for mk in m:
            out.append(Fraction(d * mk, den))
            den *= n0
        return _make(-v, tuple(out), prec)

    def eq_to_precision(self, other: "Series", prec: Optional[int] = None) -> bool:
        # d is in normal form, so its first stored term is its first nonzero one
        d = self - other
        limit = _min_prec(d.prec, prec)
        return not d.coeffs or (limit is not None and d.vmin >= limit)

    # -- io ---------------------------------------------------------------------------

    def to_json(self):
        out = {"vmin": self.vmin, "c": [str(c) for c in self.coeffs]}
        if self.prec is not None:
            out["prec"] = self.prec
        return out

    @staticmethod
    def from_json(obj) -> "Series":
        if isinstance(obj, str):
            return Series(0, (Fraction(obj),))
        vmin = integer_field(obj.get("vmin", 0), "series vmin")
        prec = obj.get("prec")
        if prec is not None:
            integer_field(prec, "series prec")
        c = obj.get("c", [])
        if type(c) is not list or any(type(x) not in (str, int) for x in c):
            raise SchemaError(f"series c must be a list of strings or integers, got {c!r}")
        return Series(vmin, tuple(map(Fraction, c)), prec)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.vmin + i
            parts.append(f"{c}*x^{k}" if k else f"{c}")
        body = " + ".join(parts) or "0"
        tail = f" + O(x^{self.prec})" if self.prec is not None else ""
        return f"<{body}{tail}>"
