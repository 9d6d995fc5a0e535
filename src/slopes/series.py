"""Truncated Laurent series over Q with explicit precision tracking.

A series is a window of exact rational coefficients starting at ``vmin``;
exponents at or beyond ``prec`` are unknown.  ``prec=None`` marks an exact
Laurent polynomial (every unstored coefficient is genuinely zero), which is
what all shipped fixtures use; truncation only enters through the slope
factorization, whose outputs carry finite precision.

Every series is stored in one normal form (``trim``): no leading or
trailing zero coefficient, and the zero series, exact or O(x^p), at vmin 0.
So ``vmin`` is the valuation of a nonzero series, and the 0 that the
product's precision rule counts for a zero factor.  The integer windows of
``phi`` and ``diff`` keep the same form.

Arithmetic propagates precision pessimistically and never invents a
coefficient: asking for the valuation of a window that is zero out to its
precision raises ``PrecisionError`` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .errors import SchemaError, SlopesError

Rat = Union[Fraction, int, str]

_ZERO = Fraction(0)


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


def _integral(coeffs) -> tuple[list[int], int]:
    """(numerators, d) with coeffs[i] == numerators[i] / d, d the least
    common denominator."""
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


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
        prec = _min_prec(self.prec, other.prec)
        if not self.coeffs:
            coeffs = other.coeffs if sign == 1 else tuple(-c for c in other.coeffs)
            return _make(other.vmin, coeffs, prec)
        if not other.coeffs:
            return _make(self.vmin, self.coeffs, prec)
        lo = min(self.vmin, other.vmin)
        end = self.vmin + len(self.coeffs)
        hi = max(end, other.vmin + len(other.coeffs))
        # copy the first window, padded to [lo, hi), and add into it only
        # the nonzero coefficients of the second
        out = [_ZERO] * (self.vmin - lo) + list(self.coeffs) + [_ZERO] * (hi - end)
        for i, c in enumerate(other.coeffs, other.vmin - lo):
            if c:
                if sign == 1:
                    out[i] = out[i] + c if out[i] else c
                else:
                    out[i] = out[i] - c if out[i] else -c
        return _make(lo, tuple(out), prec)

    def __mul__(self, other: "Series") -> "Series":
        # O(x^p) * (q + ...) is O(x^(p + v(q))); both cross terms count, and
        # a zero factor counts v = 0, the vmin of its normal form.
        va, vb = self, other
        prec = None
        if va.prec is not None:
            prec = va.prec + vb.vmin
        if vb.prec is not None:
            prec = _min_prec(prec, vb.prec + va.vmin)
        if not va.coeffs or not vb.coeffs:
            return Series.zero(prec)
        vmin = va.vmin + vb.vmin
        if prec is not None:
            # terms at or beyond prec are dropped anyway; never form them
            va = va.truncate(prec - vb.vmin)
            vb = vb.truncate(prec - va.vmin)
        # convolve integer numerators over one common denominator, so each
        # output coefficient is normalised once
        na, da = _integral(va.coeffs)
        nb, db = _integral(vb.coeffs)
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb):
                    out[i + j] += a * b
        d = da * db
        return _make(vmin, tuple([Fraction(c, d) for c in out]), prec)

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
        nums, d = _integral(self.coeffs[:nterms])
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
        vmin, prec = obj.get("vmin", 0), obj.get("prec")
        # type() rather than isinstance(): a JSON true is a bool, not an int
        if type(vmin) is not int:
            raise SchemaError(f"series vmin must be an integer, got {vmin!r}")
        if prec is not None and type(prec) is not int:
            raise SchemaError(f"series prec must be an integer, got {prec!r}")
        return Series(vmin, tuple(Fraction(c) for c in obj.get("c", [])), prec)

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
