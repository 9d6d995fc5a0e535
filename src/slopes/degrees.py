"""Exact degree values and slope keys.

Degrees live in one of two totally ordered divisible groups:

* ``RATIONAL`` -- plain exact rationals under addition.
* ``LOG_POSITIVE`` -- the group of positive rationals ``d`` under
  multiplication, where the carrier ``d`` stands for the real number
  ``-1/2 * log(d)``.  Order is therefore reversed in ``d``: a bigger
  determinant means a smaller degree.  Keeping the carrier rational makes
  every comparison an exact integer-power comparison; no logarithm is ever
  evaluated.

Slopes are degree/rank pairs compared by cross-scaling, so no division
happens in either group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import SlopesError

RATIONAL = "rational"
LOG_POSITIVE = "log_positive"

Rat = Union[Fraction, int, str]


class SlopeError(SlopesError, ValueError):
    """Raised for undefined slopes (zero objects) and domain errors."""


class VariantMismatchError(SlopeError):
    """Raised when mixing degree values from different groups."""


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class DegreeValue:
    """An exact element of the degree group."""

    variant: str
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _frac(self.value))
        if self.variant == LOG_POSITIVE and self.value <= 0:
            raise SlopeError("log-positive degree needs a positive carrier")
        if self.variant not in (RATIONAL, LOG_POSITIVE):
            raise SlopeError(f"unknown degree variant {self.variant!r}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def rational(q: Rat) -> "DegreeValue":
        return DegreeValue(RATIONAL, _frac(q))

    @staticmethod
    def log_positive(d: Rat) -> "DegreeValue":
        """The degree -1/2 log(d) of a lattice with Gram determinant d."""
        return DegreeValue(LOG_POSITIVE, _frac(d))

    @staticmethod
    def zero(variant: str = RATIONAL) -> "DegreeValue":
        return DegreeValue(variant, Fraction(1 if variant == LOG_POSITIVE else 0))

    # -- group operations ------------------------------------------------------

    def _check(self, other: "DegreeValue") -> None:
        if self.variant != other.variant:
            raise VariantMismatchError(
                f"cannot mix {self.variant} and {other.variant} degrees"
            )

    def __add__(self, other: "DegreeValue") -> "DegreeValue":
        self._check(other)
        if self.variant == RATIONAL:
            return DegreeValue(RATIONAL, self.value + other.value)
        return DegreeValue(LOG_POSITIVE, self.value * other.value)

    def __neg__(self) -> "DegreeValue":
        if self.variant == RATIONAL:
            return DegreeValue(RATIONAL, -self.value)
        return DegreeValue(LOG_POSITIVE, 1 / self.value)

    def __sub__(self, other: "DegreeValue") -> "DegreeValue":
        return self + (-other)

    def scale(self, n: int) -> "DegreeValue":
        """Integer scaling: n * Rational(q) = Rational(n q);
        n * LogPositive(d) = LogPositive(d**n)."""
        if self.variant == RATIONAL:
            return DegreeValue(RATIONAL, self.value * n)
        return DegreeValue(LOG_POSITIVE, self.value**n)

    def is_zero(self) -> bool:
        return self.value == (1 if self.variant == LOG_POSITIVE else 0)

    # -- order ------------------------------------------------------------------

    def cmp(self, other: "DegreeValue") -> int:
        self._check(other)
        a, b = self.value, other.value
        if self.variant == LOG_POSITIVE:
            # -1/2 log is strictly decreasing in the carrier.
            a, b = b, a
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        if self.variant == RATIONAL:
            return str(self.value)
        return {"neg_half_log": str(self.value)}

    @staticmethod
    def from_json(obj) -> "DegreeValue":
        if isinstance(obj, dict):
            return DegreeValue.log_positive(Fraction(obj["neg_half_log"]))
        return DegreeValue.rational(Fraction(obj))

    def __repr__(self):
        if self.variant == RATIONAL:
            return f"Deg({self.value})"
        return f"Deg(-1/2 log {self.value})"


def ceil_root(n: int, k: int) -> int:
    """The least integer y >= 0 with y^k >= n."""
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a non-negative integer, or None."""
    y = ceil_root(n, k)
    return y if n >= 0 and y**k == n else None


@dataclass(frozen=True)
class SlopeKey:
    """A slope deg/rk, kept unreduced and compared by exact cross-scaling."""

    deg: DegreeValue
    rk: int

    def __post_init__(self):
        if self.rk <= 0:
            raise SlopeError("slope of a zero or negative rank object")

    def cmp(self, other: "SlopeKey") -> int:
        return self.deg.scale(other.rk).cmp(other.deg.scale(self.rk))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def slope_eq(self, other: "SlopeKey") -> bool:
        return self.cmp(other) == 0

    def reduced(self) -> "SlopeKey":
        """Canonical representative of the slope class.

        Rational slopes reduce to rank 1; log-positive slopes extract an
        exact rk-th root of the carrier when one exists.
        """
        if self.deg.variant == RATIONAL:
            return SlopeKey(DegreeValue.rational(self.deg.value / self.rk), 1)
        d = self.deg.value
        num = _int_nth_root(d.numerator, self.rk)
        den = _int_nth_root(d.denominator, self.rk)
        if num is not None and den is not None:
            return SlopeKey(DegreeValue.log_positive(Fraction(num, den)), 1)
        return self

    def slope_json(self):
        r = self.reduced()
        if r.deg.variant == RATIONAL:
            return str(r.deg.value)
        out = {"neg_half_log": str(r.deg.value)}
        if r.rk != 1:
            out["root"] = r.rk
        return out

    def __repr__(self):
        r = self.reduced()
        if r.deg.variant == RATIONAL and r.rk == 1:
            return f"Slope({r.deg.value})"
        return f"Slope({self.deg!r}/{self.rk})"


def cmp_slope(a: SlopeKey, b: SlopeKey) -> int:
    """Order of r_b*d_a versus r_a*d_b; total, antisymmetric, transitive."""
    return a.cmp(b)
