"""Slope filtrations toolkit: exact slope arithmetic, Harder-Narasimhan
flags, Newton polygon calculus, and six concrete backends (euclidean
lattices, twisted polynomials, formal differential operators, filtered
vector spaces, tabulated categories, ramification data)."""

from .core import Budget, Certificate, Flag, HNResult, hn_filtration, is_semistable
from .degrees import DegreeValue, SlopeKey, cmp_slope
from .polygon import NewtonPolygon, polygon_combine, polygon_dominates, polygon_of_flag

__all__ = [
    "Budget",
    "Certificate",
    "DegreeValue",
    "Flag",
    "HNResult",
    "NewtonPolygon",
    "SlopeKey",
    "cmp_slope",
    "hn_filtration",
    "is_semistable",
    "polygon_combine",
    "polygon_dominates",
    "polygon_of_flag",
]

__version__ = "0.1.0"
