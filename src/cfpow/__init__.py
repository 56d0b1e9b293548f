"""Exact-arithmetic toolkit for perfect powers among sums of continued-fraction
convergent denominators of real quadratic irrationals."""

from .bounds import (
    BoundReport,
    ConstantLedger,
    elementary_constants,
    nonvanishing_check,
    petho_preconditions,
    theorem_ham2_bound,
    theorem_ham_bound,
    theorem_y_bound,
    walk_closed_form,
)
from .cfrac import BinetData, ContinuedFraction, binet_data, convergents, expand
from .numeration import ostrowski_decode, ostrowski_encode, radix_encode, zeckendorf_encode
from .quadfield import DyadicInterval, QuadNum, make_quadnum
from .search import SearchRange, Solution, enumerate_solutions, filter_by_weight, verify_bounds

__version__ = "0.1.0"

__all__ = [
    "QuadNum",
    "DyadicInterval",
    "make_quadnum",
    "ContinuedFraction",
    "BinetData",
    "expand",
    "convergents",
    "binet_data",
    "ostrowski_encode",
    "ostrowski_decode",
    "zeckendorf_encode",
    "radix_encode",
    "ConstantLedger",
    "BoundReport",
    "elementary_constants",
    "petho_preconditions",
    "nonvanishing_check",
    "theorem_y_bound",
    "theorem_ham_bound",
    "theorem_ham2_bound",
    "walk_closed_form",
    "Solution",
    "SearchRange",
    "enumerate_solutions",
    "filter_by_weight",
    "verify_bounds",
    "__version__",
]
