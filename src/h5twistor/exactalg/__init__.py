"""Exact computer-algebra kernel: complex rationals, multivariate
polynomials and rational functions, and matrices over them."""

from .crational import CR_I, CR_ONE, CR_ZERO, CRational
from .matrix import MatRF, SingularMatrixError
from .poly import Context, ContextError, MultiPoly, make_context
from .rational import RationalFunction

__all__ = [
    "CRational",
    "CR_ZERO",
    "CR_ONE",
    "CR_I",
    "Context",
    "ContextError",
    "MultiPoly",
    "make_context",
    "RationalFunction",
    "MatRF",
    "SingularMatrixError",
]
