"""Exact computer-algebra kernel: complex rationals, multivariate
polynomials and rational functions, matrices, Laurent objects, and the
loop-parameter symbol ring."""

from .crational import CR_I, CR_ONE, CR_ZERO, CRational
from .laurent import ZetaLaurent
from .matrix import MatRF, SingularMatrixError
from .poly import Context, ContextError, MultiPoly, make_context
from .rational import RationalFunction
from .symbols import ZETA, ZETA_INV, SymbolPoly, symbol_context

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
    "ZetaLaurent",
    "SymbolPoly",
    "symbol_context",
    "ZETA",
    "ZETA_INV",
]
