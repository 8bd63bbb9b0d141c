"""Polynomials over named commuting symbols with the loop-parameter rewrite.

The symbols ``zeta`` and ``zetai`` stand for the loop parameter and its
inverse; the single relation zeta*zetai = 1 is applied on normalization, so
a normal form never contains a monomial with both exponents positive and
the zero test stays decidable.
"""

from __future__ import annotations

from .crational import CRational
from .poly import Context, MultiPoly, make_context

ZETA = "zeta"
ZETA_INV = "zetai"


def symbol_context(*extra: str) -> Context:
    return make_context(ZETA, ZETA_INV, *extra)


class SymbolPoly:
    """A MultiPoly in a symbol context, kept in zeta/zetai normal form."""

    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly):
        if ZETA not in poly.ctx or ZETA_INV not in poly.ctx:
            raise ValueError("symbol context must contain the zeta/zetai pair")
        object.__setattr__(self, "poly", poly.cancel_inverse_pair(ZETA, ZETA_INV))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolPoly is immutable")

    @staticmethod
    def var(ctx: Context, name: str) -> "SymbolPoly":
        return SymbolPoly(MultiPoly.var(ctx, name))

    @staticmethod
    def const(ctx: Context, c) -> "SymbolPoly":
        return SymbolPoly(MultiPoly.const(ctx, c))

    def _coerce(self, x) -> "SymbolPoly":
        if isinstance(x, SymbolPoly):
            return x
        if isinstance(x, MultiPoly):
            return SymbolPoly(x)
        return SymbolPoly.const(self.poly.ctx, x)

    def __add__(self, other):
        return SymbolPoly(self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return SymbolPoly(-self.poly)

    def __sub__(self, other):
        return SymbolPoly(self.poly - self._coerce(other).poly)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return SymbolPoly(self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, (SymbolPoly, MultiPoly, int, CRational)):
            return NotImplemented
        return (self - self._coerce(other)).is_zero()

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return str(self.poly)

    __repr__ = __str__
