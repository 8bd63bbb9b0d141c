"""Exact multivariate rational functions: the universal scalar for all
symbolic identities.

Every stored ``(num, den)`` pair is a fixed point of ``_normalize``: no
monomial divides both, neither divides the other, and ``den`` is monic (its
lex-leading coefficient is 1), so a value that is a polynomial is stored
over 1.  Multiplying the numerator by a unit keeps a pair fixed, so ``-x``
is built without normalizing, and so are a polynomial over 1 and ``c * x``
for a nonzero constant ``c`` (the stored pair ``(c * num, den)``).
``a - b`` is one operation, normalized once, not ``a + (-b)``.

Equality is decided by cross-multiplication, or by the numerators alone
when the denominators are equal, so num/den pairs never need a
multivariate GCD.  A value stored over 1 hashes as its numerator, so a
constant hashes as its scalar in every context; values of two contexts
compare unequal rather than raising.  Factors are cancelled only where an
exact ``MultiPoly.try_div`` finds them, in two places:

* the operation that would create a common factor: ``+`` and ``-`` put two
  fractions over the larger denominator when one denominator divides the
  other, and ``*`` (hence ``/``) divides each numerator by the other
  operand's denominator when that division is exact;
* normalization (``_normalize``), which cancels a shared monomial, then
  the whole denominator or the whole numerator when one divides the other.

``try_div`` rejects most failed divisions before copying anything: the
divisor's lex-leading monomial must divide the dividend's, and so must its
lex-least one.  Each sum of products is one ``MultiPoly.dot``: the
numerator of ``+`` over the product denominator, the cross-multiplication
of ``==``, and the quotient rule D(p) q - p D(q), whose D(p) is
``MultiPoly.apply_derivation``'s one pass over the rows.  The monic step
of ``_normalize`` multiplies by 1 / lc(den) = d (a - b i) / (a^2 + b^2)
for the leading numerator a + b i over d, in ints.  A field applied to a
matrix (``MatRF.apply_derivation``) computes D(q) and q^2 once per
distinct denominator q and leaves zero entries as they are.
``gauge.curvature`` goes further when every denominator of the blocks it
reads divides the one of highest degree, q: it forms each entry of q^2 F
from the numerators, lifted to q, as one ``MultiPoly.dot`` and builds the
entry once, over q^2.

A factor shared only in part is left: a sum over ``t^2 (t+3)^5`` and
``(t+3)^5 (t+1)`` still goes over their product, and a curvature entry of
a gauge-moved connection, whose blocks' denominators all divide
t (t+3)^3, is stored over ``t^2 (t+3)^6`` where its lowest form has
``t^2 (t+3)^2``.  Such pairs need factored denominators or a GCD.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

from .crational import CRational
from .poly import Context, ContextError, MultiPoly


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.ctx)  # a polynomial over 1 is already normal
        else:
            if num.ctx != den.ctx:
                raise ContextError("numerator and denominator contexts differ")
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "RationalFunction":
        return RationalFunction(MultiPoly.zero(ctx))

    @staticmethod
    def one(ctx: Context) -> "RationalFunction":
        return RationalFunction(MultiPoly.one(ctx))

    @staticmethod
    def const(ctx: Context, c) -> "RationalFunction":
        return RationalFunction(MultiPoly.const(ctx, c))

    @staticmethod
    def var(ctx: Context, name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(ctx, name))

    def _coerce(self, x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, MultiPoly):
            return RationalFunction(x)
        return RationalFunction.const(self.ctx, x)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    # -- field operations ------------------------------------------------------

    def __add__(self, other):
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _combine(self, other: "RationalFunction", sign: int) -> "RationalFunction":
        """``self + sign * other`` in one normalization."""
        self.num._check(other.num)
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign > 0 else -other
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return RationalFunction(n1._combine(n2, sign), d1)
        if not (d1.is_constant() or d2.is_constant()):
            # over the larger denominator when one divides the other
            q = d1.try_div(d2)
            if q is not None:
                return RationalFunction(n1._combine(n2 * q, sign), d1)
            q = d2.try_div(d1)
            if q is not None:
                return RationalFunction((n1 * q)._combine(n2, sign), d2)
        return RationalFunction(MultiPoly.dot(self.ctx, ((1, n1, d2), (sign, n2, d1))), d1 * d2)

    def __neg__(self):
        return _known_normal(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        self.num._check(other.num)
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # a nonzero constant is a unit, so scaling by it keeps a stored pair
        if d2.is_one() and n2.is_constant():
            return _known_normal(n1 * n2, d1)
        if d1.is_one() and n1.is_constant():
            return _known_normal(n1 * n2, d2)
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return RationalFunction(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    # -- calculus ---------------------------------------------------------------

    def apply_derivation(self, rows, shared=None) -> "RationalFunction":
        """The vector field with ``(x, c)`` rows, ``D = sum c * d/dx`` with
        polynomial ``c``, by one quotient rule: D(p/q) = (D(p) q - p D(q)) / q^2.

        ``shared`` maps a denominator q to ``(D(q), q^2)`` under the same
        rows; ``MatRF.apply_derivation`` passes one dict for all its entries."""
        p, q = self.num, self.den
        if q.is_one():
            return RationalFunction(p.apply_derivation(rows))
        shared = {} if shared is None else shared
        dq_q2 = shared.get(q)
        if dq_q2 is None:
            shared[q] = dq_q2 = (q.apply_derivation(rows), q * q)
        dq, q2 = dq_q2
        return RationalFunction(
            MultiPoly.dot(self.ctx, ((1, p.apply_derivation(rows), q), (-1, p, dq))), q2
        )

    def derivative(self, name: str) -> "RationalFunction":
        """The one-row derivation d/d``name``."""
        return self.apply_derivation(((name, MultiPoly.one(self.ctx)),))

    def substitute(self, values: Mapping[str, MultiPoly]) -> "RationalFunction":
        return RationalFunction(self.num.substitute(values), self.den.substitute(values))

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("evaluation on the denominator's zero locus")
        return self.num.evaluate(point) / d

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        """True iff self.num * other.den == other.num * self.den exactly.

        As with MultiPoly, values of two contexts are never equal: a
        constant hashes as its scalar in every context, so a set may hold
        the same constant from two contexts and compare them."""
        if not isinstance(other, (RationalFunction, MultiPoly, int, Fraction, CRational)):
            return NotImplemented
        other = self._coerce(other)
        if self.ctx != other.ctx:
            return False
        if self.den == other.den:
            return self.num == other.num
        return MultiPoly.dot(self.ctx, ((1, self.num, other.den), (-1, other.num, self.den))).is_zero()

    def __hash__(self):
        # A value that is a polynomial is stored over 1 (normalization
        # divides it out), so it hashes as that polynomial, which it equals.
        # Otherwise equality is cross-multiplication, and the lex-leading
        # term of a product is the product of the leading terms, so the
        # leading monomial of num over that of den, and the ratio of their
        # coefficients, are the same for equal values.
        if self.den.is_one():
            return hash(self.num)
        ne, nc = self.num.leading()
        de, dc = self.den.leading()
        return hash((self.ctx, tuple(a - b for a, b in zip(ne, de)), nc / dc))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _known_normal(num: MultiPoly, den: MultiPoly) -> RationalFunction:
    """A RationalFunction from a pair that is already a fixed point of
    ``_normalize``, such as a stored pair with its numerator negated."""
    rf = object.__new__(RationalFunction)
    object.__setattr__(rf, "num", num)
    object.__setattr__(rf, "den", den)
    return rf


def _normalize(num: MultiPoly, den: MultiPoly):
    """Cheap canonicalization: divide out the shared monomial factor, then
    the denominator when it divides the numerator (or the numerator when it
    divides the denominator), then scale by a unit so the denominator is
    monic, with lex-leading coefficient 1 (so the den of a polynomial is
    the constant 1).  A common factor that divides neither whole stays."""
    if num.is_zero():
        return num, MultiPoly.one(num.ctx)
    mono = num.monomial_gcd(den)
    if mono:
        num = num.shift_down(mono)
        den = den.shift_down(mono)
    if not den.is_constant():
        q = num.try_div(den)
        if q is not None:
            num, den = q, MultiPoly.one(num.ctx)
        else:
            q = den.try_div(num)
            if q is not None:
                num, den = MultiPoly.one(num.ctx), q
    la, lb = den.terms[max(den.terms)]
    if (la, lb) != (den.den, 0):
        # times 1 / lc(den) = d (la - lb i) / (la^2 + lb^2), in ints
        p, q, r = den.den * la, -den.den * lb, la * la + lb * lb
        g = gcd(p, q, r)
        num, den = num._times(p // g, q // g, r // g), den._times(p // g, q // g, r // g)
    return num, den


def _cancel(num: MultiPoly, den: MultiPoly):
    """``(num / den, 1)`` when ``den`` divides ``num`` exactly, else unchanged;
    tried only when both are non-constant."""
    if not (num.is_constant() or den.is_constant()):
        q = num.try_div(den)
        if q is not None:
            return q, MultiPoly.one(num.ctx)
    return num, den
