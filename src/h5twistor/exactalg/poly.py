"""Multivariate polynomials over Q(i) with an explicit, fixed variable context.

A context is an ordered tuple of variable names.  Mixing values from
different contexts is an error, never a silent coercion; use
``MultiPoly.substitute`` to move between contexts.

A polynomial is stored as ``(1/den) * sum (a + b*i) * x^e``: ``a`` and ``b``
are Python ints and ``den`` is the least positive common denominator, so
the form is canonical and ``==``/``hash`` are structural.  ``terms`` maps a
packed monomial to its Gaussian-integer numerator ``(a, b)``.

A packed monomial holds the exponent vector in one int, ``FIELD_BITS`` bits
per variable, the first context variable in the highest field; integer
order is therefore lex order on exponent vectors.  The top bit of every
field is a guard bit that a valid monomial leaves clear, so exponents are at
most ``MAX_EXPONENT``, a monomial product is one int addition that cannot
carry into the next field, and divisibility is one masked subtraction.  An
exponent past ``MAX_EXPONENT`` raises ``OverflowError``.

Only this module reads or builds ``terms``; ``CRational`` is the scalar of
the public API (``const``, ``scale``, ``constant_value``, ``leading``,
printing).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Mapping, Tuple

from .crational import CRational, CR_ZERO

Context = Tuple[str, ...]
Exponents = Tuple[int, ...]

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
_GUARD_SHIFT = FIELD_BITS - 1


class ContextError(ValueError):
    """Raised when operands live in different variable contexts."""


def make_context(*names: str) -> Context:
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in context {names}")
    return tuple(names)


def _guard(n: int) -> int:
    """Mask of the guard bits of ``n`` fields."""
    return ((1 << (FIELD_BITS * n)) - 1) // _FIELD << _GUARD_SHIFT


def _overflow(ctx: Context) -> OverflowError:
    return OverflowError(
        f"an exponent exceeds {MAX_EXPONENT}, the packed exponent limit, in context {ctx}"
    )


def _unpack(key: int, n: int) -> Exponents:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = key & _FIELD
        key >>= FIELD_BITS
    return tuple(out)


def _field_min(a: int, b: int, guard: int) -> int:
    """Componentwise minimum of two packed monomials."""
    ge = ((a | guard) - b) & guard  # guard bit set in the fields where a >= b
    mask = ge | (ge - (ge >> _GUARD_SHIFT))
    return (b & mask) | (a & ~mask)


def _split(c: CRational) -> Tuple[int, int, int]:
    """``c`` as ``(a, b, d)`` with ``c = (a + b*i) / d``."""
    re, im = c.re, c.im
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _scalar(a: int, b: int, d: int) -> CRational:
    return CRational(Fraction(a, d), Fraction(b, d))


def _mul_terms(t1: dict, t2: dict, ctx: Context) -> dict:
    """Product of two term maps; only int products in the inner loop."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    re: Dict[int, int] = {}
    if any(b for _, b in t1.values()) or any(b for _, b in t2.values()):
        inner = [(e, a, b) for e, (a, b) in t2.items()]
        im: Dict[int, int] = {}
        rget, iget = re.get, im.get
        for e1, (a1, b1) in t1.items():
            for e2, a2, b2 in inner:
                e = e1 + e2
                re[e] = rget(e, 0) + a1 * a2 - b1 * b2
                im[e] = iget(e, 0) + a1 * b2 + b1 * a2
        terms = {e: (a, im[e]) for e, a in re.items() if a or im[e]}
    else:
        inner = [(e, a) for e, (a, _) in t2.items()]
        get = re.get
        for e1, (a1, _) in t1.items():
            for e2, a2 in inner:
                e = e1 + e2
                re[e] = get(e, 0) + a1 * a2
        terms = {e: (a, 0) for e, a in re.items() if a}
    guard = _guard(len(ctx))
    for e in terms:
        if e & guard:
            raise _overflow(ctx)
    return terms


class MultiPoly:
    """Sparse polynomial over Q(i); see the module docstring for the layout."""

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx: Context, terms: Dict[int, Tuple[int, int]], den: int = 1):
        """``terms / den`` from zero-free packed terms and a positive ``den``,
        with their common content divided out.  Users build polynomials
        with ``zero``, ``const``, ``var`` and the ring operations."""
        if den != 1:
            g = den
            for a, b in terms.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            if g != 1:
                den //= g
                terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "MultiPoly":
        return MultiPoly(tuple(ctx), {})

    @staticmethod
    def const(ctx: Context, c) -> "MultiPoly":
        a, b, d = _split(CRational.coerce(c))
        return MultiPoly(tuple(ctx), {0: (a, b)} if a or b else {}, d)

    @staticmethod
    def one(ctx: Context) -> "MultiPoly":
        return MultiPoly(tuple(ctx), {0: (1, 0)})

    @staticmethod
    def var(ctx: Context, name: str) -> "MultiPoly":
        ctx = tuple(ctx)
        return MultiPoly(ctx, {1 << _shift(ctx, name): (1, 0)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.den == 1 and self.terms == {0: (1, 0)}

    def is_monic(self) -> bool:
        """True iff the lex-leading coefficient is exactly 1."""
        return bool(self.terms) and self.terms[max(self.terms)] == (self.den, 0)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> CRational:
        if self.is_zero():
            return CR_ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _scalar(*self.terms[0], self.den)

    def total_degree(self) -> int:
        n = len(self.ctx)
        return max((sum(_unpack(e, n)) for e in self.terms), default=0)

    def _check(self, other: "MultiPoly"):
        if self.ctx != other.ctx:
            raise ContextError(f"context mismatch: {self.ctx} vs {other.ctx}")

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, sign: int) -> "MultiPoly":
        """``self + sign * other`` over the least common denominator."""
        other = self._coerce(other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        terms = dict(self.terms) if m1 == 1 else {
            e: (a * m1, b * m1) for e, (a, b) in self.terms.items()
        }
        m2 *= sign
        get = terms.get
        for e, (a, b) in other.terms.items():
            old = get(e)
            if old is None:
                terms[e] = (a * m2, b * m2)
            else:
                a = old[0] + a * m2
                b = old[1] + b * m2
                if a or b:
                    terms[e] = (a, b)
                else:
                    del terms[e]
        return MultiPoly(self.ctx, terms, d1 * m1)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ctx, {e: (-a, -b) for e, (a, b) in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        if other.is_one():
            return self
        if self.is_one():
            return other
        return MultiPoly(
            self.ctx, _mul_terms(self.terms, other.terms, self.ctx), self.den * other.den
        )

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        p, q, r = _split(CRational.coerce(c))
        if not (p or q):
            return MultiPoly(self.ctx, {})
        terms = {e: (a * p - b * q, a * q + b * p) for e, (a, b) in self.terms.items()}
        return MultiPoly(self.ctx, terms, self.den * r)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _coerce(self, x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(self.ctx, x)

    # -- calculus ------------------------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Termwise formal partial derivative with respect to ``name``."""
        shift = _shift(self.ctx, name)
        unit = 1 << shift
        terms = {}
        for e, (a, b) in self.terms.items():
            k = (e >> shift) & _FIELD
            if k:
                terms[e - unit] = (a * k, b * k)
        return MultiPoly(self.ctx, terms, self.den)

    def apply_derivation(self, rows, shared=None) -> "MultiPoly":
        """``sum c * d(self)/dx`` over the ``(x, c)`` rows of a vector field
        whose coefficients ``c`` are polynomials in this context.  ``shared``
        is unused (a polynomial has no denominator to share); it is taken
        so that ``MatRF.apply_derivation`` applies a field to a matrix of
        polynomials as it does to one of rational functions."""
        out = MultiPoly(self.ctx, {})
        for name, c in rows:
            d = self.derivative(name)
            if d.terms:
                out = out + c * d
        return out

    def integrate(self, name: str) -> "MultiPoly":
        """Termwise antiderivative in ``name`` with integration constant zero."""
        shift = _shift(self.ctx, name)
        unit = 1 << shift
        guard = _guard(len(self.ctx))
        powers = {e: ((e >> shift) & _FIELD) + 1 for e in self.terms}
        m = lcm(*powers.values())
        terms = {}
        for e, (a, b) in self.terms.items():
            if (e + unit) & guard:
                raise _overflow(self.ctx)
            f = m // powers[e]
            terms[e + unit] = (a * f, b * f)
        return MultiPoly(self.ctx, terms, self.den * m)

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, values: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for every variable.

        All values must share one target context; variables absent from
        ``values`` must exist in the target context and map to themselves.
        """
        if values:
            target = next(iter(values.values())).ctx
        else:
            target = self.ctx
        one = MultiPoly.one(target)
        powers = []  # per source variable: [v^0, v^1, ...] as far as needed
        for name in self.ctx:
            if name in values:
                v = values[name]
                if v.ctx != target:
                    raise ContextError("substitution values live in different contexts")
            else:
                v = MultiPoly.var(target, name)
            powers.append([one, v])
        n = len(self.ctx)
        images = []
        for e, c in self.terms.items():
            mono = one
            for pw, k in zip(powers, _unpack(e, n)):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    mono = pw[k] if mono is one else mono * pw[k]
            images.append((c, mono))
        # sum of c * mono over the least common denominator
        den = lcm(*(mono.den for _, mono in images))
        acc: dict = {}
        get = acc.get
        for (a, b), mono in images:
            f = den // mono.den
            if f != 1:
                a, b = a * f, b * f
            for e, (x, y) in mono.terms.items():
                old = get(e)
                re, im = a * x - b * y, a * y + b * x
                acc[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
        terms = {e: c for e, c in acc.items() if c[0] or c[1]}
        return MultiPoly(target, terms, den * self.den)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        out = 0j
        d, n = self.den, len(self.ctx)
        for e, (a, b) in self.terms.items():
            v = complex(a / d) + 1j * complex(b / d)
            for name, k in zip(self.ctx, _unpack(e, n)):
                if k:
                    v *= point[name] ** k
            out += v
        return out

    # -- division ------------------------------------------------------------

    def leading(self) -> Tuple[Exponents, CRational]:
        """Leading term under lexicographic order on exponent vectors."""
        e = max(self.terms)
        return _unpack(e, len(self.ctx)), _scalar(*self.terms[e], self.den)

    def try_div(self, d: "MultiPoly"):
        """Exact division ``self / d``: the quotient, or None if it fails.

        Single-divisor reduction under lex order, in place on a remainder
        ``R / s`` with Gaussian-integer ``R``; returns a quotient q with
        q*d == self exactly, or None as soon as a leading term does not divide.
        """
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        guard = _guard(len(self.ctx))
        de = max(d.terms)
        # Most calls fail at once, so before any copying test the leading
        # term, and then the trailing one: the lex-least term of q*d is the
        # product of the least terms of q and d.
        if self.terms and (
            ((max(self.terms) | guard) - de) & guard != guard
            or ((min(self.terms) | guard) - min(d.terms)) & guard != guard
        ):
            return None
        la, lb = d.terms[de]
        norm = la * la + lb * lb
        rest = [(e, a, b) for e, (a, b) in d.terms.items() if e != de]
        r = dict(self.terms)
        s = 1
        heap = [-e for e in r]
        heapify(heap)
        quotient = []  # (monomial, x, y, w): the term (x + y*i) / w
        while heap:
            e = -heappop(heap)
            lead = r.pop(e, None)
            if lead is None:
                continue
            if ((e | guard) - de) & guard != guard:
                return None
            # (x + y*i) / w = lead / (s * lc(d)), reduced
            x, y = lead
            if lb:
                x, y, w = x * la + y * lb, y * la - x * lb, s * norm
            elif la > 0:
                w = s * la
            else:
                x, y, w = -x, -y, -s * la
            g = gcd(w, x, y)
            if g != 1:
                x, y, w = x // g, y // g, w // g
            diff = e - de
            quotient.append((diff, x, y, w))
            if s % w:
                f = w // gcd(s, w)
                r = {k: (a * f, b * f) for k, (a, b) in r.items()}
                s *= f
            f = s // w
            x, y = x * f, y * f
            for ek, a, b in rest:
                k = diff + ek
                pa, pb = x * a - y * b, x * b + y * a
                old = r.get(k)
                if old is None:
                    if k & guard:
                        raise _overflow(self.ctx)
                    r[k] = (-pa, -pb)
                    heappush(heap, -k)
                else:
                    pa, pb = old[0] - pa, old[1] - pb
                    if pa or pb:
                        r[k] = (pa, pb)
                    else:
                        del r[k]
        # self / d = (d.den / self.den) * sum of the quotient terms
        m = lcm(*(w for *_, w in quotient))
        f0 = d.den
        terms = {k: (x * (m // w) * f0, y * (m // w) * f0) for k, x, y, w in quotient}
        return MultiPoly(self.ctx, terms, m * self.den)

    def monomial_gcd(self, other: "MultiPoly") -> int:
        """Packed monomial of the componentwise min exponent over all terms
        of both polynomials (0 when they share no variable power)."""
        if 0 in self.terms or 0 in other.terms:
            return 0
        guard = _guard(len(self.ctx))
        mono = None
        for e in (*self.terms, *other.terms):
            mono = e if mono is None else _field_min(mono, e, guard)
            if not mono:
                return 0
        return mono or 0

    def shift_down(self, mono: int) -> "MultiPoly":
        """Divide every term by the packed monomial ``mono`` from ``monomial_gcd``."""
        return MultiPoly(self.ctx, {e - mono: c for e, c in self.terms.items()}, self.den)

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar value, so it hashes as that value
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.ctx, self.den, frozenset(self.terms.items())))

    def __str__(self) -> str:
        """Canonical text: monomials sorted descending in lex order."""
        if self.is_zero():
            return "0"
        parts = []
        n = len(self.ctx)
        for e in sorted(self.terms, reverse=True):
            c = _scalar(*self.terms[e], self.den)
            mono = "*".join(
                (f"{v}^{k}" if k > 1 else v)
                for v, k in zip(self.ctx, _unpack(e, n))
                if k
            )
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _shift(ctx: Context, name: str) -> int:
    """Bit offset of the exponent field of ``name`` in a packed monomial."""
    try:
        i = ctx.index(name)
    except ValueError:
        raise ContextError(f"unknown variable {name!r} in context {ctx}") from None
    return FIELD_BITS * (len(ctx) - 1 - i)
