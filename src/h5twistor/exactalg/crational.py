"""Exact complex rationals: the coefficient field Q(i).

Both parts are kept as ``fractions.Fraction``, so every value is in canonical
reduced form and equality is structural.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class CRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRational is immutable")

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def coerce(x) -> "CRational":
        if isinstance(x, CRational):
            return x
        if isinstance(x, (int, Fraction)):
            return CRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to CRational")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (CRational, int, Fraction)):
            return NotImplemented
        other = CRational.coerce(other)
        return CRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (CRational, int, Fraction)):
            return NotImplemented
        other = CRational.coerce(other)
        return CRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return CRational.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (CRational, int, Fraction)):
            return NotImplemented
        other = CRational.coerce(other)
        return CRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    def inverse(self) -> "CRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero complex rational")
        return CRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * CRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return CRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        try:
            other = CRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction (and int), so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- conversion ---------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        """Canonical text form ``a/b+c/d*i`` (either part omitted when zero)."""
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.im)}*i")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CRational({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "CRational":
        """Inverse of ``str``: accepts ``a/b``, ``c/d*i`` and ``a/b+c/d*i``,
        where ``c/d*i`` may also be written ``c/di`` or, for c/d = 1, ``i``.
        Anything else, such as ``*i`` or ``1+2``, raises ValueError."""
        s = text.strip().replace(" ", "")
        # split at a +/- that is not the leading sign
        for k in range(len(s) - 1, 0, -1):
            if s[k] in "+-" and s[k - 1] not in "+-/*":
                parts = (s[:k], s[k:])
                break
        else:
            parts = (s,)
        re = im = None
        for part in parts:
            if not part.endswith("i"):
                if re is not None:
                    raise ValueError(f"two real parts in {text!r}")
                re = Fraction(part)
                continue
            if im is not None:
                raise ValueError(f"two imaginary parts in {text!r}")
            if part.endswith("*i"):
                im = Fraction(part[:-2])  # an empty or sign-only coefficient raises
            else:
                body = part[:-1]
                im = Fraction(body + "1" if body in ("", "+", "-") else body)
        return CRational(re or 0, im or 0)


CR_ZERO = CRational(0)
CR_ONE = CRational(1)
CR_I = CRational(0, 1)
