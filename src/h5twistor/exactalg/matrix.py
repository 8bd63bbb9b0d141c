"""Matrices over rational functions (or any exact field with the same API)."""

from __future__ import annotations

from typing import Callable, Sequence

from .poly import Context
from .rational import RationalFunction


class SingularMatrixError(ZeroDivisionError):
    pass


class MatRF:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalFunction]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))

    def __setattr__(self, name, value):
        raise AttributeError("MatRF is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int, ctx: Context) -> "MatRF":
        one = RationalFunction.one(ctx)
        zero = RationalFunction.zero(ctx)
        return MatRF([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int, ctx: Context) -> "MatRF":
        zero = RationalFunction.zero(ctx)
        return MatRF([[zero] * cols for _ in range(rows)])

    # -- accessors -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def ctx(self) -> Context:
        return self.entries[0][0].ctx

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    # -- algebra ---------------------------------------------------------------

    def _check_shape(self, other: "MatRF"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def __add__(self, other: "MatRF") -> "MatRF":
        self._check_shape(other)
        return MatRF(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "MatRF") -> "MatRF":
        self._check_shape(other)
        return MatRF(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "MatRF":
        return self.map(lambda e: -e)

    def __matmul__(self, other: "MatRF") -> "MatRF":
        if self.cols != other.rows:
            raise ValueError("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return MatRF(out)

    def scale(self, c: RationalFunction) -> "MatRF":
        return self.map(lambda e: e * c)

    def apply_derivation(self, rows) -> "MatRF":
        """Each entry under the derivation with ``(x, c)`` rows.  D(q) and q^2
        are computed once per distinct denominator q, and a zero entry is
        returned as it is."""
        shared = {}
        return self.map(lambda e: e if e.is_zero() else e.apply_derivation(rows, shared))

    def map(self, fn: Callable[[RationalFunction], RationalFunction]) -> "MatRF":
        return MatRF([[fn(e) for e in row] for row in self.entries])

    def transpose(self) -> "MatRF":
        return MatRF([[self.entries[j][i] for j in range(self.rows)] for i in range(self.cols)])

    def commutator(self, other: "MatRF") -> "MatRF":
        if self.rows == self.cols == 2:
            # [[a, b], [c, d]] with [[e, f], [g, h]]: 6 products, not 16;
            # the unpacking rejects an ``other`` that is not 2x2
            (a, b), (c, d) = self.entries
            (e, f), (g, h) = other.entries
            a_d, e_h = a - d, e - h
            c00 = b * g - c * f
            return MatRF([[c00, a_d * f - b * e_h], [c * e_h - a_d * g, -c00]])
        return self @ other - other @ self

    def __eq__(self, other):
        if not isinstance(other, MatRF):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash(self.entries)

    # -- determinant / inverse ----------------------------------------------------

    def det(self) -> RationalFunction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self.entries[0][0]
        if n == 2:
            (a, b), (c, d) = self.entries
            return a * d - b * c
        # Gaussian elimination over the exact field
        m = [list(r) for r in self.entries]
        det = RationalFunction.one(self.ctx)
        for col in range(n):
            pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if pivot is None:
                return RationalFunction.zero(self.ctx)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det = det * m[col][col]
            inv = RationalFunction.one(self.ctx) / m[col][col]
            for r in range(col + 1, n):
                if m[r][col].is_zero():
                    continue
                factor = m[r][col] * inv
                m[r] = [e - factor * p for e, p in zip(m[r], m[col])]
        return det

    def inverse(self) -> "MatRF":
        """Exact inverse: self @ inverse == identity.  Raises on singular input."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        ctx = self.ctx
        if n == 2:
            (a, b), (c, d) = self.entries
            det = a * d - b * c
            if det.is_zero():
                raise SingularMatrixError("singular 2x2 matrix")
            return MatRF([[d / det, -b / det], [-c / det, a / det]])
        # Gauss-Jordan with an augmented identity
        m = [list(r) + list(MatRF.identity(n, ctx).entries[i]) for i, r in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if pivot is None:
                raise SingularMatrixError("singular matrix")
            m[col], m[pivot] = m[pivot], m[col]
            inv = RationalFunction.one(ctx) / m[col][col]
            m[col] = [e * inv for e in m[col]]
            for r in range(n):
                if r == col or m[r][col].is_zero():
                    continue
                factor = m[r][col]
                m[r] = [e - factor * p for e, p in zip(m[r], m[col])]
        return MatRF([row[n:] for row in m])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"

    __repr__ = __str__
