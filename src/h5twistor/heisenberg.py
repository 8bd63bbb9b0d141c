"""The 5D complex Heisenberg group.

Coordinates are fixed in the order (y00p, y10p, y01p, y11p, t) everywhere.
The group law twists the central coordinate by the antisymmetric pairing

    B(y, y') = y00p*y'11p - y01p*y'10p + y10p*y'01p - y11p*y'00p,

and the five left-invariant vector fields are first-order operators whose
only non-constant coefficients sit in front of d/dt.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from .exactalg import (
    Context,
    ContextError,
    CRational,
    MultiPoly,
    RationalFunction,
    make_context,
)

Y00, Y10, Y01, Y11, TVAR = "y00p", "y10p", "y01p", "y11p", "t"
COMPLEX_VARS = (Y00, Y10, Y01, Y11, TVAR)
CTX5: Context = make_context(*COMPLEX_VARS)


def point_eq(self, other) -> bool:
    """``==`` of the point types: the same type and equal coordinates, so a
    point never equals a plain tuple or a point of another type."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def point_ne(self, other) -> bool:
    return not point_eq(self, other)


class GroupPoint(NamedTuple):
    """A point of C^5; coordinates may be exact, float-complex, or symbolic."""

    y00p: object
    y10p: object
    y01p: object
    y11p: object
    t: object

    __eq__, __ne__, __hash__ = point_eq, point_ne, tuple.__hash__

    @staticmethod
    def origin(zero=None) -> "GroupPoint":
        z = CRational(0) if zero is None else zero
        return GroupPoint(z, z, z, z, z)

    def coords(self):
        return (self.y00p, self.y10p, self.y01p, self.y11p, self.t)

    def to_json(self) -> str:
        return json.dumps(
            {k: str(v) for k, v in zip(COMPLEX_VARS, self.coords())},
            sort_keys=False,
        )

    @staticmethod
    def from_json(text: str) -> "GroupPoint":
        data = json.loads(text)
        return GroupPoint(*(CRational.parse(data[k]) for k in COMPLEX_VARS))


def pairing_b(a: GroupPoint, b: GroupPoint):
    """The antisymmetric central pairing of the group law."""
    return a.y00p * b.y11p - a.y01p * b.y10p + a.y10p * b.y01p - a.y11p * b.y00p


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    return GroupPoint(
        a.y00p + b.y00p,
        a.y10p + b.y10p,
        a.y01p + b.y01p,
        a.y11p + b.y11p,
        a.t + b.t + pairing_b(a, b),
    )


def group_inverse(a: GroupPoint) -> GroupPoint:
    return GroupPoint(-a.y00p, -a.y10p, -a.y01p, -a.y11p, -a.t)


def dilation(a: GroupPoint, r) -> GroupPoint:
    return GroupPoint(r * a.y00p, r * a.y10p, r * a.y01p, r * a.y11p, r * r * a.t)


class FieldId(Enum):
    """The five left-invariant vector fields."""

    V00 = Y00
    V10 = Y10
    V01 = Y01
    V11 = Y11
    T = TVAR


# The one table of the left-invariant fields: V_AA' = d/dy_AA' + c * d/dt
# with c = sign * coordinate, and T = d/dt.
T_COEFF = {
    FieldId.V00: (Y11, -1),
    FieldId.V01: (Y10, +1),
    FieldId.V10: (Y01, -1),
    FieldId.V11: (Y00, +1),
}


@lru_cache(maxsize=None)
def field_frame(ctx: Context) -> Dict[FieldId, Tuple[Tuple[str, MultiPoly], ...]]:
    """The ``(coordinate, coefficient)`` rows of each field, from ``T_COEFF``."""
    for name in COMPLEX_VARS:
        if name not in ctx:
            raise ContextError(f"context {ctx} lacks group coordinate {name!r}")
    frame = {}
    for field in FieldId:
        rows = ((field.value, MultiPoly.one(ctx)),)
        if field is not FieldId.T:
            coord_name, sign = T_COEFF[field]
            rows += ((TVAR, MultiPoly.var(ctx, coord_name).scale(sign)),)
        frame[field] = rows
    return frame


def apply_field(field: FieldId, f, frame=None):
    """Apply a left-invariant vector field to a MultiPoly, a RationalFunction
    or, entrywise, a MatRF, as one derivation over the field's rows in
    ``frame``: ``field_frame`` of f's context when None.

    Works in any context containing the five group coordinates, so symbolic
    parameters (loop parameter, free coefficients) ride along untouched; the
    d/dt coefficients are polynomial, so polynomials map to polynomials.
    """
    return f.apply_derivation((field_frame(f.ctx) if frame is None else frame)[field])


def bracket_table(a: FieldId, b: FieldId) -> int:
    """Coefficient of T in [a, b]; the only nonzero brackets are
    [V00,V11] = [V10,V01] = 2T."""
    plus = {(FieldId.V00, FieldId.V11), (FieldId.V10, FieldId.V01)}
    if (a, b) in plus:
        return 2
    if (b, a) in plus:
        return -2
    return 0


def sub_laplacian(f: RationalFunction) -> RationalFunction:
    """V00 V11 - V10 V01 applied exactly."""
    return apply_field(FieldId.V00, apply_field(FieldId.V11, f)) - apply_field(
        FieldId.V10, apply_field(FieldId.V01, f)
    )


def left_translation(g: GroupPoint, ctx: Context | None = None) -> Dict[str, MultiPoly]:
    """The pullback substitution of left translation by g.

    g must have exact coordinates; the result maps each coordinate function
    to its composition with x -> g o x, as polynomials.
    """
    ctx = ctx or CTX5
    gx = GroupPoint(*(MultiPoly.const(ctx, CRational.coerce(c)) for c in g.coords()))
    x = GroupPoint(*(MultiPoly.var(ctx, n) for n in COMPLEX_VARS))
    return dict(zip(COMPLEX_VARS, group_mul(gx, x).coords()))


def norm_sq(ctx: Context = CTX5) -> MultiPoly:
    """det of the coordinate matrix: y00p*y11p - y10p*y01p."""
    v = {n: MultiPoly.var(ctx, n) for n in COMPLEX_VARS}
    return v[Y00] * v[Y11] - v[Y10] * v[Y01]


def phi_inst(ctx: Context = CTX5) -> RationalFunction:
    """The fundamental harmonic seed 1 / (norm^4 - t^2)."""
    n2 = norm_sq(ctx)
    tpol = MultiPoly.var(ctx, TVAR)
    return RationalFunction(MultiPoly.one(ctx), n2 * n2 - tpol * tpol)
