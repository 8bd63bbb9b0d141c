"""Connections, curvature, and the anti-self-duality residuals.

A connection is a matrix-valued potential with one block per left-invariant
direction.  Curvature pairs two directions through the structure constants,
and anti-self-duality collapses to three matrix residuals that also assemble
into a quadratic pencil in the loop parameter.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .exactalg import Context, MatRF, MultiPoly, RationalFunction, make_context
from .heisenberg import FieldId, apply_field, bracket_table

HORIZONTAL = (FieldId.V00, FieldId.V10, FieldId.V01, FieldId.V11)


class ConnectionForm(NamedTuple):
    """Potential blocks keyed by direction; phi_t may be omitted (zero)."""

    phi00: MatRF
    phi10: MatRF
    phi01: MatRF
    phi11: MatRF
    phi_t: MatRF | None = None

    @property
    def rank(self) -> int:
        return self.phi00.rows

    @property
    def ctx(self) -> Context:
        return self.phi00.ctx

    def block(self, field: FieldId) -> MatRF:
        if field is FieldId.T:
            return self.phi_t if self.phi_t is not None else MatRF.zeros(
                self.rank, self.rank, self.ctx
            )
        return {
            FieldId.V00: self.phi00,
            FieldId.V10: self.phi10,
            FieldId.V01: self.phi01,
            FieldId.V11: self.phi11,
        }[field]


def curvature(conn: ConnectionForm, a: FieldId, b: FieldId, frame=None) -> MatRF:
    """F(a, b) = a(Phi_b) - b(Phi_a) - Phi_[a,b] + [Phi_a, Phi_b].

    ``frame`` maps each field to its ``(coordinate, coefficient)`` rows:
    ``heisenberg.field_frame`` of the context when None, the real fields on
    the real slice.
    """
    pa, pb = conn.block(a), conn.block(b)
    out = apply_field(a, pb, frame) - apply_field(b, pa, frame) + pa.commutator(pb)
    k = bracket_table(a, b)
    if k:
        pt = conn.block(FieldId.T)
        out = out - pt.scale(RationalFunction.const(conn.ctx, k))
    return out


def asd_residuals(conn: ConnectionForm) -> Tuple[MatRF, MatRF, MatRF]:
    """The three matrix equations of anti-self-duality:

        R1 = F(V00, V10)
        R2 = F(V00, V11) + F(V01, V10)
        R3 = F(V01, V11)

    The central block cancels from R2 because the two bracket terms carry
    opposite structure constants.
    """
    r1 = curvature(conn, FieldId.V00, FieldId.V10)
    r2 = curvature(conn, FieldId.V00, FieldId.V11) + curvature(
        conn, FieldId.V01, FieldId.V10
    )
    r3 = curvature(conn, FieldId.V01, FieldId.V11)
    return r1, r2, r3


def is_asd(conn: ConnectionForm) -> bool:
    return all(r.is_zero() for r in asd_residuals(conn))


def zeta_flatness(conn: ConnectionForm) -> MatRF:
    """The quadratic pencil zeta^2*R1 - zeta*R2 + R3, over the connection's
    context extended by the loop parameter ``zeta``.

    The connection is anti-self-dual iff this vanishes identically in zeta,
    i.e. iff all three coefficients are zero.
    """
    ctx = conn.ctx
    ext = make_context(*ctx, "zeta")
    lift = {n: MultiPoly.var(ext, n) for n in ctx}
    zeta = RationalFunction.var(ext, "zeta")
    r1, r2, r3 = (r.map(lambda e: e.substitute(lift)) for r in asd_residuals(conn))
    return r1.scale(zeta * zeta) - r2.scale(zeta) + r3


def gauge_transform(conn: ConnectionForm, g: MatRF) -> ConnectionForm:
    """Transform the potential: Phi_X -> g^-1 Phi_X g + g^-1 (Xg) per
    direction; curvature then conjugates as F -> g^-1 F g."""
    ginv = g.inverse()

    def tr(field: FieldId, block: MatRF) -> MatRF:
        return ginv @ block @ g + ginv @ apply_field(field, g)

    return ConnectionForm(
        phi00=tr(FieldId.V00, conn.phi00),
        phi10=tr(FieldId.V10, conn.phi10),
        phi01=tr(FieldId.V01, conn.phi01),
        phi11=tr(FieldId.V11, conn.phi11),
        phi_t=tr(FieldId.T, conn.block(FieldId.T)),
    )
