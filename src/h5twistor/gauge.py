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

    When every nonzero entry of the blocks read (Phi_a, Phi_b, and Phi_T
    when [a, b] has a T part k T) is stored over one denominator q, q = 1
    included, as for most connections built from a seed (each entry is
    c V(phi)/phi), the numerator matrices N_X give the polynomial matrix

        q^2 F = q (a(N_b) - b(N_a) - k N_T) - a(q) N_b + b(q) N_a + [N_a, N_b]

    and each entry is divided by q^2 once.  Otherwise each operation is
    taken entrywise: a common multiple of the denominators costs more in
    products than it saves (R1 of gauge-swell's moved connections: 10-16
    ms per four moves over a common multiple, 9-10 ms entrywise, 2-vCPU Xeon).
    """
    pa, pb = conn.block(a), conn.block(b)
    k = bracket_table(a, b)
    pt = conn.block(FieldId.T) if k else None
    q = _one_denominator(conn.ctx, (pa, pb, pt) if k else (pa, pb))
    if q is not None:
        n = _numerator(conn, a, b, frame, q)
        return _over(n - _nums(pt).scale(q.scale(k)) if k else n, q)
    out = apply_field(a, pb, frame) - apply_field(b, pa, frame) + pa.commutator(pb)
    if k:
        out = out - pt.scale(RationalFunction.const(conn.ctx, k))
    return out


def _one_denominator(ctx: Context, blocks) -> MultiPoly | None:
    """The one denominator of the blocks' nonzero entries (1 when there are
    none), or None when they have more than one."""
    dens = [e.den for m in blocks for row in m.entries for e in row if not e.is_zero()]
    if not dens:
        return MultiPoly.one(ctx)
    return dens[0] if all(d == dens[0] for d in dens) else None


def _nums(m: MatRF) -> MatRF:
    return m.map(lambda e: e.num)


def _numerator(conn: ConnectionForm, a: FieldId, b: FieldId, frame, q: MultiPoly) -> MatRF:
    """q^2 (a(Phi_b) - b(Phi_a) + [Phi_a, Phi_b]) as a matrix of polynomials,
    for blocks over the one denominator q; ``frame`` as in ``curvature``."""
    na, nb = _nums(conn.block(a)), _nums(conn.block(b))
    return (
        (apply_field(a, nb, frame) - apply_field(b, na, frame)).scale(q)
        - nb.scale(apply_field(a, q, frame))
        + na.scale(apply_field(b, q, frame))
        + na.commutator(nb)
    )


def _over(n: MatRF, q: MultiPoly) -> MatRF:
    q2 = q * q
    return n.map(lambda e: RationalFunction(e, q2))


def asd_residuals(conn: ConnectionForm) -> Tuple[MatRF, MatRF, MatRF]:
    """The three matrix equations of anti-self-duality:

        R1 = F(V00, V10)
        R2 = F(V00, V11) + F(V01, V10)
        R3 = F(V01, V11)

    The central block cancels from R2 because the two bracket terms carry
    opposite structure constants.  When the four horizontal blocks share
    one denominator q, R2's two numerators are added before dividing.
    """
    v00, v10, v01, v11 = HORIZONTAL
    r1, r3 = curvature(conn, v00, v10), curvature(conn, v01, v11)
    q = _one_denominator(conn.ctx, (conn.phi00, conn.phi10, conn.phi01, conn.phi11))
    if q is None:
        return r1, curvature(conn, v00, v11) + curvature(conn, v01, v10), r3
    n = _numerator(conn, v00, v11, None, q) + _numerator(conn, v01, v10, None, q)
    return r1, _over(n, q), r3


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
