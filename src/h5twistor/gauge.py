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

    The blocks read are Phi_a, Phi_b, and Phi_T when [a, b] has a T part
    k T.  Let q be the denominator of highest total degree among their
    nonzero entries (1 when there are none).  When every other
    denominator d divides q exactly, as for connections built from a seed
    (each entry is c V(phi)/phi, one q) and for the benchmark's gauge
    moves of the t-seed (t, t + s, ..., all dividing t (t+s)^3), each
    entry is lifted to q by its cofactor q/d, and the numerator matrices
    N_X give the polynomial matrix

        q^2 F = q (a(N_b) - b(N_a) - k N_T) - a(q) N_b + b(q) N_a + [N_a, N_b]

    whose entries are each divided by q^2 once.  Otherwise each operation
    is taken entrywise, normalized on its own.
    """
    pa, pb = conn.block(a), conn.block(b)
    k = bracket_table(a, b)
    pt = conn.block(FieldId.T) if k else None
    common = _common_denominator(conn.ctx, (pa, pb, pt) if k else (pa, pb))
    if common is not None:
        q, cof = common
        dq = {f: apply_field(f, q, frame) for f in (a, b)}
        return _over(_numerator(conn, a, b, frame, q, cof, dq, k, pt), q * q)
    out = apply_field(a, pb, frame) - apply_field(b, pa, frame) + pa.commutator(pb)
    if k:
        out = out - pt.scale(RationalFunction.const(conn.ctx, k))
    return out


def _common_denominator(ctx: Context, blocks) -> Tuple[MultiPoly, dict] | None:
    """``(q, cofactors)``: q is the blocks' nonzero entries' denominator of
    highest total degree (1 when there are none), and ``cofactors`` maps
    each other denominator d to q / d.  None when some d does not divide q."""
    dens = []
    for m in blocks:
        for row in m.entries:
            for e in row:
                if not (e.is_zero() or e.den in dens):
                    dens.append(e.den)
    if not dens:
        return MultiPoly.one(ctx), {}
    q = max(dens, key=MultiPoly.total_degree) if len(dens) > 1 else dens[0]
    cof = {}
    for d in dens:
        if d is not q:
            cof[d] = q.try_div(d)
            if cof[d] is None:
                return None
    return q, cof


def _nums(m: MatRF, cof) -> MatRF:
    """The numerators of m's entries over the common denominator: each
    lifted by its cofactor in ``cof``, or as stored when its denominator is q."""
    if not cof:
        return m.map(lambda e: e.num)
    return m.map(lambda e: e.num * cof[e.den] if e.den in cof else e.num)


def _numerator(conn: ConnectionForm, a: FieldId, b: FieldId, frame, q: MultiPoly, cof, dq, k=0, pt=None):
    """The ``MultiPoly.dot`` triples of each entry of q^2 (a(Phi_b) - b(Phi_a)
    - k Phi_T + [Phi_a, Phi_b]), for blocks over the common denominator q
    with ``cof`` from ``_common_denominator``; ``frame`` as in ``curvature``,
    ``dq`` maps a field X to X(q), and ``pt`` is Phi_T when k is nonzero.
    Fields are applied once per numerator matrix."""
    na, nb = _nums(conn.block(a), cof), _nums(conn.block(b), cof)
    anb, bna = apply_field(a, nb, frame).entries, apply_field(b, na, frame).entries
    nt = _nums(pt, cof).entries if k else None
    comm = _commutator(na.entries, nb.entries)
    n = range(na.rows)
    return [
        [
            [(1, q, anb[i][j]), (-1, q, bna[i][j]), (-1, nb[i, j], dq[a]), (1, na[i, j], dq[b])]
            + comm[i][j]
            + ([(-k, q, nt[i][j])] if k else [])
            for j in n
        ]
        for i in n
    ]


def _commutator(x, y):
    """The ``MultiPoly.dot`` triples of each entry of [x, y]; for 2x2, in
    the a - d and e - h form of ``MatRF.commutator``, with b g - c f formed
    once for both diagonal entries."""
    if len(x) == 2:
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        a_d, e_h = a - d, e - h
        c00 = MultiPoly.dot(a.ctx, ((1, b, g), (-1, c, f)))
        one = MultiPoly.one(a.ctx)
        return [
            [[(1, c00, one)], [(1, a_d, f), (-1, b, e_h)]],
            [[(1, c, e_h), (-1, a_d, g)], [(-1, c00, one)]],
        ]
    n = range(len(x))
    return [[[t for k in n for t in ((1, x[i][k], y[k][j]), (-1, y[i][k], x[k][j]))] for j in n] for i in n]


def _over(n, q2: MultiPoly) -> MatRF:
    """Each entry's triples summed by one ``MultiPoly.dot``, over q^2."""
    return MatRF([[RationalFunction(MultiPoly.dot(q2.ctx, t), q2) for t in row] for row in n])


def asd_residuals(conn: ConnectionForm) -> Tuple[MatRF, MatRF, MatRF]:
    """The three matrix equations of anti-self-duality:

        R1 = F(V00, V10)
        R2 = F(V00, V11) + F(V01, V10)
        R3 = F(V01, V11)

    The central block cancels from R2 because the two bracket terms carry
    opposite structure constants.  When the four horizontal blocks share
    one denominator q, each field is applied to q once, q^2 is formed once,
    and R2's two numerators are summed in one ``MultiPoly.dot`` per entry;
    as in ``curvature``, that one denominator is the one of highest degree
    when every other denominator divides it.
    """
    v00, v10, v01, v11 = HORIZONTAL
    common = _common_denominator(conn.ctx, (conn.phi00, conn.phi10, conn.phi01, conn.phi11))
    if common is None:
        r1, r3 = curvature(conn, v00, v10), curvature(conn, v01, v11)
        return r1, curvature(conn, v00, v11) + curvature(conn, v01, v10), r3
    q, cof = common
    dq = {f: apply_field(f, q) for f in HORIZONTAL}
    pairs = ((v00, v10), (v00, v11), (v01, v10), (v01, v11))
    r1, r2a, r2b, r3 = (_numerator(conn, a, b, None, q, cof, dq) for a, b in pairs)
    q2 = q * q
    r2 = [[s + t for s, t in zip(*rows)] for rows in zip(r2a, r2b)]
    return _over(r1, q2), _over(r2, q2), _over(r3, q2)


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


def gauge_transform(conn: ConnectionForm, g: MatRF, frame=None) -> ConnectionForm:
    """Transform the potential: Phi_X -> g^-1 Phi_X g + g^-1 X(g) per
    direction, computed as g^-1 (Phi_X g + X(g)) with g^-1 formed once, so
    Phi_X g and X(g) cancel before anything is multiplied by g^-1: two
    matrix products per block, not three.  Curvature then conjugates as
    F -> g^-1 F g.  ``frame`` gives the fields' rows, as in ``curvature``."""
    ginv = g.inverse()

    def tr(field: FieldId, block: MatRF) -> MatRF:
        return ginv @ (block @ g + apply_field(field, g, frame))

    return ConnectionForm(
        phi00=tr(FieldId.V00, conn.phi00),
        phi10=tr(FieldId.V10, conn.phi10),
        phi01=tr(FieldId.V01, conn.phi01),
        phi11=tr(FieldId.V11, conn.phi11),
        phi_t=tr(FieldId.T, conn.block(FieldId.T)),
    )
