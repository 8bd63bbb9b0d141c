from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from h5twistor import ansatz, gauge, realslice
from h5twistor.exactalg import CR_I, CRational, MatRF, MultiPoly, RationalFunction
from h5twistor.heisenberg import COMPLEX_VARS, CTX5, FieldId, apply_field, bracket_table


def rf(name):
    return RationalFunction.var(CTX5, name)


def rank1(phi00=None, phi10=None, phi01=None, phi11=None, phi_t=None):
    z = MatRF.zeros(1, 1, CTX5)

    def wrap(f):
        return z if f is None else MatRF([[f]])

    return gauge.ConnectionForm(
        phi00=wrap(phi00),
        phi10=wrap(phi10),
        phi01=wrap(phi01),
        phi11=wrap(phi11),
        phi_t=None if phi_t is None else MatRF([[phi_t]]),
    )


class TestCurvature:
    def test_antisymmetry(self):
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        for a in FieldId:
            for b in FieldId:
                assert gauge.curvature(conn, a, b) == -gauge.curvature(conn, b, a)

    def test_bracket_term_golden(self):
        # flat horizontal part, constant central part: F(V00, V11) = -2 phi_t
        conn = rank1(phi_t=RationalFunction.const(CTX5, 1))
        f = gauge.curvature(conn, FieldId.V00, FieldId.V11)
        assert f[0, 0] == RationalFunction.const(CTX5, -2)
        assert gauge.curvature(conn, FieldId.V00, FieldId.V10).is_zero()

    def test_nonasd_example(self):
        conn = rank1(phi00=rf("y10p"))
        r1, r2, r3 = gauge.asd_residuals(conn)
        assert r1[0, 0] == RationalFunction.const(CTX5, -1)
        assert r2.is_zero() and r3.is_zero()
        assert not gauge.is_asd(conn)

    def test_residuals_ignore_phi_t(self):
        base = ansatz.build_connection(ansatz.seed_catalog("t"))
        pt = MatRF(
            [
                [RationalFunction.const(CTX5, CRational(Fraction(2, 3))), rf("t") * 0],
                [rf("t") * 0, RationalFunction.const(CTX5, CRational(0, 1))],
            ]
        )
        moved = ansatz.build_connection(ansatz.seed_catalog("t"), phi_t=pt)
        assert gauge.asd_residuals(base) == gauge.asd_residuals(moved)

    def test_zeta_flatness_layout(self):
        # R1 = -1, R2 = 1, R3 = -1: every coefficient is pinned
        conn = rank1(phi00=rf("y10p"), phi01=rf("y11p"), phi11=rf("y00p"))
        pencil = gauge.zeta_flatness(conn)
        r1, r2, r3 = gauge.asd_residuals(conn)
        at_zero = {n: MultiPoly.var(CTX5, n) for n in CTX5}
        at_zero["zeta"] = MultiPoly.zero(CTX5)

        def dz(m):
            return m.map(lambda e: e.derivative("zeta"))

        def at0(m):
            return m.map(lambda e: e.substitute(at_zero))

        assert at0(dz(dz(pencil))) == r1.scale(RationalFunction.const(CTX5, 2))
        assert at0(dz(pencil)) == -r2
        assert at0(pencil) == r3
        assert not any(r.is_zero() for r in (r1, r2, r3))


def reference_curvature(conn, a, b, frame=None):
    """The entrywise formula, each operation normalized on its own, as
    ``gauge.curvature`` computes it for blocks over several denominators."""
    pa, pb = conn.block(a), conn.block(b)
    out = apply_field(a, pb, frame) - apply_field(b, pa, frame) + pa.commutator(pb)
    k = bracket_table(a, b)
    if k:
        out = out - conn.block(FieldId.T).scale(RationalFunction.const(conn.ctx, k))
    return out


def small_polys():
    """Polynomials of up to three terms, each the product of two variable
    powers and a Gaussian-integer coefficient."""
    var = st.sampled_from(COMPLEX_VARS)
    coeff = st.sampled_from([1, -1, 2, -3, CR_I, CRational(1, -2)])
    term = st.tuples(var, st.integers(0, 2), var, st.integers(0, 1), coeff)
    return st.lists(term, max_size=3).map(
        lambda ts: sum(
            (MultiPoly.var(CTX5, x) ** i * MultiPoly.var(CTX5, y) ** j * c for x, i, y, j, c in ts),
            MultiPoly.zero(CTX5),
        )
    )


@st.composite
def one_denominator_connections(draw):
    """A connection whose blocks are numerator matrices, zeros included,
    over one non-constant denominator q, with or without Phi_T."""
    x = MultiPoly.var(CTX5, draw(st.sampled_from(COMPLEX_VARS)))
    q = draw(small_polys()) + x + draw(st.integers(1, 3))
    assume(not q.is_constant())
    n = draw(st.sampled_from([1, 2]))
    entry = st.one_of(st.just(MultiPoly.zero(CTX5)), small_polys())

    def block():
        return MatRF(
            [[RationalFunction(draw(entry), q) for _ in range(n)] for _ in range(n)]
        )

    blocks = [block() for _ in range(4)]
    phi_t = block() if draw(st.booleans()) else None
    return gauge.ConnectionForm(*blocks, phi_t=phi_t)


def all_blocks(conn):
    return [conn.block(f) for f in FieldId]


class TestOneDenominator:
    """The one-denominator path agrees with the entrywise reference."""

    @given(one_denominator_connections(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_entrywise_formula(self, conn, second_den):
        ctx = conn.ctx
        if second_den:
            # one entry over another denominator: the entrywise path
            e = conn.phi00[0, 0]
            num = MultiPoly.one(ctx) if e.is_zero() else e.num
            moved = [list(r) for r in conn.phi00.entries]
            moved[0][0] = RationalFunction(num, e.den + MultiPoly.var(ctx, "y00p"))
            conn = conn._replace(phi00=MatRF(moved))
        one = gauge._one_denominator(ctx, all_blocks(conn))
        assume(second_den == (one is None))
        for a in FieldId:
            for b in FieldId:
                assert gauge.curvature(conn, a, b) == reference_curvature(conn, a, b), (a, b)
        v00, v10, v01, v11 = gauge.HORIZONTAL
        r1, r2, r3 = gauge.asd_residuals(conn)
        assert r1 == reference_curvature(conn, v00, v10)
        assert r2 == reference_curvature(conn, v00, v11) + reference_curvature(conn, v01, v10)
        assert r3 == reference_curvature(conn, v01, v11)

    @given(one_denominator_connections())
    @settings(max_examples=20, deadline=None)
    def test_agrees_on_the_real_frame(self, conn):
        rc = realslice.pullback_connection(conn)
        assume(gauge._one_denominator(rc.ctx, all_blocks(rc)) is not None)
        frame = realslice._real_field_table(rc.ctx)
        for a in FieldId:
            for b in FieldId:
                want = reference_curvature(rc, a, b, frame)
                assert gauge.curvature(rc, a, b, frame) == want, (a, b)

    def test_path_choice(self):
        q = RationalFunction.var(CTX5, "t") + 1
        over_q = rank1(phi00=rf("y10p") / q, phi11=rf("y00p") / q, phi_t=1 / q)
        assert gauge._one_denominator(CTX5, all_blocks(over_q)) == q.num
        assert gauge._one_denominator(CTX5, all_blocks(rank1())) == MultiPoly.one(CTX5)
        two = rank1(phi00=rf("y10p") / q, phi11=1 / rf("t"))
        assert gauge._one_denominator(CTX5, all_blocks(two)) is None


class TestCost:
    def test_asd_residuals_constructions(self, monkeypatch):
        """The residuals of the instanton make at most 150 rational functions
        (384 with three quotient rules and a sum per field application)."""
        conn = ansatz.build_connection(ansatz.seed_catalog("inst"))
        made = []
        init = RationalFunction.__init__

        def counting(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(RationalFunction, "__init__", counting)
        assert gauge.is_asd(conn)
        assert len(made) <= 150


class TestGaugeTransform:
    def g(self):
        one = RationalFunction.one(CTX5)
        zero = RationalFunction.zero(CTX5)
        return MatRF([[one, rf("t") * rf("y00p")], [zero, one]])

    def test_curvature_conjugates(self):
        conn = ansatz.build_connection(ansatz.seed_catalog("lin:y00p"))
        g = self.g()
        ginv = g.inverse()
        moved = gauge.gauge_transform(conn, g)
        for a, b in [(FieldId.V00, FieldId.V10), (FieldId.V01, FieldId.V11)]:
            assert gauge.curvature(moved, a, b) == ginv @ gauge.curvature(conn, a, b) @ g

    def test_preserves_asd(self):
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        assert gauge.is_asd(gauge.gauge_transform(conn, self.g()))

    def test_identity_gauge_is_noop(self):
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        moved = gauge.gauge_transform(conn, MatRF.identity(2, CTX5))
        for fid in FieldId:
            assert moved.block(fid) == conn.block(fid)

    def test_composition(self):
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        one = RationalFunction.one(CTX5)
        zero = RationalFunction.zero(CTX5)
        g1 = self.g()
        g2 = MatRF([[one + rf("y10p") ** 2, zero], [rf("y01p"), one]])
        once = gauge.gauge_transform(gauge.gauge_transform(conn, g1), g2)
        both = gauge.gauge_transform(conn, g1 @ g2)
        for fid in FieldId:
            assert once.block(fid) == both.block(fid)
