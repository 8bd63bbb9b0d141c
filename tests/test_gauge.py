from fractions import Fraction

from h5twistor import ansatz, gauge
from h5twistor.exactalg import CRational, MatRF, MultiPoly, RationalFunction
from h5twistor.heisenberg import CTX5, FieldId


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
