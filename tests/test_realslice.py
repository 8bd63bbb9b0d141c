import itertools
from fractions import Fraction

import pytest

from h5twistor import ansatz, checks, cli, heisenberg, realslice as R
from h5twistor.exactalg import CR_I, CRational, MatRF, MultiPoly, RationalFunction, make_context
from h5twistor.heisenberg import FieldId


def rv(name):
    return RationalFunction.var(R.RCTX, name)


def dy(k):
    return R.RealForm.covector(R.RCTX, k)


class TestEmbedding:
    def test_embed_golden(self):
        p = R.RealPoint(
            CRational(1), CRational(2), CRational(3), CRational(4), CRational(5)
        )
        g = R.embed(p)
        assert g.y00p == CRational(Fraction(1), Fraction(2))
        assert g.y10p == CRational(Fraction(3), Fraction(4))
        assert g.y01p == CRational(Fraction(-3), Fraction(4))
        assert g.y11p == CRational(Fraction(1), Fraction(-2))
        assert g.t == CRational(Fraction(0), Fraction(-5))

    def test_group_mul_compatible(self):
        a = R.RealPoint(*(CRational(k) for k in (1, 0, 2, -1, 3)))
        b = R.RealPoint(*(CRational(k) for k in (0, 1, -2, 1, -1)))
        lhs = R.embed(R.real_group_mul(a, b))
        rhs = heisenberg.group_mul(R.embed(a), R.embed(b))
        assert lhs == rhs

    def test_field_consistency(self):
        f = heisenberg.phi_inst()
        for fid in FieldId:
            lhs = R.real_field(fid, R.pullback(f))
            rhs = R.pullback(heisenberg.apply_field(fid, f))
            assert lhs == rhs, fid


class TestRealFields:
    # each real field on each real coordinate function: reference values
    # checked by hand, which the derivation through the embedding must give
    COORDINATE_GOLDENS = {
        FieldId.V00: ("1/2", "-1/2*i", "0", "0", "-1*i*y1 + -1*y2"),
        FieldId.V10: ("0", "0", "1/2", "-1/2*i", "1*i*y3 + y4"),
        FieldId.V01: ("0", "0", "-1/2", "-1/2*i", "1*i*y3 + -1*y4"),
        FieldId.V11: ("1/2", "1/2*i", "0", "0", "1*i*y1 + -1*y2"),
        FieldId.T: ("0", "0", "0", "0", "1*i"),
    }

    @pytest.mark.parametrize("fid", list(FieldId), ids=lambda f: f.name)
    def test_derived_fields_golden(self, fid):
        for name, want in zip(R.RVARS, self.COORDINATE_GOLDENS[fid]):
            got = R.real_field(fid, rv(name))
            assert got == cli.parse_expression(want, R.RCTX), (fid, name)
            assert str(got) == want

    def test_fields_are_their_rows(self):
        """real_field and x_field are sum c * d/dx over their polynomial rows,
        each d/dx by the quotient rule on the polynomial derivatives."""
        f = R.phi_real() * (rv("y1") * rv("s") + rv("y3") ** 2)
        p, q = f.num, f.den

        def by_rows(rows):
            assert all(isinstance(c, MultiPoly) for _, c in rows)
            num = sum(
                (c * (p.derivative(x) * q - p * q.derivative(x)) for x, c in rows),
                MultiPoly.zero(R.RCTX),
            )
            return RationalFunction(num, q * q)

        for fid in FieldId:
            assert R.real_field(fid, f) == by_rows(R._real_field_table(R.RCTX)[fid]), fid
        for k in range(1, 5):
            assert R.x_field(k, f) == by_rows(R._x_field_table(R.RCTX)[k]), k

    def test_sub_laplacian_goldens(self):
        assert R.real_sub_laplacian(rv("y1") * rv("y1")) == RationalFunction.const(
            R.RCTX, CRational(Fraction(1, 2))
        )
        assert R.real_sub_laplacian(rv("s")).is_zero()

    def test_x_field_bracket_golden(self):
        lhs = R.x_field(1, R.x_field(2, rv("s"))) - R.x_field(2, R.x_field(1, rv("s")))
        assert lhs == RationalFunction.const(R.RCTX, 1)

    def test_x_fields_horizontal(self):
        theta = R.coframe()["theta"]
        for k in range(1, 5):
            components = [R.x_field(k, rv(name)) for name in R.RVARS]
            assert theta.contract(components).is_zero(), k

    def test_x_fields_left_invariant(self):
        g = R.RealPoint(*(MultiPoly.const(R.RCTX, CRational(c)) for c in (1, -2, 3, 1, 5)))
        x = R.RealPoint(*(MultiPoly.var(R.RCTX, name) for name in R.RVARS))
        sub = dict(zip(R.RVARS, R.real_group_mul(g, x).coords()))
        f = rv("y1") * rv("s") + rv("y2") ** 2 * rv("y4")
        for k in range(1, 5):
            assert R.x_field(k, f).substitute(sub) == R.x_field(k, f.substitute(sub)), k

    def test_sub_laplacian_pulls_back(self):
        y = {name: RationalFunction.var(heisenberg.CTX5, name) for name in heisenberg.COMPLEX_VARS}
        f = y["y00p"] ** 2 * y["t"] + y["y10p"] * y["y11p"] * y["t"]
        assert R.real_sub_laplacian(R.pullback(f)) == R.pullback(heisenberg.sub_laplacian(f))

    def test_sum_of_squares(self):
        f = rv("y1") ** 2 * rv("y3") + rv("s") * rv("y2")
        total = RationalFunction.zero(R.RCTX)
        for k in range(1, 5):
            total = total + R.x_field(k, R.x_field(k, f))
        assert total == R.real_sub_laplacian(f)

    def test_phi_real_harmonic(self):
        assert R.real_sub_laplacian(R.phi_real()).is_zero()

    PHI_REAL = (
        "(1) / (y1^4 + 2*y1^2*y2^2 + 2*y1^2*y3^2 + 2*y1^2*y4^2 + y2^4 + 2*y2^2*y3^2"
        " + 2*y2^2*y4^2 + y3^4 + 2*y3^2*y4^2 + y4^4 + s^2)"
    )

    def test_phi_real_text(self):
        # 1/(|x|^4 + s^2) in expanded form, whichever way phi_real builds it
        assert str(R.phi_real()) == self.PHI_REAL
        assert str(R.phi_real(make_context(*R.RVARS, "zeta"))) == self.PHI_REAL


class TestForms:
    def test_wedge_antisymmetry(self):
        assert (dy(0).wedge(dy(1)) + dy(1).wedge(dy(0))).is_zero()
        assert dy(2).wedge(dy(2)).is_zero()

    def test_d_squared_zero(self):
        f = R.RealForm.function(rv("y1") * rv("s") + rv("y3") ** 2)
        assert f.d().d().is_zero()

    def test_hodge_goldens(self):
        assert dy(0).wedge(dy(1)).hodge_star() == dy(2).wedge(dy(3)).wedge(dy(4))
        assert dy(0).wedge(dy(2)).hodge_star() == dy(1).wedge(dy(3)).wedge(dy(4)).scale(
            CRational(-1)
        )

    def test_hodge_star_signs(self):
        # every basis monomial, against a brute-force inversion count
        one = RationalFunction.one(R.RCTX)
        n = R.N_COVECTORS
        for degree in range(n + 1):
            for idx in itertools.combinations(range(n), degree):
                comp = tuple(k for k in range(n) if k not in idx)
                perm = idx + comp
                inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
                want = R.RealForm(R.RCTX, n - degree, {comp: -one if inversions % 2 else one})
                assert R.RealForm(R.RCTX, degree, {idx: one}).hodge_star() == want, idx

    def test_contract_golden(self):
        omega = dy(0).wedge(dy(4))
        got = omega.contract(R.R_VECTOR)
        assert got == dy(0).scale(CRational(-1))

    def test_dtheta(self):
        assert R.dtheta_certificate()

    def test_theta_normalized(self):
        theta = R.coframe()["theta"]
        paired = theta.contract(R.T_VECTOR)
        one = R.RealForm.function(RationalFunction.one(R.RCTX))
        assert paired == one


class TestSplits:
    def test_hv_reconstructs(self):
        mixed = dy(0).wedge(dy(4)) + dy(1).wedge(dy(2)).scale(CRational(3))
        h, v = R.hv_split(mixed)
        assert h + v == mixed

    def test_hv_idempotent(self):
        mixed = dy(0).wedge(dy(4)) + dy(2).wedge(dy(3))
        h, v = R.hv_split(mixed)
        h2, v2 = R.hv_split(h)
        assert h2 == h and v2.is_zero()

    def test_eigenvalues(self):
        assert R.eigenvalue_certificate()

    def test_star_involution(self):
        assert R.star_involution_certificate()

    def test_s_basis_rank(self):
        assert R.s_basis_rank_certificate()

    def test_sd_asd_projection(self):
        basis = R.s_basis()
        for name in ("S00", "S01", "S11"):
            sd, asd = R.sd_asd_split(basis[name])
            assert sd.is_zero() and asd == basis[name]
        for name in ("S00p", "S01p", "S11p"):
            sd, asd = R.sd_asd_split(basis[name])
            assert asd.is_zero() and sd == basis[name]

    def test_expand_in_s_basis_roundtrip(self):
        basis = R.s_basis()
        omega = basis["S01"].scale(CRational(2)) + basis["S11p"].scale(CR_I)
        coeffs = R.expand_in_s_basis(omega)
        assert coeffs["S01"] == RationalFunction.const(R.RCTX, 2)
        assert coeffs["S11p"] == RationalFunction.const(R.RCTX, CR_I)
        assert coeffs["S00"].is_zero()


CONNECTIONS = {
    "t": lambda: ansatz.build_connection(ansatz.seed_catalog("t")),
    "lin:y00p": lambda: ansatz.build_connection(ansatz.seed_catalog("lin:y00p")),
    # not ASD, so F_H^+ is nonzero and a swapped projector shows
    "nonasd": checks._nonasd_example,
    "nonharmonic": checks._nonharmonic_example,
}


class TestCurvatureSplit:
    @pytest.mark.parametrize("name", list(CONNECTIONS))
    def test_two_paths_agree(self, name):
        rc = R.pullback_connection(CONNECTIONS[name]())
        fh, _ = R.real_curvature_split(rc)
        fh2 = R.real_curvature_split_projector(rc)
        assert all(a == b for a, b in zip(fh, fh2))

    @pytest.mark.parametrize("name", ["t", "inst"])
    def test_vertical_part_agrees_with_the_projector(self, name):
        """F_V, the formula path's F(f, T), gives the vertical part
        hv_split(F)[1] = sum_f F(f, T) theta^f ^ theta of the full
        curvature two-form."""
        rc = R.pullback_connection(ansatz.build_connection(ansatz.seed_catalog(name)))
        _, fv = R.real_curvature_split(rc)
        assert not all(m.is_zero() for m in fv.values())
        th = R.coframe(rc.ctx)
        curv = R.curvature_two_form(rc)
        for i in range(rc.rank):
            for j in range(rc.rank):
                want = R.RealForm(rc.ctx, 2, {})
                for f, m in fv.items():
                    want = want + th[f.value[1:]].wedge(th["theta"]).scale(m[i, j])
                assert R.hv_split(curv[i][j])[1] == want, (i, j)

    def test_projector_split_reuses_the_s_matrix(self, monkeypatch):
        rc = R.pullback_connection(ansatz.build_connection(ansatz.seed_catalog("t")))
        R.real_curvature_split_projector(rc)
        calls = []
        inverse = MatRF.inverse
        monkeypatch.setattr(MatRF, "inverse", lambda m: calls.append(m) or inverse(m))
        R.real_curvature_split_projector(rc)
        assert len(calls) == 0

    def test_instanton_contact(self):
        rc = R.pullback_connection(ansatz.build_connection(ansatz.seed_catalog("inst")))
        fh, _ = R.real_curvature_split(rc)
        assert all(m.is_zero() for m in fh)

    def test_asd_residuals_pull_back(self):
        from h5twistor import gauge

        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        rc = R.pullback_connection(conn)
        fh = R.real_curvature_split(rc)[0]
        r1, r2, r3 = gauge.asd_residuals(conn)
        half = CRational(Fraction(1, 2))
        assert fh[0] == r1.map(R.pullback)
        assert fh[1] == r2.map(R.pullback).scale(
            RationalFunction.const(R.RCTX, half)
        )
        assert fh[2] == r3.map(R.pullback)


class TestCertificates:
    def test_fiber_uniqueness(self):
        assert R.fiber_uniqueness_certificate()

    def test_real_eta(self):
        assert R.real_eta_certificate()
