import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h5twistor.exactalg import CRational, MultiPoly, RationalFunction, make_context
from h5twistor import heisenberg as H
from h5twistor.heisenberg import CTX5, FieldId, GroupPoint


def crationals():
    fr = st.fractions(min_value=-10, max_value=10, max_denominator=8)
    return st.builds(CRational, fr, fr)


def points():
    return st.builds(GroupPoint, *(crationals() for _ in range(5)))


def rf(name):
    return RationalFunction.var(CTX5, name)


def generic_quadratic():
    """Quadratic in the group coordinates with 15 free symbolic coefficients."""
    names = tuple(f"c{k}" for k in range(15))
    ctx = make_context(*(H.COMPLEX_VARS + names))
    vs = [MultiPoly.var(ctx, n) for n in H.COMPLEX_VARS]
    quad = MultiPoly.zero(ctx)
    k = 0
    for i in range(5):
        for j in range(i, 5):
            quad = quad + MultiPoly.var(ctx, names[k]) * vs[i] * vs[j]
            k += 1
    return RationalFunction(quad)


def group_rfs():
    """Small rational functions p/q in the five group coordinates."""
    term = st.tuples(st.lists(st.integers(0, 2), min_size=5, max_size=5), crationals())

    def poly(ts):
        out = MultiPoly.zero(CTX5)
        for exps, c in ts:
            mono = MultiPoly.const(CTX5, c)
            for name, k in zip(H.COMPLEX_VARS, exps):
                mono = mono * MultiPoly.var(CTX5, name) ** k
            out = out + mono
        return out

    polys = st.lists(term, max_size=3).map(poly)
    return st.tuples(polys, polys.filter(lambda q: not q.is_zero())).map(
        lambda pq: RationalFunction(*pq)
    )


def quotient_rule(f, name):
    """d f / d name as (p'q - pq') / q^2, from the polynomial derivatives."""
    p, q = f.num, f.den
    return RationalFunction(p.derivative(name) * q - p * q.derivative(name), q * q)


class TestGroupLaw:
    def test_central_twist_golden(self):
        e00 = GroupPoint(CRational(1), CRational(0), CRational(0), CRational(0), CRational(0))
        e11 = GroupPoint(CRational(0), CRational(0), CRational(0), CRational(1), CRational(0))
        assert H.group_mul(e00, e11).t == CRational(1)
        assert H.group_mul(e11, e00).t == CRational(-1)

    @given(points(), points(), points())
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        lhs = H.group_mul(H.group_mul(a, b), c)
        rhs = H.group_mul(a, H.group_mul(b, c))
        assert lhs == rhs

    @given(points())
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a):
        assert H.group_mul(a, H.group_inverse(a)) == GroupPoint.origin()

    @given(points(), points())
    @settings(max_examples=30, deadline=None)
    def test_pairing_antisymmetric(self, a, b):
        assert H.pairing_b(a, b) == -H.pairing_b(b, a)

    def test_dilation_weights(self):
        p = GroupPoint(*(CRational(k) for k in (1, 2, 3, 4, 5)))
        r = CRational(Fraction(3))
        q = H.dilation(p, r)
        assert q.y00p == CRational(3) and q.t == CRational(45)

    @given(points(), points())
    @settings(max_examples=20, deadline=None)
    def test_dilation_automorphism(self, a, b):
        r = CRational(Fraction(2))
        lhs = H.dilation(H.group_mul(a, b), r)
        rhs = H.group_mul(H.dilation(a, r), H.dilation(b, r))
        assert lhs == rhs

    def test_json_roundtrip(self):
        p = GroupPoint(
            CRational(Fraction(1, 2)),
            CRational(0, 1),
            CRational(Fraction(-3)),
            CRational(Fraction(2, 7), Fraction(1, 3)),
            CRational(5),
        )
        assert GroupPoint.from_json(p.to_json()) == p
        assert set(json.loads(p.to_json())) == set(H.COMPLEX_VARS)

    def test_point_types_compare_by_type_and_value(self):
        from h5twistor.realslice import RealPoint
        from h5twistor.twistor import CHART_W, TwistorPoint

        coords = tuple(CRational(k) for k in (1, 2, 3, 4, 5))
        for make in (GroupPoint, RealPoint, lambda *c: TwistorPoint(CHART_W, *c[:4])):
            p, q = make(*coords), make(*coords)
            assert p == q and not p != q and hash(p) == hash(q) and len({p, q}) == 1
            assert p != make(*coords[::-1])
            # no point equals a plain tuple or a point of another type
            assert p != tuple(p) and not p == tuple(p)
            with pytest.raises(AttributeError):
                p.t = coords[0]
        assert GroupPoint(*coords) != RealPoint(*coords)


class TestFields:
    def test_bracket_operator_identity(self):
        q = generic_quadratic()
        for a in FieldId:
            for b in FieldId:
                lhs = H.apply_field(a, H.apply_field(b, q)) - H.apply_field(
                    b, H.apply_field(a, q)
                )
                rhs = H.apply_field(FieldId.T, q) * RationalFunction.const(
                    q.ctx, H.bracket_table(a, b)
                )
                assert lhs == rhs, (a, b)

    def test_bracket_table_golden(self):
        assert H.bracket_table(FieldId.V00, FieldId.V11) == 2
        assert H.bracket_table(FieldId.V10, FieldId.V01) == 2
        assert H.bracket_table(FieldId.V11, FieldId.V00) == -2
        assert H.bracket_table(FieldId.V00, FieldId.V10) == 0
        assert H.bracket_table(FieldId.T, FieldId.V00) == 0

    def test_field_on_t_squared(self):
        t2 = rf("t") * rf("t")
        v00 = H.apply_field(FieldId.V00, t2)
        v11 = H.apply_field(FieldId.V11, t2)
        comm = H.apply_field(FieldId.V00, H.apply_field(FieldId.V11, t2)) - H.apply_field(
            FieldId.V11, v00
        )
        assert comm == 4 * rf("t")
        assert v11 == 2 * rf("t") * rf("y00p")

    @given(points())
    @settings(max_examples=15, deadline=None)
    def test_left_invariance(self, g):
        f = rf("t") * rf("y00p") + rf("y10p") ** 2
        sub = H.left_translation(g)
        for fid in FieldId:
            lhs = H.apply_field(fid, f).substitute(sub)
            rhs = H.apply_field(fid, f.substitute(sub))
            assert lhs == rhs, fid

    def test_apply_field_poly_agrees(self):
        # apply_field maps a MultiPoly to a MultiPoly, agreeing with the
        # rational-function result
        p = (rf("y00p") * rf("y11p") + rf("t") ** 2).num
        for fid in FieldId:
            got = H.apply_field(fid, p)
            assert isinstance(got, MultiPoly)
            assert RationalFunction(got) == H.apply_field(fid, RationalFunction(p))

    @given(group_rfs())
    @settings(max_examples=40, deadline=None)
    def test_apply_field_is_the_field_formula(self, f):
        """Each field as d/dy + c * d/dt, each derivative by the quotient rule."""
        dt = quotient_rule(f, "t")
        expected = {
            FieldId.V00: quotient_rule(f, "y00p") - rf("y11p") * dt,
            FieldId.V10: quotient_rule(f, "y10p") - rf("y01p") * dt,
            FieldId.V01: quotient_rule(f, "y01p") + rf("y10p") * dt,
            FieldId.V11: quotient_rule(f, "y11p") + rf("y00p") * dt,
            FieldId.T: dt,
        }
        for fid, want in expected.items():
            assert H.apply_field(fid, f) == want, fid
            if f.is_polynomial():
                assert RationalFunction(H.apply_field(fid, f.num)) == want, fid

    def test_context_guard(self):
        from h5twistor.exactalg import ContextError

        other = make_context("a", "b")
        f = RationalFunction.var(other, "a")
        with pytest.raises(ContextError):
            H.apply_field(FieldId.V00, f)


class TestSubLaplacian:
    def test_phi_inst_harmonic(self):
        assert H.sub_laplacian(H.phi_inst()).is_zero()

    def test_t_harmonic(self):
        assert H.sub_laplacian(rf("t")).is_zero()

    def test_norm_not_harmonic(self):
        n2 = RationalFunction(H.norm_sq())
        assert H.sub_laplacian(n2) == RationalFunction.const(CTX5, 2)

    def test_cross_term_harmonic(self):
        cross = rf("y00p") * rf("y11p") + rf("y10p") * rf("y01p")
        assert H.sub_laplacian(cross).is_zero()


class TestPartialDifferentials:
    def test_d0_d1_components(self):
        f = rf("t")
        assert H.apply_field(FieldId.V00, f) == -rf("y11p")
        assert H.apply_field(FieldId.V10, f) == -rf("y01p")
        assert H.apply_field(FieldId.V01, f) == rf("y10p")
        assert H.apply_field(FieldId.V11, f) == rf("y00p")

    def test_d0_squared_symmetric(self):
        f = generic_quadratic()
        v00v10 = H.apply_field(FieldId.V00, H.apply_field(FieldId.V10, f))
        v10v00 = H.apply_field(FieldId.V10, H.apply_field(FieldId.V00, f))
        assert v00v10 == v10v00
