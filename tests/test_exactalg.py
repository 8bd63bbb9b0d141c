from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h5twistor.exactalg import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    CRational,
    ContextError,
    MatRF,
    MultiPoly,
    RationalFunction,
    SingularMatrixError,
    make_context,
)

CTX = make_context("x", "y")
X = RationalFunction.var(CTX, "x")
Y = RationalFunction.var(CTX, "y")


def fractions():
    return st.fractions(min_value=-50, max_value=50, max_denominator=20)


def crationals():
    return st.builds(CRational, fractions(), fractions())


class TestCRational:
    def test_parse_roundtrip(self):
        samples = ["0", "1", "-3/2", "1/2+3/4*i", "-1*i", "2-5/7*i"]
        for s in samples:
            z = CRational.parse(s)
            assert CRational.parse(str(z)) == z

    @given(crationals())
    @settings(max_examples=50, deadline=None)
    def test_parse_inverts_str(self, a):
        assert CRational.parse(str(a)) == a

    @pytest.mark.parametrize("text", ["*i", "-*i", "1-*i", "1+2", "i+i", "1*i+2*i", "", "+"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            CRational.parse(text)

    def test_parse_golden(self):
        z = CRational.parse("1/2+3/4*i")
        assert z.re == Fraction(1, 2) and z.im == Fraction(3, 4)

    def test_i_squared(self):
        assert CR_I * CR_I == -CR_ONE

    @given(crationals(), crationals())
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == CR_ZERO
        assert a * (b + CR_ONE) == a * b + a

    @given(crationals())
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == CR_ONE

    def test_conjugate_norm(self):
        z = CRational(Fraction(3), Fraction(-4))
        n = z * z.conjugate()
        assert n == CRational(25)

    def test_to_complex(self):
        assert CRational(Fraction(1, 2), Fraction(-2)).to_complex() == 0.5 - 2j


class TestMultiPoly:
    def test_binomial(self):
        p = (X.num + Y.num) * (X.num + Y.num)
        q = X.num * X.num + X.num * Y.num * 2 + Y.num * Y.num
        assert p == q

    def test_derivative_product_rule(self):
        p = X.num * X.num * Y.num
        q = X.num + Y.num
        lhs = (p * q).derivative("x")
        rhs = p.derivative("x") * q + p * q.derivative("x")
        assert lhs == rhs

    def test_evaluate(self):
        p = X.num * Y.num + X.num
        assert p.evaluate({"x": 2.0, "y": 3.0}) == 8.0

    def test_substitute_const(self):
        p = X.num * Y.num
        out = p.substitute({"x": MultiPoly.const(CTX, 5)})
        assert out == Y.num * 5


class TestRationalFunction:
    def test_cancellation(self):
        assert (X * X - Y * Y) / (X - Y) == X + Y

    def test_cross_multiplication_equality(self):
        assert X / Y == (X * X) / (X * Y)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            X / (Y - Y)

    def test_pow(self):
        assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
        assert X ** (-1) * X == RationalFunction.one(CTX)

    def test_is_polynomial(self):
        assert (X * Y).is_polynomial()
        assert not (X / Y).is_polynomial()

    @given(fractions(), fractions())
    @settings(max_examples=30, deadline=None)
    def test_field_ops(self, a, b):
        fa = RationalFunction.const(CTX, CRational(a))
        fb = RationalFunction.const(CTX, CRational(b))
        f = X + fa
        g = Y + fb
        assert (f / g) * g == f


class TestMatRF:
    def test_inverse(self):
        one = RationalFunction.one(CTX)
        zero = RationalFunction.zero(CTX)
        m = MatRF([[X, one], [one, zero]])
        assert m @ m.inverse() == MatRF.identity(2, CTX)

    def test_singular_raises(self):
        m = MatRF([[X, X], [X, X]])
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_det(self):
        one = RationalFunction.one(CTX)
        m = MatRF([[X, Y], [one, one]])
        assert m.det() == X - Y

    def test_commutator_trace_free(self):
        one = RationalFunction.one(CTX)
        zero = RationalFunction.zero(CTX)
        a = MatRF([[X, one], [zero, Y]])
        b = MatRF([[Y, zero], [one, X]])
        c = a.commutator(b)
        assert c[0, 0] + c[1, 1] == zero


def matrices(n):
    """n x n matrices of small rational functions in x, y."""
    entry = st.tuples(polys(), polys().filter(lambda q: not q.is_zero())).map(
        lambda pq: RationalFunction(*pq)
    )
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(MatRF)


class TestCommutator:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_closed_form_2x2(self, data):
        a, b = data.draw(matrices(2)), data.draw(matrices(2))
        c = a.commutator(b)
        want = a @ b - b @ a
        for i in range(2):
            for j in range(2):
                assert c[i, j] == want[i, j], (i, j)

    def test_paths(self, monkeypatch):
        """2x2 takes no matrix product; 3x3 takes the two of A B - B A."""
        calls = []
        matmul = MatRF.__matmul__
        monkeypatch.setattr(
            MatRF, "__matmul__", lambda s, o: calls.append(s.rows) or matmul(s, o)
        )
        one, zero = RationalFunction.one(CTX), RationalFunction.zero(CTX)
        a2, b2 = MatRF([[X, one], [zero, Y]]), MatRF([[Y, X], [one, X]])
        a2.commutator(b2)
        assert calls == []
        a3 = MatRF([[X, one, zero], [zero, Y, X], [one, zero, X * Y]])
        b3 = MatRF([[Y, zero, one], [X, one, zero], [zero, Y, Y]])
        c = a3.commutator(b3)
        assert calls == [3, 3]
        assert c == a3 @ b3 - b3 @ a3
        with pytest.raises(ValueError):
            a2.commutator(b3)


class TestZeroShortcuts:
    OTHER = make_context("x", "z")

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_zero_of_another_context_raises(self, op):
        zero = RationalFunction.zero(self.OTHER)
        fn = (lambda a, b: a + b) if op == "add" else (lambda a, b: a * b)
        for a, b in ((X, zero), (zero, X), (RationalFunction.zero(CTX), zero)):
            with pytest.raises(ContextError):
                fn(a, b)

    def test_zero_operand(self):
        zero = RationalFunction.zero(CTX)
        f = X / (Y + 1)
        assert f + zero is f and zero + f is f
        assert (f * zero).is_zero() and (zero * f).is_zero()


class TestLoopParameter:
    """The loop parameter is a ``zeta`` variable with zetai = 1/zeta."""

    ZCTX = make_context("x", "y", "zeta")
    Z = RationalFunction.var(ZCTX, "zeta")
    ZI = 1 / Z

    def test_inverse_pair(self):
        z, zi = self.Z, self.ZI
        assert (z * zi - 1).is_zero()
        assert z * z * zi == z

    def test_laurent_split(self):
        x, y = RationalFunction.var(self.ZCTX, "x"), RationalFunction.var(self.ZCTX, "y")
        z, zi = self.Z, self.ZI
        lau = x * z**2 + y + x * y * zi
        # clearing the pole leaves a polynomial whose zeta^0 coefficient is
        # the zeta^-1 coefficient of the Laurent polynomial
        cleared = lau * z
        assert cleared.is_polynomial()
        at_zero = {n: MultiPoly.var(self.ZCTX, n) for n in ("x", "y")}
        at_zero["zeta"] = MultiPoly.zero(self.ZCTX)
        assert cleared.substitute(at_zero) == x * y
        assert lau - x * y * zi == x * z**2 + y

    def test_laurent_arith(self):
        x, y = RationalFunction.var(self.ZCTX, "x"), RationalFunction.var(self.ZCTX, "y")
        a = x * self.Z
        b = x * self.Z + y
        assert b - a == y
        assert (x * self.ZI) * (y * self.Z) == x * y


def polys():
    """Small polynomials in x, y with Gaussian-rational coefficients."""
    term = st.tuples(st.integers(0, 2), st.integers(0, 2), crationals())
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (RationalFunction.const(CTX, c) * X**i * Y**j for i, j, c in ts),
            RationalFunction.zero(CTX),
        ).num
    )


# non-monomial and pairwise coprime
P = X * X + Y
Q = X + Y + 1
R = X - 2 * Y + 3


class TestCancellation:
    """Arithmetic cancels a factor where exact division finds it."""

    def test_mul_cancels_across(self):
        assert ((P / Q) * (Q / R)).den == R.num

    def test_add_uses_the_larger_denominator(self):
        assert (P / Q + R / Q**2).den == (Q * Q).num

    def test_div_cancels_across(self):
        assert ((P / Q) / (P / R)).den == Q.num

    @given(polys(), polys(), polys(), polys())
    @settings(max_examples=50, deadline=None)
    def test_value_kept(self, p, q, r, s):
        """Each result equals, by cross-multiplication, the uncancelled
        num/den built by hand, and its denominator is monic."""
        if q.is_zero() or r.is_zero():
            return
        x, y = RationalFunction(p * s, q * r), RationalFunction(q * s + r, r * q)
        n1, d1, n2, d2 = x.num, x.den, y.num, y.den
        cases = [(x + y, n1 * d2 + n2 * d1, d1 * d2), (x * y, n1 * n2, d1 * d2)]
        if not y.is_zero():
            cases.append((x / y, n1 * d2, d1 * n2))
        for got, num, den in cases:
            assert got.num * den == num * got.den
            assert got.den.is_monic()


class TestHashAgreesWithEq:
    def test_cancelled_pair(self):
        a = (X * X - Y * Y) / ((X - Y) * (X + 1))
        b = (X + Y) / (X + 1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(polys(), polys(), polys())
    @settings(max_examples=50, deadline=None)
    def test_multipoly(self, p, q, r):
        a, b = (p + q) * r, p * r + q * r
        assert a == b and hash(a) == hash(b)

    @given(polys(), polys(), polys(), polys())
    @settings(max_examples=50, deadline=None)
    def test_rational_function(self, p, q, r, s):
        if q.is_zero() or r.is_zero():
            return
        a = RationalFunction(p, q)
        for b in (RationalFunction(p * r, q * r), a + RationalFunction(s) - RationalFunction(s)):
            assert a == b and hash(a) == hash(b)
        c = RationalFunction(s, r)
        if a == c:
            assert hash(a) == hash(c)

    @given(crationals(), polys())
    @settings(max_examples=50, deadline=None)
    def test_across_types(self, c, p):
        """A scalar, a constant polynomial and a polynomial rational function
        that are == also hash alike, so a set holds the value once."""
        for v in (MultiPoly.const(CTX, c), RationalFunction.const(CTX, c)):
            assert v == c and hash(v) == hash(c)
        if not c.im:
            assert c == c.re and hash(c) == hash(c.re)
        r = c.re  # a Fraction
        for v in (MultiPoly.const(CTX, r), RationalFunction.const(CTX, r)):
            assert v == r and r == v and hash(v) == hash(r)
        assert RationalFunction(p) == p and hash(RationalFunction(p)) == hash(p)
        assert len({CRational(1), 1, MultiPoly.one(CTX), RationalFunction.one(CTX)}) == 1

    def test_constants_of_two_contexts(self):
        """A constant hashes alike in every context, but values of two
        contexts are never equal, so a set keeps one of each."""
        other = make_context("x", "z")
        for make in (RationalFunction.zero, RationalFunction.one, MultiPoly.one):
            a, b = make(CTX), make(other)
            assert hash(a) == hash(b) and a != b and not a == b
            assert len({a, b}) == 2
        assert RationalFunction.var(CTX, "x") != RationalFunction.var(other, "x")


def rationals():
    return st.tuples(polys(), polys().filter(lambda q: not q.is_zero())).map(
        lambda pq: RationalFunction(*pq)
    )


def fields(f):
    return f.num.ctx, f.num.den, f.num.terms, f.den.den, f.den.terms


def reference_try_div(n: MultiPoly, d: MultiPoly):
    """The single-divisor lex reduction as it stood before the trailing-term
    test, copied as a plain function to check the kernel's division."""
    from heapq import heapify, heappop, heappush
    from math import gcd, lcm

    from h5twistor.exactalg.poly import _guard

    guard = _guard(len(n.ctx))
    de = max(d.terms)
    if n.terms and ((max(n.terms) | guard) - de) & guard != guard:
        return None
    la, lb = d.terms[de]
    norm = la * la + lb * lb
    rest = [(e, a, b) for e, (a, b) in d.terms.items() if e != de]
    r = dict(n.terms)
    s = 1
    heap = [-e for e in r]
    heapify(heap)
    quotient = []
    while heap:
        e = -heappop(heap)
        lead = r.pop(e, None)
        if lead is None:
            continue
        if ((e | guard) - de) & guard != guard:
            return None
        x, y = lead
        if lb:
            x, y, w = x * la + y * lb, y * la - x * lb, s * norm
        elif la > 0:
            w = s * la
        else:
            x, y, w = -x, -y, -s * la
        g = gcd(w, x, y)
        if g != 1:
            x, y, w = x // g, y // g, w // g
        diff = e - de
        quotient.append((diff, x, y, w))
        if s % w:
            f = w // gcd(s, w)
            r = {k: (a * f, b * f) for k, (a, b) in r.items()}
            s *= f
        f = s // w
        x, y = x * f, y * f
        for ek, a, b in rest:
            k = diff + ek
            pa, pb = x * a - y * b, x * b + y * a
            old = r.get(k)
            if old is None:
                r[k] = (-pa, -pb)
                heappush(heap, -k)
            else:
                pa, pb = old[0] - pa, old[1] - pb
                if pa or pb:
                    r[k] = (pa, pb)
                else:
                    del r[k]
    m = lcm(*(w for *_, w in quotient))
    terms = {k: (x * (m // w) * d.den, y * (m // w) * d.den) for k, x, y, w in quotient}
    return MultiPoly(n.ctx, terms, m * n.den)


class TestNormalizeOnce:
    """Results built without a second normalization are the normal form."""

    @given(rationals())
    @settings(max_examples=60, deadline=None)
    def test_stored_pair_is_a_fixed_point(self, x):
        assert fields(RationalFunction(x.num, x.den)) == fields(x)

    @given(rationals(), rationals())
    @settings(max_examples=60, deadline=None)
    def test_neg_and_sub(self, a, b):
        assert fields(-a) == fields(RationalFunction(-a.num, a.den))
        neg_b = RationalFunction(-b.num, b.den)
        assert fields(a - b) == fields(a + neg_b)
        assert fields(b - a) == fields(b + RationalFunction(-a.num, a.den))
        assert fields(a - a) == fields(RationalFunction.zero(CTX))

    def test_neg_and_sub_skip_normalize(self, monkeypatch):
        a, b = P / Q, R / Q
        made = []
        init = RationalFunction.__init__
        monkeypatch.setattr(
            RationalFunction, "__init__", lambda s, *args: made.append(1) or init(s, *args)
        )
        -a
        assert made == []
        a - b
        assert made == [1]

    @given(rationals(), crationals())
    @settings(max_examples=60, deadline=None)
    def test_constant_scaling(self, x, c):
        k = RationalFunction.const(CTX, c)
        want = fields(RationalFunction(x.num.scale(c), x.den))
        assert fields(k * x) == want and fields(x * k) == want

    def test_constant_scaling_skips_normalize(self, monkeypatch):
        a = P / Q
        half = RationalFunction.const(CTX, Fraction(1, 2))
        made = []
        init = RationalFunction.__init__
        monkeypatch.setattr(
            RationalFunction, "__init__", lambda s, *args: made.append(1) or init(s, *args)
        )
        products = (half * a, a * half)
        assert made == []
        want = fields(RationalFunction(a.num.scale(Fraction(1, 2)), a.den))
        assert all(fields(x) == want for x in products)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_try_div_of_product(self, a, b):
        if not b.is_zero():
            assert (a * b).try_div(b) == a

    @given(polys(), polys(), polys())
    @settings(max_examples=80, deadline=None)
    def test_try_div_agrees_with_the_reference(self, a, b, c):
        if b.is_zero():
            return
        for n in (a, a * b, a * b + c, c * X.num + a * b):
            assert n.try_div(b) == reference_try_div(n, b)

    def test_trailing_term_rejects(self):
        # same leading monomial x^2, but y does not divide the constant term
        n, d = (X * X + 1).num, (X * X + Y).num
        assert n.try_div(d) is None and reference_try_div(n, d) is None

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matrix_derivation_is_entrywise(self, data):
        dens = data.draw(st.lists(polys().filter(lambda q: not q.is_zero()), min_size=1, max_size=2))
        entry = st.one_of(
            st.just(RationalFunction.zero(CTX)),
            st.tuples(polys(), st.sampled_from(dens)).map(lambda pq: RationalFunction(*pq)),
        )
        m = MatRF(data.draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)))
        rows = (("x", MultiPoly.one(CTX)), ("y", data.draw(polys())))
        got = m.apply_derivation(rows)
        for i in range(2):
            for j in range(2):
                want = m[i, j].apply_derivation(rows)
                assert fields(got[i, j]) == fields(want), (i, j)
                if m[i, j].is_zero():
                    assert got[i, j] is m[i, j]

    def test_matrix_derivation_shares_the_denominator(self, monkeypatch):
        m = MatRF([[P / Q, R / Q], [X / Q, RationalFunction.zero(CTX)]])
        seen = []
        derive = MultiPoly.apply_derivation
        monkeypatch.setattr(
            MultiPoly, "apply_derivation", lambda s, rows: seen.append(s) or derive(s, rows)
        )
        m.apply_derivation((("x", MultiPoly.one(CTX)),))
        # three numerators and one denominator
        assert len(seen) == 4 and sum(p == Q.num for p in seen) == 1

    @given(rationals(), rationals(), polys())
    @settings(max_examples=60, deadline=None)
    def test_equal_denominator_eq_is_cross_multiplication(self, a, b, s):
        for c in (b, a + RationalFunction(s), a + RationalFunction(s) - RationalFunction(s), -a):
            assert (a == c) == (a.num * c.den == c.num * a.den)
