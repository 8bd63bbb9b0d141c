"""Differential tests of the fused ``exactalg`` kernels: ``MultiPoly.dot``,
the one-pass ``MultiPoly.apply_derivation``, the integer monic step of
``_normalize``, and printing and evaluation from the packed terms.

Each kernel is checked against the code it replaced, kept below as plain
functions: products by ``_mul_terms`` summed with ``+``, the derivation as
a sum of ``c * derivative``, the monic step through ``CRational.inverse``,
and the printer and evaluator through ``_unpack`` and ``CRational``.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h5twistor import cli
from h5twistor.exactalg import CRational, ContextError, MultiPoly, RationalFunction
from h5twistor.exactalg.poly import (
    FIELD_BITS,
    MAX_EXPONENT,
    _coefficient_text,
    _guard,
    _overflow,
    _split,
    _unpack,
)
from h5twistor.exactalg.rational import _normalize
from h5twistor.heisenberg import CTX5, field_frame
from h5twistor.realslice import RCTX, _real_field_table, _x_field_table


# -- the replaced code --------------------------------------------------------------


def reference_mul_terms(t1, t2, ctx):
    """Product of two term maps; only int products in the inner loop."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    re = {}
    if any(b for _, b in t1.values()) or any(b for _, b in t2.values()):
        inner = [(e, a, b) for e, (a, b) in t2.items()]
        im = {}
        for e1, (a1, b1) in t1.items():
            for e2, a2, b2 in inner:
                e = e1 + e2
                re[e] = re.get(e, 0) + a1 * a2 - b1 * b2
                im[e] = im.get(e, 0) + a1 * b2 + b1 * a2
        terms = {e: (a, im[e]) for e, a in re.items() if a or im[e]}
    else:
        inner = [(e, a) for e, (a, _) in t2.items()]
        for e1, (a1, _) in t1.items():
            for e2, a2 in inner:
                e = e1 + e2
                re[e] = re.get(e, 0) + a1 * a2
        terms = {e: (a, 0) for e, a in re.items() if a}
    guard = _guard(len(ctx))
    for e in terms:
        if e & guard:
            raise _overflow(ctx)
    return terms


def reference_mul(x, y):
    if x.ctx != y.ctx:
        raise ContextError("context mismatch")
    if not (x.terms and y.terms):
        return MultiPoly(x.ctx, {})
    return MultiPoly(x.ctx, reference_mul_terms(x.terms, y.terms, x.ctx), x.den * y.den)


def reference_dot(ctx, triples):
    out = MultiPoly.zero(ctx)
    for k, x, y in triples:
        out = out + reference_mul(MultiPoly.const(ctx, k), reference_mul(x, y))
    return out


def reference_derivation(p, rows):
    out = MultiPoly(p.ctx, {})
    for name, c in rows:
        d = p.derivative(name)
        if d.terms:
            out = out + reference_mul(c, d)
    return out


def reference_scale(p, c):
    x, y, r = _split(c)
    terms = {e: (a * x - b * y, a * y + b * x) for e, (a, b) in p.terms.items()}
    return MultiPoly(p.ctx, terms, p.den * r)


def reference_normalize(num, den):
    if num.is_zero():
        return num, MultiPoly.one(num.ctx)
    mono = num.monomial_gcd(den)
    if mono:
        num = num.shift_down(mono)
        den = den.shift_down(mono)
    if not den.is_constant():
        q = num.try_div(den)
        if q is not None:
            num, den = q, MultiPoly.one(num.ctx)
        else:
            q = den.try_div(num)
            if q is not None:
                num, den = MultiPoly.one(num.ctx), q
    if not den.is_monic():
        inv = den.leading()[1].inverse()
        num = reference_scale(num, inv)
        den = reference_scale(den, inv)
    return num, den


def reference_str(p):
    if p.is_zero():
        return "0"
    parts = []
    n = len(p.ctx)
    for e in sorted(p.terms, reverse=True):
        a, b = p.terms[e]
        c = CRational(Fraction(a, p.den), Fraction(b, p.den))
        mono = "*".join(
            (f"{v}^{k}" if k > 1 else v) for v, k in zip(p.ctx, _unpack(e, n)) if k
        )
        cs = str(c)
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
    return " + ".join(parts)


def reference_evaluate(p, point):
    out = 0j
    d, n = p.den, len(p.ctx)
    for e, (a, b) in p.terms.items():
        v = complex(a / d) + 1j * complex(b / d)
        for name, k in zip(p.ctx, _unpack(e, n)):
            if k:
                v *= point[name] ** k
        out += v
    return out


# -- strategies ------------------------------------------------------------------


def pack(ctx, exps):
    key = 0
    for k in exps:
        key = (key << FIELD_BITS) | k
    return key


def polys(ctx, max_terms=4, max_exp=2):
    """Polynomials over Q(i) built straight from packed terms: Gaussian
    integer numerators over a denominator of 1 to 12."""
    gauss = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(any)
    term = st.tuples(st.lists(st.integers(0, max_exp), min_size=len(ctx), max_size=len(ctx)), gauss)
    return st.tuples(st.lists(term, max_size=max_terms), st.integers(1, 12)).map(
        lambda td: MultiPoly(ctx, {pack(ctx, e): c for e, c in td[0]}, td[1])
    )


def fields(p):
    return p.ctx, p.den, p.terms


def triples(ctx):
    weight = st.integers(-3, 3)
    return st.lists(st.tuples(weight, polys(ctx), polys(ctx)), max_size=5)


# -- dot -----------------------------------------------------------------------


class TestDot:
    @given(triples(CTX5))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_sum_of_products(self, ts):
        assert fields(MultiPoly.dot(CTX5, ts)) == fields(reference_dot(CTX5, ts))

    @given(triples(CTX5))
    @settings(max_examples=40, deadline=None)
    def test_sums_that_cancel(self, ts):
        # each product again with the opposite weight, and x*y against y*x
        swapped = [(-k, y, x) for k, x, y in ts]
        assert MultiPoly.dot(CTX5, ts + swapped).is_zero()
        assert fields(MultiPoly.dot(CTX5, ts + swapped)) == fields(MultiPoly.zero(CTX5))

    @given(polys(CTX5), polys(CTX5))
    @settings(max_examples=60, deadline=None)
    def test_product_is_one_triple(self, x, y):
        assert fields(x * y) == fields(reference_mul(x, y))
        assert fields(x * y) == fields(MultiPoly.dot(CTX5, [(1, x, y)]))

    def test_empty_and_zero_operands(self):
        zero, x = MultiPoly.zero(CTX5), MultiPoly.var(CTX5, "t")
        for ts in ([], [(1, zero, x)], [(0, x, x)], [(2, x, zero), (0, x, x)]):
            assert fields(MultiPoly.dot(CTX5, ts)) == fields(zero)

    def test_context_mismatch_raises(self):
        x, y = MultiPoly.var(CTX5, "t"), MultiPoly.var(RCTX, "s")
        zero = MultiPoly.zero(RCTX)
        for ts in ([(1, x, y)], [(1, y, x)], [(1, x, x), (1, zero, zero)], [(1, y, y)]):
            with pytest.raises(ContextError):
                MultiPoly.dot(CTX5, ts)

    def test_exponent_past_the_limit_raises(self):
        big = MultiPoly(CTX5, {pack(CTX5, (0, 0, 0, 0, MAX_EXPONENT // 2 + 1)): (1, 0)})
        x = MultiPoly.var(CTX5, "y00p")
        with pytest.raises(OverflowError):
            reference_dot(CTX5, [(1, big, big)])
        i_big = big.scale(CRational(0, 1))
        for ts in ([(1, big, big)], [(1, x, x), (3, big, big + x)], [(1, big, i_big)]):
            with pytest.raises(OverflowError):
                MultiPoly.dot(CTX5, ts)
        top = MultiPoly(CTX5, {pack(CTX5, (0, 0, 0, 0, MAX_EXPONENT - 1)): (1, 0)})
        t = MultiPoly.var(CTX5, "t")
        assert MultiPoly.dot(CTX5, [(1, top, t)]).total_degree() == MAX_EXPONENT


# -- the one-pass derivation ---------------------------------------------------------


# each frame's context and its table, built when a test asks for it
FRAMES = {
    "complex": lambda: (CTX5, field_frame(CTX5)),
    "real": lambda: (RCTX, _real_field_table(RCTX)),
    "x": lambda: (RCTX, _x_field_table(RCTX)),
}


class TestApplyDerivation:
    @pytest.mark.parametrize("name", sorted(FRAMES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_sum_of_derivatives(self, name, data):
        ctx, frame = FRAMES[name]()
        p = data.draw(polys(ctx, max_terms=5, max_exp=3))
        for rows in frame.values():
            assert fields(p.apply_derivation(rows)) == fields(reference_derivation(p, rows))

    @given(polys(CTX5), polys(CTX5), polys(CTX5))
    @settings(max_examples=40, deadline=None)
    def test_general_rows(self, p, c1, c2):
        rows = (("t", c1), ("y10p", c2), ("t", c2))
        assert fields(p.apply_derivation(rows)) == fields(reference_derivation(p, rows))

    def test_context_errors(self):
        p = MultiPoly.var(CTX5, "t")
        with pytest.raises(ContextError):
            p.apply_derivation((("s", MultiPoly.one(CTX5)),))
        with pytest.raises(ContextError):
            p.apply_derivation((("t", MultiPoly.one(RCTX)),))
        with pytest.raises(ContextError):
            MultiPoly.zero(CTX5).apply_derivation((("s", MultiPoly.one(CTX5)),))


# -- the integer monic step -----------------------------------------------------------


class TestMonicStep:
    @given(polys(CTX5), polys(CTX5).filter(lambda q: not q.is_zero()))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_inverse_scaling(self, num, den):
        got, want = _normalize(num, den), reference_normalize(num, den)
        assert [fields(x) for x in got] == [fields(x) for x in want]
        assert got[1].is_monic() or num.is_zero()


# -- printing and evaluation -------------------------------------------------------------


class TestPrinting:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_coefficient_text(self, a, b, d):
        if a or b:
            assert _coefficient_text(a, b, d) == str(CRational(Fraction(a, d), Fraction(b, d)))

    @given(polys(CTX5, max_terms=6, max_exp=3))
    @settings(max_examples=80, deadline=None)
    def test_polynomial_text(self, p):
        assert str(p) == reference_str(p)

    @given(polys(CTX5, max_terms=6, max_exp=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_bit_identical(self, p, data):
        part = st.floats(-3, 3, allow_nan=False)
        point = {v: complex(data.draw(part), data.draw(part)) for v in CTX5}
        assert p.evaluate(point) == reference_evaluate(p, point)


class TestRoundTrip:
    """The printer writes what the expression parser reads back."""

    @given(polys(CTX5, max_terms=5, max_exp=3))
    @settings(max_examples=60, deadline=None)
    def test_polynomial(self, p):
        assert cli.parse_expression(str(p), CTX5) == p

    @given(polys(CTX5, max_terms=3), polys(CTX5, max_terms=3).filter(lambda q: not q.is_zero()))
    @settings(max_examples=60, deadline=None)
    def test_rational_function(self, p, q):
        x = RationalFunction(p, q)
        assert cli.parse_expression(str(x), CTX5) == x


def test_dot_den_is_the_lcm():
    x = MultiPoly.const(CTX5, Fraction(1, 4)) + MultiPoly.var(CTX5, "t")
    y = MultiPoly.const(CTX5, Fraction(1, 6)) + MultiPoly.var(CTX5, "y00p")
    got = MultiPoly.dot(CTX5, [(1, x, x), (1, y, y)])
    assert got.den == lcm(16, 36)
