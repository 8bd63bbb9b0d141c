"""Differential tests of the polynomial kernel against sympy (test-only).

Random small polynomials over Q(i) in x, y, z are built twice, once with
``MultiPoly`` and once with sympy, and every result is compared through the
printed form of the ``MultiPoly`` answer.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h5twistor.exactalg import CRational, MultiPoly, RationalFunction, make_context
from h5twistor.exactalg.poly import MAX_EXPONENT

sp = pytest.importorskip("sympy")

CTX = make_context("x", "y", "z")
SX, SY, SZ = sp.symbols("x y z")
SYMBOLS = {"x": SX, "y": SY, "z": SZ, "I": sp.I}
VARS = [MultiPoly.var(CTX, n) for n in CTX]


def to_sympy(p) -> "sp.Expr":
    text = str(p).replace("^", "**").replace("*i", "*I")
    return sp.parse_expr(text, local_dict=SYMBOLS)


def same(p, expr) -> bool:
    return sp.expand(to_sympy(p) - expr) == 0


def fractions():
    return st.fractions(min_value=-6, max_value=6, max_denominator=6)


# a polynomial as data: [(exponents, re, im)], built in both systems
terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), fractions(), fractions()),
    max_size=5,
)


def build(data):
    ours = MultiPoly.zero(CTX)
    theirs = sp.Integer(0)
    for exps, re, im in data:
        mono = MultiPoly.one(CTX)
        for v, k in zip(VARS, exps):
            mono = mono * v**k
        ours = ours + mono.scale(CRational(re, im))
        c = sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
            im.numerator, im.denominator
        )
        theirs += c * SX ** exps[0] * SY ** exps[1] * SZ ** exps[2]
    return ours, sp.expand(theirs)


def nonzero(data):
    return any(re or im for _, re, im in data)


def sympy_div(a, b):
    gens = (SX, SY, SZ)
    q, r = sp.div(sp.Poly(a, *gens, domain="QQ_I"), sp.Poly(b, *gens, domain="QQ_I"))
    return q.as_expr(), r.is_zero


@given(terms, terms)
@settings(max_examples=60, deadline=None)
def test_ring_operations(da, db):
    (a, sa), (b, sb) = build(da), build(db)
    assert same(a * b, sa * sb)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a, sa)


@given(terms)
@settings(max_examples=40, deadline=None)
def test_derivative(da):
    a, sa = build(da)
    for name, s in zip(CTX, (SX, SY, SZ)):
        assert same(a.derivative(name), sp.diff(sa, s))


@given(terms, terms, terms)
@settings(max_examples=30, deadline=None)
def test_substitute(da, db, dc):
    (a, sa), (b, sb), (c, sc) = build(da), build(db), build(dc)
    got = a.substitute({"x": b, "z": c})
    assert same(got, sa.subs({SX: sb, SZ: sc}, simultaneous=True))


@given(terms, terms)
@settings(max_examples=50, deadline=None)
def test_try_div_exact(da, db):
    if not nonzero(db):
        return
    (a, sa), (b, sb) = build(da), build(db)
    q = (a * b).try_div(b)
    assert q is not None and q == a
    sq, exact = sympy_div(sp.expand(sa * sb), sb)
    assert exact and same(q, sq)


@given(terms, terms)
@settings(max_examples=50, deadline=None)
def test_try_div_agrees_on_divisibility(da, db):
    if not nonzero(db):
        return
    (a, sa), (b, sb) = build(da), build(db)
    q = a.try_div(b)
    sq, exact = sympy_div(sa, sb)
    assert (q is not None) == exact
    if q is not None:
        assert same(q, sq)


@given(terms, terms, terms, terms)
@settings(max_examples=40, deadline=None)
def test_rational_function_equality(dp, dq, dr, ds):
    if not (nonzero(dq) and nonzero(ds)):
        return
    (p, sp_), (q, sq), (r, sr), (s, ss) = build(dp), build(dq), build(dr), build(ds)
    f, g = RationalFunction(p, q), RationalFunction(r, s)
    assert (f == g) == (sp.expand(sp_ * ss - sr * sq) == 0)
    # the same value written over a multiplied-out denominator
    assert f == RationalFunction(p * s, q * s)
    # +, * and / whose operands share the factor q or p, so arithmetic cancels
    shared = [
        (f + RationalFunction(r, q * s), sp_ * ss + sr, sq * ss),
        (f * RationalFunction(q * r, s), sp_ * sr, ss),
    ]
    if not p.is_zero():
        shared.append((f / RationalFunction(p, s), ss, sq))
    for got, num, den in shared:
        assert sp.expand(to_sympy(got.num) * den - num * to_sympy(got.den)) == 0


def test_try_div_with_fractional_quotient():
    # the quotient's coefficients are not Gaussian integers, so the
    # remainder must move to a larger common denominator on the way
    x, y, _ = VARS
    two, one_i = CRational(2), CRational(1, 1)
    assert (x * x + x).try_div(x.scale(two) + two) == x.scale(Fraction(1, 2))
    got = (x * x * y + x).try_div((x * y + 1).scale(one_i))
    assert got == x.scale(CRational(Fraction(1, 2), Fraction(-1, 2)))
    assert (x * x + x + 1).try_div(x.scale(two) + two) is None


def test_exponents_past_a_byte():
    x, y, _ = VARS
    assert same(x**300 * y, SX**300 * SY)
    assert same((x**300 * y + 1) * (x**200 - y), sp.expand((SX**300 * SY + 1) * (SX**200 - SY)))
    assert same((x**300 * y).derivative("x"), 300 * SX**299 * SY)
    assert (x**500 * y**2).try_div(x**300 * y) == x**200 * y
    assert (x**500).try_div(x**300 * y) is None


def test_exponent_overflow_raises():
    x, y, _ = VARS
    big = x ** (MAX_EXPONENT // 2 + 1) * y
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (x**MAX_EXPONENT).integrate("x")
    with pytest.raises(OverflowError):
        (x * y**MAX_EXPONENT).try_div(x - y)
    # the largest exponent is still exact
    top = x**MAX_EXPONENT * y
    assert top.derivative("x") == (x ** (MAX_EXPONENT - 1) * y).scale(MAX_EXPONENT)
    assert str(top) == f"x^{MAX_EXPONENT}*y"
    assert top.leading() == ((MAX_EXPONENT, 1, 0), CRational(1))


def test_common_denominator_is_canonical():
    x, y, _ = VARS
    half = x.scale(Fraction(1, 2)) + y.scale(CRational(0, Fraction(1, 3)))
    assert half.den == 6
    assert (half + half + half).den == 2
    assert half.scale(6) == x.scale(3) + y.scale(CRational(0, 2))
    assert (half - half).is_zero() and (half - half).den == 1
