"""The SO(6,C) homogeneous-space model of the Heisenberg twistor fibration.

The Heisenberg group embeds into SO(6,C) as unipotent matrices H_(y,t); the
chart matrices P_zeta, W, A_zeta realize the two coordinate charts of the
flag quotients, and the identities below reproduce the twistor projection
and chart transition at the matrix level.  The loop parameter and its
inverse are ordinary rational functions of one symbol here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .exactalg import (
    Context,
    CRational,
    MatRF,
    RationalFunction,
    make_context,
)
from .heisenberg import COMPLEX_VARS, CTX5

HALF = CRational(Fraction(1, 2))

# symbolic contexts: group coordinates, optionally a second group element
# (prefix "h"), planes (x1, x2), and the loop parameter
CTX_H = CTX5
H_VARS = ("h00p", "h10p", "h01p", "h11p", "ht")
CTX_HH = make_context(*COMPLEX_VARS, *H_VARS)
CTX_HZ = make_context(*COMPLEX_VARS, "zeta")
CTX_XZ = make_context("x1", "x2", "t", "zeta")


def _v(ctx: Context, name: str) -> RationalFunction:
    return RationalFunction.var(ctx, name)


def _c(ctx: Context, value) -> RationalFunction:
    return RationalFunction.const(ctx, CRational.coerce(value))


def pairing(w: Tuple, wt: Tuple):
    """The symmetric pairing <w, wt> = w1*wt2 + wt1*w2 on column pairs."""
    return w[0] * wt[1] + wt[0] * w[1]


def quadric_form(ctx: Context) -> MatRF:
    """The anti-diagonal block form preserved by SO(6,C)."""
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    return MatRF(
        [
            [one if j == i + 3 or i == j + 3 else zero for j in range(6)]
            for i in range(6)
        ]
    )


def h_matrix(y00, y10, y01, y11, t) -> MatRF:
    """The unipotent embedding of a group element, exp of the displayed
    nilpotent Y (tuple order y00', y10', y01', y11', t)."""
    ctx = y00.ctx
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    half = _c(ctx, HALF)
    p00 = pairing((y00, y10), (y00, y10))  # <y0', y0'>
    p01 = pairing((y00, y10), (y01, y11))  # <y0', y1'>
    p11 = pairing((y01, y11), (y01, y11))  # <y1', y1'>
    return MatRF(
        [
            [one, zero, zero, zero, zero, zero],
            [zero, one, zero, zero, zero, zero],
            [y00, y01, one, zero, zero, zero],
            [-(half * p00), -(half * t) - half * p01, -y10, one, zero, -y00],
            [half * t - half * p01, -(half * p11), -y11, zero, one, -y01],
            [y10, y11, zero, zero, zero, one],
        ]
    )


def h_matrix_point(ctx: Context = CTX_H) -> MatRF:
    """h_matrix on the five coordinate symbols themselves."""
    return h_matrix(*(_v(ctx, n) for n in COMPLEX_VARS))


def p_zeta(zeta) -> MatRF:
    ctx = zeta.ctx
    m = [list(r) for r in MatRF.identity(6, ctx).entries]
    m[1][0] = zeta
    m[3][4] = -zeta
    return MatRF(m)


def w_matrix(ctx: Context) -> MatRF:
    """The chart-swapping permutation element (12)(45)."""
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    perm = (1, 0, 2, 4, 3, 5)
    return MatRF(
        [[one if j == perm[i] else zero for j in range(6)] for i in range(6)]
    )


def a_zeta(zeta) -> MatRF:
    ctx = zeta.ctx
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    zi = one / zeta
    return MatRF(
        [
            [zeta, one, zero, zero, zero, zero],
            [zero, -zi, zero, zero, zero, zero],
            [zero, zero, one, zero, zero, zero],
            [zero, zero, zero, zi, zero, zero],
            [zero, zero, zero, one, -zeta, zero],
            [zero, zero, zero, zero, zero, one],
        ]
    )


# -- subalgebra zero-pattern masks (True = entry may be nonzero) ------------------

P_MASK = (
    (1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 0, 1),
    (0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1),
)
Q_MASK = (
    (1, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 0, 1),
    (0, 1, 1, 1, 1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 1, 1, 1, 1),
    (0, 1, 0, 1, 1, 1),
)
R_MASK = (
    (1, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 0, 1),
    (0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1),
)

MASKS: Dict[str, Tuple] = {"P": P_MASK, "Q": Q_MASK, "R": R_MASK}


class So6Error(ValueError):
    pass


def nilpotent_log(m: MatRF) -> MatRF:
    """log of a unipotent matrix with (M-I)^3 = 0, computed exactly."""
    n = m - MatRF.identity(6, m.ctx)
    n2 = n @ n
    if not (n2 @ n).is_zero():
        raise So6Error("matrix is not unipotent of the expected depth")
    return n - n2.scale(_c(m.ctx, HALF))


def mask_membership(m: MatRF, mask_name: str, unipotent: bool = True) -> bool:
    """Lie-algebra zero-pattern membership.

    For unipotent group elements the nilpotent logarithm must fit the mask;
    otherwise the off-diagonal entries of the matrix itself are tested (the
    masks all allow arbitrary diagonals).
    """
    mask = MASKS[mask_name]
    target = nilpotent_log(m) if unipotent else m
    for i in range(6):
        for j in range(6):
            if i == j and not unipotent:
                continue
            if not mask[i][j] and not target[i, j].is_zero():
                return False
    return True


def orthogonality_check(m: MatRF) -> bool:
    """m preserves the anti-diagonal quadric: m^t I m = I."""
    i_form = quadric_form(m.ctx)
    return m.transpose() @ i_form @ m == i_form


# -- the appendix identity suite ---------------------------------------------------


def homomorphism_check() -> bool:
    """H is a homomorphism for the matrix group law with t-offset
    -<yhat0', y1'> + <y0', yhat1'> (equal to the pairing B of the abstract
    group law)."""
    ctx = CTX_HH
    y = tuple(_v(ctx, n) for n in COMPLEX_VARS)
    h = tuple(_v(ctx, n) for n in H_VARS)
    lhs = h_matrix(*y) @ h_matrix(*h)
    offset = -pairing((h[0], h[1]), (y[2], y[3])) + pairing((y[0], y[1]), (h[2], h[3]))
    rhs = h_matrix(y[0] + h[0], y[1] + h[1], y[2] + h[2], y[3] + h[3], y[4] + h[4] + offset)
    if lhs != rhs:
        return False
    # the offset is literally the abstract group pairing B(y, h)
    b = y[0] * h[3] - y[2] * h[1] + y[1] * h[2] - y[3] * h[0]
    return (offset - b).is_zero()


def orthogonality_suite() -> bool:
    """All three matrix families preserve the quadric."""
    z = _v(CTX_HZ, "zeta")
    return (
        orthogonality_check(h_matrix_point(CTX_HZ))
        and orthogonality_check(p_zeta(z))
        and orthogonality_check(w_matrix(CTX_HZ))
    )


def decomposition_check() -> bool:
    """W P_zeta = P_{1/zeta} A_zeta."""
    z = _v(CTX_HZ, "zeta")
    zi = RationalFunction.one(CTX_HZ) / z
    return w_matrix(CTX_HZ) @ p_zeta(z) == p_zeta(zi) @ a_zeta(z)


def azeta_pattern_check() -> bool:
    """A_zeta sits in the R-subgroup: off-diagonal entries fit the R-mask."""
    z = _v(CTX_HZ, "zeta")
    return mask_membership(a_zeta(z), "R", unipotent=False)


def conjugation_check() -> bool:
    """P_zeta^-1 H_(y0', y1', t) P_zeta = H_(y0'+zeta y1', y1', t)."""
    ctx = CTX_HZ
    y00, y10, y01, y11, t, z = (_v(ctx, n) for n in ctx)
    lhs = p_zeta(-z) @ h_matrix(y00, y10, y01, y11, t) @ p_zeta(z)
    rhs = h_matrix(y00 + z * y01, y10 + z * y11, y01, y11, t)
    return p_zeta(-z) @ p_zeta(z) == MatRF.identity(6, ctx) and lhs == rhs


def coset_eta_check() -> bool:
    """The coset factorization behind the twistor projection:

      H_(y0'+zeta y1', y1', t)
        = H_(y0'+zeta y1', 0, t - <y0'+zeta y1', y1'>) * H_(0, y1', 0)

    with the right factor in Q and the central component of the left factor
    equal to the third component of the projection eta.
    """
    ctx = CTX_HZ
    y00, y10, y01, y11, t, z = (_v(ctx, n) for n in ctx)
    zero = RationalFunction.zero(ctx)
    s0, s1 = y00 + z * y01, y10 + z * y11
    tc = t - pairing((s0, s1), (y01, y11))
    lhs = h_matrix(s0, s1, y01, y11, t)
    rhs = h_matrix(s0, s1, zero, zero, tc) @ h_matrix(zero, zero, y01, y11, zero)
    if lhs != rhs:
        return False
    if not mask_membership(h_matrix(zero, zero, y01, y11, zero), "Q"):
        return False
    # tc agrees with the eta formula t - (y00 y11 + y10 y01 + 2 zeta y01 y11)
    eta2 = t - (y00 * y11 + y10 * y01 + 2 * z * y01 * y11)
    return (tc - eta2).is_zero()


def psi_chart_transition_check() -> bool:
    """The chart transition of the plane quotient:

      A_zeta H_(x1, x2, 0, 0, t) A_zeta^-1 = H_(x1/zeta, x2/zeta, x1, x2, -t)
        = H_(x1/zeta, x2/zeta, 0, 0, -t - 2 x1 x2/zeta) * H_(0, 0, x1, x2, 0)

    so the induced map is (x, t, zeta) -> (x/zeta, -t - 2 x1 x2/zeta, 1/zeta).
    """
    ctx = CTX_XZ
    x1, x2, t, z = (_v(ctx, n) for n in ctx)
    zero = RationalFunction.zero(ctx)
    zi = RationalFunction.one(ctx) / z
    a = a_zeta(z)
    lhs = a @ h_matrix(x1, x2, zero, zero, t) @ a.inverse()
    mid = h_matrix(zi * x1, zi * x2, x1, x2, -t)
    if lhs != mid:
        return False
    rhs = h_matrix(zi * x1, zi * x2, zero, zero, -t - 2 * zi * x1 * x2) @ h_matrix(
        zero, zero, x1, x2, zero
    )
    if mid != rhs:
        return False
    return mask_membership(h_matrix(zero, zero, x1, x2, zero), "Q")


SUITE = (
    ("homomorphism", homomorphism_check),
    ("orthogonality", orthogonality_suite),
    ("decomposition", decomposition_check),
    ("azeta-pattern", azeta_pattern_check),
    ("conjugation", conjugation_check),
    ("coset-eta", coset_eta_check),
    ("psi-transition", psi_chart_transition_check),
)


def verify_all() -> Dict[str, bool]:
    return {name: fn() for name, fn in SUITE}
