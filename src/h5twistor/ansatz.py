"""Construction of anti-self-dual connections from harmonic seeds.

A scalar function annihilated by the sub-Laplacian generates a rank-2
connection whose curvature satisfies the anti-self-duality equations.  The
same seed drives a two-sided Laurent recursion solved by Poincare
integration in straightened coordinates, and a loop-group transition matrix
whose triangular factorization reproduces the connection.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Tuple

from .exactalg import (
    Context,
    CRational,
    MatRF,
    MultiPoly,
    RationalFunction,
    make_context,
)
from .gauge import ConnectionForm
from .heisenberg import (
    COMPLEX_VARS,
    CTX5,
    FieldId,
    TVAR,
    Y00,
    Y01,
    Y10,
    Y11,
    apply_field,
    phi_inst,
    sub_laplacian,
)

D0, D1 = "d0", "d1"


class AnsatzError(ValueError):
    pass


class HarmonicSeed(NamedTuple):
    """A nonzero rational function in the kernel of the sub-Laplacian."""

    phi: RationalFunction
    certificate: RationalFunction

    @staticmethod
    def create(phi: RationalFunction) -> "HarmonicSeed":
        if phi.is_zero():
            raise AnsatzError("seed function must be nonzero")
        cert = sub_laplacian(phi)
        if not cert.is_zero():
            raise AnsatzError(f"seed is not harmonic: sub-Laplacian = {cert}")
        return HarmonicSeed(phi, cert)

    def is_polynomial(self) -> bool:
        return self.phi.is_polynomial()


def seed_catalog(name: str, ctx: Context = CTX5) -> HarmonicSeed:
    """Named seeds exposed on the command line."""
    if name == "inst":
        return HarmonicSeed.create(phi_inst(ctx))
    if name == "t":
        return HarmonicSeed.create(RationalFunction.var(ctx, TVAR))
    if name.startswith("lin:"):
        coord = name[4:]
        if coord not in COMPLEX_VARS:
            raise AnsatzError(f"unknown coordinate {coord!r}")
        return HarmonicSeed.create(RationalFunction.var(ctx, coord))
    raise AnsatzError(f"unknown seed {name!r}")


def log_derivative(field: FieldId, phi: RationalFunction) -> RationalFunction:
    """V(ln phi) = V(phi)/phi, assembled at the polynomial level to keep
    degrees low: for phi = n/d it is (V(n)d - nV(d)) / (nd)."""
    n, d = phi.num, phi.den
    num = MultiPoly.dot(n.ctx, ((1, apply_field(field, n), d), (-1, n, apply_field(field, d))))
    return RationalFunction(num, n * d)


def build_connection(seed: HarmonicSeed, phi_t: MatRF | None = None) -> ConnectionForm:
    """The rank-2 potential generated by a harmonic seed.

    Each horizontal block is built from logarithmic derivatives of the seed:
    the 0'-direction blocks are upper triangular, the 1'-direction blocks
    lower triangular, with +-1/2 log-derivatives on the diagonal.
    """
    phi = seed.phi
    ctx = phi.ctx
    half = RationalFunction.const(ctx, CRational.coerce(1) / CRational.coerce(2))
    zero = RationalFunction.zero(ctx)
    l00 = log_derivative(FieldId.V00, phi)
    l10 = log_derivative(FieldId.V10, phi)
    l01 = log_derivative(FieldId.V01, phi)
    l11 = log_derivative(FieldId.V11, phi)
    return ConnectionForm(
        phi00=MatRF([[half * l00, l01], [zero, -(half * l00)]]),
        phi10=MatRF([[half * l10, l11], [zero, -(half * l10)]]),
        phi01=MatRF([[-(half * l01), zero], [l00, half * l01]]),
        phi11=MatRF([[-(half * l11), zero], [l10, half * l11]]),
        phi_t=phi_t,
    )


class PsiMap(NamedTuple):
    """A polynomial change of coordinates straightening two of the
    left-invariant fields into plain partial derivatives."""

    direction: str
    forward: Mapping[str, MultiPoly]  # pullback substitution (compose with map)
    inverse: Mapping[str, MultiPoly]
    int_vars: Tuple[str, str]  # the two straightened coordinates


def psi_transform(direction: str, ctx: Context = CTX5) -> PsiMap:
    """For d0 the map twists the central coordinate by -y00*y11 - y10*y01 and
    straightens V00, V10; for d1 the opposite twist straightens V01, V11."""
    v = {n: MultiPoly.var(ctx, n) for n in COMPLEX_VARS}
    cross = v[Y00] * v[Y11] + v[Y10] * v[Y01]
    plus = {TVAR: v[TVAR] + cross}
    minus = {TVAR: v[TVAR] - cross}
    if direction == D0:
        return PsiMap(D0, forward=minus, inverse=plus, int_vars=(Y00, Y10))
    if direction == D1:
        return PsiMap(D1, forward=plus, inverse=minus, int_vars=(Y01, Y11))
    raise AnsatzError(f"direction must be {D0!r} or {D1!r}")


def _as_poly(f: RationalFunction, what: str) -> MultiPoly:
    if not f.is_polynomial():
        raise AnsatzError(f"{what} is not polynomial")
    return f.num


def poincare_integrate(
    g0: RationalFunction, g1: RationalFunction, direction: str
) -> RationalFunction:
    """Solve V_a f = g0, V_b f = g1 for the two fields of one direction.

    Inputs must be polynomial and satisfy the closedness condition
    V_b g0 = V_a g1.  The potential is normalized to contain no monomials
    free of both straightened coordinates.
    """
    psi = psi_transform(direction, g0.ctx)
    va, vb = psi.int_vars
    G0 = _as_poly(g0, "g0").substitute(psi.forward)
    G1 = _as_poly(g1, "g1").substitute(psi.forward)
    if G0.derivative(vb) != G1.derivative(va):
        raise AnsatzError("closedness condition fails; no potential exists")
    F0 = G0.integrate(va)
    F = F0 + (G1 - F0.derivative(vb)).integrate(vb)
    return RationalFunction(F.substitute(psi.inverse))


class GammaChain(NamedTuple):
    """A two-sided chain gamma_{-k..k} with gamma_0 the seed, linked by
    V_{A1'} gamma_i = V_{A0'} gamma_{i+1}."""

    gammas: Dict[int, RationalFunction]

    def gamma(self, i: int) -> RationalFunction:
        return self.gammas[i]

    @property
    def depth(self) -> int:
        return max(self.gammas)

    def verify(self) -> bool:
        lo, hi = min(self.gammas), max(self.gammas)
        for i in range(lo, hi):
            a, b = self.gammas[i], self.gammas[i + 1]
            for f1, f0 in ((FieldId.V01, FieldId.V00), (FieldId.V11, FieldId.V10)):
                if apply_field(f1, a) != apply_field(f0, b):
                    return False
        return True


def gamma_recursion(seed: HarmonicSeed, depth: int) -> GammaChain:
    """Extend a polynomial harmonic seed to a chain of the given depth.

    Upward steps integrate the 1'-derivatives of the current level against
    the 0'-fields; downward steps do the reverse.  Harmonicity is exactly
    the closedness obstruction at every level.
    """
    if depth < 0:
        raise AnsatzError("depth must be nonnegative")
    if not seed.is_polynomial():
        raise AnsatzError("gamma recursion requires a polynomial seed")
    gammas: Dict[int, RationalFunction] = {0: seed.phi}
    up = seed.phi
    for i in range(depth):
        up = poincare_integrate(
            apply_field(FieldId.V01, up), apply_field(FieldId.V11, up), D0
        )
        gammas[i + 1] = up
    down = seed.phi
    for i in range(depth):
        down = poincare_integrate(
            apply_field(FieldId.V00, down), apply_field(FieldId.V10, down), D1
        )
        gammas[-(i + 1)] = down
    return GammaChain(gammas)


# -- loop-group factorization -------------------------------------------------


def birkhoff_identity_check() -> Tuple[bool, List[str]]:
    """Certify the triangular factorization of the transition matrix.

    Works over rational functions in {zeta, phi, gp, gm} (gp and gm are the
    positive and negative Laurent tails), with zetai = 1/zeta.  Checks, with
    square-root prefactors cleared:

      * ftilde * G == f  for G = [[zeta, gm+phi+gp], [0, zetai]],
      * f * f_inv == phi * identity, and likewise for ftilde.
    """
    ctx = make_context("zeta", "phi", "gp", "gm")
    zeta, phi, gp, gm = (RationalFunction.var(ctx, n) for n in ctx)
    zetai = 1 / zeta
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    gamma = gm + phi + gp

    G = ((zeta, gamma), (zero, zetai))
    f = ((zeta, phi + gp), (-one, -(zetai * gp)))
    ftilde = ((one, -(zeta * gm)), (-zetai, phi + gm))
    f_inv = ((-(zetai * gp), -(phi + gp)), (one, zeta))
    ftilde_inv = ((phi + gm, zeta * gm), (zetai, one))

    def mul(a, b):
        return tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
            for i in range(2)
        )

    failures: List[str] = []

    def expect(got, want, label):
        for i in range(2):
            for j in range(2):
                if not (got[i][j] - want[i][j]).is_zero():
                    failures.append(f"{label}[{i + 1},{j + 1}]")

    phi_id = ((phi, zero), (zero, phi))
    expect(mul(ftilde, G), f, "ftilde*G")
    expect(mul(f, f_inv), phi_id, "f*f_inv")
    expect(mul(ftilde, ftilde_inv), phi_id, "ftilde*ftilde_inv")
    return not failures, failures


def h_connection_check(seed: HarmonicSeed, chain: GammaChain | None = None) -> bool:
    """The two boundary values of the factorization generate the same
    connection as build_connection, per horizontal direction."""
    if chain is None:
        chain = gamma_recursion(seed, 1)
    if chain.depth < 1:
        raise AnsatzError("need a chain of depth at least 1")
    ctx = seed.phi.ctx
    one = RationalFunction.one(ctx)
    zero = RationalFunction.zero(ctx)
    phi = seed.phi
    g1, gm1 = chain.gamma(1), chain.gamma(-1)
    h_hat = MatRF([[zero, phi], [-one, -gm1]])
    h_tilde = MatRF([[one, -g1], [zero, phi]])
    conn = build_connection(seed)
    half = RationalFunction.const(ctx, CRational.coerce(1) / CRational.coerce(2))
    for field, mat in (
        (FieldId.V00, h_tilde),
        (FieldId.V10, h_tilde),
        (FieldId.V01, h_hat),
        (FieldId.V11, h_hat),
    ):
        lead = MatRF.identity(2, ctx).scale(half * log_derivative(field, phi))
        dm = apply_field(field, mat)
        candidate = lead - dm @ mat.inverse()
        if candidate != conn.block(field):
            return False
    return True


def lambda_closedness(phi: RationalFunction) -> Tuple[bool, bool]:
    """The obstruction two-forms of the recursion equal +-(sub-Laplacian).

    Returns whether each of the two identities holds for the given phi (they
    hold identically; harmonic phi makes both obstructions vanish).
    """
    lap = sub_laplacian(phi)
    # d1 of V00(phi) theta01 + V10(phi) theta11, coefficient of theta01^theta11
    a = apply_field(FieldId.V00, phi)
    b = apply_field(FieldId.V10, phi)
    d1_coeff = apply_field(FieldId.V01, b) - apply_field(FieldId.V11, a)
    # d0 of V01(phi) theta00 + V11(phi) theta10, coefficient of theta00^theta10
    c = apply_field(FieldId.V01, phi)
    d = apply_field(FieldId.V11, phi)
    d0_coeff = apply_field(FieldId.V00, d) - apply_field(FieldId.V10, c)
    return d1_coeff == -lap, d0_coeff == lap
