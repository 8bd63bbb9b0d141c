"""The real 5D Heisenberg group inside the complex one.

Real coordinates are (y1, y2, y3, y4, s).  The module provides the
embedding into C^5, the real left-invariant fields and sub-Laplacian, a
small exterior algebra over the covectors dy1..dy4, ds with Euclidean Hodge
star, the horizontal/vertical and self-dual/anti-self-dual splits of
two-forms, and the curvature decomposition of a pulled-back connection.

Conventions: the horizontal/vertical split contracts with the complex field
T = i d/ds against the contact form (theta(T) = 1); the star-contraction in
the self-duality projectors uses the real field R = d/ds, which is what
gives the printed basis its +-1 eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .exactalg import (
    Context,
    CR_I,
    CRational,
    MatRF,
    MultiPoly,
    RationalFunction,
    make_context,
)
from .gauge import HORIZONTAL, ConnectionForm, curvature
from .heisenberg import (
    COMPLEX_VARS,
    T_COEFF,
    TVAR,
    FieldId,
    GroupPoint,
    phi_inst,
    point_eq,
    point_ne,
)

RVARS = ("y1", "y2", "y3", "y4", "s")
RCTX: Context = make_context(*RVARS)

HALF = CRational(Fraction(1, 2))


class RealSliceError(ValueError):
    pass


# -- points and embedding ------------------------------------------------------


class RealPoint(NamedTuple):
    y1: object
    y2: object
    y3: object
    y4: object
    s: object

    __eq__, __ne__, __hash__ = point_eq, point_ne, tuple.__hash__

    def coords(self):
        return (self.y1, self.y2, self.y3, self.y4, self.s)


def real_pairing(a: RealPoint, b: RealPoint):
    """The antisymmetric pairing of the real group law."""
    return 2 * (a.y1 * b.y2 - a.y2 * b.y1 - a.y3 * b.y4 + a.y4 * b.y3)


def real_group_mul(a: RealPoint, b: RealPoint) -> RealPoint:
    return RealPoint(
        a.y1 + b.y1,
        a.y2 + b.y2,
        a.y3 + b.y3,
        a.y4 + b.y4,
        a.s + b.s + real_pairing(a, b),
    )


def embed(p: RealPoint) -> GroupPoint:
    """The real slice inside C^5; a group homomorphism."""
    i = CR_I
    return GroupPoint(
        y00p=p.y1 + i * p.y2,
        y10p=p.y3 + i * p.y4,
        y01p=-p.y3 + i * p.y4,
        y11p=p.y1 - i * p.y2,
        t=-(i * p.s),
    )


def embed_substitution(target: Context = RCTX) -> Dict[str, MultiPoly]:
    """Complex coordinates as polynomials in the real ones: ``embed`` of the
    real coordinate functions."""
    p = RealPoint(*(MultiPoly.var(target, n) for n in RVARS))
    return dict(zip(COMPLEX_VARS, embed(p).coords()))


def pullback(f: RationalFunction, target: Context = RCTX) -> RationalFunction:
    """Restrict a function on C^5 to the real slice."""
    return f.substitute(embed_substitution(target))


# -- real left-invariant fields ------------------------------------------------


@lru_cache(maxsize=None)
def _real_field_table(ctx: Context) -> Dict[FieldId, Tuple[Tuple[str, MultiPoly], ...]]:
    """Each complex field of ``heisenberg.T_COEFF``, pushed through the
    embedding: the nonzero (real coordinate, coefficient) rows.

    The embedding z = J x is linear, so by the chain rule
    d/dz_k = sum_j (J^-1)_jk d/dx_j on pulled-back functions, and the field
    sum_k c_k d/dz_k has the real coefficients sum_k pullback(c_k) (J^-1)_jk,
    polynomials because J^-1 is constant.
    """
    for name in RVARS:
        if name not in ctx:
            raise RealSliceError(f"context {ctx} lacks real coordinate {name!r}")
    sub = embed_substitution(ctx)
    jinv = MatRF(
        [[RationalFunction(sub[z].derivative(x)) for x in RVARS] for z in COMPLEX_VARS]
    ).inverse()
    t = COMPLEX_VARS.index(TVAR)
    table = {}
    for field in FieldId:
        # the field is d/dz_k + ct * d/dt, with z_k its own coordinate
        k = COMPLEX_VARS.index(field.value)
        if field is FieldId.T:
            ct = RationalFunction.zero(ctx)
        else:
            coord, sign = T_COEFF[field]
            ct = RationalFunction(sub[coord].scale(sign))
        coeffs = ((x, jinv[j, k] + ct * jinv[j, t]) for j, x in enumerate(RVARS))
        # polynomials, so each is its numerator over the denominator 1
        table[field] = tuple((x, c.num) for x, c in coeffs if not c.is_zero())
    return table


# X1..X4 as combinations of the complex fields: X1 = (V00+V11)/2,
# X2 = (V11-V00)/(2i), X3 = (V10-V01)/2, X4 = i(V10+V01)/2
_X_COMBINATIONS = {
    1: ((FieldId.V00, HALF), (FieldId.V11, HALF)),
    2: ((FieldId.V00, HALF * CR_I), (FieldId.V11, -HALF * CR_I)),
    3: ((FieldId.V10, HALF), (FieldId.V01, -HALF)),
    4: ((FieldId.V10, HALF * CR_I), (FieldId.V01, HALF * CR_I)),
}


@lru_cache(maxsize=None)
def _x_field_table(ctx: Context) -> Dict[int, Tuple[Tuple[str, MultiPoly], ...]]:
    """The nonzero (real coordinate, coefficient) rows of X1..X4, combined
    from the rows of ``_real_field_table``."""
    fields = _real_field_table(ctx)
    table = {}
    for k, combination in _X_COMBINATIONS.items():
        coeffs: Dict[str, MultiPoly] = {}
        for field, weight in combination:
            for x, c in fields[field]:
                coeffs[x] = coeffs[x] + c * weight if x in coeffs else c * weight
        table[k] = tuple((x, c) for x, c in coeffs.items() if not c.is_zero())
    return table


def real_field(field: FieldId, f: RationalFunction) -> RationalFunction:
    """The complex left-invariant fields restricted to the real slice,
    derived from the complex field table through the embedding."""
    return f.apply_derivation(_real_field_table(f.ctx)[field])


def x_field(k: int, f: RationalFunction) -> RationalFunction:
    """The four real horizontal fields X1..X4, derived from the real fields:
    they are left-invariant and the contact form vanishes on them."""
    if k not in _X_COMBINATIONS:
        raise RealSliceError("k must be 1..4")
    return f.apply_derivation(_x_field_table(f.ctx)[k])


def real_sub_laplacian(f: RationalFunction) -> RationalFunction:
    """Sum of squares of the four horizontal fields."""
    out = RationalFunction.zero(f.ctx)
    for k in (1, 2, 3, 4):
        out = out + x_field(k, x_field(k, f))
    return out


def phi_real(ctx: Context = RCTX) -> RationalFunction:
    """The real harmonic seed 1/(|x|^4 + s^2): the pulled-back ``phi_inst``."""
    return pullback(phi_inst(), ctx)


# -- exterior algebra ----------------------------------------------------------

# covector indices: 0..3 are dy1..dy4, 4 is ds
N_COVECTORS = 5
DS = 4
# the six dy-only two-form monomials dy_a ^ dy_b, a < b
DY_PAIRS = tuple((a, b) for a in range(DS) for b in range(a + 1, DS))


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge two strictly increasing index tuples; None if they collide."""
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


class RealForm:
    """A differential form over dy1..dy4, ds with rational-function
    coefficients in the real coordinates."""

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: Context, degree: int, terms: Mapping[Tuple[int, ...], RationalFunction]):
        clean: Dict[Tuple[int, ...], RationalFunction] = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise RealSliceError(f"bad basis monomial {idx} for degree {degree}")
            if not coeff.is_zero():
                clean[idx] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RealForm is immutable")

    @staticmethod
    def covector(ctx: Context, index: int) -> "RealForm":
        return RealForm(ctx, 1, {(index,): RationalFunction.one(ctx)})

    @staticmethod
    def function(f: RationalFunction) -> "RealForm":
        return RealForm(f.ctx, 0, {(): f})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RealForm") -> "RealForm":
        if self.degree != other.degree:
            raise RealSliceError("degree mismatch in form addition")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out[idx] + c if idx in out else c
        return RealForm(self.ctx, self.degree, out)

    def __neg__(self) -> "RealForm":
        return RealForm(self.ctx, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "RealForm") -> "RealForm":
        return self + (-other)

    def scale(self, c) -> "RealForm":
        if not isinstance(c, RationalFunction):
            c = RationalFunction.const(self.ctx, CRational.coerce(c))
        return RealForm(self.ctx, self.degree, {i: k * c for i, k in self.terms.items()})

    def wedge(self, other: "RealForm") -> "RealForm":
        out: Dict[Tuple[int, ...], RationalFunction] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                merged, sign = _merge_sign(ia, ib)
                if merged is None:
                    continue
                c = ca * cb
                if sign < 0:
                    c = -c
                out[merged] = out[merged] + c if merged in out else c
        return RealForm(self.ctx, self.degree + other.degree, out)

    def d(self) -> "RealForm":
        """Exterior derivative."""
        out: Dict[Tuple[int, ...], RationalFunction] = {}
        for idx, c in self.terms.items():
            for v, name in enumerate(RVARS):
                dc = c.derivative(name)
                if dc.is_zero():
                    continue
                merged, sign = _merge_sign((v,), idx)
                if merged is None:
                    continue
                val = dc if sign > 0 else -dc
                out[merged] = out[merged] + val if merged in out else val
        return RealForm(self.ctx, self.degree + 1, out)

    def contract(self, vector: Sequence) -> "RealForm":
        """Interior product with a vector field given by its five
        components (constants or rational functions)."""
        comps = [
            v if isinstance(v, RationalFunction) else RationalFunction.const(self.ctx, CRational.coerce(v))
            for v in vector
        ]
        out: Dict[Tuple[int, ...], RationalFunction] = {}
        for idx, c in self.terms.items():
            for pos, cov in enumerate(idx):
                a = comps[cov]
                if a.is_zero():
                    continue
                rest = idx[:pos] + idx[pos + 1 :]
                val = a * c
                if pos % 2:
                    val = -val
                out[rest] = out[rest] + val if rest in out else val
        return RealForm(self.ctx, self.degree - 1, out)

    def hodge_star(self) -> "RealForm":
        """Euclidean Hodge star: dx^idx goes to sign * dx^comp, with sign
        that of the permutation idx + comp, the wedge sign of their merge."""
        out: Dict[Tuple[int, ...], RationalFunction] = {}
        for idx, c in self.terms.items():
            comp = tuple(k for k in range(N_COVECTORS) if k not in idx)
            _, sign = _merge_sign(idx, comp)
            val = c if sign > 0 else -c
            out[comp] = out[comp] + val if comp in out else val
        return RealForm(self.ctx, N_COVECTORS - self.degree, out)

    def __eq__(self, other):
        if not isinstance(other, RealForm):
            return NotImplemented
        return self.degree == other.degree and (self - other).is_zero()

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __str__(self):
        if self.is_zero():
            return "0"
        names = ["dy1", "dy2", "dy3", "dy4", "ds"]
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join(names[k] for k in idx) or "1"
            parts.append(f"({self.terms[idx]})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


# -- coframe -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _coframe(ctx: Context) -> Dict[str, RealForm]:
    z = {name: RationalFunction(y) for name, y in embed_substitution(ctx).items()}
    dz = {name: RealForm.function(f).d() for name, f in z.items()}
    theta = dz[TVAR]
    for field, (coord, sign) in T_COEFF.items():
        theta = theta - dz[field.value].scale(z[coord] * sign)
    out = {name[1:]: dz[name] for name in COMPLEX_VARS if name != TVAR}
    out["theta"] = theta
    return out


def coframe(ctx: Context = RCTX) -> Dict[str, RealForm]:
    """The four horizontal covectors theta^AB' = d y_AB' and the contact form
    theta = dt - sum_k c_k dy_k, pulled back to the real slice, where
    V_k = d/dy_k + c_k d/dt in ``heisenberg.T_COEFF``: theta vanishes on
    the V_k."""
    return dict(_coframe(ctx))


# contraction fields
T_VECTOR = (0, 0, 0, 0, CR_I)  # theta(T) = 1
R_VECTOR = (0, 0, 0, 0, 1)  # real Reeb direction for the star-contraction


def s_basis(ctx: Context = RCTX) -> Dict[str, RealForm]:
    """The six-element basis of horizontal two-forms: self-dual S^{A'B'}
    and anti-self-dual S^{AB}."""
    th = coframe(ctx)
    return {
        "S00p": th["00p"].wedge(th["10p"]),
        "S01p": th["00p"].wedge(th["11p"]) - th["10p"].wedge(th["01p"]),
        "S11p": th["01p"].wedge(th["11p"]),
        "S00": th["00p"].wedge(th["01p"]),
        "S01": th["00p"].wedge(th["11p"]) + th["10p"].wedge(th["01p"]),
        "S11": th["10p"].wedge(th["11p"]),
    }


def iota_r_star(omega: RealForm) -> RealForm:
    """The star-contraction operator of the self-duality projectors."""
    return omega.hodge_star().contract(R_VECTOR)


def hv_split(omega: RealForm) -> Tuple[RealForm, RealForm]:
    """Split a two-form into horizontal and vertical parts against the
    contact pair (theta, T)."""
    if omega.degree != 2:
        raise RealSliceError("hv_split expects a two-form")
    th = coframe(omega.ctx)["theta"]
    h = th.wedge(omega).contract(T_VECTOR)
    v = th.wedge(omega.contract(T_VECTOR))
    return h, v


def sd_asd_split(omega_h: RealForm) -> Tuple[RealForm, RealForm]:
    """Split a horizontal two-form into its +-1 eigenparts of the
    star-contraction."""
    if omega_h.degree != 2:
        raise RealSliceError("sd_asd_split expects a two-form")
    if not omega_h.contract(T_VECTOR).is_zero():
        raise RealSliceError("input is not horizontal")
    p = iota_r_star(omega_h)
    plus = (omega_h + p).scale(HALF)
    minus = (omega_h - p).scale(HALF)
    return plus, minus


# -- curvature on the real slice -------------------------------------------------


def pullback_connection(conn: ConnectionForm, target: Context = RCTX) -> ConnectionForm:
    """The connection restricted to the real slice, with phi_t set."""
    sub = embed_substitution(target)

    def pb(m: MatRF) -> MatRF:
        return m.map(lambda e: e.substitute(sub))

    return ConnectionForm(
        phi00=pb(conn.phi00),
        phi10=pb(conn.phi10),
        phi01=pb(conn.phi01),
        phi11=pb(conn.phi11),
        phi_t=pb(conn.block(FieldId.T)),
    )


def curvature_two_form(rc: ConnectionForm) -> List[List[RealForm]]:
    """The full curvature F = d Phi + Phi ^ Phi, entrywise as two-forms."""
    th = coframe(rc.ctx)
    keys = (("00p", rc.phi00), ("10p", rc.phi10), ("01p", rc.phi01), ("11p", rc.phi11))
    phi_t = rc.block(FieldId.T)
    n = rc.rank
    phi = [
        [
            sum(
                (th[k].scale(m[i, j]) for k, m in keys),
                th["theta"].scale(phi_t[i, j]),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            f = phi[i][j].d()
            for k in range(n):
                f = f + phi[i][k].wedge(phi[k][j])
            row.append(f)
        out.append(row)
    return out


S_ORDER = ("S00p", "S01p", "S11p", "S00", "S01", "S11")


@lru_cache(maxsize=None)
def _s_matrix(ctx: Context) -> Tuple[MatRF, MatRF]:
    """The S-matrix, whose column k holds S_ORDER[k] over ``DY_PAIRS``, and
    its inverse; built on first use per context."""
    basis = s_basis(ctx)
    zero = RationalFunction.zero(ctx)
    m = MatRF([[basis[name].terms.get(idx, zero) for name in S_ORDER] for idx in DY_PAIRS])
    return m, m.inverse()


def expand_in_s_basis(omega_h: RealForm) -> Dict[str, RationalFunction]:
    """Write a horizontal two-form in the six-element S-basis."""
    if any(DS in idx for idx in omega_h.terms):
        raise RealSliceError("horizontal forms carry no ds component")
    inv = _s_matrix(omega_h.ctx)[1]
    zero = RationalFunction.zero(omega_h.ctx)
    vec = [omega_h.terms.get(idx, zero) for idx in DY_PAIRS]
    return {
        name: sum((inv[i, j] * v for j, v in enumerate(vec)), zero)
        for i, name in enumerate(S_ORDER)
    }


def real_curvature_split(rc: ConnectionForm):
    """Formula-path decomposition of a pulled-back connection's curvature,
    computed with the real fields.

    Returns (F_H^+, F_V): the self-dual horizontal coefficients in the basis
    (S^{0'0'}, S^{0'1'}, S^{1'1'}), which are the pulled-back residuals
    (R1, R2/2, R3), and the vertical coefficients {f: F(f, T)} on
    theta^{AB'} wedge theta.
    """

    def F(a: FieldId, b: FieldId) -> MatRF:
        return curvature(rc, a, b, _real_field_table(rc.ctx))

    half = RationalFunction.const(rc.ctx, HALF)
    mid = F(FieldId.V00, FieldId.V11) + F(FieldId.V01, FieldId.V10)
    fh = (F(FieldId.V00, FieldId.V10), mid.scale(half), F(FieldId.V01, FieldId.V11))
    fv = {f: F(f, FieldId.T) for f in HORIZONTAL}
    return fh, fv


def real_curvature_split_projector(rc: ConnectionForm) -> Tuple[MatRF, MatRF, MatRF]:
    """Projector-path F_H^+: split the full curvature two-form entrywise and
    expand the self-dual horizontal part in the S-basis."""
    expanded = [
        [expand_in_s_basis(sd_asd_split(hv_split(f)[0])[0]) for f in row]
        for row in curvature_two_form(rc)
    ]
    return tuple(MatRF([[e[name] for e in row] for row in expanded]) for name in S_ORDER[:3])


# -- certificates ----------------------------------------------------------------


def fiber_uniqueness_certificate() -> bool:
    """Distinct real points have disjoint twistor fibers: the determinant
    of the 2x2 matrix of the embedded difference is the Euclidean distance
    squared."""
    ctx = make_context("x1", "x2", "x3", "x4", "u1", "u2", "u3", "u4")
    x = [MultiPoly.var(ctx, f"x{k}") for k in (1, 2, 3, 4)]
    u = [MultiPoly.var(ctx, f"u{k}") for k in (1, 2, 3, 4)]
    d = [a - b for a, b in zip(x, u)]
    m = embed(RealPoint(*d, MultiPoly.zero(ctx)))
    det = m.y00p * m.y11p - m.y01p * m.y10p
    sum_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]
    return det == sum_sq


def real_eta(p: RealPoint, zeta):
    """Direct formula for the twistor projection of a real point; equals
    eta(embed(p), zeta)."""
    from .twistor import CHART_W, TwistorPoint

    i = CR_I if not isinstance(p.y1, (float, complex)) else 1j
    w0 = p.y1 + i * p.y2 + zeta * (-p.y3 + i * p.y4)
    w1 = p.y3 + i * p.y4 + zeta * (p.y1 - i * p.y2)
    w2 = (
        -(i * p.s)
        - 2 * zeta * (-p.y3 + i * p.y4) * (p.y1 - i * p.y2)
        - p.y1 * p.y1
        - p.y2 * p.y2
        + p.y3 * p.y3
        + p.y4 * p.y4
    )
    return TwistorPoint(CHART_W, w0, w1, w2, zeta)


def real_eta_certificate() -> bool:
    """The direct formula agrees with eta composed with the embedding for
    fully symbolic real coordinates and parameter."""
    from .twistor import eta

    ctx = make_context(*(RVARS + ("zeta",)))
    vs = {n: RationalFunction.var(ctx, n) for n in ctx}
    p = RealPoint(*(vs[n] for n in RVARS))
    a = eta(embed(p), vs["zeta"])
    b = real_eta(p, vs["zeta"])
    return all((x - y).is_zero() for x, y in zip(a.coords(), b.coords()))


def dtheta_certificate(ctx: Context = RCTX) -> bool:
    """d theta = -2 theta^{00'}^theta^{11'} - 2 theta^{10'}^theta^{01'}."""
    th = coframe(ctx)
    lhs = th["theta"].d()
    rhs = th["00p"].wedge(th["11p"]).scale(-2) + th["10p"].wedge(th["01p"]).scale(-2)
    return lhs == rhs


def eigenvalue_certificate(ctx: Context = RCTX) -> bool:
    """The star-contraction fixes the S^{A'B'} and negates the S^{AB}."""
    basis = s_basis(ctx)
    for name in ("S00p", "S01p", "S11p"):
        if iota_r_star(basis[name]) != basis[name]:
            return False
    for name in ("S00", "S01", "S11"):
        if iota_r_star(basis[name]) != -basis[name]:
            return False
    return True


def star_involution_certificate(ctx: Context = RCTX) -> bool:
    """The star-contraction squares to the identity on horizontal
    two-forms."""
    one = RationalFunction.one(ctx)
    for idx in DY_PAIRS:
        m = RealForm(ctx, 2, {idx: one})
        if iota_r_star(iota_r_star(m)) != m:
            return False
    return True


def s_basis_rank_certificate(ctx: Context = RCTX) -> bool:
    """The six S-forms span the horizontal two-form space."""
    return not _s_matrix(ctx)[0].det().is_zero()
