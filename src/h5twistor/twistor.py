"""The double fibration onto twistor space.

Twistor space is glued from two affine charts W and Wt; a group point and a
value of the loop parameter determine a point of each chart, the fibers of
the projections are the alpha-planes, and the two projections agree under
the chart transition after inverting the parameter.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .exactalg import CRational, RationalFunction, make_context
from .heisenberg import (
    COMPLEX_VARS,
    FieldId,
    GroupPoint,
    TVAR,
    Y00,
    Y01,
    Y10,
    Y11,
    apply_field,
    point_eq,
    point_ne,
)

CHART_W = "W"
CHART_WT = "Wt"

# extended symbolic contexts for the certificates
ZVAR = "zeta"
CTX6 = make_context(*(COMPLEX_VARS + (ZVAR,)))


class TwistorError(ValueError):
    pass


class TwistorPoint(NamedTuple):
    """A chart-tagged point (w0, w1, w2, zeta) of twistor space."""

    chart: str
    w0: object
    w1: object
    w2: object
    zeta: object

    __eq__, __ne__, __hash__ = point_eq, point_ne, tuple.__hash__

    def coords(self):
        return (self.w0, self.w1, self.w2, self.zeta)

    def to_json(self) -> str:
        return json.dumps(
            {
                "chart": self.chart,
                "w0": str(self.w0),
                "w1": str(self.w1),
                "w2": str(self.w2),
                "zeta": str(self.zeta),
            }
        )

    @staticmethod
    def from_json(text: str) -> "TwistorPoint":
        d = json.loads(text)
        return TwistorPoint(
            d["chart"], *(CRational.parse(d[k]) for k in ("w0", "w1", "w2", "zeta"))
        )


def eta(x: GroupPoint, zeta) -> TwistorPoint:
    """Projection in the W chart."""
    pair = x.y00p * x.y11p + x.y10p * x.y01p + 2 * zeta * x.y01p * x.y11p
    return TwistorPoint(
        CHART_W,
        x.y00p + zeta * x.y01p,
        x.y10p + zeta * x.y11p,
        x.t - pair,
        zeta,
    )


def eta_tilde(x: GroupPoint, zetat) -> TwistorPoint:
    """Projection in the Wt chart."""
    pair = 2 * zetat * x.y00p * x.y10p + x.y01p * x.y10p + x.y00p * x.y11p
    return TwistorPoint(
        CHART_WT,
        zetat * x.y00p + x.y01p,
        zetat * x.y10p + x.y11p,
        x.t + pair,
        zetat,
    )


def _inv(z):
    if isinstance(z, RationalFunction):
        return RationalFunction.one(z.ctx) / z
    if isinstance(z, CRational):
        return z.inverse()
    return 1 / z


def chart_transition(p: TwistorPoint) -> TwistorPoint:
    """Move a W-chart point to the Wt chart (defined away from zeta = 0)."""
    if p.chart != CHART_W:
        raise TwistorError("chart_transition expects a W-chart point")
    zi = _inv(p.zeta)
    return TwistorPoint(
        CHART_WT, zi * p.w0, zi * p.w1, p.w2 + 2 * zi * p.w0 * p.w1, zi
    )


def chart_transition_inverse(p: TwistorPoint) -> TwistorPoint:
    """Move a Wt-chart point back to W; undoes chart_transition exactly."""
    if p.chart != CHART_WT:
        raise TwistorError("chart_transition_inverse expects a Wt-chart point")
    zi = _inv(p.zeta)
    return TwistorPoint(
        CHART_W, zi * p.w0, zi * p.w1, p.w2 - 2 * zi * p.w0 * p.w1, zi
    )


def alpha_plane_point(p: TwistorPoint, s0, s1) -> GroupPoint:
    """Parametrize the fiber of eta over a W-chart point."""
    if p.chart != CHART_W:
        raise TwistorError("alpha_plane_point expects a W-chart point")
    return GroupPoint(
        y00p=p.w0 - p.zeta * s0,
        y10p=p.w1 - p.zeta * s1,
        y01p=s0,
        y11p=s1,
        t=p.w2 + s1 * p.w0 + s0 * p.w1,
    )


def alpha_plane_point_tilde(p: TwistorPoint, s0, s1) -> GroupPoint:
    """Parametrize the fiber of eta_tilde over a Wt-chart point."""
    if p.chart != CHART_WT:
        raise TwistorError("alpha_plane_point_tilde expects a Wt-chart point")
    return GroupPoint(
        y00p=s0,
        y10p=s1,
        y01p=p.w0 - p.zeta * s0,
        y11p=p.w1 - p.zeta * s1,
        t=p.w2 - s1 * p.w0 - s0 * p.w1,
    )


# -- symbolic certificates -----------------------------------------------------


def _symbolic_group_point(ctx=CTX6) -> GroupPoint:
    vs = {n: RationalFunction.var(ctx, n) for n in COMPLEX_VARS}
    return GroupPoint(vs[Y00], vs[Y10], vs[Y01], vs[Y11], vs[TVAR])


def _plane_field(a: int, zeta: RationalFunction, f: RationalFunction):
    """zeta*V_{a0'} - V_{a1'}, the W-chart alpha-plane direction."""
    f0 = FieldId.V00 if a == 0 else FieldId.V10
    f1 = FieldId.V01 if a == 0 else FieldId.V11
    return zeta * apply_field(f0, f) - apply_field(f1, f)


def _plane_field_tilde(a: int, zetat: RationalFunction, f: RationalFunction):
    """V_{a0'} - zetat*V_{a1'}, the Wt-chart alpha-plane direction."""
    f0 = FieldId.V00 if a == 0 else FieldId.V10
    f1 = FieldId.V01 if a == 0 else FieldId.V11
    return apply_field(f0, f) - zetat * apply_field(f1, f)


def tangency_certificate() -> bool:
    """The plane fields annihilate every component of the projection of
    their own chart, with the loop parameter a sixth symbol."""
    x = _symbolic_group_point()
    z = RationalFunction.var(CTX6, ZVAR)
    p = eta(x, z)
    pt = eta_tilde(x, z)
    for a in (0, 1):
        for comp in (p.w0, p.w1, p.w2):
            if not _plane_field(a, z, comp).is_zero():
                return False
        for comp in (pt.w0, pt.w1, pt.w2):
            if not _plane_field_tilde(a, z, comp).is_zero():
                return False
    return True


def commuting_certificate() -> bool:
    """The two plane fields commute (first-order operators: checked on all
    coordinate functions, which determines the commutator)."""
    z = RationalFunction.var(CTX6, ZVAR)
    for name in COMPLEX_VARS:
        f = RationalFunction.var(CTX6, name)
        lhs = _plane_field(0, z, _plane_field(1, z, f)) - _plane_field(
            1, z, _plane_field(0, z, f)
        )
        if not lhs.is_zero():
            return False
    return True


def diagram_check(use_erratum_variant: bool = False) -> bool:
    """Chart transition of eta equals eta_tilde at the inverted parameter.

    With use_erratum_variant=True the quadratic correction in the transition
    is replaced by the w1*w2 misprint; the identity then fails, which the
    test suite asserts as a negative control.
    """
    x = _symbolic_group_point()
    z = RationalFunction.var(CTX6, ZVAR)
    zi = _inv(z)
    p = eta(x, z)
    if use_erratum_variant:
        moved = TwistorPoint(
            CHART_WT, zi * p.w0, zi * p.w1, p.w2 + 2 * zi * p.w1 * p.w2, zi
        )
    else:
        moved = chart_transition(p)
    target = eta_tilde(x, zi)
    return all(
        (a - b).is_zero() for a, b in zip(moved.coords(), target.coords())
    )


def alpha_roundtrip_certificate() -> bool:
    """eta of any parametrized fiber point returns the base point, for fully
    symbolic base and parameters, in both charts."""
    ctx = make_context("w0", "w1", "w2", ZVAR, "s0", "s1")
    w0, w1, w2, z, s0, s1 = (RationalFunction.var(ctx, n) for n in ctx)
    base = TwistorPoint(CHART_W, w0, w1, w2, z)
    back = eta(alpha_plane_point(base, s0, s1), z)
    if not all((a - b).is_zero() for a, b in zip(back.coords(), base.coords())):
        return False
    base_t = TwistorPoint(CHART_WT, w0, w1, w2, z)
    back_t = eta_tilde(alpha_plane_point_tilde(base_t, s0, s1), z)
    return all((a - b).is_zero() for a, b in zip(back_t.coords(), base_t.coords()))


def parametrization_agreement_certificate() -> bool:
    """Both chart parametrizations cut out the same plane: a Wt-parametrized
    point over the transported base still projects to the original W base."""
    ctx = make_context("w0", "w1", "w2", ZVAR, "s0", "s1")
    w0, w1, w2, z, s0, s1 = (RationalFunction.var(ctx, n) for n in ctx)
    base = TwistorPoint(CHART_W, w0, w1, w2, z)
    moved = chart_transition(base)
    pt = alpha_plane_point_tilde(moved, s0, s1)
    back = eta(pt, z)
    return all((a - b).is_zero() for a, b in zip(back.coords(), base.coords()))
