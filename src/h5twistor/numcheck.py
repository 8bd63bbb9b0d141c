"""Floating-point spot checks of the exact layer.

Every symbolic identity in the package is exact; this module provides an
independent finite-difference oracle and singularity-aware random sampling
so that the exact results can also be confirmed numerically.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .exactalg import RationalFunction
from .heisenberg import COMPLEX_VARS, T_COEFF, TVAR, FieldId, apply_field


class NearSingularError(ValueError):
    pass


EPS_DEN = 1e-6


class SamplePlan(NamedTuple):
    count: int = 100
    seed: int = 2024
    box: float = 2.0  # re/im parts drawn uniformly from [-box, box]
    eps_den: float = EPS_DEN
    fd_step: float = 1e-5
    tol: float = 1e-6


def evaluate(
    f: RationalFunction, point: Mapping[str, complex], eps_den: float = EPS_DEN
) -> complex:
    """Double-precision value; raises ``NearSingularError`` where the
    denominator's modulus is at most ``eps_den``."""
    den = f.den.evaluate(point)
    if abs(den) <= eps_den:
        raise NearSingularError(f"denominator {abs(den):.3g} at sample point")
    return f.num.evaluate(point) / den


def sample_points(
    plan: SamplePlan, names: Sequence[str], guards: Sequence[RationalFunction] = ()
) -> Tuple[List[Dict[str, complex]], int]:
    """Deterministic random complex points, rejecting those whose guard
    denominators are near zero.  Returns (accepted, rejected_count)."""
    rng = random.Random(plan.seed)
    accepted: List[Dict[str, complex]] = []
    rejected = 0
    while len(accepted) < plan.count:
        p = {
            n: complex(
                rng.uniform(-plan.box, plan.box), rng.uniform(-plan.box, plan.box)
            )
            for n in names
        }
        ok = True
        for g in guards:
            if abs(g.den.evaluate(p)) <= plan.eps_den:
                ok = False
                break
        if ok:
            accepted.append(p)
        else:
            rejected += 1
            if rejected > 100 * plan.count:
                raise NearSingularError("all samples rejected")
    return accepted, rejected


def _fd_partial(
    f: RationalFunction, point: Dict[str, complex], name: str, h: float, eps_den: float
) -> complex:
    up = dict(point)
    dn = dict(point)
    up[name] = point[name] + h
    dn[name] = point[name] - h
    return (evaluate(f, up, eps_den) - evaluate(f, dn, eps_den)) / (2 * h)


def fd_field_value(
    fid: FieldId,
    f: RationalFunction,
    point: Dict[str, complex],
    h: float,
    eps_den: float = EPS_DEN,
) -> complex:
    """Central-difference value of a left-invariant field (the functions
    are complex-analytic, so a real step per complex coordinate suffices)."""
    if fid is FieldId.T:
        return _fd_partial(f, point, TVAR, h, eps_den)
    coord, sign = T_COEFF[fid]
    out = _fd_partial(f, point, fid.value, h, eps_den)
    return out + sign * point[coord] * _fd_partial(f, point, TVAR, h, eps_den)


def fd_field_check(fid: FieldId, f: RationalFunction, plan: SamplePlan) -> float:
    """Max relative error of finite differences against the exact field."""
    sym = apply_field(fid, f)
    pts, _ = sample_points(plan, COMPLEX_VARS, guards=(f, sym))
    worst = 0.0
    for p in pts:
        fd = fd_field_value(fid, f, p, plan.fd_step, plan.eps_den)
        exact = evaluate(sym, p, plan.eps_den)
        err = abs(fd - exact) / max(1.0, abs(exact))
        worst = max(worst, err)
    return worst


def convergence_slope(
    fid: FieldId,
    f: RationalFunction,
    plan: SamplePlan,
    steps: Sequence[float] = (1e-1, 5e-2, 2.5e-2, 1.25e-2),
) -> float:
    """Log-log least-squares slope of the FD error in the step size; central
    differences give slope about 2."""
    sym = apply_field(fid, f)
    pts, _ = sample_points(
        SamplePlan(count=10, seed=plan.seed, box=plan.box, eps_den=plan.eps_den),
        COMPLEX_VARS,
        guards=(f, sym),
    )
    xs: List[float] = []
    ys: List[float] = []
    for h in steps:
        err = 0.0
        for p in pts:
            fd = fd_field_value(fid, f, p, h, plan.eps_den)
            exact = evaluate(sym, p, plan.eps_den)
            err = max(err, abs(fd - exact) / max(1.0, abs(exact)))
        if err <= 1e-12:
            # exact up to roundoff (low-degree polynomials); no slope to fit
            continue
        xs.append(math.log(h))
        ys.append(math.log(err))
    if len(xs) < 2:
        return 2.0
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
