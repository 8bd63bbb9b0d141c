"""The verification suites behind the ``h5`` reports, and the report layout.

A check is a ``(check id, function)`` pair.  The function takes no argument
and returns a bool, or ``(bool, detail)`` when it can name what failed;
``run_checks`` alone turns that into an entry's status, ``exact-pass`` or
``fail``.  Each suite builds its check list when it runs, not at import, so
a module attribute that a caller rebinds (a test counting calls, a tracer)
is the one the check calls.

The suites share one module because the gauge suite builds ``ansatz``
connections while ``ansatz`` imports ``gauge``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

from . import ansatz, gauge, heisenberg, realslice, so6model, twistor
from .exactalg import CRational, MatRF, MultiPoly, RationalFunction, make_context
from .heisenberg import CTX5, FieldId, GroupPoint

Check = Tuple[str, Callable[[], Union[bool, Tuple[bool, str]]]]


def _rand_crational(rng) -> CRational:
    return CRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
    )


def _rand_point(rng) -> GroupPoint:
    return GroupPoint(*(_rand_crational(rng) for _ in range(5)))


def _generic_quadratic():
    names = tuple(f"c{k}" for k in range(15))
    ctx = make_context(*(heisenberg.COMPLEX_VARS + names))
    vs = [MultiPoly.var(ctx, n) for n in heisenberg.COMPLEX_VARS]
    quad = MultiPoly.zero(ctx)
    k = 0
    for i in range(5):
        for j in range(i, 5):
            quad = quad + MultiPoly.var(ctx, names[k]) * vs[i] * vs[j]
            k += 1
    return RationalFunction(quad)


# -- suites ---------------------------------------------------------------------------


def algebra_suite(seed: int) -> List[Check]:
    ctx = make_context("a", "b")

    def field_axioms():
        rng = random.Random(seed)
        for _ in range(20):
            x = _rand_crational(rng)
            if x.is_zero():
                continue
            if not (x * x.inverse() == CRational(1) and (x + (-x)).is_zero()):
                return False, str(x)
        return True

    def poly_ring():
        a = RationalFunction.var(ctx, "a")
        b = RationalFunction.var(ctx, "b")
        return (a + b) ** 2 == a * a + 2 * a * b + b * b

    def rational_eq():
        a = RationalFunction.var(ctx, "a")
        b = RationalFunction.var(ctx, "b")
        return (a * a - b * b) / (a - b) == a + b

    def matrix_inverse():
        a = RationalFunction.var(ctx, "a")
        one = RationalFunction.one(ctx)
        zero = RationalFunction.zero(ctx)
        m = MatRF([[a, one], [one, zero]])
        return m @ m.inverse() == MatRF.identity(2, ctx)

    def loop_inverse():
        z = RationalFunction.var(make_context("zeta"), "zeta")
        zi = 1 / z
        return (z * zi - 1).is_zero()

    return [
        ("algebra.complex-field", field_axioms),
        ("algebra.poly-binomial", poly_ring),
        ("algebra.rational-cancel", rational_eq),
        ("algebra.matrix-inverse", matrix_inverse),
        ("algebra.loop-symbol", loop_inverse),
    ]


def heisenberg_suite(seed: int) -> List[Check]:
    def group_law():
        e00 = GroupPoint(CRational(1), CRational(0), CRational(0), CRational(0), CRational(0))
        e11 = GroupPoint(CRational(0), CRational(0), CRational(0), CRational(1), CRational(0))
        p = heisenberg.group_mul(e00, e11)
        return p.t == CRational(1) and heisenberg.group_mul(e11, e00).t == CRational(-1)

    def associativity():
        rng = random.Random(seed)
        for _ in range(20):
            a, b, c = (_rand_point(rng) for _ in range(3))
            lhs = heisenberg.group_mul(heisenberg.group_mul(a, b), c)
            rhs = heisenberg.group_mul(a, heisenberg.group_mul(b, c))
            if lhs != rhs:
                return False
        return True

    def brackets():
        q = _generic_quadratic()
        for a in FieldId:
            for b in FieldId:
                lhs = heisenberg.apply_field(a, heisenberg.apply_field(b, q)) - heisenberg.apply_field(
                    b, heisenberg.apply_field(a, q)
                )
                rhs = heisenberg.apply_field(FieldId.T, q) * RationalFunction.const(
                    q.ctx, heisenberg.bracket_table(a, b)
                )
                if lhs != rhs:
                    return False, f"[{a.name},{b.name}]"
        return True

    def harmonic_inst():
        return heisenberg.sub_laplacian(heisenberg.phi_inst()).is_zero()

    def left_invariance():
        rng = random.Random(seed + 1)
        f = RationalFunction.var(CTX5, "t") * RationalFunction.var(CTX5, "y00p")
        for _ in range(10):
            g = _rand_point(rng)
            sub = heisenberg.left_translation(g)
            for fid in FieldId:
                lhs = heisenberg.apply_field(fid, f).substitute(sub)
                rhs = heisenberg.apply_field(fid, f.substitute(sub))
                if lhs != rhs:
                    return False, fid.name
        return True

    def d_squared():
        f = _generic_quadratic()
        a = heisenberg.apply_field(FieldId.V00, heisenberg.apply_field(FieldId.V10, f))
        b = heisenberg.apply_field(FieldId.V10, heisenberg.apply_field(FieldId.V00, f))
        c = heisenberg.apply_field(FieldId.V01, heisenberg.apply_field(FieldId.V11, f))
        d = heisenberg.apply_field(FieldId.V11, heisenberg.apply_field(FieldId.V01, f))
        return (a - b).is_zero() and (c - d).is_zero()

    return [
        ("heisenberg.group-law", group_law),
        ("heisenberg.associativity", associativity),
        ("heisenberg.bracket-relations", brackets),
        ("heisenberg.harmonic-seed", harmonic_inst),
        ("heisenberg.left-invariance", left_invariance),
        ("heisenberg.d-squared-zero", d_squared),
    ]


def _nonasd_example() -> gauge.ConnectionForm:
    zero = MatRF.zeros(1, 1, CTX5)
    y10 = MatRF([[RationalFunction.var(CTX5, "y10p")]])
    return gauge.ConnectionForm(phi00=y10, phi10=zero, phi01=zero, phi11=zero)


def _nonharmonic_example() -> gauge.ConnectionForm:
    """``build_connection``'s formula on y00p*y11p, whose sub-Laplacian is 1:
    a rank-2 connection whose F_H^+ has all three parts nonzero."""
    phi = RationalFunction.var(CTX5, "y00p") * RationalFunction.var(CTX5, "y11p")
    return ansatz.build_connection(ansatz.HarmonicSeed(phi, heisenberg.sub_laplacian(phi)))


def gauge_suite(seed: int) -> List[Check]:
    def antisymmetry():
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        for a in FieldId:
            for b in FieldId:
                if gauge.curvature(conn, a, b) != -gauge.curvature(conn, b, a):
                    return False, f"({a.name},{b.name})"
        return True

    def phit_cancels():
        rng = random.Random(seed)
        pt = MatRF([[RationalFunction.const(CTX5, _rand_crational(rng)) for _ in range(2)] for _ in range(2)])
        base = ansatz.build_connection(ansatz.seed_catalog("t"))
        with_t = ansatz.build_connection(ansatz.seed_catalog("t"), phi_t=pt)
        return gauge.asd_residuals(base) == gauge.asd_residuals(with_t)

    def nonasd():
        r1, _, _ = gauge.asd_residuals(_nonasd_example())
        return r1[0, 0] == RationalFunction.const(CTX5, -1)

    def flatness_pencil():
        # rank 1 with R1 = -1, R2 = 1, R3 = -1, so every coefficient is pinned
        def entry(name):
            return MatRF([[RationalFunction.var(CTX5, name)]])

        zero = MatRF.zeros(1, 1, CTX5)
        conn = gauge.ConnectionForm(
            phi00=entry("y10p"), phi10=zero, phi01=entry("y11p"), phi11=entry("y00p")
        )
        r1, r2, r3 = gauge.asd_residuals(conn)
        pencil = gauge.zeta_flatness(conn)
        at_zero = {n: MultiPoly.var(CTX5, n) for n in CTX5}
        at_zero["zeta"] = MultiPoly.zero(CTX5)

        def coeff(k):  # the zeta^k coefficient: d^k/dzeta^k at zeta = 0, over k!
            m = pencil
            for _ in range(k):
                m = m.map(lambda e: e.derivative("zeta"))
            return m.map(lambda e: e.substitute(at_zero) / math.factorial(k))

        return coeff(2) == r1 and coeff(1) == -r2 and coeff(0) == r3

    def covariance():
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        one = RationalFunction.one(CTX5)
        zero = RationalFunction.zero(CTX5)
        g = MatRF([[RationalFunction.var(CTX5, "t"), one], [zero, one]])
        moved = gauge.gauge_transform(conn, g)
        ginv = g.inverse()
        want = tuple(ginv @ r @ g for r in gauge.asd_residuals(conn))
        return gauge.asd_residuals(moved) == want

    return [
        ("gauge.antisymmetry", antisymmetry),
        ("gauge.phit-independence", phit_cancels),
        ("gauge.nonasd-example", nonasd),
        ("gauge.zeta-pencil", flatness_pencil),
        ("gauge.covariance", covariance),
    ]


def _regression_seeds() -> List[Tuple[str, ansatz.HarmonicSeed]]:
    v = {n: RationalFunction.var(CTX5, n) for n in heisenberg.COMPLEX_VARS}
    cross = v["y00p"] * v["y11p"] + v["y10p"] * v["y01p"]
    return [
        ("inst", ansatz.seed_catalog("inst")),
        ("t", ansatz.seed_catalog("t")),
        ("lin:y00p", ansatz.seed_catalog("lin:y00p")),
        ("y00p*y10p", ansatz.HarmonicSeed.create(v["y00p"] * v["y10p"])),
        ("cross+t", ansatz.HarmonicSeed.create(cross + v["t"])),
    ]


def ansatz_suite(seed: int) -> List[Check]:
    def construction():
        for name, sd in _regression_seeds():
            if not gauge.is_asd(ansatz.build_connection(sd)):
                return False, name
        return True

    def chains():
        for name in ("t", "lin:y00p"):
            if not ansatz.gamma_recursion(ansatz.seed_catalog(name), 2).verify():
                return False, name
        return True

    def birkhoff():
        ok, failures = ansatz.birkhoff_identity_check()
        return ok, ",".join(failures)

    def h_conn():
        for name in ("t", "lin:y00p"):
            if not ansatz.h_connection_check(ansatz.seed_catalog(name)):
                return False, name
        return True

    return [
        ("ansatz.asd-construction", construction),
        ("ansatz.gamma-chains", chains),
        ("ansatz.birkhoff-identity", birkhoff),
        ("ansatz.h-connection", h_conn),
        ("ansatz.lambda-closedness", lambda: all(ansatz.lambda_closedness(_generic_quadratic()))),
    ]


def twistor_suite(seed: int, samples: int = 20) -> List[Check]:
    def roundtrip_samples():
        rng = random.Random(seed)
        for _ in range(samples):
            p = twistor.TwistorPoint(
                twistor.CHART_W,
                *(_rand_crational(rng) for _ in range(3)),
                zeta=_rand_crational(rng) + CRational(5),
            )
            s0, s1 = _rand_crational(rng), _rand_crational(rng)
            x = twistor.alpha_plane_point(p, s0, s1)
            if twistor.eta(x, p.zeta).coords() != p.coords():
                return False
            if twistor.chart_transition_inverse(twistor.chart_transition(p)) != p:
                return False
        return True

    return [
        ("twistor.tangency", twistor.tangency_certificate),
        ("twistor.commuting-fields", twistor.commuting_certificate),
        ("twistor.diagram", twistor.diagram_check),
        (
            "twistor.diagram-misprint-rejected",
            lambda: not twistor.diagram_check(use_erratum_variant=True),
        ),
        ("twistor.alpha-roundtrip", twistor.alpha_roundtrip_certificate),
        ("twistor.parametrization-agreement", twistor.parametrization_agreement_certificate),
        ("twistor.roundtrip-samples", roundtrip_samples),
    ]


REALSLICE_NOTES = [
    "note: the self-duality star-contraction uses the real field d/ds; "
    "contracting with i*d/ds would scale the printed eigenbasis by i and "
    "break the +-1 eigenvalue property (known misprint).",
    "note: the chart transition uses the quadratic correction 2*w0*w1/zeta; "
    "the w1*w2 variant is rejected by the gluing identity (known misprint).",
]


def realslice_suite(seed: int) -> List[Check]:
    def field_consistency():
        f = heisenberg.phi_inst()
        for fid in FieldId:
            lhs = realslice.real_field(fid, realslice.pullback(f))
            if lhs != realslice.pullback(heisenberg.apply_field(fid, f)):
                return False, fid.name
        return True

    def split_idempotent():
        ctx = realslice.RCTX
        dy = [realslice.RealForm.covector(ctx, k) for k in range(5)]
        mixed = dy[0].wedge(dy[4]) + dy[1].wedge(dy[2]).scale(3)
        h, v = realslice.hv_split(mixed)
        if h + v != mixed:
            return False, "sum"
        h2, v2 = realslice.hv_split(h)
        return h2 == h and v2.is_zero()

    def two_path():
        # on a non-ASD input, so a wrong projector cannot pass as 0 == 0
        rc = realslice.pullback_connection(_nonharmonic_example())
        fh, _ = realslice.real_curvature_split(rc)
        fh2 = realslice.real_curvature_split_projector(rc)
        return not any(m.is_zero() for m in fh) and all(a == b for a, b in zip(fh, fh2))

    def inst_contact():
        conn = ansatz.build_connection(ansatz.seed_catalog("inst"))
        rc = realslice.pullback_connection(conn)
        fh, _ = realslice.real_curvature_split(rc)
        return all(m.is_zero() for m in fh)

    return [
        ("realslice.eigenvalues", realslice.eigenvalue_certificate),
        ("realslice.dtheta", realslice.dtheta_certificate),
        ("realslice.star-involution", realslice.star_involution_certificate),
        ("realslice.s-basis-rank", realslice.s_basis_rank_certificate),
        ("realslice.fiber-uniqueness", realslice.fiber_uniqueness_certificate),
        ("realslice.real-eta", realslice.real_eta_certificate),
        ("realslice.field-consistency", field_consistency),
        (
            "realslice.real-harmonic",
            lambda: realslice.real_sub_laplacian(realslice.phi_real()).is_zero(),
        ),
        ("realslice.hv-idempotent", split_idempotent),
        ("realslice.two-path-curvature", two_path),
        ("realslice.contact-instanton", inst_contact),
    ]


def so6_suite(seed: int) -> List[Check]:
    return [(f"so6.{name}", fn) for name, fn in so6model.SUITE]


SUITES: Dict[str, Callable[[int], List[Check]]] = {
    "algebra": algebra_suite,
    "heisenberg": heisenberg_suite,
    "gauge": gauge_suite,
    "ansatz": ansatz_suite,
    "twistor": twistor_suite,
    "realslice": realslice_suite,
    "so6": so6_suite,
}


# -- reports --------------------------------------------------------------------------


def run_suite(name: str, seed: int, version: str) -> dict:
    """The report of a suite, or of ``all`` of them."""
    names = sorted(SUITES) if name == "all" else [name]
    return run_checks(name, seed, [c for n in names for c in SUITES[n](seed)], version)


def run_checks(name: str, seed: int, checks: List[Check], version: str) -> dict:
    """The report of the given checks under the suite name ``name``."""
    entries = []
    for check_id, fn in checks:
        try:
            result = fn()
            ok, detail = result if isinstance(result, tuple) else (result, "")
        except Exception as exc:  # surface, don't crash the report
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        entries.append({"id": check_id, "status": "exact-pass" if ok else "fail", "detail": detail})
    entries.sort(key=lambda e: e["id"])
    report = {
        "schema": 1,
        "suite": name,
        "version": version,
        "seed": seed,
        "entries": entries,
    }
    if name in ("realslice", "all"):
        report["notes"] = REALSLICE_NOTES
    return report
