"""Command-line driver: verification suites, construction, evaluation.

Exit codes: 0 all checks pass, 1 a check failed (or a construction was
rejected), 2 usage errors.  Reports are JSON with a ``schema: 1`` marker,
entries sorted by check id, and are byte-stable for a fixed seed and
version (timings are excluded by default for that reason).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import ansatz, gauge, heisenberg, numcheck, realslice, so6model, twistor
from .exactalg import (
    CRational,
    Context,
    MatRF,
    MultiPoly,
    RationalFunction,
    make_context,
)
from .heisenberg import CTX5, FieldId, GroupPoint

try:
    from importlib.metadata import version as _version

    VERSION = _version("h5twistor")
except Exception:  # pragma: no cover
    VERSION = "0.0.0"


# -- expression micro-grammar ----------------------------------------------------


class UsageError(ValueError):
    """Bad command-line input: a JSON error with exit code 2."""


class ExprError(UsageError):
    pass


class _Parser:
    """Recursive-descent parser for rational-function expressions.

    Grammar: variables of the active context, integers, ``i``, the
    operators + - * / ^ and parentheses.
    """

    def __init__(self, text: str, ctx: Context):
        self.tokens = self._lex(text)
        self.pos = 0
        self.ctx = ctx

    @staticmethod
    def _lex(text: str) -> List[str]:
        out: List[str] = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "+-*/^()":
                out.append(c)
                i += 1
            elif c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                out.append(text[i:j])
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(text[i:j])
                i = j
            else:
                raise ExprError(f"unexpected character {c!r}")
        return out

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> RationalFunction:
        out = self._sum()
        if self._peek() is not None:
            raise ExprError(f"trailing input at {self._peek()!r}")
        return out

    def _sum(self) -> RationalFunction:
        if self._peek() in ("+", "-"):
            sign = self._next()
            left = self._product()
            if sign == "-":
                left = -left
        else:
            left = self._product()
        while self._peek() in ("+", "-"):
            op = self._next()
            right = self._product()
            left = left + right if op == "+" else left - right
        return left

    def _product(self) -> RationalFunction:
        left = self._power()
        while self._peek() in ("*", "/"):
            op = self._next()
            right = self._power()
            if op == "/":
                if right.is_zero():
                    raise ExprError("division by zero")
                left = left / right
            else:
                left = left * right
        return left

    def _power(self) -> RationalFunction:
        base = self._atom()
        if self._peek() == "^":
            self._next()
            neg = False
            tok = self._next()
            if tok == "-":
                neg = True
                tok = self._next()
            if not tok.isdigit():
                raise ExprError("exponent must be an integer")
            n = int(tok)
            return base ** (-n if neg else n)
        return base

    def _atom(self) -> RationalFunction:
        tok = self._next()
        if tok == "(":
            out = self._sum()
            if self._next() != ")":
                raise ExprError("missing closing parenthesis")
            return out
        if tok == "-":
            return -self._atom()
        if tok.isdigit():
            return RationalFunction.const(self.ctx, int(tok))
        if tok == "i":
            return RationalFunction.const(self.ctx, CRational(0, 1))
        if tok in self.ctx:
            return RationalFunction.var(self.ctx, tok)
        raise ExprError(f"unknown symbol {tok!r}")


def parse_expression(text: str, ctx: Context = CTX5) -> RationalFunction:
    return _Parser(text, ctx).parse()


def parse_seed(text: str, ctx: Context = CTX5) -> ansatz.HarmonicSeed:
    """Named catalog entry or a rational-function expression."""
    try:
        return ansatz.seed_catalog(text, ctx)
    except ansatz.AnsatzError:
        phi = parse_expression(text, ctx)
        return ansatz.HarmonicSeed.create(phi)


# -- check plumbing ---------------------------------------------------------------

Check = Tuple[str, Callable[[], Tuple[str, str]]]


def _exact(ok: bool, detail: str = "") -> Tuple[str, str]:
    return ("exact-pass" if ok else "fail", detail)


def _rand_crational(rng) -> CRational:
    return CRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
    )


def _rand_point(rng) -> GroupPoint:
    return GroupPoint(*(_rand_crational(rng) for _ in range(5)))


# -- suite definitions --------------------------------------------------------------


def _suite_algebra(seed: int) -> List[Check]:
    import random

    ctx = make_context("a", "b")

    def field_axioms():
        rng = random.Random(seed)
        for _ in range(20):
            x = _rand_crational(rng)
            if x.is_zero():
                continue
            if not (x * x.inverse() == CRational(1) and (x + (-x)).is_zero()):
                return _exact(False, str(x))
        return _exact(True)

    def poly_ring():
        a = RationalFunction.var(ctx, "a")
        b = RationalFunction.var(ctx, "b")
        return _exact((a + b) ** 2 == a * a + 2 * a * b + b * b)

    def rational_eq():
        a = RationalFunction.var(ctx, "a")
        b = RationalFunction.var(ctx, "b")
        return _exact((a * a - b * b) / (a - b) == a + b)

    def matrix_inverse():
        a = RationalFunction.var(ctx, "a")
        one = RationalFunction.one(ctx)
        zero = RationalFunction.zero(ctx)
        m = MatRF([[a, one], [one, zero]])
        return _exact(m @ m.inverse() == MatRF.identity(2, ctx))

    def loop_inverse():
        z = RationalFunction.var(make_context("zeta"), "zeta")
        zi = 1 / z
        return _exact((z * zi - 1).is_zero())

    return [
        ("algebra.complex-field", field_axioms),
        ("algebra.poly-binomial", poly_ring),
        ("algebra.rational-cancel", rational_eq),
        ("algebra.matrix-inverse", matrix_inverse),
        ("algebra.loop-symbol", loop_inverse),
    ]


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


def _suite_heisenberg(seed: int) -> List[Check]:
    import random

    def group_law():
        e00 = GroupPoint(CRational(1), CRational(0), CRational(0), CRational(0), CRational(0))
        e11 = GroupPoint(CRational(0), CRational(0), CRational(0), CRational(1), CRational(0))
        p = heisenberg.group_mul(e00, e11)
        return _exact(p.t == CRational(1) and heisenberg.group_mul(e11, e00).t == CRational(-1))

    def associativity():
        rng = random.Random(seed)
        for _ in range(20):
            a, b, c = (_rand_point(rng) for _ in range(3))
            lhs = heisenberg.group_mul(heisenberg.group_mul(a, b), c)
            rhs = heisenberg.group_mul(a, heisenberg.group_mul(b, c))
            if lhs != rhs:
                return _exact(False)
        return _exact(True)

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
                    return _exact(False, f"[{a.name},{b.name}]")
        return _exact(True)

    def harmonic_inst():
        return _exact(heisenberg.sub_laplacian(heisenberg.phi_inst()).is_zero())

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
                    return _exact(False, fid.name)
        return _exact(True)

    def d_squared():
        f = _generic_quadratic()
        a = heisenberg.apply_field(FieldId.V00, heisenberg.apply_field(FieldId.V10, f))
        b = heisenberg.apply_field(FieldId.V10, heisenberg.apply_field(FieldId.V00, f))
        c = heisenberg.apply_field(FieldId.V01, heisenberg.apply_field(FieldId.V11, f))
        d = heisenberg.apply_field(FieldId.V11, heisenberg.apply_field(FieldId.V01, f))
        return _exact((a - b).is_zero() and (c - d).is_zero())

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


def _suite_gauge(seed: int) -> List[Check]:
    import random

    def antisymmetry():
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        for a in FieldId:
            for b in FieldId:
                if gauge.curvature(conn, a, b) != -gauge.curvature(conn, b, a):
                    return _exact(False, f"({a.name},{b.name})")
        return _exact(True)

    def phit_cancels():
        rng = random.Random(seed)
        pt = MatRF([[RationalFunction.const(CTX5, _rand_crational(rng)) for _ in range(2)] for _ in range(2)])
        base = ansatz.build_connection(ansatz.seed_catalog("t"))
        with_t = ansatz.build_connection(ansatz.seed_catalog("t"), phi_t=pt)
        return _exact(gauge.asd_residuals(base) == gauge.asd_residuals(with_t))

    def nonasd():
        r1, _, _ = gauge.asd_residuals(_nonasd_example())
        return _exact(r1[0, 0] == RationalFunction.const(CTX5, -1))

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

        return _exact(coeff(2) == r1 and coeff(1) == -r2 and coeff(0) == r3)

    def covariance():
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        one = RationalFunction.one(CTX5)
        zero = RationalFunction.zero(CTX5)
        g = MatRF([[RationalFunction.var(CTX5, "t"), one], [zero, one]])
        moved = gauge.gauge_transform(conn, g)
        ginv = g.inverse()
        want = tuple(ginv @ r @ g for r in gauge.asd_residuals(conn))
        return _exact(gauge.asd_residuals(moved) == want)

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


def _suite_ansatz(seed: int) -> List[Check]:
    def construction():
        for name, sd in _regression_seeds():
            if not gauge.is_asd(ansatz.build_connection(sd)):
                return _exact(False, name)
        return _exact(True)

    def chains():
        for name in ("t", "lin:y00p"):
            chain = ansatz.gamma_recursion(ansatz.seed_catalog(name), 2)
            if not chain.verify():
                return _exact(False, name)
        return _exact(True)

    def birkhoff():
        ok, failures = ansatz.birkhoff_identity_check()
        return _exact(ok, ",".join(failures))

    def h_conn():
        for name in ("t", "lin:y00p"):
            if not ansatz.h_connection_check(ansatz.seed_catalog(name)):
                return _exact(False, name)
        return _exact(True)

    def closedness():
        a, b = ansatz.lambda_closedness(_generic_quadratic())
        return _exact(a and b)

    return [
        ("ansatz.asd-construction", construction),
        ("ansatz.gamma-chains", chains),
        ("ansatz.birkhoff-identity", birkhoff),
        ("ansatz.h-connection", h_conn),
        ("ansatz.lambda-closedness", closedness),
    ]


def _suite_twistor(seed: int, samples: int = 20) -> List[Check]:
    import random

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
            back = twistor.eta(x, p.zeta)
            if back.coords() != p.coords():
                return _exact(False)
            if twistor.chart_transition_inverse(twistor.chart_transition(p)) != p:
                return _exact(False)
        return _exact(True)

    return [
        ("twistor.tangency", lambda: _exact(twistor.tangency_certificate())),
        ("twistor.commuting-fields", lambda: _exact(twistor.commuting_certificate())),
        ("twistor.diagram", lambda: _exact(twistor.diagram_check())),
        (
            "twistor.diagram-misprint-rejected",
            lambda: _exact(not twistor.diagram_check(use_erratum_variant=True)),
        ),
        ("twistor.alpha-roundtrip", lambda: _exact(twistor.alpha_roundtrip_certificate())),
        (
            "twistor.parametrization-agreement",
            lambda: _exact(twistor.parametrization_agreement_certificate()),
        ),
        ("twistor.roundtrip-samples", roundtrip_samples),
    ]


REALSLICE_NOTES = [
    "note: the self-duality star-contraction uses the real field d/ds; "
    "contracting with i*d/ds would scale the printed eigenbasis by i and "
    "break the +-1 eigenvalue property (known misprint).",
    "note: the chart transition uses the quadratic correction 2*w0*w1/zeta; "
    "the w1*w2 variant is rejected by the gluing identity (known misprint).",
]


def _suite_realslice(seed: int) -> List[Check]:
    def field_consistency():
        f = heisenberg.phi_inst()
        for fid in FieldId:
            lhs = realslice.real_field(fid, realslice.pullback(f))
            rhs = realslice.pullback(heisenberg.apply_field(fid, f))
            if lhs != rhs:
                return _exact(False, fid.name)
        return _exact(True)

    def real_harmonic():
        return _exact(realslice.real_sub_laplacian(realslice.phi_real()).is_zero())

    def split_idempotent():
        ctx = realslice.RCTX
        dy = [realslice.RealForm.covector(ctx, k) for k in range(5)]
        mixed = dy[0].wedge(dy[4]) + dy[1].wedge(dy[2]).scale(3)
        h, v = realslice.hv_split(mixed)
        if h + v != mixed:
            return _exact(False, "sum")
        h2, v2 = realslice.hv_split(h)
        return _exact(h2 == h and v2.is_zero())

    def two_path():
        conn = ansatz.build_connection(ansatz.seed_catalog("t"))
        rc = realslice.pullback_connection(conn)
        fh, _ = realslice.real_curvature_split(rc)
        fh2 = realslice.real_curvature_split_projector(rc)
        return _exact(all(a == b for a, b in zip(fh, fh2)))

    def inst_contact():
        conn = ansatz.build_connection(ansatz.seed_catalog("inst"))
        rc = realslice.pullback_connection(conn)
        fh, _ = realslice.real_curvature_split(rc)
        return _exact(all(m.is_zero() for m in fh))

    return [
        ("realslice.eigenvalues", lambda: _exact(realslice.eigenvalue_certificate())),
        ("realslice.dtheta", lambda: _exact(realslice.dtheta_certificate())),
        ("realslice.star-involution", lambda: _exact(realslice.star_involution_certificate())),
        ("realslice.s-basis-rank", lambda: _exact(realslice.s_basis_rank_certificate())),
        ("realslice.fiber-uniqueness", lambda: _exact(realslice.fiber_uniqueness_certificate())),
        ("realslice.real-eta", lambda: _exact(realslice.real_eta_certificate())),
        ("realslice.field-consistency", field_consistency),
        ("realslice.real-harmonic", real_harmonic),
        ("realslice.hv-idempotent", split_idempotent),
        ("realslice.two-path-curvature", two_path),
        ("realslice.contact-instanton", inst_contact),
    ]


def _suite_so6(seed: int) -> List[Check]:
    return [
        (f"so6.{name}", (lambda fn=fn: _exact(fn())))
        for name, fn in so6model.SUITE
    ]


SUITES: Dict[str, Callable[[int], List[Check]]] = {
    "algebra": _suite_algebra,
    "heisenberg": _suite_heisenberg,
    "gauge": _suite_gauge,
    "ansatz": _suite_ansatz,
    "twistor": _suite_twistor,
    "realslice": _suite_realslice,
    "so6": _suite_so6,
}


def run_suite(name: str, seed: int) -> dict:
    """Run a suite, or ``all`` of them."""
    names = sorted(SUITES) if name == "all" else [name]
    return run_checks(name, seed, [c for n in names for c in SUITES[n](seed)])


def run_checks(name: str, seed: int, checks: List[Check]) -> dict:
    """The report of the given checks under the suite name ``name``."""
    entries = []
    for check_id, fn in checks:
        try:
            status, detail = fn()
        except Exception as exc:  # surface, don't crash the report
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        entries.append({"id": check_id, "status": status, "detail": detail})
    entries.sort(key=lambda e: e["id"])
    report = {
        "schema": 1,
        "suite": name,
        "version": VERSION,
        "seed": seed,
        "entries": entries,
    }
    if name in ("realslice", "all"):
        report["notes"] = REALSLICE_NOTES
    return report


# -- commands -----------------------------------------------------------------------


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finish(report: dict, out: str | None) -> int:
    _emit(report, out)
    return 0 if all(e["status"] != "fail" for e in report["entries"]) else 1


def cmd_verify(args) -> int:
    return _finish(run_suite(args.suite, args.seed), args.out)


def _matrix_to_json(m: MatRF) -> List[List[str]]:
    return [[str(e) for e in row] for row in m.entries]


def _parse_phit(text: str) -> MatRF | None:
    """``zero`` or a JSON 2x2 matrix of expressions."""
    if not text or text == "zero":
        return None
    try:
        rows = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"bad --phit: {exc}") from None
    shape = [len(r) if isinstance(r, list) else 0 for r in rows] if isinstance(rows, list) else []
    if shape != [2, 2]:
        raise UsageError("bad --phit: expected a 2x2 JSON matrix of expressions")
    return MatRF([[parse_expression(str(e), CTX5) for e in row] for row in rows])


def cmd_construct(args) -> int:
    seed = parse_seed(args.phi)
    conn = ansatz.build_connection(seed, phi_t=_parse_phit(args.phit))
    r1, r2, r3 = gauge.asd_residuals(conn)
    payload = {
        "schema": 1,
        "phi": args.phi,
        "rank": conn.rank,
        "blocks": {
            "phi00p": _matrix_to_json(conn.phi00),
            "phi10p": _matrix_to_json(conn.phi10),
            "phi01p": _matrix_to_json(conn.phi01),
            "phi11p": _matrix_to_json(conn.phi11),
            "phit": _matrix_to_json(conn.block(FieldId.T)),
        },
        "asd_residuals_zero": [r1.is_zero(), r2.is_zero(), r3.is_zero()],
    }
    _emit(payload, args.out)
    return 0 if all(payload["asd_residuals_zero"]) else 1


def _parse_point(text: str) -> GroupPoint:
    try:
        return GroupPoint.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad --point: {type(exc).__name__}: {exc}") from None


def _parse_zeta(text: str) -> CRational:
    try:
        return CRational.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --zeta: {exc}") from None


def _num(z: complex) -> List[float]:
    return [z.real, z.imag]


def cmd_eval(args) -> int:
    point = _parse_point(args.point) if args.point else GroupPoint.origin()
    cpoint = {
        k: v.to_complex()
        for k, v in zip(heisenberg.COMPLEX_VARS, point.coords())
    }
    payload: dict = {"schema": 1, "object": args.object}
    if args.object == "eta":
        p = twistor.eta(point, _parse_zeta(args.zeta))
        payload["value"] = json.loads(p.to_json())
        _emit(payload, args.out)
        return 0
    seed = parse_seed(args.phi)
    conn = ansatz.build_connection(seed)
    try:
        if args.object == "connection":
            payload["value"] = {
                name: [[_num(e.evaluate(cpoint)) for e in row] for row in block.entries]
                for name, block in (
                    ("phi00p", conn.phi00),
                    ("phi10p", conn.phi10),
                    ("phi01p", conn.phi01),
                    ("phi11p", conn.phi11),
                )
            }
        elif args.object == "curvature":
            rs = gauge.asd_residuals(conn)
            payload["value"] = [
                [[_num(e.evaluate(cpoint)) for e in row] for row in r.entries]
                for r in rs
            ]
        elif args.object == "fhplus":
            rc = realslice.pullback_connection(conn)
            fh, _ = realslice.real_curvature_split(rc)
            rpoint = {n: cpoint_real for n, cpoint_real in zip(realslice.RVARS, args.real_point)}
            payload["value"] = [
                [[_num(e.evaluate(rpoint)) for e in row] for row in m.entries]
                for m in fh
            ]
    except ZeroDivisionError:
        return _error("singular locus at sample point", 1)
    _emit(payload, args.out)
    return 0


def cmd_real_check(args) -> int:
    checks = _suite_realslice(args.seed)
    if args.check is not None:
        only = f"realslice.{args.check}"
        if only not in [check_id for check_id, _ in checks]:
            names = ", ".join(check_id.split(".", 1)[1] for check_id, _ in checks)
            raise UsageError(f"unknown real-slice check {args.check!r}; choose from {names}")
        checks = [c for c in checks if c[0] == only]
    return _finish(run_checks("realslice", args.seed, checks), args.out)


def cmd_twistor_roundtrip(args) -> int:
    checks = _suite_twistor(args.seed, args.samples)
    return _finish(run_checks("twistor", args.seed, checks), args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="h5",
        description="Exact verification of anti-self-dual connections on the "
        "5D complex Heisenberg group.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    suites = sorted(SUITES) + ["all"]
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=suites, default="all")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=["json"], default="json")
    p_verify.set_defaults(fn=cmd_verify)

    p_con = sub.add_parser("construct", help="build a connection from a seed")
    p_con.add_argument("--phi", required=True, help="seed name or expression")
    p_con.add_argument("--phit", default="zero", help="'zero' or a JSON matrix of expressions")
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(fn=cmd_construct)

    p_eval = sub.add_parser("eval", help="evaluate an object at a point")
    p_eval.add_argument("--object", choices=["connection", "curvature", "eta", "fhplus"], required=True)
    p_eval.add_argument("--phi", default="inst")
    p_eval.add_argument("--zeta", default="0")
    p_eval.add_argument("--point", default=None, help="GroupPoint JSON")
    p_eval.add_argument(
        "--real-point", type=float, nargs=5, default=[0.5, 0.25, -0.5, 0.75, 1.0],
        metavar=("Y1", "Y2", "Y3", "Y4", "S"),
    )
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_rep = sub.add_parser("report", help="emit the combined verification report")
    p_rep.add_argument("--seed", type=int, default=2024)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(fn=cmd_verify, suite="all")

    # convenience aliases for individual areas
    p_tw = sub.add_parser("twistor", help="twistor-specific checks")
    tw_sub = p_tw.add_subparsers(dest="twistor_command", required=True)
    p_rt = tw_sub.add_parser("roundtrip")
    p_rt.add_argument("--samples", type=int, default=20)
    p_rt.add_argument("--seed", type=int, default=2024)
    p_rt.add_argument("--out", default=None)
    p_rt.set_defaults(fn=cmd_twistor_roundtrip)

    p_real = sub.add_parser("real", help="real-slice checks")
    real_sub = p_real.add_subparsers(dest="real_command", required=True)
    p_rc = real_sub.add_parser("check")
    p_rc.add_argument(
        "--suite", dest="check", default=None,
        help="one real-slice check, e.g. contact-instanton (default: all of them)",
    )
    p_rc.add_argument("--seed", type=int, default=2024)
    p_rc.add_argument("--out", default=None)
    p_rc.set_defaults(fn=cmd_real_check)

    p_so6 = sub.add_parser("so6", help="matrix-model checks")
    so6_sub = p_so6.add_subparsers(dest="so6_command", required=True)
    p_va = so6_sub.add_parser("verify-all")
    p_va.add_argument("--seed", type=int, default=2024)
    p_va.add_argument("--out", default=None)
    p_va.set_defaults(fn=cmd_verify, suite="so6")

    return ap


def _error(message: str, code: int) -> int:
    print(json.dumps({"schema": 1, "error": message}))
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ansatz.AnsatzError as exc:  # e.g. a seed that is not harmonic
        return _error(str(exc), 1)
    except ExprError as exc:
        return _error(f"bad expression: {exc}", 2)
    except UsageError as exc:
        return _error(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
