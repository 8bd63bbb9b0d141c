"""The ``h5`` command line: parses arguments and emits JSON.

The checks and the report layout live in ``checks``; this module picks
checks, builds and evaluates connections, and prints the results.  Exit
codes: 0 all checks pass, 1 a check failed (or a construction was
rejected), 2 usage errors, which print ``{"schema": 1, "error": ...}``.
Reports are byte-stable for a fixed seed and version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import List, Sequence

from . import ansatz, checks, gauge, heisenberg, realslice, twistor
from .exactalg import CRational, Context, MatRF, RationalFunction
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
        try:
            out = self._sum()
        except RecursionError:  # the process-wide limit stays as it is
            raise ExprError("expression nested too deeply") from None
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
    return _finish(checks.run_suite(args.suite, args.seed, VERSION), args.out)


def _matrix_to_json(m: MatRF) -> List[List[str]]:
    return [[str(e) for e in row] for row in m.entries]


def _parse_phit(text: str) -> MatRF | None:
    """``zero`` or a JSON 2x2 matrix of expressions."""
    if not text or text == "zero":
        return None
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"bad --point: {type(exc).__name__}: {exc}") from None


def _parse_zeta(text: str) -> CRational:
    try:
        return CRational.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --zeta: {exc}") from None


def _evaluate(m: MatRF, point) -> List[List[List[float]]]:
    """Each entry's value at the point, as [re, im]."""
    return [[[z.real, z.imag] for z in (e.evaluate(point) for e in row)] for row in m.entries]


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
                name: _evaluate(block, cpoint)
                for name, block in (
                    ("phi00p", conn.phi00),
                    ("phi10p", conn.phi10),
                    ("phi01p", conn.phi01),
                    ("phi11p", conn.phi11),
                )
            }
        elif args.object == "curvature":
            payload["value"] = [_evaluate(r, cpoint) for r in gauge.asd_residuals(conn)]
        elif args.object == "fhplus":
            rc = realslice.pullback_connection(conn)
            fh, _ = realslice.real_curvature_split(rc)
            rpoint = dict(zip(realslice.RVARS, args.real_point))
            payload["value"] = [_evaluate(m, rpoint) for m in fh]
    except ZeroDivisionError:
        return _error("singular locus at sample point", 1)
    _emit(payload, args.out)
    return 0


def cmd_real_check(args) -> int:
    picked = checks.realslice_suite(args.seed)
    if args.check is not None:
        names = [check_id.split(".", 1)[1] for check_id, _ in picked]
        if args.check not in names:
            choices = ", ".join(names)
            raise UsageError(f"unknown real-slice check {args.check!r}; choose from {choices}")
        picked = [c for c in picked if c[0] == f"realslice.{args.check}"]
    return _finish(checks.run_checks("realslice", args.seed, picked, VERSION), args.out)


def cmd_twistor_roundtrip(args) -> int:
    if args.samples < 0:
        raise UsageError(f"bad --samples: {args.samples} is negative")
    picked = checks.twistor_suite(args.seed, args.samples)
    return _finish(checks.run_checks("twistor", args.seed, picked, VERSION), args.out)


def _finite_float(text: str) -> float:
    """An argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as the JSON error object, with exit code 2."""

    def error(self, message: str):
        raise SystemExit(_error(message, 2))


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; each ``parse_args`` returns a
    fresh namespace, so no value carries over between calls."""
    ap = _ArgumentParser(
        prog="h5",
        description="Exact verification of anti-self-dual connections on the "
        "5D complex Heisenberg group.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    suites = sorted(checks.SUITES) + ["all"]
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
        "--real-point", type=_finite_float, nargs=5, default=[0.5, 0.25, -0.5, 0.75, 1.0],
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
    except (OverflowError, OSError) as exc:  # out-of-range input, unwritable --out
        return _error(f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
