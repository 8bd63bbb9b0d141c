"""Workload inputs, operations and correctness gates.

Inputs are plain data (ints, strings, Fractions, complex numbers) drawn from
the workload seed, so the program only ever receives generated inputs.  Each
operation calls the program's public functions and raises ``GateFailure``
when a result is wrong; any other exception is a failed operation too.

``h5`` below is a namespace holding the imported program modules
(``cli``, ``ansatz``, ``gauge``, ...), passed in because the runner imports
the package several times while it times set-up.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement


class GateFailure(AssertionError):
    """An operation completed but its result is wrong."""


def _gate(ok: bool, reason: str) -> None:
    if not ok:
        raise GateFailure(reason)


def digest(data) -> str:
    """Short sha256 of the canonical text of generated inputs."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cli(h5, argv):
    """``h5 <argv>`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = h5.cli.main(argv)
    return code, buf.getvalue()


# -- verify-all --------------------------------------------------------------------


class VerifyAll:
    """One op is the full ``h5 verify --suite all`` report at the seed."""

    name = "verify-all"
    tail_percentile = 100  # a run holds only a handful of reports

    def make_inputs(self, seed: int):
        return {"argv": ["verify", "--suite", "all", "--seed", str(seed)]}

    def ops(self, h5, inputs):
        info = {}

        def report():
            code, text = _run_cli(h5, inputs["argv"])
            entries = json.loads(text)["entries"]
            bad = [e["id"] for e in entries if e["status"] != "exact-pass"]
            _gate(not bad, f"not exact-pass: {bad}")
            _gate(code == 0 and len(entries) > 0, f"exit code {code}")
            # the first report of the run is the reference for the others
            sha = hashlib.sha256(text.encode()).hexdigest()
            _gate(info.setdefault("report_sha256", sha) == sha, "report bytes differ")

        return [report], info


# -- gauge-swell -------------------------------------------------------------------

# Every seed does the same amount of algebra: the shape is fixed (upper entry
# a*y00p + b*t, lower entry c*y00p / (t + k), then diag(scalar, 1)), and the
# seed only deals the same pools of numbers out to the moves, with signs.
MOVES_PER_PASS = 4
COEFFICIENTS = [Fraction(n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4)]
SHIFTS = [1, 2, 3, 4]
SCALARS = [Fraction(1), Fraction(2, 3), Fraction(3, 2), Fraction(5, 2)]


def make_moves(seed: int):
    rng = random.Random(f"gauge-swell:{seed}")
    c = [x * rng.choice((1, -1)) for x in rng.sample(COEFFICIENTS, len(COEFFICIENTS))]
    shifts = rng.sample(SHIFTS, len(SHIFTS))
    scalars = rng.sample(SCALARS, len(SCALARS))
    return [
        {
            "upper": [("y00p", c[3 * i]), ("t", c[3 * i + 1])],
            "lower": [("y00p", c[3 * i + 2])],
            "shift": shifts[i],
            "scalar": scalars[i],
        }
        for i in range(MOVES_PER_PASS)
    ]


def build_move(h5, move):
    """g = upper @ lower @ diag(scalar, 1), as in the gauge-invariance check."""
    ex = h5.exactalg
    ctx = h5.heisenberg.CTX5
    one, zero = ex.RationalFunction.one(ctx), ex.RationalFunction.zero(ctx)

    def const(c):
        return ex.RationalFunction.const(ctx, ex.CRational(c))

    def linear(terms):
        out = zero
        for name, c in terms:
            out = out + const(c) * ex.RationalFunction.var(ctx, name)
        return out

    t = ex.RationalFunction.var(ctx, "t")
    upper = ex.MatRF([[one, linear(move["upper"])], [zero, one]])
    lower = ex.MatRF([[one, zero], [linear(move["lower"]) / (t + move["shift"]), one]])
    return upper @ lower @ ex.MatRF([[const(move["scalar"]), zero], [zero, one]])


def moved_r1_is_zero(h5, conn, g) -> None:
    """Gate: R1 = F(V00, V10) of the gauge-moved connection is exactly 0."""
    field = h5.heisenberg.FieldId
    moved = h5.gauge.gauge_transform(conn, g)
    r1 = h5.gauge.curvature(moved, field.V00, field.V10)
    _gate(r1.is_zero(), "R1 of the moved connection is not zero")


class GaugeSwell:
    """One op is a seeded gauge move of the t-seed connection and its R1."""

    name = "gauge-swell"
    tail_percentile = 100

    def make_inputs(self, seed: int):
        return {"moves": make_moves(seed)}

    def ops(self, h5, inputs):
        def op(move):
            conn = h5.ansatz.build_connection(h5.ansatz.seed_catalog("t"))
            moved_r1_is_zero(h5, conn, build_move(h5, move))

        return [lambda m=m: op(m) for m in inputs["moves"]], {}


# -- seed-sweep --------------------------------------------------------------------

SEEDS_PER_PASS = 48
POINTS_PER_SEED = 2
_Y = ("y00p", "y10p", "y01p", "y11p")
# The harmonic quadratic family: no t^2 or y*t terms, and y00p*y11p and
# y10p*y01p only together with equal coefficients.  Monomials by class:
_MONOMIALS = {
    "square": [f"{y}^2" for y in _Y],
    "cross": ["y00p*y10p", "y00p*y01p", "y10p*y11p", "y01p*y11p"],
    "pair": ["(y00p*y11p + y10p*y01p)"],
    "y": list(_Y),
    "t": ["t"],
    "1": ["1"],
}
# The cost of a seed depends on its shape and monomials, up to 5x within a
# class, so shapes, monomials and coefficient kinds cycle through every pass
# and the workload seed picks coefficient values and signs: every pass holds
# the same mix of sizes.
SHAPES = [
    ("square",),
    ("pair", "y", "1"),
    ("square", "cross", "t"),
    ("cross", "y", "y"),
    ("pair", "cross", "y", "1"),
    ("square", "t"),
    ("square", "cross", "y", "y"),
    ("cross", "y", "t", "1"),
]
COEFFICIENT_KINDS = ("integer", "integer", "rational", "gaussian")


def _coefficient(rng: random.Random, kind: str) -> str:
    if kind == "rational":
        return f"{rng.choice((1, 3, 5))}/{rng.choice((2, 4))}"
    if kind == "gaussian":
        return f"({rng.randint(1, 3)} {rng.choice('+-')} {rng.randint(1, 3)}*i)"
    return str(rng.randint(1, 5))


def make_seed_text(rng: random.Random, k: int) -> str:
    """The k-th harmonic polynomial of a pass, with the k-th shape."""
    text = ""
    used = []
    for j, cls in enumerate(SHAPES[k % len(SHAPES)]):
        candidates = [m for m in _MONOMIALS[cls] if m not in used]
        m = candidates[(k // len(SHAPES) + j) % len(candidates)]
        used.append(m)
        c = _coefficient(rng, COEFFICIENT_KINDS[(k + j) % len(COEFFICIENT_KINDS)])
        term = c if m == "1" else f"{c}*{m}"
        sign = rng.choice("+-")
        text = (f"-{term}" if sign == "-" else term) if not text else f"{text} {sign} {term}"
    return text


def make_points(rng: random.Random, count: int = POINTS_PER_SEED):
    """Sample points drawn as numcheck draws them: re/im in [-2, 2]."""
    return [
        {n: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for n in _Y + ("t",)}
        for _ in range(count)
    ]


def construct_and_eval(h5, text: str, points) -> None:
    """Gate: ``h5 construct`` exits 0 with all residuals zero, and every
    connection block evaluates to finite numbers at every sample point."""
    code, out = _run_cli(h5, ["construct", f"--phi={text}"])
    _gate(code == 0, f"construct exit code {code}")
    payload = json.loads(out)
    _gate(payload["asd_residuals_zero"] == [True, True, True], "nonzero residual")
    conn = h5.ansatz.build_connection(h5.cli.parse_seed(text))
    for p in points:
        for block in (conn.phi00, conn.phi10, conn.phi01, conn.phi11):
            for row in block.entries:
                for e in row:
                    _gate(cmath.isfinite(h5.numcheck.evaluate(e, p)), "non-finite value")


class SeedSweep:
    """One op is ``h5 construct`` plus numeric evaluation of one seed."""

    name = "seed-sweep"
    tail_percentile = 90

    def make_inputs(self, seed: int):
        rng = random.Random(f"seed-sweep:{seed}")
        return {
            "seeds": [
                {"phi": make_seed_text(rng, k), "points": make_points(rng)}
                for k in range(SEEDS_PER_PASS)
            ]
        }

    def ops(self, h5, inputs):
        return [
            lambda s=s: construct_and_eval(h5, s["phi"], s["points"])
            for s in inputs["seeds"]
        ], {}


WORKLOADS = {w.name: w for w in (VerifyAll(), GaugeSwell(), SeedSweep())}


# -- negative controls -------------------------------------------------------------


def _nonasd_connection(h5):
    """phi00 = [[y10p]], all other blocks zero: R1 = -1."""
    ex = h5.exactalg
    ctx = h5.heisenberg.CTX5
    zero = ex.MatRF.zeros(1, 1, ctx)
    y10 = ex.MatRF([[ex.RationalFunction.var(ctx, "y10p")]])
    return h5.gauge.ConnectionForm(phi00=y10, phi10=zero, phi01=zero, phi11=zero)


def controls(h5):
    """Inputs every gate must reject, one or more per layer, as
    (name, function, the exception that rejects it).

    The traced run executes all of them, so a gate that always says "pass"
    is caught; a control that raises anything else is not counted as caught.
    """
    ex = h5.exactalg
    rs = h5.realslice

    def nonasd_residuals():
        r1, r2, r3 = h5.gauge.asd_residuals(_nonasd_connection(h5))
        _gate(all(r.is_zero() for r in (r1, r2, r3)), "R1 = -1")

    def nonasd_moved():
        t = ex.RationalFunction.var(h5.heisenberg.CTX5, "t")
        moved_r1_is_zero(h5, _nonasd_connection(h5), ex.MatRF([[t + 5]]))

    def twistor_erratum():
        _gate(h5.twistor.diagram_check(use_erratum_variant=True), "misprinted transition")

    def nonasd_real_slice():
        rc = rs.pullback_connection(_nonasd_connection(h5))
        (fh, _), fh2 = rs.real_curvature_split(rc), rs.real_curvature_split_projector(rc)
        _gate(all(m.is_zero() for m in fh + fh2), "F_H^+ is not zero")

    def nonharmonic_real():
        y1 = ex.RationalFunction.var(rs.RCTX, "y1")
        _gate(rs.real_sub_laplacian(y1 * y1).is_zero(), "y1^2 is not harmonic")

    def nonorthogonal_so6():
        m = ex.MatRF.identity(6, h5.so6model.CTX_H).scale(
            ex.RationalFunction.const(h5.so6model.CTX_H, 2)
        )
        _gate(h5.so6model.orthogonality_check(m), "2*I is not orthogonal")

    def nonharmonic_seed():
        construct_and_eval(h5, "y00p*y11p", [])

    def singular_point():
        origin = {n: 0j for n in _Y + ("t",)}
        construct_and_eval(h5, "t", [origin])

    return [
        ("nonasd-residuals", nonasd_residuals, GateFailure),
        ("nonasd-moved", nonasd_moved, GateFailure),
        ("twistor-erratum", twistor_erratum, GateFailure),
        ("nonasd-real-slice", nonasd_real_slice, GateFailure),
        ("nonharmonic-real", nonharmonic_real, GateFailure),
        ("nonorthogonal-so6", nonorthogonal_so6, GateFailure),
        ("nonharmonic-seed", nonharmonic_seed, GateFailure),
        ("singular-point", singular_point, h5.numcheck.NearSingularError),
    ]
