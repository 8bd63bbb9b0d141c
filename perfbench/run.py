"""h5twistor benchmark.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Imports the package from ``src/`` next to this directory (nothing is
installed), makes the workload's inputs from ``--seed``, and runs passes
over the workload's fixed op set, one op after another, for ``--seconds``:
after the first pass, another starts while it would still end in time.
Every op is checked exactly; an op that raises or fails its gate is
counted and the run goes on.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run makes one pass in which each op runs untraced and then
under the span tracer, runs the negative controls traced, and reports the
per-layer metrics; the spans go to ``.perfbench/`` in JSON lines.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = tracing.PACKAGE
MODULES = (
    "exactalg",
    "heisenberg",
    "gauge",
    "ansatz",
    "twistor",
    "realslice",
    "so6model",
    "numcheck",
    "cli",
)
SETUP_REPEATS = 11
TRACE_DIR = ROOT / ".perfbench"


def import_program():
    """Fresh import of every package module from ``src/``."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    h5 = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    where = Path(h5.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"{PACKAGE} imported from {where}, not from {SRC}")
    return h5


def setup(workload, seed):
    """Import plus input generation, repeated; returns the last import."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's cycles, so no collection lands inside
        t0 = time.perf_counter()
        h5 = import_program()
        inputs = workload.make_inputs(seed)
        times.append(time.perf_counter() - t0)
    return h5, inputs, times


def timed(op):
    """Run one op; returns (seconds, failure text or None)."""
    t0 = time.perf_counter()
    try:
        op()
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - t0, None


def run_passes(ops, seconds):
    """Passes over ``ops``: at least one, then another while the last pass
    would still fit in ``seconds``."""
    pass_s, op_s, failures = [], [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start + pass_s[-1] <= seconds:
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            dt, failure = timed(op)
            op_s.append(dt)
            if failure:
                failures.append(f"op {i}: {failure}")
        pass_s.append(time.perf_counter() - p0)
    return pass_s, op_s, failures


def paired_pass(ops, tracer):
    """One pass in which every op runs untraced and then traced, so that
    machine drift between the two stays out of the tracing overhead."""
    untraced, traced, failures = [], [], []
    for i, op in enumerate(ops):
        dt, failure = timed(op)
        untraced.append(dt)
        tracer.install()
        try:
            dt_traced, failure_traced = timed(lambda: tracer.op(f"op:{i}", op))
        finally:
            tracer.uninstall()
        traced.append(dt_traced)
        failures += [f"op {i}: {f}" for f in (failure, failure_traced) if f]
    return untraced, traced, failures


def percentile(values, p):
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_controls(controls, tracer):
    """Negative controls under the tracer; returns the names not rejected
    by their gate."""
    escaped = []
    for name, fn, rejection in controls:
        try:
            tracer.op(f"control:{name}", fn)
        except rejection:
            continue
        except Exception as exc:  # a broken control must not pass as caught
            name = f"{name}: {type(exc).__name__}: {exc}"
        escaped.append(name)
    return escaped


def end_to_end_metrics(pass_s, op_s, setup_s, tail_percentile):
    return {
        "wall_s": (statistics.median(pass_s), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_tail_s": (percentile(op_s, tail_percentile), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, overhead, traced_wall, controls_failed):
    out = {}
    names = list(tracing.FUNCTIONS) + list(tracing.METHODS) + [tracing.SO6_SUITE]
    for name in sorted(names):
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counters
    try_div_calls = out["exactalg.try_div.calls"][0]
    out["exactalg.try_div.hits"] = (c["try_div.hits"], "count")
    out["exactalg.try_div.hit_ratio"] = (c["try_div.hits"] / max(1, try_div_calls), "ratio")
    out["exactalg.poly_mul.term_pairs"] = (c["poly_mul.term_pairs"], "count")
    out["exactalg.out.max_num_terms"] = (c["out.max_num_terms"], "count")
    out["exactalg.out.max_den_degree"] = (c["out.max_den_degree"], "count")
    out["trace.coverage"] = (tracer.top_level_cover("op:") / traced_wall, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["gate.controls_failed"] = (controls_failed, "count")
    return out


def environment(workload, seed, inputs):
    return {
        "workload": workload.name,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "inputs_digest": workloads.digest(inputs),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of a git checkout at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    h5, inputs, setup_s = setup(workload, args.seed)
    ops, info = workload.ops(h5, inputs)
    record = environment(workload, args.seed, inputs)
    record["setup_s"] = setup_s

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, failures = paired_pass(ops, tracer)
        controls = workloads.controls(h5)
        tracer.install()
        try:
            escaped = run_controls(controls, tracer)
        finally:
            tracer.uninstall()
        op_s = untraced + traced
        overhead = sum(traced) / sum(untraced) - 1
        metrics = layer_metrics(tracer, overhead, sum(traced), len(controls) - len(escaped))
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        record.update(untraced_op_s=untraced, traced_op_s=traced,
                      controls_escaped=escaped, spans=len(tracer.spans),
                      trace_file=str(trace_file.relative_to(ROOT)))
    else:
        pass_s, op_s, failures = run_passes(ops, args.seconds)
        escaped = []
        p = workload.tail_percentile
        metrics = end_to_end_metrics(pass_s, op_s, setup_s, p)
        record.update(pass_s=pass_s, op_s=op_s, tail_percentile=p)

    record.update(info)
    record.update(ops=len(op_s), failed=len(failures), failures=failures[:10])
    fail_ratio = len(failures) / len(op_s)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}  {name:<40} {value:.6g} {unit}")
    print(f"{workload.name}  {'fail_ratio':<40} {fail_ratio:.6g} ratio ({len(failures)}/{len(op_s)} ops)")
    print(json.dumps({"record": record}))
    correct = not failures and not escaped
    print(json.dumps({
        "correct": correct,
        "attempted": len(op_s),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
