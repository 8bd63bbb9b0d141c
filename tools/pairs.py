"""Alternating parent/change pairs of the benchmark, summarised.

    python3 tools/pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --run seed-sweep:19301 --pairs 10 --seconds 40 --label normalize_once

Each tree is a plain checkout holding ``src/`` and ``perfbench/``.  For
every ``--run WORKLOAD:FIRST_SEED``, pair i runs ``perfbench/run.py`` once
in each tree with seed FIRST_SEED + i, the parent first in even-numbered
pairs and the change first in odd-numbered ones, since the second run of a
pair can read slower.  The summary goes to ``BENCH_<label>.json``: median,
q1, q3 and pairs won per workload and end-to-end metric, each run's
``setup_s``, the fail ratios and the environment.  With ``--trace-seed S``
each tree also makes two traced runs per workload at seed S, and the
per-layer counts are recorded with a flag saying whether they repeated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# A claimed gain needs at least this many pairs at this run length, and the
# change must win nine pairs in ten.
CLAIM_PAIRS = 10
CLAIM_SECONDS = 40
METRICS = ("wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")
TRACED = (
    "exactalg.rf_new.calls",
    "exactalg.try_div.calls",
    "exactalg.try_div.hits",
    "exactalg.poly_mul.calls",
    "exactalg.poly_mul.term_pairs",
    "exactalg.out.max_num_terms",
    "exactalg.out.max_den_degree",
    "heisenberg.apply_field.calls",
    "gate.controls_failed",
)


def quartiles(values):
    """(q1, median, q3) of the runs, by the inclusive method."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change):
    """One metric over paired runs, lower better: each side's median and
    quartiles, the pairs the change won, and whether its worst run beat the
    parent's best."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of runs, at least two, on each side")
    out = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, med, q3 = quartiles(values)
        out[side] = {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    out["change_won"] = sum(c < p for p, c in zip(parent, change))
    out["every_change_run_better"] = max(change) < min(parent)
    return out


def wins_needed(pairs):
    return math.ceil(0.9 * pairs)


def claim_rule(pairs):
    return (f"change wins >= {wins_needed(pairs)} of {pairs} pairs (at least {CLAIM_PAIRS} "
            f"pairs of {CLAIM_SECONDS} s runs) and the median gap exceeds the parent's q3 - q1")


def claim_met(summary, pairs):
    """Over at least ``CLAIM_PAIRS`` pairs, the change wins nine pairs in
    ten, and its median beats the parent's by more than the parent's
    interquartile range."""
    p = summary["parent"]
    gap = p["median"] - summary["change"]["median"]
    return (
        pairs >= CLAIM_PAIRS
        and summary["change_won"] >= wins_needed(pairs)
        and gap > p["q3"] - p["q1"]
    )


def run_bench(tree, workload, seed, seconds, trace=0):
    """One benchmark run in ``tree``: its metrics by name, setup_s and the
    op counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def run_pairs(trees, workload, first_seed, pairs, seconds, log=print):
    runs = {side: [] for side in SIDES}
    seeds = [first_seed + i for i in range(pairs)]
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_bench(trees[side], workload, seed, seconds)
            runs[side].append(r)
            log(f"{workload} pair {i + 1}/{pairs} seed {seed} {side}: "
                f"wall_s {r['metrics']['wall_s']:.4g} setup_s {r['metrics']['setup_s']:.4g}")
    return seeds, runs


def workload_summary(seeds, runs):
    out = {"pairs": len(seeds), "seeds": seeds}
    out["fail_ratio"] = {
        side: sum(r["failed"] for r in runs[side]) / max(1, sum(r["attempted"] for r in runs[side]))
        for side in SIDES
    }
    for m in METRICS:
        out[m] = summarize(*([r["metrics"][m] for r in runs[side]] for side in SIDES))
    out["setup_s_per_run"] = {}
    for side in SIDES:
        values = [round(r["metrics"]["setup_s"], 5) for r in runs[side]]
        out["setup_s_per_run"][side] = {
            "runs": values, "min": min(values), "median": statistics.median(values),
            "max": max(values),
        }
    return out


def traced_counts(trees, workload, seed):
    """Two traced runs per side; the counts, and whether each repeated."""
    out = {}
    for side in SIDES:
        first, second = (run_bench(trees[side], workload, seed, 1, trace=1) for _ in range(2))
        for name in TRACED:
            a, b = first["metrics"].get(name), second["metrics"].get(name)
            entry = out.setdefault(name, {})
            entry[side] = a
            entry["repeated"] = entry.get("repeated", True) and a == b
    return out


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def parse_run(text):
    workload, _, seed = text.partition(":")
    if not seed.isdigit():
        raise argparse.ArgumentTypeError("--run takes WORKLOAD:FIRST_SEED")
    return workload, int(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--run", action="append", type=parse_run, required=True)
    ap.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    ap.add_argument("--seconds", type=float, default=CLAIM_SECONDS)
    ap.add_argument("--label", required=True)
    ap.add_argument("--describe", default="", help="one line on what the change does")
    ap.add_argument("--parent-commit", default=None)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if args.claim and (args.pairs < CLAIM_PAIRS or args.seconds < CLAIM_SECONDS):
        ap.error(f"--claim needs at least {CLAIM_PAIRS} pairs of {CLAIM_SECONDS} s runs")

    trees = {"parent": args.parent, "change": args.change}
    record = {
        "label": args.label,
        "change": args.describe,
        "parent_commit": args.parent_commit,
        "protocol": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            "pairs_per_workload": args.pairs,
            "order": "parent first in even-numbered pairs, change first in odd-numbered pairs",
            "seeds": ", ".join(f"{s}-{s + args.pairs - 1} ({w})" for w, s in args.run),
            "trees": "plain copies of the committed src/ and perfbench/ of each side, run one after another",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "setup_s": "each run's setup_s metric as perfbench reports it (the 11 set-up imports)",
        },
        "environment": environment(),
        "workloads": {},
    }
    for workload, first_seed in args.run:
        seeds, runs = run_pairs(trees, workload, first_seed, args.pairs, args.seconds)
        record["workloads"][workload] = workload_summary(seeds, runs)
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = {
            "workload": workload,
            "metric": metric,
            "rule": claim_rule(args.pairs),
            "met": claim_met(record["workloads"][workload][metric], args.pairs),
        }
    if args.trace_seed is not None:
        record["traced_counts"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.trace_seed} --seconds 1 --trace 1",
            "repeats": "two traced runs per side",
            "counts": {w: traced_counts(trees, w, args.trace_seed) for w, _ in args.run},
        }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
