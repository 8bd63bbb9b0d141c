"""Tests of the benchmark itself: gates, negative controls, inputs, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def h5():
    return run.import_program()


def test_every_negative_control_fails_its_gate(h5):
    for name, fn, rejection in workloads.controls(h5):
        with pytest.raises(rejection):
            fn()


def test_nonasd_control_has_r1_minus_one(h5):
    r1, _, _ = h5.gauge.asd_residuals(workloads._nonasd_connection(h5))
    assert r1[0, 0] == h5.exactalg.RationalFunction.const(h5.heisenberg.CTX5, -1)


def test_gates_pass_on_good_inputs(h5):
    points = workloads.make_points(random.Random(0))
    workloads.construct_and_eval(h5, "2*y00p*y10p - t + 3", points)
    # the cheapest move of the gauge-swell shape
    move = {"upper": [("y00p", 1), ("t", 1)], "lower": [("y00p", 1)], "shift": 1, "scalar": 1}
    conn = h5.ansatz.build_connection(h5.ansatz.seed_catalog("t"))
    workloads.moved_r1_is_zero(h5, conn, workloads.build_move(h5, move))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    a, b, c = (workloads.digest(w.make_inputs(s)) for s in (1, 1, 2))
    assert a == b != c


def test_seed_texts_are_harmonic(h5):
    for s in workloads.SeedSweep().make_inputs(7)["seeds"]:
        assert h5.cli.parse_seed(s["phi"]).certificate.is_zero()


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 100) == 100.0
    assert run.percentile([3.0], 50) == 3.0


def test_tracer_rebinds_imported_names_and_restores(h5):
    original = h5.heisenberg.apply_field
    tracer = tracing.Tracer().install()
    try:
        # gauge binds apply_field by ``from ... import``
        assert h5.gauge.apply_field is not original
        tracer.op("op:0", lambda: h5.gauge.asd_residuals(workloads._nonasd_connection(h5)))
    finally:
        tracer.uninstall()
    assert h5.gauge.apply_field is original and h5.heisenberg.apply_field is original
    calls, self_s = tracer.stats["heisenberg.apply_field"]
    assert calls > 0 and self_s > 0
    op_span = next(s for s in tracer.spans if s[3] == "op")
    assert all(s[2] == "op:0" for s in tracer.spans)
    assert 0 < tracer.top_level_cover("op:") <= op_span[5] - op_span[4]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end_metrics([1.0], [1.0], [1.0], 100)
    layers = run.layer_metrics(tracing.Tracer(), 0.0, 1.0, 0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layers)
    assert all(m["unit"] == e2e[m["name"]][1] for m in bench["end_to_end"])
    assert all(m["unit"] == layers[m["name"]][1] for m in bench["per_layer"])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_a_control_that_passes_or_breaks_is_not_counted_as_caught():
    tracer = tracing.Tracer()
    controls = [
        ("passes", lambda: None, workloads.GateFailure),
        ("breaks", lambda: {}["missing"], workloads.GateFailure),
        ("rejected", lambda: workloads._gate(False, "wrong"), workloads.GateFailure),
    ]
    escaped = run.run_controls(controls, tracer)
    assert [e.split(":")[0] for e in escaped] == ["passes", "breaks"]
