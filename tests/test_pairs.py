"""The summary of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [0.30, 0.32, 0.28, 0.35, 0.31, 0.29, 0.33, 0.30, 0.34, 0.27]
CHANGE = [0.20, 0.21, 0.19, 0.31, 0.22, 0.18, 0.20, 0.21, 0.23, 0.28]


def test_summary_of_ten_pairs():
    s = pairs.summarize(PARENT, CHANGE)
    # inclusive quartiles of the sorted parent runs 0.27 .. 0.35
    assert s["parent"] == {"median": 0.305, "q1": 0.2925, "q3": 0.3275}
    assert s["change"] == {"median": 0.21, "q1": 0.2, "q3": 0.2275}
    # the change lost pair 10 (0.28 against 0.27) and won the other nine
    assert s["change_won"] == 9
    assert s["every_change_run_better"] is False
    assert pairs.claim_met(s, 10)


def test_claim_needs_nine_wins_and_a_gap_past_the_parent_iqr():
    s = pairs.summarize(PARENT, [p - 0.001 for p in PARENT])
    assert s["change_won"] == 10 and s["every_change_run_better"] is False
    assert not pairs.claim_met(s, 10)  # a gap of 0.001 inside an IQR of 0.035
    s = pairs.summarize(PARENT, [p - 0.1 if i < 8 else p + 0.1 for i, p in enumerate(PARENT)])
    assert s["change_won"] == 8 and not pairs.claim_met(s, 10)


def test_no_claim_below_ten_pairs():
    s = pairs.summarize(PARENT[:3], [p - 0.1 for p in PARENT[:3]])
    assert s["change_won"] == 3 and s["every_change_run_better"] is True
    assert not pairs.claim_met(s, 3)
    assert pairs.claim_rule(3).startswith("change wins >= 3 of 3 pairs (at least 10 pairs")
    assert pairs.claim_rule(20).startswith("change wins >= 18 of 20 pairs")


def test_claim_protocol_is_enforced_on_the_command_line(capsys):
    base = ["--parent", ".", "--change", ".", "--run", "seed-sweep:1", "--label", "x",
            "--claim", "seed-sweep:wall_s"]
    for extra in (["--pairs", "3"], ["--seconds", "8"]):
        with pytest.raises(SystemExit):
            pairs.main(base + extra)
        assert "--claim needs at least 10 pairs of 40 s runs" in capsys.readouterr().err


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pairs.summarize([1.0], [1.0])
    with pytest.raises(ValueError):
        pairs.summarize([], [])


def test_workload_summary_layout():
    runs = {
        side: [
            {"metrics": {m: v for m in pairs.METRICS}, "attempted": 4, "failed": failed}
            for v in values
        ]
        for side, values, failed in (("parent", PARENT[:3], 0), ("change", CHANGE[:3], 1))
    }
    w = pairs.workload_summary([1, 2, 3], runs)
    assert w["pairs"] == 3 and w["seeds"] == [1, 2, 3]
    assert w["fail_ratio"] == {"parent": 0.0, "change": 0.25}
    assert set(pairs.METRICS) <= set(w)
    assert w["setup_s_per_run"]["parent"] == {
        "runs": [0.3, 0.32, 0.28], "min": 0.28, "median": 0.3, "max": 0.32,
    }
