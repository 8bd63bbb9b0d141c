"""Byte stability of the CLI reports.

``golden_outputs.json`` holds the ``h5 construct`` stdout for a few seeds
(polynomial, rational-coefficient, Gaussian-coefficient, ``t`` and the
instanton), the sha256 of three reports at seed 2024: ``h5 verify
--suite algebra``, ``h5 verify --suite all`` and ``h5 real check``, and
under ``"outputs"`` the command list of ``tools/outputs.py`` with the
sha256 and exit code of each command.  A change to the kernel must leave
these bytes alone; a deliberate change to the printed form must
regenerate the file and say why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import shlex
from pathlib import Path

import pytest

from h5twistor import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_SPEC = importlib.util.spec_from_file_location("outputs", _PATH)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("phi", sorted(GOLDEN["construct"]))
def test_construct_stdout(phi):
    code, out = run(["construct", f"--phi={phi}"])
    assert code == 0
    assert out == GOLDEN["construct"][phi]


def run_report(monkeypatch, argv):
    # the report names the installed version; the golden bytes come from a
    # source tree that is not installed, where the version reads 0.0.0
    monkeypatch.setattr(cli, "VERSION", "0.0.0")
    code, out = run(argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_verify_algebra_sha256(monkeypatch):
    argv = ["verify", "--suite", "algebra", "--seed", "2024"]
    assert run_report(monkeypatch, argv) == GOLDEN["verify_algebra_2024_sha256"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["verify", "--suite", "all", "--seed", "2024"], "verify_all_2024_sha256"),
        (["real", "check", "--seed", "2024"], "real_check_2024_sha256"),
    ],
    ids=["verify-all", "real-check"],
)
def test_report_sha256(monkeypatch, argv, key):
    assert run_report(monkeypatch, argv) == GOLDEN[key]


def test_output_set():
    entries = outputs.commands()
    changed = [
        shlex.join(e["argv"])
        for e in entries
        if outputs.run(e["argv"]) != (e["sha256"], e["exit"])
    ]
    assert len(entries) == 176 and changed == []
