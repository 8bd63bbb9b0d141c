"""The sha256 of the ``h5`` output for a fixed list of commands.

    python3 tools/outputs.py [--src SRC] > digests.txt

The commands, and the digest of each command's output, are stored in
``tests/golden_outputs.json`` under ``"outputs"``: ``h5 construct`` on the
seed texts of three seed-sweep passes (stored as text, so a change to the
benchmark cannot move them), ``h5 verify --suite all`` at three seeds,
``h5 real check``, ``h5 twistor roundtrip``, ``h5 so6 verify-all``, and
``h5 eval`` of the connection, its curvature and F_H^+ for five seeds at
two points.  Each command runs in process, with ``cli.VERSION`` pinned to
0.0.0 as the golden reports are.

One line is printed per command: the sha256 of its stdout, its exit code
and the command.  ``--src`` imports ``h5twistor`` from another tree's
``src`` (default: this tree's), so to compare two trees, run the list
against each and diff the two outputs; ``tests/test_golden.py`` compares
the digests with the stored ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.json"


def commands():
    """The stored list: ``[{"argv", "exit", "sha256"}, ...]``."""
    return json.loads(GOLDEN.read_text())["outputs"]


def run(argv):
    """``(sha256 of stdout, exit code)`` of one ``h5`` command."""
    from h5twistor import cli

    version, cli.VERSION = cli.VERSION, "0.0.0"
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        cli.VERSION = version
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory to import h5twistor from")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for entry in commands():
        sha, code = run(entry["argv"])
        print(sha, code, shlex.join(entry["argv"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
