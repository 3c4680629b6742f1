"""Smoke test of the demo scripts: each runs to completion as its own
process, so a change to the library that breaks a demo fails here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [["terminal_set.py"],
                                  ["transient_comparison.py", "20"]],
                         ids=["terminal_set", "transient_comparison"])
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", argv[0]),
                           *argv[1:]], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
