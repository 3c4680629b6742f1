"""Smoke test of the demo scripts and of README's library example: each runs
to completion as its own process, so a change to the library that breaks a
demo or the documented API fails here."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [["terminal_set.py"],
                                  ["transient_comparison.py", "20"],
                                  ["adaptation_energy.py"]],
                         ids=["terminal_set", "transient_comparison",
                              "adaptation_energy"])
def test_demo_runs(argv):
    proc = run_python([os.path.join(ROOT, "demos", argv[0]), *argv[1:]])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example():
    # the python block under README's "Library" heading, run as written; it
    # prints the settling step count and the overshoot
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"## Library\n\n```python\n(.*?)```", fh.read(),
                          re.S).group(1)
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
    settling, overshoot = proc.stdout.split()
    assert int(settling) >= 0 and float(overshoot) >= 0.0
