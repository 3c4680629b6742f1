"""Reference-trace gate: the deterministic traces of the three bundled
scenarios, cut to 200 steps, against committed copies in tests/data.

A change that keeps the controller's arithmetic reproduces these files bit
for bit.  Status and integer columns are compared exactly, the real-valued
columns at rtol 1e-12 / atol 1e-14, so a different BLAS build does not trip
the gate while any change of behaviour does.

The files are ``trace.csv`` of ``lbmpc simulate <scenario> --deterministic``
with ``LBMPC_RUN_STEPS=200``.  The dnn scenario also runs with
``deterministic = false``, which may only change the ``solver_time`` column:
there it holds the measured wall times instead of zeros.  To regenerate the
files after a deliberate change of behaviour (and say so in CHANGES.md), run
from the repository root, naming only the scenarios whose trace moved
(default: all three), so that the others keep their committed bits:

    PYTHONPATH=src python tests/test_reference_traces.py [linear dnn l2nw]

Before it overwrites a file, the script prints each column's largest
absolute change from the committed copy (for exact columns, the number of
changed rows), the numbers a CHANGES.md entry states.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

from lbmpc import config, runtime
from lbmpc.cli import SCENARIO_DIR

DATA = os.path.join(os.path.dirname(__file__), "data")
SCENARIOS = ("linear", "dnn", "l2nw")
STEPS = 200
EXACT = ("t", "generation", "status", "sqp_iters", "shift_feasible", "h_in_w")
CASES = [pytest.param(name, True, id=name) for name in SCENARIOS] + [
    pytest.param("dnn", False, id="dnn-timed")]


def reference_path(name):
    return os.path.join(DATA, "reference_%s.csv" % name)


def trace_csv(name, deterministic=True):
    """Trace of a bundled scenario, as the CLI writes it."""
    s = config.load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                             environ={})
    s = dataclasses.replace(
        s, run=dataclasses.replace(s.run, steps=STEPS),
        schedule=dataclasses.replace(s.schedule, deterministic=deterministic))
    return runtime.run_closed_loop(s).to_csv()


def columns(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {h: [r[j] for r in rows] for j, h in enumerate(header)}


@pytest.mark.parametrize("name, deterministic", CASES)
def test_matches_reference(name, deterministic):
    with open(reference_path(name)) as fh:
        ref_header, ref = columns(fh.read())
    header, got = columns(trace_csv(name, deterministic))
    assert header == ref_header
    assert len(got["t"]) == len(ref["t"]) == STEPS
    for col in header:
        if col == "solver_time" and not deterministic:
            times = np.array(got[col], dtype=float)
            assert np.all(np.isfinite(times)) and np.all(times > 0), col
        elif col in EXACT:
            assert got[col] == ref[col], col
        else:
            np.testing.assert_allclose(
                np.array(got[col], dtype=float),
                np.array(ref[col], dtype=float),
                rtol=1e-12, atol=1e-14, err_msg=col)


def deviations(old, new):
    """Per column of the new trace: the largest absolute change from the old
    one for a real-valued column, the number of changed rows otherwise."""
    _, before = columns(old)
    header, after = columns(new)
    out = {}
    for col in header:
        if col not in before or len(before[col]) != len(after[col]):
            out[col] = "new"
        elif col in EXACT:
            out[col] = sum(a != b for a, b in zip(before[col], after[col]))
        else:
            out[col] = float(np.max(np.abs(np.array(after[col], dtype=float)
                                           - np.array(before[col],
                                                      dtype=float))))
    return out


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for scenario in sys.argv[1:] or SCENARIOS:
        # run before opening, so that a failed run truncates no file
        text = trace_csv(scenario)
        path = reference_path(scenario)
        if os.path.exists(path):
            with open(path) as fh:
                moved = deviations(fh.read(), text)
            print("%s, largest change per column:" % scenario)
            for col, value in moved.items():
                print("  %-14s %s" % (col, "%.3g" % value
                                      if isinstance(value, float) else value))
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", path)
