"""Command-line front end: simulate, compare, sets.

Every command writes into an output directory and leaves behind the echoed
effective configuration, so a run can be reproduced from its artifacts alone.
``simulate`` writes config.ini, trace.csv and metrics.txt; ``compare`` writes
the same three files per scenario into a subdirectory named after the
scenario file, plus one metrics.csv row per scenario.
Exit codes are fixed for scripting: 0 success, 2 configuration error,
3 infeasible initial state, 4 numerical failure, 5 empty tightened set.
``compare`` runs every scenario and exits as ``simulate`` would for the
first one that failed.  Any other exception is a bug and is not mapped.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as cfgmod
from . import runtime
from .config import ConfigError
from .mpc import EmptyTightenedSet, MpcError
from .plant import PlantError
from .polytope import LP_TOL, EmptyResult, support_many
from .runtime import InfeasibleAtStart, RuntimeFailure, format_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_EMPTY_SET = 5

# exception types -> exit code and message prefix, applied once by main; the
# first match wins, so a subclass comes before its base (InfeasibleAtStart is
# a RuntimeFailure, EmptyTightenedSet an MpcError)
FAILURES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (InfeasibleAtStart, EXIT_INFEASIBLE, "infeasible at start"),
    ((EmptyTightenedSet, EmptyResult), EXIT_EMPTY_SET, "empty tightened set"),
    ((MpcError, RuntimeFailure, PlantError), EXIT_NUMERICAL,
     "numerical failure"),
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _load(path, args):
    """Scenario from file with command-line flag overrides applied.  The
    flags become LBMPC_SCHEDULE_* overrides that replace the environment's,
    so they are parsed and validated as every other override is."""
    environ = dict(os.environ)
    if args.deterministic:
        environ["LBMPC_SCHEDULE_DETERMINISTIC"] = "true"
    if args.seed is not None:
        environ["LBMPC_SCHEDULE_SEED"] = str(args.seed)
    return cfgmod.load_scenario(path, environ=environ)


def _metrics_text(rep):
    return "".join("%s = %s\n" % (key, format_value(val))
                   for key, val in dataclasses.asdict(rep).items())


def _run_into(scenario, out_dir):
    """Echo the scenario's config into ``out_dir``, then run its closed loop
    and write the trace and its metrics there.  Returns the metrics."""
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "config.ini", cfgmod.echo_scenario(scenario))
    trace = runtime.run_closed_loop(scenario)
    rep = runtime.metrics(trace, np.diag(scenario.controller.q_diag),
                          np.array([[scenario.controller.r]]),
                          band=scenario.run.band)
    _write(out_dir, "trace.csv", trace.to_csv())
    _write(out_dir, "metrics.txt", _metrics_text(rep))
    print("wrote %d steps to %s" % (len(trace), out_dir))
    return rep


def cmd_simulate(args) -> int:
    _run_into(_load(args.scenario, args), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.scenarios) < 2:
        raise ConfigError("compare needs at least two scenarios")
    scenarios = [_load(p, args) for p in args.scenarios]
    names = [s.name for s in scenarios]
    if len(set(names)) < len(names):
        raise ConfigError("scenario file names must differ: %s"
                          % " ".join(names))
    # the traces are comparable step for step only from one x0 and seed
    if len({(s.run.x0, s.schedule.seed) for s in scenarios}) > 1:
        raise ConfigError("scenarios must share x0 and seed")
    cols = [f.name for f in dataclasses.fields(runtime.MetricsReport)]
    table = [",".join(["name", *cols, "error"])]
    failed = []
    for s in scenarios:
        try:
            rep = _run_into(s, os.path.join(args.out, s.name))
            values = [format_value(v) for v in dataclasses.astuple(rep)]
            error = ""
        except Exception as exc:  # kept as its row, the others still run
            failed.append(exc)
            values = [""] * len(cols)
            error = "%s: %s" % (type(exc).__name__, exc)
            print("%s failed: %s" % (s.name, error), file=sys.stderr)
        table.append(",".join([s.name, *values, error]))
    _write(args.out, "metrics.csv", "\n".join(table) + "\n")
    if failed:
        # exit as simulate would for the first failed scenario
        raise failed[0]
    print("compared %s into %s" % ("/".join(names), args.out))
    return EXIT_OK


def invariance_violations(setup) -> int:
    """How many facets f'x <= h of the terminal set Omega its one-step
    robust image exceeds by more than LP_TOL: sigma_Omega(A_cl' f) +
    sigma_W(f) > h + LP_TOL.  Zero certifies A_cl Omega (+) W within Omega."""
    p = setup.problem
    omega, model = p.omega, p.model
    A_cl = model.A + model.B @ p.cfg.K
    image = (support_many(omega, omega.F @ A_cl)
             + support_many(model.W, omega.F))
    return int(np.count_nonzero(image - omega.h > LP_TOL))


def cmd_sets(args) -> int:
    scenario = _load(args.scenario, args)
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "config.ini", cfgmod.echo_scenario(scenario))
    setup = runtime.build_setup(scenario)
    omega, margins = setup.problem.omega, setup.problem.margins
    N = scenario.controller.N
    lines = ["stage," + ",".join("state_m%d" % (i + 1)
                                 for i in range(margins.state.shape[1]))
             + "," + ",".join("input_m%d" % (i + 1)
                              for i in range(margins.inputs.shape[1]))]
    for i in range(N + 1):
        srow = ["%.17g" % v for v in margins.state[i]]
        # the input sequence has N entries; repeat the last for stage N
        irow = ["%.17g" % v for v in margins.inputs[min(i, N - 1)]]
        lines.append("%d,%s,%s" % (i, ",".join(srow), ",".join(irow)))
    _write(args.out, "margins.csv", "\n".join(lines) + "\n")
    _write(args.out, "omega.csv", omega.to_csv())

    # build_setup's LbmpcProblem has checked every tightened stage with
    # Polytope.is_empty_at and raised EmptyTightenedSet if one is empty
    report = ["omega_facets = %d" % omega.num_facets,
              "tightened_sets_empty = none",
              "invariance_violations = %d" % invariance_violations(setup)]
    _write(args.out, "report.txt", "\n".join(report) + "\n")
    print("wrote set data to %s" % args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lbmpc", description="learning-based tube MPC experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--deterministic", action="store_true",
                       help="write both timing columns, solver_time and "
                       "prepare_time, as zero (byte-identical trace), "
                       "overriding a scenario that sets "
                       "schedule.deterministic = false; true is the default")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run one closed-loop scenario")
    p.add_argument("scenario")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run scenarios side by side")
    p.add_argument("scenarios", nargs="+")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sets", help="emit margins and the terminal set")
    p.add_argument("scenario")
    common(p)
    p.set_defaults(func=cmd_sets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in FAILURES:
            if isinstance(exc, types):
                print("%s: %s" % (prefix, exc), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
