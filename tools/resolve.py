"""Least-of-k step times of the bundled scenarios, the oracles interleaved.

    PYTHONPATH=src python3 tools/resolve.py --k 5 --rounds 3 [--steps 600]

Records one deterministic closed-loop run per bundled scenario (linear,
dnn, l2nw).  Each round then rebuilds the three setups and replays the runs
side by side in the loop's order.  At step t every scenario's feedback,
``solve_lbmpc(problem, x_t, warm_c_t, prep=prep_t)``, is repeated k times,
the scenarios taking turns within each of the k passes.  Then each adapter
is handed the step's recorded ``observe`` call, so that at every step a
problem holds the oracle it held in the recorded run, and the preparation
of step t + 1 at the predicted state is repeated k times the same way
(step 0's is made at x0 before the first step).  Neither phase updates an
oracle, so a repetition is the same work as the recorded one; the warm
start is the shifted replayed solution, and the replay checks that every
applied input equals the recorded one.

A step's time in either phase is the least of its k repetitions' own
``wall_time``, so a host stall has to hit all k of them to count, and a
slow phase of the host hits the three oracles at the same steps.  The
preparation's time is counted at the step that uses it, as the
``prepare_time`` column of ``trace.csv`` is.  Per oracle and phase the
report gives the p50, p95, max and mean over steps of these least-of-k
times, in ms; the feedback's mean is the in-process counterpart of
loopbench's ``solve_mean_ms``.  The feedback lines then add the
statistics that criterion 7 of the acceptance tests reads from
``solver_time``, the feedback's time, with the cold step apart from the
warm ones: the time of step 0 ("step0") and the max over steps 1 on
("max1+").  They also count the calls of
``qp.qp_solve``, the active-set loop, in each phase ("qp_solve feedback
a/steps, prepare b/steps"): a feedback that does not call it returns the
prepared step, and a preparation calls it once where rows bind at its
predicted state, to fold their active set into the prepared step.  The
dnn line adds the ratio of the dnn median to the linear median
("p50/linear"), and with more than 500 steps (e.g. ``--steps 600``) the
l2nw line adds its filled-buffer max over steps 500-599 ("max500-599").  Each statistic is given as its median over the
rounds and its spread (largest minus smallest round); the line ends with
the step of the max in each round.  A third block gives the same
statistics of each step's total, its least-of-k preparation plus its
least-of-k feedback: the work per step that the loop's ``steps_per_s``
pays for, so a change that moves work from one phase to the other shows
its net effect there.
"""

from __future__ import annotations

import os

# one BLAS thread, as in loopbench: the matrices are small, and a second
# thread only adds scheduler noise; this has to happen before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from lbmpc import config, mpc, qp, runtime  # noqa: E402
from lbmpc.cli import SCENARIO_DIR  # noqa: E402

SCENARIOS = ("linear", "dnn", "l2nw")
STATS = ("p50", "p95", "max", "mean")


def load(name, steps=None):
    """A bundled scenario in deterministic mode, optionally with a new
    step count."""
    s = config.load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                             environ={})
    run = s.run if steps is None else dataclasses.replace(s.run, steps=steps)
    return dataclasses.replace(
        s, run=run,
        schedule=dataclasses.replace(s.schedule, deterministic=True))


@contextlib.contextmanager
def counted_qp_solve():
    """A one-item list counting the calls of ``qp.qp_solve``, wrapped
    where mpc reaches it, as loopbench wraps it, until the block ends."""
    calls, solve = [0], qp.qp_solve

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    qp.qp_solve = counted
    try:
        yield calls
    finally:
        qp.qp_solve = solve


def replay(scenarios, traces, k):
    """One round: ({name: least-of-k feedback time per step},
    {name: least-of-k preparation time per step}, {name: (calls of qp_solve
    in the feedbacks, in the preparations)}), times in seconds."""
    setups = {name: runtime.build_setup(s) for name, s in scenarios.items()}
    warm = dict.fromkeys(scenarios)
    x_pred = {name: traces[name].x[0] for name in scenarios}
    feedback = {name: np.full(len(traces[name].u), np.inf)
                for name in scenarios}
    preparation = {name: t.copy() for name, t in feedback.items()}
    entered = {name: [0, 0] for name in scenarios}
    for t in range(max(len(b) for b in feedback.values())):
        live = [name for name in scenarios if t < len(feedback[name])]
        preps, sols = {}, {}
        for rep in range(k):
            for name in live:
                with counted_qp_solve() as calls:
                    prep = mpc.prepare(setups[name].problem, x_pred[name],
                                       warm[name])
                preparation[name][t] = min(preparation[name][t],
                                           prep.wall_time)
                preps[name] = prep
                entered[name][1] += calls[0] if rep == 0 else 0
        for rep in range(k):
            for name in live:
                with counted_qp_solve() as calls:
                    sol = mpc.solve_lbmpc(setups[name].problem,
                                          traces[name].x[t], warm[name],
                                          prep=preps[name])
                feedback[name][t] = min(feedback[name][t], sol.wall_time)
                sols[name] = sol
                entered[name][0] += calls[0] if rep == 0 else 0
        for name in live:
            tr, sol, p = traces[name], sols[name], setups[name].problem
            model = p.model
            if not np.array_equal(sol.u, tr.u[t]):
                raise RuntimeError("replay of %s step %d: u %s, recorded %s"
                                   % (name, t, sol.u, tr.u[t]))
            warm[name] = mpc.shift_solution(sol, model.m)
            if t + 1 < len(tr.u):
                # the loop's sums, in its order
                ax_bu = model.A @ tr.x[t] + model.B @ tr.u[t]
                h_hat = p.oracle.observe(
                    t, tr.x[t], tr.u[t], tr.x[t + 1], tr.h[t], ax_bu)
                x_pred[name] = ax_bu + h_hat
    return feedback, preparation, entered


def stats(times):
    """(p50, p95, max, mean) in ms and the step of the max."""
    ms = 1e3 * times
    p50, p95 = np.percentile(ms, [50, 95])
    return (p50, p95, ms.max(), ms.mean()), int(np.argmax(ms))


def criterion7(times):
    """{name: [(label, value)]}: the statistics criterion 7 reads, from one
    round's {name: per-step times}; times in ms."""
    out = {}
    for name, t in times.items():
        ms = 1e3 * t
        out[name] = [("step0", ms[0]),
                     ("max1+", ms[1:].max() if len(ms) > 1 else np.nan)]
    out["dnn"].append(("p50/linear",
                       np.median(times["dnn"]) / np.median(times["linear"])))
    if len(times["l2nw"]) > 500:
        out["l2nw"].append(("max500-599", 1e3 * times["l2nw"][500:600].max()))
    return out


def report(rounds, extra=None, notes=None):
    """Lines of the summary over rounds of {name: per-step times}, with
    the statistics ``extra`` gives for one round added, and ``notes``'
    text for a name before its steps of the max."""
    extras = [extra(r) if extra else dict.fromkeys(r, []) for r in rounds]
    lines = []
    for name in rounds[0]:
        per_round = [stats(r[name]) for r in rounds]
        labels = list(STATS) + [label for label, _ in extras[0][name]]
        values = np.array([list(v) + [x for _, x in e[name]]
                           for (v, _), e in zip(per_round, extras)])
        steps = [s for _, s in per_round]
        med = np.median(values, axis=0)
        spread = values.max(axis=0) - values.min(axis=0)
        lines.append(
            "%-6s  " % name
            + "  ".join("%s %.4f (spread %.4f)" % (stat, m, s)
                        for stat, m, s in zip(labels, med, spread))
            + ("  " + notes[name] if notes else "")
            + "  max at steps %s" % ",".join(map(str, steps)))
    return lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5,
                    help="repetitions of each phase per step and scenario "
                    "(default 5)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="replays of the recorded runs (default 3)")
    ap.add_argument("--steps", type=int, default=None,
                    help="steps per run (default: each scenario's own)")
    args = ap.parse_args(argv)
    if args.k < 1 or args.rounds < 1:
        ap.error("--k and --rounds must be >= 1")
    if args.steps is not None and args.steps < 1:
        ap.error("--steps must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    scenarios = {name: load(name, args.steps) for name in SCENARIOS}
    traces = {name: runtime.run_closed_loop(s)
              for name, s in scenarios.items()}
    print("k %d, rounds %d, steps %s" % (
        args.k, args.rounds,
        ", ".join("%s %d" % (n, len(t.u)) for n, t in traces.items())))
    rounds = []
    for r in range(args.rounds):
        rounds.append(replay(scenarios, traces, args.k))
        maxima = []
        for name in scenarios:
            for phase, times in zip(("feedback", "preparation"), rounds[-1]):
                (_, _, top, _), step = stats(times[name])
                maxima.append("%s %s max %.4f ms at step %d"
                              % (name, phase, top, step))
        print("round %d: %s" % (r + 1, "; ".join(maxima)), flush=True)
    print("least-of-%d feedback times over steps, ms (p50/linear a ratio); "
          "median over %d rounds" % (args.k, args.rounds))
    # a replay takes the same path in every round, so round 1's counts
    entered = {name: "qp_solve feedback %d/%d, prepare %d/%d"
               % (fb, len(traces[name].u), prep, len(traces[name].u))
               for name, (fb, prep) in rounds[0][2].items()}
    for line in report([fb for fb, _, _ in rounds], criterion7, entered):
        print(line)
    print("least-of-%d preparation times over steps, ms; median over %d "
          "rounds" % (args.k, args.rounds))
    for line in report([prep for _, prep, _ in rounds]):
        print(line)
    print("least-of-%d per-step totals, preparation plus feedback, ms; "
          "median over %d rounds" % (args.k, args.rounds))
    for line in report([{name: fb[name] + prep[name] for name in fb}
                        for fb, prep, _ in rounds]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
