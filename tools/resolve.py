"""Least-of-k solve times of the bundled scenarios, the oracles interleaved.

    PYTHONPATH=src python3 tools/resolve.py --k 5 --rounds 3 [--steps 600]

Records one deterministic closed-loop run per bundled scenario (linear,
dnn, l2nw).  Each round then rebuilds the three setups and replays the runs
side by side in step order: at step t every scenario's solve of
(problem, x_t, warm_c_t) is repeated k times, the scenarios taking turns
within each of the k passes, and then each adapter is handed the step's
recorded ``observe`` call, so that at every step a problem holds the oracle
it held in the recorded run.  ``solve_lbmpc`` never updates an oracle, so a
re-solve is the same work as the recorded solve; the warm start is the
shifted replayed solution, and the replay checks that every applied input
equals the recorded one.

A step's time is the least of its k solves' own ``wall_time``, so a host
stall has to hit all k of them to count, and a slow phase of the host hits
the three oracles at the same steps.  Per oracle the report gives the p50,
p95 and max over steps of these least-of-k times, in ms, and then the
statistics that criterion 7 of the acceptance tests reads, with the cold
step apart from the warm ones: the time of step 0 ("step0") and the max
over steps 1 on ("max1+").  The dnn line adds the ratio of the dnn median
to the linear median ("p50/linear"), and with more than 500 steps (e.g.
``--steps 600``) the l2nw line adds its filled-buffer max over steps
500-599 ("max500-599").  Each statistic is given as its median over the
rounds and its spread (largest minus smallest round); the line ends with
the step of the max in each round.
"""

from __future__ import annotations

import os

# one BLAS thread, as in loopbench: the matrices are small, and a second
# thread only adds scheduler noise; this has to happen before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from lbmpc import config, mpc, runtime  # noqa: E402
from lbmpc.cli import SCENARIO_DIR  # noqa: E402

SCENARIOS = ("linear", "dnn", "l2nw")
STATS = ("p50", "p95", "max")


def load(name, steps=None):
    """A bundled scenario in deterministic mode, optionally with a new
    step count."""
    s = config.load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                             environ={})
    run = s.run if steps is None else dataclasses.replace(s.run, steps=steps)
    return dataclasses.replace(
        s, run=run,
        schedule=dataclasses.replace(s.schedule, deterministic=True))


def replay(scenarios, traces, k):
    """One round: {name: least-of-k solve time per step, in seconds}."""
    setups = {name: runtime.build_setup(s) for name, s in scenarios.items()}
    warm = dict.fromkeys(scenarios)
    best = {name: np.full(len(traces[name].u), np.inf) for name in scenarios}
    for t in range(max(len(b) for b in best.values())):
        live = [name for name in scenarios if t < len(best[name])]
        sols = {}
        for _ in range(k):
            for name in live:
                x = traces[name].x[t]
                sol = mpc.solve_lbmpc(setups[name].problem, x, warm[name])
                best[name][t] = min(best[name][t], sol.wall_time)
                sols[name] = sol
        for name in live:
            tr, sol = traces[name], sols[name]
            if not np.array_equal(sol.u, tr.u[t]):
                raise RuntimeError("replay of %s step %d: u %s, recorded %s"
                                   % (name, t, sol.u, tr.u[t]))
            warm[name] = mpc.shift_solution(sol, setups[name].model.m)
            if t + 1 < len(tr.u):
                setups[name].oracle_adapter.observe(t, tr.x[t], tr.u[t],
                                                    tr.x[t + 1], tr.h[t])
    return best


def stats(times):
    """(p50, p95, max) in ms and the step of the max."""
    ms = 1e3 * times
    p50, p95 = np.percentile(ms, [50, 95])
    return (p50, p95, ms.max()), int(np.argmax(ms))


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


def report(rounds):
    """Lines of the summary over rounds of {name: per-step times}."""
    extra = [criterion7(r) for r in rounds]
    lines = []
    for name in rounds[0]:
        per_round = [stats(r[name]) for r in rounds]
        labels = list(STATS) + [label for label, _ in extra[0][name]]
        values = np.array([list(v) + [x for _, x in e[name]]
                           for (v, _), e in zip(per_round, extra)])
        steps = [s for _, s in per_round]
        med = np.median(values, axis=0)
        spread = values.max(axis=0) - values.min(axis=0)
        lines.append(
            "%-6s  " % name
            + "  ".join("%s %.4f (spread %.4f)" % (stat, m, s)
                        for stat, m, s in zip(labels, med, spread))
            + "  max at steps %s" % ",".join(map(str, steps)))
    return lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5,
                    help="solves per step and scenario (default 5)")
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
        for name, times in rounds[-1].items():
            (_, _, top), step = stats(times)
            maxima.append("%s max %.4f ms at step %d" % (name, top, step))
        print("round %d: %s" % (r + 1, "; ".join(maxima)), flush=True)
    print("least-of-%d solve times over steps, ms (p50/linear a ratio); "
          "median over %d rounds" % (args.k, args.rounds))
    for line in report(rounds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
