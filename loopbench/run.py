"""Closed-loop benchmark of the lbmpc controller.

    python3 loopbench/run.py --workload cold-start --seed 1 --seconds 30

Runs one workload through the public entry runtime.run_closed_loop in this
process: a fixed number of deterministic-mode episodes drawn from the seed
(enough to take about --seconds on two Xeon cores), one after the other.  The
loop is closed: one caller, each control step waits for the previous one,
and nothing is paced to wall time; a deadline miss is a step whose solve
took longer than the sampling period T.

--trace 0 reports the end-to-end metrics, with every time scaled to a
fixed reference CPU speed by speed.Probe, which samples the speed the run
sees while it runs; the unscaled wall-clock values are printed as well.
--trace 1 runs every episode twice, untraced and traced, checks that both
give the same deterministic trace.csv, and reports the per-layer metrics of
the traced copies, unscaled.  Every step's outputs are checked.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# The matrices are at most 181 x 10, so more BLAS threads only add scheduler
# noise; this has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float    # share of the parent's median it may worsen by


# Solve latency is gated as a mean, not a median: on cold-start each
# episode settles at 20 to 80 QP iterations per warm solve, a level that
# jumps with small changes of x0, and about half settle at 20, so the
# pooled median flips between two modes from seed to seed.  The median is
# still printed.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("episode_s", "s", "lower", 0.25),
    EndToEnd("steps_per_s", "1/s", "higher", 0.25),
    EndToEnd("solve_mean_ms", "ms", "lower", 0.25),
    EndToEnd("solve_tail_ms", "ms", "lower", 0.25),
    EndToEnd("cost", "1", "lower", 0.1),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1),
)

# percentiles the tail may take; the highest one with at least ten samples
# beyond it is reported
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Episode:
    scenario: object
    start: float          # perf_counter seconds
    wall: float
    setup: float
    setup_end: float      # end of the last build_setup, or start
    trace: object         # ClosedLoopTrace, or None if the episode raised
    error: str | None
    violations: list      # steps that break a guarantee
    failed: list          # steps that fail; every step if the episode raised

    @property
    def steps(self) -> int:
        return self.scenario.run.steps


def check_steps(trace):
    """Indices of the steps that break a guarantee, and of those that fail.

    A step breaks a guarantee when it violates a state or input constraint,
    leaves the shifted candidate infeasible, or has a non-finite state or
    input.  A step fails when it breaks a guarantee or falls back: the QP
    gave no answer and the controller applied the shifted candidate.
    """
    safe = ((trace.state_margin >= 0.0) & (trace.input_margin >= 0.0)
            & trace.shift_feasible
            & np.isfinite(trace.x).all(axis=1)
            & np.isfinite(trace.u).all(axis=1))
    solved = safe & (np.asarray(trace.status) != "fallback")
    return np.flatnonzero(~safe).tolist(), np.flatnonzero(~solved).tolist()


def run_episode(runtime, scenario, tracer: layers.Tracer) -> Episode:
    first = len(tracer.spans)
    trace = error = None
    t0 = perf_counter()
    try:
        trace = tracer.call(layers.EPISODE, None, runtime.run_closed_loop,
                            scenario)
    except Exception as exc:  # an episode that raises is counted, not fatal
        error = type(exc).__name__
        traceback.print_exc(file=sys.stderr)
    wall = perf_counter() - t0
    setups = [s for s in tracer.spans[first:]
              if s[0] == "runtime.build_setup"]
    setup = sum(s[2] - s[1] for s in setups)
    setup_end = max((s[2] for s in setups), default=t0)
    if trace is None:
        # no trace is left to check, so every step of the episode failed
        violations, failed = [], list(range(scenario.run.steps))
    else:
        violations, failed = check_steps(trace)
    return Episode(scenario, t0, wall, setup, setup_end, trace, error,
                   violations, failed)


def run_plain(runtime, scenarios):
    """Untraced episodes; only build_setup is timed, once per episode."""
    tracer = layers.Tracer(layers.SETUP_ONLY)
    with tracer.attached():
        return [run_episode(runtime, s, tracer) for s in scenarios]


def run_traced(runtime, scenarios):
    """Each scenario untraced and traced, alternating which goes first.

    Returns the tracer of the traced copies and (untraced, traced) pairs.
    """
    tracer = layers.Tracer()
    plain = layers.Tracer(layers.SETUP_ONLY)
    pairs = []
    for i, scenario in enumerate(scenarios):
        got = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t = tracer if traced else plain
            with t.attached():
                got[traced] = run_episode(runtime, scenario, t)
        pairs.append((got[False], got[True]))
    return tracer, pairs


def tail_percentile(n: int) -> float:
    for q in _TAIL_LADDER:
        if (100.0 - q) * n >= 1000.0 - 1e-6:
            return q
    return _TAIL_LADDER[-1]


def speed_factors(e: Episode, probe: speed.Probe):
    """Scale factors of an episode's setup and of the rest of it."""
    end = e.start + e.wall
    return (probe.factor(e.start, e.setup_end) if e.setup else 1.0,
            probe.factor(e.setup_end, end))


def timing_metrics(done, factors):
    """End-to-end timing metrics with each episode's setup and loop scaled
    by its (setup, loop) factors, and the tail percentile used."""
    setup = [e.setup * fs for e, (fs, _) in zip(done, factors)]
    loop = [(e.wall - e.setup) * fl for e, (_, fl) in zip(done, factors)]
    times = np.concatenate([e.trace.solver_time * fl
                            for e, (_, fl) in zip(done, factors)])
    q = tail_percentile(times.size)
    return {
        "setup_s": statistics.median(setup),
        "episode_s": statistics.median(s + lp for s, lp in zip(setup, loop)),
        "steps_per_s": sum(e.steps for e in done) / sum(loop),
        "solve_mean_ms": 1e3 * float(np.mean(times)),
        "solve_tail_ms": 1e3 * float(np.percentile(times, q)),
    }, q, times


def end_to_end(runtime, eps, probe: speed.Probe):
    """End-to-end metrics over the episodes that ran, and report lines."""
    done = [e for e in eps if e.trace is not None]
    if not done:
        return {}, []
    factors = [speed_factors(e, probe) for e in done]
    metrics, q, times = timing_metrics(done, factors)
    costs = [runtime.metrics(e.trace, np.diag(e.scenario.controller.q_diag),
                             [[e.scenario.controller.r]]).cost for e in done]
    metrics["cost"] = statistics.fmean(costs)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall, _, _ = timing_metrics(done, [(1.0, 1.0)] * len(done))
    lines = ["  %-14s %14.6f %s%s" % (
        m.name, metrics[m.name], m.unit,
        "  (wall clock %.6f)" % wall[m.name] if m.name in wall else "")
        for m in END_TO_END]
    loop = [fl for _, fl in factors]
    lines.append("  times at the reference speed; the run saw %.3f of it "
                 "(episodes %.3f to %.3f, %d samples)" % (
                     statistics.fmean(loop), min(loop), max(loop),
                     len(probe.starts)))
    lines.append("  solve_tail_ms is p%g of %d solves; solve p50 %.6f ms; "
                 "deadline misses (solve > T) %.4f of steps" % (
                     q, times.size, 1e3 * float(np.median(times)),
                     np.mean(times > done[0].scenario.plant.T)))
    return metrics, lines


def per_layer(runtime, scenarios):
    """Per-layer metrics of a traced run, its report lines, its episodes
    and the number of traced twins whose trace differs from the untraced."""
    tracer, pairs = run_traced(runtime, scenarios)
    plain = [p for p, _ in pairs if p.trace is not None]
    mismatched = sum(p.trace is not None and t.trace is not None
                     and p.trace.to_csv() != t.trace.to_csv()
                     for p, t in pairs)
    extra = {
        # latency is judged on the untraced twins, as end to end
        "mpc.deadline_misses": int(sum(
            np.sum(p.trace.solver_time > p.scenario.plant.T) for p in plain)),
        "trace.overhead_ratio": (sum(t.wall for _, t in pairs)
                                 / sum(p.wall for p, _ in pairs) - 1.0),
    }
    metrics = layers.layer_metrics(tracer, extra)
    lines = ["per-layer totals over %d traced episodes; traced twins whose "
             "trace.csv differs: %d" % (len(pairs), mismatched)]
    if tracer.missing:
        lines.append("not wrapped, metrics left out: "
                     + ", ".join(sorted(tracer.missing)))
    lines += ["  %-30s %16.9g %-6s %s  -> %s" % (
        m.name, metrics[m.name], m.unit, "exact" if m.exact else "     ",
        m.moves) for m in layers.PER_LAYER if m.name in metrics]
    eps = [p for p, _ in pairs] + [t for _, t in pairs]
    return metrics, lines, eps, mismatched


def git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, which identifies the program
    version also where there is no git checkout."""
    h = hashlib.sha256()
    pkg = workloads.SRC / "lbmpc"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, episodes: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "episodes": episodes,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(), "source_sha256": source_digest(),
    }


def measure(args):
    """One run: (result dict, lines to print before it)."""
    lbmpc = workloads.import_lbmpc()
    workload = workloads.WORKLOADS[args.workload]
    count = workloads.episode_count(workload, args.seconds,
                                    0.5 if args.trace else 1.0)
    scenarios = workloads.episodes(workload, args.seed, count)
    lines = ["env " + json.dumps(environment(args, count))]
    if args.trace:
        metrics, more, eps, mismatched = per_layer(lbmpc.runtime, scenarios)
        units = {m.name: m.unit for m in layers.PER_LAYER}
    else:
        with speed.Probe().running() as probe:
            eps = run_plain(lbmpc.runtime, scenarios)
        metrics, more = end_to_end(lbmpc.runtime, eps, probe)
        mismatched = 0
        units = {m.name: m.unit for m in END_TO_END}
    lines += more

    attempted = sum(e.steps for e in eps)
    failed = sum(len(e.failed) for e in eps)
    violations = sum(len(e.violations) for e in eps)
    # an episode that runs more than once is listed once
    lines += dict.fromkeys(
        "  x0=(%.6f, %.6f) schedule seed %d: failed steps %s%s" % (
            e.scenario.run.x0[0], e.scenario.run.x0[1],
            e.scenario.schedule.seed, e.failed[:10],
            " (raised %s)" % e.error if e.error else "")
        for e in eps if e.failed)
    lines.append("  steps attempted %d, failed %d, fail_ratio %.4f, "
                 "guarantees broken %d" % (attempted, failed,
                                           failed / attempted, violations))
    result = {
        "correct": violations == 0 and mismatched == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines = measure(args)
    except workloads.MissingProgram as exc:
        print("loopbench: %s" % exc, file=sys.stderr)
        return 2
    print("loopbench %s seed %d trace %d" % (args.workload, args.seed,
                                             args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
