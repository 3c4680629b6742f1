"""Outside-in tracing of lbmpc's layers and the per-layer metrics.

Nothing inside lbmpc is instrumented.  A Tracer replaces public functions of
polytope, plant, oracle, qp, mpc and runtime, at the attribute their caller
looks up, with wrappers that record one span (name, start, end, parent,
note) per call, and puts the originals back when it is detached.  A name a
later refactor removes is reported as missing and the metrics that need it
are left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# the benchmark opens this span itself around each runtime.run_closed_loop
EPISODE = "runtime.run_closed_loop"


def _invariant_note(result):
    return result.iterations, result.omega.F.shape[0]


def _qp_note(result):
    return result.iterations, result.status


def _solve_note(result):
    return result.sqp_iters, result.status


# (span name, owner, attribute, note on the return value).  The owner is the
# object the caller looks the attribute up on: run_closed_loop reaches
# max_invariant_set through its own module, which imported it by name, and
# _solve_lp reaches scipy's linprog through polytope's globals.
TARGETS = (
    ("runtime.build_setup", "runtime", "build_setup", lambda setup: setup),
    ("polytope.max_invariant_set", "runtime", "max_invariant_set",
     _invariant_note),
    ("polytope.linprog", "polytope", "linprog", None),
    ("plant.linearize_discretize", "plant", "linearize_discretize", None),
    ("plant.estimate_W", "plant", "estimate_W", None),
    ("plant.step_truth", "plant", "step_truth", None),
    ("mpc.synthesize_tube_gain", "mpc", "synthesize_tube_gain", None),
    ("mpc.solve_lyapunov_P", "mpc", "solve_lyapunov_P", None),
    ("mpc.build_margins", "mpc", "build_margins", None),
    ("mpc.LbmpcProblem", "mpc.LbmpcProblem", "__post_init__", None),
    ("mpc.solve_lbmpc", "mpc", "solve_lbmpc", _solve_note),
    ("qp.qp_solve", "qp", "qp_solve", _qp_note),
    ("oracle.predict_and_jacobian", "oracle", "predict_and_jacobian", None),
    ("oracle.l2nw_predict_and_jacobian", "oracle",
     "l2nw_predict_and_jacobian", None),
    ("oracle.features", "oracle", "features", None),
    ("oracle.predict_from_features", "oracle", "predict_from_features", None),
    ("oracle.predict", "oracle", "predict", None),
    ("oracle.l2nw_predict", "oracle", "l2nw_predict", None),
    ("oracle.adapt", "oracle", "adapt", None),
    ("oracle.train_hidden", "oracle", "train_hidden", None),
    ("oracle.buffer_push", "oracle", "buffer_push", None),
    ("oracle.L2nwEstimator.push", "oracle.L2nwEstimator", "push", None),
)

# an untraced run times only build_setup, for setup_s
SETUP_ONLY = TARGETS[:1]


def owner(path):
    """The lbmpc module or class named by ``path``, or None if it is gone."""
    module, _, rest = path.partition(".")
    try:
        obj = importlib.import_module("lbmpc." + module)
        for part in rest.split(".") if rest else ():
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


class Tracer:
    """Spans of the wrapped calls, kept in memory as [name, start, end,
    parent index, note] lists in call order."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.wrapped = set()
        self.missing = set()
        self._open = []

    def call(self, name, note, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; note(result) is kept with it."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        if note is not None:
            span[4] = note(result)
        return result

    def _wrapper(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, note, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def attached(self):
        """Install the wrappers; restore every original on exit."""
        saved = []
        try:
            for name, owner_path, attr, note in self.targets:
                obj = owner(owner_path)
                if obj is None or attr not in vars(obj):
                    self.missing.add(name)
                    continue
                original = vars(obj)[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrapper(name, original, note))
                self.wrapped.add(name)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    exact: bool          # an exact count: repeats bit for bit for one seed
    needs: tuple         # spans it is computed from; absent if one is missing
    moves: str           # end-to-end metric it should move, and where


_SETUP = "setup_s, episode_s; cold-start most, transients less"
_SETUP_ALL = "setup_s; all workloads"
_QP = ("solve_tail_ms, solve_mean_ms (cold QPs take about 60% of its "
       "solve time on cold-start), mpc.deadline_misses; cold-start, barely "
       "on transient-l2nw")
_MPC = "solve_mean_ms; transient-dnn, near nil on cold-start"
_JAC = "solve_mean_ms; transient-l2nw, none on cold-start"
_LEARN = "steps_per_s; transient-dnn and transient-l2nw, none on cold-start"
_TRUTH = "steps_per_s; transients (about 45% of loop), small on cold-start"

_INV = ("polytope.max_invariant_set",)
_LP = ("polytope.linprog",)
_QPS = ("qp.qp_solve",)
_SOLVE = ("mpc.solve_lbmpc",)
_JACS = ("oracle.predict_and_jacobian", "oracle.l2nw_predict_and_jacobian")
_PREDICTS = ("oracle.features", "oracle.predict_from_features",
             "oracle.predict", "oracle.l2nw_predict")
_BUFFERS = ("oracle.buffer_push", "oracle.L2nwEstimator.push")
# the spans directly under build_setup and under the loop: a self time is
# left out when one of them could not be wrapped
_SETUP_CHILDREN = ("runtime.build_setup", "polytope.max_invariant_set",
                   "plant.linearize_discretize", "plant.estimate_W",
                   "mpc.synthesize_tube_gain", "mpc.solve_lyapunov_P",
                   "mpc.build_margins", "mpc.LbmpcProblem")
_LOOP_CHILDREN = (("runtime.build_setup", "mpc.solve_lbmpc",
                   "plant.step_truth", "oracle.adapt", "oracle.train_hidden")
                  + _PREDICTS + _BUFFERS)

# Times and counts are totals over the run's traced episodes; iterations
# and facets of the invariant set are per setup (every setup of a run
# repeats them), buffer_fill is per episode.
PER_LAYER = (
    LayerMetric("polytope.invariant_set_s", "s", "lower", False, _INV, _SETUP),
    LayerMetric("polytope.invariant_set_iters", "count", "lower", True, _INV,
                _SETUP),
    LayerMetric("polytope.lp_calls", "count", "lower", True, _LP, _SETUP),
    LayerMetric("polytope.lp_s", "s", "lower", False, _LP, _SETUP),
    LayerMetric("polytope.omega_facets", "count", "lower", True, _INV, _SETUP),
    LayerMetric("plant.linearize_s", "s", "lower", False,
                ("plant.linearize_discretize",), _SETUP_ALL),
    LayerMetric("plant.estimate_W_s", "s", "lower", False,
                ("plant.estimate_W",), _SETUP_ALL),
    LayerMetric("mpc.gain_s", "s", "lower", False,
                ("mpc.synthesize_tube_gain",), _SETUP_ALL),
    LayerMetric("mpc.lyapunov_s", "s", "lower", False,
                ("mpc.solve_lyapunov_P",), _SETUP_ALL),
    LayerMetric("mpc.margins_s", "s", "lower", False, ("mpc.build_margins",),
                _SETUP_ALL),
    LayerMetric("mpc.problem_s", "s", "lower", False, ("mpc.LbmpcProblem",),
                _SETUP_ALL),
    LayerMetric("runtime.setup_self_s", "s", "lower", False,
                _SETUP_CHILDREN, _SETUP_ALL),
    LayerMetric("qp.calls", "count", "lower", True, _QPS, _QP),
    LayerMetric("qp.solve_s", "s", "lower", False, _QPS, _QP),
    LayerMetric("qp.iters", "count", "lower", True, _QPS, _QP),
    LayerMetric("qp.iters_max", "count", "lower", True, _QPS, _QP),
    LayerMetric("qp.warm_hit_ratio", "ratio", "higher", True, _QPS, _QP),
    LayerMetric("qp.iteration_limit", "count", "lower", True, _QPS, _QP),
    LayerMetric("mpc.solve_s", "s", "lower", False, _SOLVE, _MPC),
    LayerMetric("mpc.solve_self_s", "s", "lower", False,
                _SOLVE + _QPS + _JACS, _MPC),
    LayerMetric("mpc.sqp_iters", "count", "lower", True, _SOLVE, _MPC),
    LayerMetric("mpc.fallbacks", "count", "lower", True, _SOLVE, _MPC),
    LayerMetric("mpc.deadline_misses", "count", "lower", False, (),
                "the solve latency tail against T; cold-start most"),
    LayerMetric("oracle.jac_calls", "count", "lower", True, _JACS, _JAC),
    LayerMetric("oracle.jac_s", "s", "lower", False, _JACS, _JAC),
    LayerMetric("oracle.predict_s", "s", "lower", False, _PREDICTS, _LEARN),
    LayerMetric("oracle.adapt_calls", "count", "lower", True,
                ("oracle.adapt",), _LEARN),
    LayerMetric("oracle.adapt_s", "s", "lower", False, ("oracle.adapt",),
                _LEARN),
    LayerMetric("oracle.train_calls", "count", "lower", True,
                ("oracle.train_hidden",), _LEARN),
    LayerMetric("oracle.train_s", "s", "lower", False,
                ("oracle.train_hidden",), _LEARN),
    LayerMetric("oracle.buffer_s", "s", "lower", False, _BUFFERS, _LEARN),
    LayerMetric("oracle.buffer_fill", "count", "higher", True,
                ("runtime.build_setup",), _LEARN),
    LayerMetric("plant.truth_calls", "count", "lower", True,
                ("plant.step_truth",), _TRUTH),
    LayerMetric("plant.truth_s", "s", "lower", False, ("plant.step_truth",),
                _TRUTH),
    LayerMetric("runtime.loop_self_s", "s", "lower", False,
                _LOOP_CHILDREN, "steps_per_s; all workloads"),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", False, (),
                "traced over untraced episode wall, minus 1; all workloads"),
)

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)


def _buffer_fill(setup):
    if setup.buffer is not None:
        return len(setup.buffer)
    if setup.l2nw is not None:
        return setup.l2nw.count
    return 0


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics from the tracer's spans; ``extra`` supplies the
    ones measured outside the spans.  A metric whose spans could not be
    wrapped is left out."""
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    own = dur - child
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else None for s in spans]

    def pick(group, under=None):
        # outermost spans of the group, optionally only directly under a span
        return [i for i, n in enumerate(names)
                if n in group and parent_name[i] not in group
                and (under is None or parent_name[i] == under)]

    def total(group, under=None):
        return float(dur[pick(group, under)].sum())

    def notes(name):
        # a call that raised has no note
        return [spans[i][4] for i in pick((name,)) if spans[i][4] is not None]

    inv = notes("polytope.max_invariant_set")
    qps = notes("qp.qp_solve")
    solves = notes("mpc.solve_lbmpc")
    truth = pick(("plant.step_truth",), under=EPISODE)
    qp_iters = [it for it, _ in qps]
    values = {
        "polytope.invariant_set_s": total(_INV),
        "polytope.invariant_set_iters": int(np.median([k for k, _ in inv]))
        if inv else 0,
        "polytope.lp_calls": len(pick(_LP)),
        "polytope.lp_s": total(_LP),
        "polytope.omega_facets": int(np.median([f for _, f in inv]))
        if inv else 0,
        "plant.linearize_s": total(("plant.linearize_discretize",)),
        "plant.estimate_W_s": total(("plant.estimate_W",)),
        "mpc.gain_s": total(("mpc.synthesize_tube_gain",)),
        "mpc.lyapunov_s": total(("mpc.solve_lyapunov_P",)),
        "mpc.margins_s": total(("mpc.build_margins",)),
        "mpc.problem_s": total(("mpc.LbmpcProblem",)),
        "runtime.setup_self_s": float(
            own[pick(("runtime.build_setup",))].sum()),
        "qp.calls": len(qps),
        "qp.solve_s": total(_QPS),
        "qp.iters": int(sum(qp_iters)),
        "qp.iters_max": int(max(qp_iters, default=0)),
        "qp.warm_hit_ratio": (qp_iters.count(0) / len(qps)) if qps else 0.0,
        "qp.iteration_limit": sum(st == "iteration_limit" for _, st in qps),
        "mpc.solve_s": total(_SOLVE),
        "mpc.solve_self_s": float(own[pick(_SOLVE)].sum()),
        "mpc.sqp_iters": int(sum(k for k, _ in solves)),
        "mpc.fallbacks": sum(st == "fallback" for _, st in solves),
        "oracle.jac_calls": len(pick(_JACS)),
        "oracle.jac_s": total(_JACS),
        "oracle.predict_s": total(_PREDICTS, under=EPISODE),
        "oracle.adapt_calls": len(pick(("oracle.adapt",))),
        "oracle.adapt_s": total(("oracle.adapt",)),
        "oracle.train_calls": len(pick(("oracle.train_hidden",))),
        "oracle.train_s": total(("oracle.train_hidden",)),
        "oracle.buffer_s": total(_BUFFERS),
        "oracle.buffer_fill": int(np.median(
            [_buffer_fill(s) for s in notes("runtime.build_setup")] or [0])),
        "plant.truth_calls": len(truth),
        "plant.truth_s": float(dur[truth].sum()),
        "runtime.loop_self_s": float(own[pick((EPISODE,))].sum()),
    }
    values.update(extra)
    return {m.name: values[m.name] for m in PER_LAYER
            if m.name in values and tracer.wrapped.issuperset(m.needs)}
