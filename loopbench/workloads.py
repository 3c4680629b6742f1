"""Workloads of the closed-loop benchmark and the episodes a seed draws.

Every episode starts on the surge side of the operating point,
x0 = (z, y, 0, 0) with z in Z_RANGE and y in Y_RANGE; the bundled
x0 = (-0.12, 0.06, 0, 0) lies inside.  Starts there are feasible and every
one of them drives the QP into hundreds of iterations on its first steps,
which is the latency tail the sampling period T has to absorb.

A run has a fixed number of episodes, derived from the requested seconds and
the workload's nominal episode time, so that exact counts, the closed-loop
cost and the tail percentile are defined over the same inputs in every run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Z_RANGE = (-0.15, -0.09)
Y_RANGE = (-0.05, 0.07)

class MissingProgram(Exception):
    """The checkout has no lbmpc sources next to the benchmark."""


def import_lbmpc():
    """Import lbmpc from this checkout's src/, never from elsewhere."""
    pkg = SRC / "lbmpc"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram("no lbmpc sources at %s" % pkg)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lbmpc
    if Path(lbmpc.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram("lbmpc imported from %s, not %s"
                             % (lbmpc.__file__, pkg))
    return lbmpc


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str        # bundled scenario file under src/lbmpc/scenarios
    steps: int           # control steps per episode
    nominal_episode_s: float  # one episode on 2 Xeon cores; sizes a run
    why: str             # one line, copied into BENCHMARK.json


_BOX = "x0=(z,y,0,0), z in [-0.15,-0.09], y in [-0.05,0.07]"

WORKLOADS = {w.name: w for w in (
    Workload("cold-start", "linear.ini", 40, 1.55,
             "Zero oracle, 40-step episodes from %s: build_setup and the cold "
             "QPs do the work, the oracle layer none; setup inputs repeat"
             % _BOX),
    Workload("transient-dnn", "dnn.ini", 500, 2.65,
             "The paper's method, 500-step episodes from the same x0 box: "
             "network rollout in the SQP, adapt, replay buffer, inline "
             "retraining; warm solves, RK4 truth half the loop"),
    Workload("transient-l2nw", "l2nw.ini", 500, 3.9,
             "Kernel oracle, 500-step episodes from the same x0 box: kernel "
             "Jacobians grow with the buffer fill, about 20 per step inside "
             "the SQP; the slowest warm solves"),
)}


def episode_count(workload: Workload, seconds: float, share: float = 1.0):
    """Episodes that fill ``share`` of ``seconds`` at the nominal speed."""
    return max(2, round(share * seconds / workload.nominal_episode_s))


def _lattice_generator(n: int) -> int:
    """Generator g of the rank-1 lattice {(i/n, i*g/n mod 1)} whose points
    lie farthest apart on the unit torus.  g is coprime to n, so each
    coordinate takes n distinct, evenly spaced values."""
    i = np.arange(1, n)
    dz = np.minimum(i / n, 1.0 - i / n)

    def spacing(g):
        dy = (i * g % n) / n
        return np.min(dz ** 2 + np.minimum(dy, 1.0 - dy) ** 2)

    return max((g for g in range(1, n) if math.gcd(g, n) == 1), key=spacing)


def draw_x0(seed: int, count: int) -> np.ndarray:
    """``count`` initial states (z, y, 0, 0) spread evenly over the box.

    The points are a rank-1 lattice, shifted at random by the seed and
    folded by the tent map u -> 1 - |2u - 1|.  A mean over such points of a
    smooth function of x0, like the closed-loop cost, varies much less
    from seed to seed than one over independent draws.
    """
    n = count
    g = _lattice_generator(n) if n > 1 else 1
    shift = np.random.default_rng(seed).random(2)
    i = np.arange(n)
    u = (np.stack([i / n, (i * g % n) / n], axis=1) + shift) % 1.0
    u = 1.0 - np.abs(2.0 * u - 1.0)
    x0 = np.zeros((n, 4))
    x0[:, 0] = Z_RANGE[0] + u[:, 0] * (Z_RANGE[1] - Z_RANGE[0])
    x0[:, 1] = Y_RANGE[0] + u[:, 1] * (Y_RANGE[1] - Y_RANGE[0])
    return x0


def episodes(workload: Workload, seed: int, count: int):
    """Deterministic-mode scenarios of one run, drawn from ``seed``."""
    from lbmpc import config

    path = SRC / "lbmpc" / "scenarios" / workload.scenario
    # an empty environment keeps LBMPC_* overrides out of the inputs
    base = config.load_scenario(str(path), environ={})
    sched_seeds = np.random.default_rng([seed, 1]).integers(0, 2 ** 31, count)
    out = []
    for x0, sched_seed in zip(draw_x0(seed, count), sched_seeds):
        run = replace(base.run, steps=workload.steps,
                      x0=tuple(float(v) for v in x0))
        schedule = replace(base.schedule, deterministic=True,
                           seed=int(sched_seed))
        out.append(replace(base, run=run, schedule=schedule))
    return out
