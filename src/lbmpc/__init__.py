"""Learning-based tube MPC for linear systems with bounded residual uncertainty.

The package splits along the control architecture: set algebra (polytope),
the jet-engine surge plant and its discretized model (plant), the adaptive
network and kernel estimators (oracle), a dense QP solver (qp), the tube MPC
and its one Gauss-Newton step per control step (mpc), the dual-timescale
closed loop (runtime), scenario files (config) and a command-line front end
(cli).
"""

import os
import sys

# The matrices are small, so more BLAS threads only add scheduler stalls to
# the solves; this has to happen before numpy is imported, and a value set
# in the environment wins.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .polytope import (Polytope, PolytopeError, EmptyResult, Unbounded,
                       NotSchurStable, support, pontryagin_diff, tube_margins,
                       max_invariant_set)
from .plant import (MooreGreitzerParams, PlantModel,
                    mg_rhs, linearize_discretize, truth_residual, estimate_W)
from .oracle import (NetworkArch, OracleState, new_oracle, predict, adapt,
                     train_hidden, swap_hidden, ReplayBuffer, L2nwEstimator,
                     l2nw_predict)
from .qp import QpSolution, qp_solve
from .mpc import (ControllerConfig, LbmpcProblem, MpcSolution, build_margins,
                  solve_lbmpc, shift_solution,
                  synthesize_gain, synthesize_tube_gain, solve_lyapunov_P,
                  MpcError, MpcInfeasible, EmptyTightenedSet)
from .runtime import (ClosedLoopTrace, run_closed_loop,
                      build_setup, metrics, MetricsReport,
                      RuntimeFailure, InfeasibleAtStart)
from .config import (Scenario, ConfigError, parse_scenario, load_scenario,
                     echo_scenario)

__version__ = "0.1.0"
