"""Acceptance suite: the twelve end-to-end criteria.

Each test is numbered and self-contained apart from a session fixture that
runs the three bundled jet-engine scenarios once (they are reused by the
feasibility, timing and transient-ordering criteria).  Timing comparisons are
guarded against scheduler noise measured on the same traces: an ordering
miss inside the noise band is reported as a warning, not a failure.
"""

import dataclasses
import os
import time
import warnings

import numpy as np
import pytest

from lbmpc import config as cfgmod
from lbmpc import mpc, oracle as om, plant, runtime
from lbmpc.cli import SCENARIO_DIR
from lbmpc.polytope import Polytope, bounding_box, pontryagin_diff, support
from lbmpc.qp import qp_solve

from test_qp import active_set_oracle, random_qp, solution_residuals


# ---------------------------------------------------------------------------
# shared runs of the bundled scenarios


def _load_bundled(name):
    return cfgmod.load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                                environ={})


def _truncate(tr, n):
    """First n rows of a trace (the l2nw run is longer for the timing test)."""
    return dataclasses.replace(
        tr, **{name: getattr(tr, name)[:n] for name, *_ in runtime.TRACE_SPEC},
        swap_steps=[s for s in tr.swap_steps if s < n])


@pytest.fixture(scope="session")
def bundled():
    """Scenarios, one 500/600-step trace per oracle kind, and one setup."""
    t0 = time.perf_counter()
    scen = {name: _load_bundled(name) for name in ("linear", "dnn", "l2nw")}
    long_l2nw = dataclasses.replace(
        scen["l2nw"], run=dataclasses.replace(scen["l2nw"].run, steps=600))
    traces = {
        "zero": runtime.run_closed_loop(scen["linear"]),
        "dnn": runtime.run_closed_loop(scen["dnn"]),
        "l2nw": runtime.run_closed_loop(long_l2nw),
    }
    setup = runtime.build_setup(scen["linear"])
    return {"scenarios": scen, "traces": traces, "setup": setup,
            "elapsed": time.perf_counter() - t0}


def _metrics(scenario, trace):
    return runtime.metrics(trace, np.diag(scenario.controller.q_diag),
                           np.array([[scenario.controller.r]]),
                           band=scenario.run.band)


# ---------------------------------------------------------------------------
# 1. equilibrium fidelity


def test_criterion_01_equilibrium():
    t0 = time.perf_counter()
    params = plant.MooreGreitzerParams()
    r = plant.mg_rhs(plant.X_EQ, plant.U_EQ, params)
    assert np.linalg.norm(r, np.inf) < 1e-6
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2-4. adaptation law


class _LinModel:
    def __init__(self, rng, d=4, m=1):
        self.A = 0.5 * np.eye(d) + 0.05 * rng.normal(size=(d, d))
        self.B = rng.normal(size=(d, m))


def _batch_features(state, XU):
    """phi rows for many (x, u) samples; K-independent, so batchable."""
    A = XU
    for W, b in state.hidden:
        A = np.tanh(A @ W + b)
    return np.hstack([np.ones((A.shape[0], 1)), A])


def test_criterion_02_Va_bound_million_steps():
    rng = np.random.default_rng(0)
    gamma = 0.3
    arch = om.NetworkArch(n_in=5, hidden=(8, 6), n_out=4)
    st = om.new_oracle(arch, W_bar=np.full(4, 0.25), gamma=gamma, seed=0)
    model = _LinModel(rng)
    W_star = rng.normal(size=st.K.shape)
    W_star /= np.maximum(np.linalg.norm(W_star, axis=0) / st.W_bar, 1.0)
    bound = (4.0 / gamma) * np.sum(st.W_bar ** 2)

    n = 1_000_000
    XU = rng.uniform(-2.0, 2.0, size=(n, 5))
    X_next = rng.uniform(-1.0, 1.0, size=(n, 4)) * 0.2
    Phi = _batch_features(st, XU)
    violations = 0
    for t in range(n):
        st = om.adapt(st, XU[t, :4], XU[t, 4:], X_next[t], model,
                      phi=Phi[t])
        if om.lyapunov_Va(st, W_star) > bound + 1e-12:
            violations += 1
    assert violations == 0


def test_criterion_03_drift_and_prefix_sums():
    # synthetic harness: truth exactly h = W*' phi, approximation error zero
    rng = np.random.default_rng(1)
    gamma = 0.3
    arch = om.NetworkArch(n_in=5, hidden=(8, 6), n_out=4)
    st = om.new_oracle(arch, W_bar=np.full(4, 0.25), gamma=gamma, seed=1)
    model = _LinModel(rng)
    W_star = rng.normal(size=st.K.shape)
    W_star /= np.maximum(np.linalg.norm(W_star, axis=0) / st.W_bar, 1.0)
    sigma2 = st.arch.sigma ** 2
    prefix_bound = (sigma2 / (1.0 - gamma)) * (4.0 / gamma) \
        * np.sum(st.W_bar ** 2)

    V = om.lyapunov_Va(st, W_star)
    acc = 0.0
    drift_violations = 0
    prefix_violations = 0
    for _ in range(10_000):
        x = rng.uniform(-2.0, 2.0, 4)
        u = rng.uniform(-2.0, 2.0, 1)
        phi = om.features(st, x, u)
        x_next = model.A @ x + model.B @ u + phi @ W_star
        x_tilde = phi @ (st.K - W_star)
        st = om.adapt(st, x, u, x_next, model, phi=phi)
        V_new = om.lyapunov_Va(st, W_star)
        if V_new - V > -((1.0 - gamma) / sigma2) * (x_tilde @ x_tilde) + 1e-10:
            drift_violations += 1
        V = V_new
        acc += float(x_tilde @ x_tilde)
        if acc > prefix_bound + 1e-9:
            prefix_violations += 1
    assert drift_violations == 0
    assert prefix_violations == 0


def test_criterion_04_projection_safety():
    rng = np.random.default_rng(2)
    W_bar = np.array([0.4, 1.0, 0.05, 2.0])
    for _ in range(100_000 // 4):   # 4 columns per draw -> 1e5 projections
        K_bar = rng.normal(size=(7, 4)) * rng.uniform(0.1, 4.0)
        K = om.project_columns(K_bar, W_bar)
        norms = np.linalg.norm(K, axis=0)
        assert np.all(norms <= W_bar + 1e-12)
        W_star = rng.normal(size=(7, 4))
        W_star /= np.maximum(np.linalg.norm(W_star, axis=0) / W_bar, 1.0)
        ip = np.einsum("ij,ij->j", W_star - K, K_bar - K)
        assert np.all(ip <= 1e-10)


# ---------------------------------------------------------------------------
# 5. recursive feasibility and constraint satisfaction


def test_criterion_05_recursive_feasibility(bundled):
    for name, tr in bundled["traces"].items():
        assert len(tr) >= 500, name
        assert np.all(tr.h_in_w), "%s: realized residual left W" % name
        assert np.all(tr.shift_feasible), \
            "%s: shifted candidate infeasible" % name
        assert np.all(tr.state_margin > 0), "%s: state constraint hit" % name
        assert np.all(tr.input_margin > 0), "%s: input constraint hit" % name
        assert all(s in ("optimal", "fallback") for s in tr.status)


# ---------------------------------------------------------------------------
# 6. transient-response orderings


def _orderings(scen, traces):
    zero = _metrics(scen["linear"], traces["zero"])
    dnn = _metrics(scen["dnn"], traces["dnn"])
    l2nw = _metrics(scen["l2nw"], _truncate(traces["l2nw"], 500))
    assert dnn.settling_steps < zero.settling_steps, \
        "settling: dnn %d vs linear %d" % (dnn.settling_steps,
                                           zero.settling_steps)
    assert dnn.overshoot_z <= l2nw.overshoot_z + 1e-12, \
        "mass-flow overshoot: dnn %.5f vs l2nw %.5f" % (dnn.overshoot_z,
                                                        l2nw.overshoot_z)
    assert dnn.overshoot_y <= l2nw.overshoot_y + 1e-12, \
        "pressure overshoot: dnn %.5f vs l2nw %.5f" % (dnn.overshoot_y,
                                                       l2nw.overshoot_y)


def test_criterion_06_transient_orderings(bundled):
    t0 = time.perf_counter()
    scen = bundled["scenarios"]
    _orderings(scen, bundled["traces"])

    base = np.asarray(scen["dnn"].run.x0)
    scales = np.array([0.005, 0.005, 0.0, 0.0])
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        x0 = tuple(base + rng.uniform(-1.0, 1.0, 4) * scales)
        traces = {}
        for key, scen_name in (("zero", "linear"), ("dnn", "dnn"),
                               ("l2nw", "l2nw")):
            s = scen[scen_name]
            steps = 600 if key == "l2nw" else 500
            s = dataclasses.replace(
                s, run=dataclasses.replace(s.run, x0=x0, steps=steps))
            traces[key] = runtime.run_closed_loop(s)
        _orderings(scen, traces)
    assert bundled["elapsed"] + time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 7. solver-time orderings (noise-guarded)


def _noise_floor(times):
    """Median absolute deviation as the per-step timing noise estimate."""
    med = np.median(times)
    return float(np.median(np.abs(times - med)))


def _timing_check(value, limit, noise, what):
    """Hard-fail only when the miss exceeds twice the measured noise."""
    if value <= limit:
        return
    if value - limit < 2.0 * noise:
        warnings.warn("%s: %.3g vs limit %.3g within timing noise %.3g"
                      % (what, value, limit, noise))
        return
    raise AssertionError("%s: %.3g exceeds %.3g (noise %.3g)"
                         % (what, value, limit, noise))


def test_criterion_07_solver_time_orderings(bundled):
    tr_zero = bundled["traces"]["zero"]
    tr_dnn = bundled["traces"]["dnn"]
    tr_l2nw = bundled["traces"]["l2nw"]

    med_zero = float(np.median(tr_zero.solver_time))
    med_dnn = float(np.median(tr_dnn.solver_time))
    noise = max(_noise_floor(tr_zero.solver_time),
                _noise_floor(tr_dnn.solver_time))
    _timing_check(med_dnn, 2.0 * med_zero, noise,
                  "dnn median vs 2x linear median")

    # kernel max with a filled buffer: entries from step 500 on have seen
    # at least 500 stored samples inside the optimization
    max_l2nw = float(np.max(tr_l2nw.solver_time[500:]))
    max_dnn = float(np.max(tr_dnn.solver_time))
    # a max is an extreme statistic, so its noise is the scheduler spike
    # amplitude; the cheapest solve (zero oracle) measures it directly,
    # since its true compute time is tightly concentrated
    spike = float(np.max(tr_zero.solver_time)
                  - np.quantile(tr_zero.solver_time, 0.95))
    _timing_check(max_dnn, max_l2nw, max(noise, spike),
                  "dnn max vs filled-buffer l2nw max")


# ---------------------------------------------------------------------------
# 8. QP correctness against the exhaustive oracle


def test_criterion_08_qp_against_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.integers(2, 6))
        m_in = int(rng.integers(1, 8))
        p = random_qp(rng, n, m_in)
        sol = qp_solve(*p)
        assert sol.status == "optimal", "trial %d" % trial
        ref = active_set_oracle(p)
        assert ref is not None, "trial %d: oracle found no optimum" % trial
        assert abs(p.objective(sol.x) - ref[1]) < 1e-6, "trial %d" % trial
        assert max(solution_residuals(p, sol)) < 1e-6, "trial %d" % trial


# ---------------------------------------------------------------------------
# 9. gradient integrity


def test_criterion_09_gradients():
    rng = np.random.default_rng(3)
    arch = om.NetworkArch(n_in=5, hidden=(8, 6), n_out=4)
    hidden = om.init_hidden(arch, seed=0)
    K = rng.normal(size=(arch.feature_dim, arch.n_out)) * 0.3
    X = rng.normal(size=(16, arch.n_in))
    H = rng.normal(size=(16, arch.n_out))
    grads, _ = om.batch_gradients(hidden, K, X, H)
    eps = 1e-6
    for _ in range(20):     # 20 random probes of the training gradient
        layer = int(rng.integers(len(hidden)))
        W, _ = hidden[layer]
        idx = (int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1])))
        Wp = [(w.copy(), b.copy()) for w, b in hidden]
        Wm = [(w.copy(), b.copy()) for w, b in hidden]
        Wp[layer][0][idx] += eps
        Wm[layer][0][idx] -= eps
        fd = (om.batch_loss(Wp, K, X, H) - om.batch_loss(Wm, K, X, H)) \
            / (2 * eps)
        rel = abs(grads[layer][0][idx] - fd) / max(abs(fd), 1e-8)
        assert rel < 1e-5

    st = om.OracleState(arch=arch, hidden=hidden, K=K,
                        W_bar=np.full(4, 10.0), gamma=0.3)
    for _ in range(20):     # 20 random probes of the SQP input-Jacobian
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        _, Jx, Ju = om.predict_and_jacobian(st, x, u)
        J = np.hstack([Jx, Ju])
        j = int(rng.integers(5))
        dxu = np.zeros(5)
        dxu[j] = eps
        fp = om.predict(st, x + dxu[:4], u + dxu[4:])
        fm = om.predict(st, x - dxu[:4], u - dxu[4:])
        fd = (fp - fm) / (2 * eps)
        denom = max(float(np.max(np.abs(fd))), 1e-8)
        assert np.max(np.abs(J[:, j] - fd)) / denom < 1e-4


# ---------------------------------------------------------------------------
# 10. Lyapunov / Riccati residuals


def test_criterion_10_lyapunov_residuals(bundled):
    setup = bundled["setup"]
    model, cfg = setup.problem.model, setup.problem.cfg
    A_cl = model.A + model.B @ cfg.K
    resid = A_cl.T @ cfg.P @ A_cl - cfg.P + cfg.Q + cfg.K.T @ cfg.R @ cfg.K
    assert np.max(np.abs(resid)) < 1e-10

    scalar = plant.PlantModel(A=np.array([[0.5]]), B=np.array([[1.0]]),
                              X=Polytope.box([-1.0], [1.0]),
                              U=Polytope.box([-1.0], [1.0]),
                              x_eq=np.zeros(1), u_eq=0.0)
    P = mpc.solve_lyapunov_P(scalar, np.zeros((1, 1)), np.array([[1.0]]),
                             np.array([[1.0]]))
    assert abs(P[0, 0] - 4.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# 11. set machinery


def test_criterion_11_sets(bundled):
    # Pontryagin difference on boxes: exact interval arithmetic
    cases = [
        (([-1.0], [1.0]), ([-0.25], [0.25])),
        (([-2.0, -1.0], [2.0, 3.0]), ([-0.5, -0.1], [0.5, 0.1])),
        (([0.0, -5.0, -1.0], [4.0, 5.0, 1.0]),
         ([-1.0, -0.5, 0.0], [1.0, 0.5, 0.0])),
    ]
    for (lo, hi), (wlo, whi) in cases:
        D = pontryagin_diff(Polytope.box(lo, hi), Polytope.box(wlo, whi))
        d = len(lo)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            assert support(D, e) == hi[i] - whi[i]
            assert support(D, -e) == -(lo[i] - wlo[i])

    # terminal set: 10^4-sample robust invariance with zero violations
    setup = bundled["setup"]
    omega, model = setup.problem.omega, setup.problem.model
    A_cl = model.A + model.B @ setup.problem.cfg.K
    d = model.d
    lo = np.array([-support(omega, -np.eye(d)[i]) for i in range(d)])
    hi = np.array([support(omega, np.eye(d)[i]) for i in range(d)])
    w_lo, w_hi = bounding_box(model.W)
    rng = np.random.default_rng(4)
    hits = 0
    violations = 0
    while hits < 10_000:
        x = rng.uniform(lo, hi)
        if not omega.contains(x):
            continue
        hits += 1
        w = rng.uniform(w_lo, w_hi)
        if not omega.contains(A_cl @ x + w):
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# 12. determinism


def test_criterion_12_deterministic_traces():
    scen = _load_bundled("dnn")
    scen = dataclasses.replace(
        scen, run=dataclasses.replace(scen.run, steps=150))
    a = runtime.run_closed_loop(scen)
    b = runtime.run_closed_loop(scen)
    csv_a = a.to_csv()
    assert csv_a == b.to_csv()
    assert csv_a.encode() == b.to_csv().encode()   # byte identical
