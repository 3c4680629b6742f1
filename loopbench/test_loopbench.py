"""Self-tests of the benchmark: tracing puts lbmpc back as it found it and
changes no behaviour, the exact counts repeat for one seed, a missing name
drops only its metrics, the speed probe changes no behaviour either, and
BENCHMARK.json matches the tables.

    python3 -m pytest loopbench
"""

import copy
import json
import signal
from dataclasses import replace

import pytest

import run  # first: it pins the BLAS threads before numpy loads
import layers
import manifest
import speed
import workloads

lbmpc = workloads.import_lbmpc()


def short_episodes(name, steps, count=1, seed=3):
    w = workloads.WORKLOADS[name]
    return [replace(s, run=replace(s.run, steps=steps))
            for s in workloads.episodes(w, seed, count)]


def attribute_ids():
    """(owner, attribute, id of its value) of every wrapping target."""
    out = []
    for _, path, attr, _ in layers.TARGETS:
        obj = layers.owner(path)
        out.append((obj, attr, id(vars(obj)[attr])))
    return out


def test_traced_run_restores_attributes_and_keeps_the_trace():
    before = attribute_ids()
    assert len(before) == len(layers.TARGETS)
    tracer, pairs = run.run_traced(lbmpc.runtime,
                                   short_episodes("transient-l2nw", 30))
    assert attribute_ids() == before
    assert not tracer.missing
    for plain, traced in pairs:
        assert plain.failed == traced.failed == []
        assert plain.trace.to_csv() == traced.trace.to_csv()
    seen = {s[0] for s in tracer.spans}
    assert {"runtime.build_setup", "polytope.linprog", "qp.qp_solve",
            "oracle.l2nw_predict_and_jacobian", "plant.step_truth"} <= seen


def test_attributes_restored_when_the_run_raises():
    before = attribute_ids()
    with pytest.raises(RuntimeError):
        with layers.Tracer().attached():
            assert attribute_ids() != before
            raise RuntimeError("episode failed")
    assert attribute_ids() == before


def test_exact_counts_repeat_for_one_seed():
    # 120 dnn steps reach the first retraining at step 100
    scenarios = (short_episodes("transient-dnn", 120)
                 + short_episodes("transient-l2nw", 30))

    def counts():
        tracer, _ = run.run_traced(lbmpc.runtime, scenarios)
        values = layers.layer_metrics(tracer, {})
        return {k: v for k, v in values.items() if k in layers.EXACT}

    first = counts()
    assert set(first) == layers.EXACT
    assert first == counts()
    for name in ("qp.iters", "mpc.sqp_iters", "polytope.lp_calls",
                 "polytope.invariant_set_iters", "oracle.train_calls",
                 "oracle.jac_calls", "oracle.adapt_calls"):
        assert first[name] > 0, name


def test_missing_name_drops_only_its_metrics():
    targets = tuple(
        (name, owner, "adapt_renamed" if name == "oracle.adapt" else attr,
         note)
        for name, owner, attr, note in layers.TARGETS)
    tracer = layers.Tracer(targets)
    with tracer.attached():
        run.run_episode(lbmpc.runtime, short_episodes("transient-dnn", 5)[0],
                        tracer)
    assert tracer.missing == {"oracle.adapt"}
    values = layers.layer_metrics(tracer, {})
    dropped = {"oracle.adapt_calls", "oracle.adapt_s", "runtime.loop_self_s"}
    assert not dropped & set(values)
    assert {"qp.iters", "plant.truth_s", "oracle.train_calls"} <= set(values)


def test_fallback_fails_a_step_without_breaking_a_guarantee():
    trace = run.run_plain(lbmpc.runtime,
                          short_episodes("cold-start", 5))[0].trace
    assert run.check_steps(trace) == ([], [])
    bad = copy.deepcopy(trace)
    bad.status[0] = "fallback"
    bad.state_margin[1] = -1e-3
    assert run.check_steps(bad) == ([1], [0, 1])


def test_speed_probe_keeps_the_trace_and_restores_the_handler():
    scenarios = short_episodes("transient-dnn", 60)
    plain = run.run_plain(lbmpc.runtime, scenarios)[0]
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe().running() as probe:
        probed = run.run_plain(lbmpc.runtime, scenarios)[0]
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.starts == sorted(probe.starts)
    assert len(probe.starts) >= probed.wall / speed.PERIOD / 2
    assert plain.trace.to_csv() == probed.trace.to_csv()
    fs, fl = run.speed_factors(probed, probe)
    assert 0.0 < fs and 0.0 < fl
    metrics, _ = run.end_to_end(lbmpc.runtime, [probed], probe)
    assert metrics["setup_s"] == pytest.approx(probed.setup * fs)


def test_benchmark_json_matches_the_tables():
    path = workloads.ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == manifest.manifest()
