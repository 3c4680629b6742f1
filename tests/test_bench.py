"""tools/bench.py: the summary of paired runs and its argument checks, on
synthetic run records shaped like the ones it stores; tools/resolve.py: a
short replay of the bundled scenarios."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = {"solve_mean_ms": "lower", "steps_per_s": "higher"}


def run(label, pair, values, failed=0, attempted=100, correct=True,
        workload="transient-dnn", seed=301):
    return {"checkout": label, "workload": workload, "seed": seed,
            "pair": pair, "env": {},
            "result": {"metrics": {k: {"value": v} for k, v in values.items()},
                       "failed": failed, "attempted": attempted,
                       "correct": correct}}


def paired(parent, change, **kw):
    """Runs of two checkouts, pair k holding parent[k] and change[k]."""
    runs = []
    for k, (a, b) in enumerate(zip(parent, change)):
        runs.append(run("parent", k, a, **kw))
        runs.append(run("change", k, b, **kw))
    return runs


class TestSummarize:
    def test_wins_ties_and_ratio(self):
        # lower is better for the solve time, higher for the step rate;
        # pair 1 ties on both and counts for neither side
        parent = [{"solve_mean_ms": 3.0, "steps_per_s": 10.0},
                  {"solve_mean_ms": 2.0, "steps_per_s": 20.0},
                  {"solve_mean_ms": 5.0, "steps_per_s": 30.0},
                  {"solve_mean_ms": 4.0, "steps_per_s": 40.0}]
        change = [{"solve_mean_ms": 2.5, "steps_per_s": 12.0},
                  {"solve_mean_ms": 2.0, "steps_per_s": 20.0},
                  {"solve_mean_ms": 6.0, "steps_per_s": 25.0},
                  {"solve_mean_ms": 1.0, "steps_per_s": 41.0}]
        out = bench.summarize(paired(parent, change), ["parent", "change"],
                              METRICS)
        table = out["transient-dnn seed 301"]
        solve, rate = table["solve_mean_ms"], table["steps_per_s"]
        assert (solve["wins"], solve["pairs"]) == (2, 4)
        assert (rate["wins"], rate["pairs"]) == (2, 4)
        assert solve["parent"]["median"] == 3.5
        assert solve["change"]["median"] == 2.25
        assert solve["change/parent"] == 2.25 / 3.5
        q1, q3 = np.percentile([3.0, 2.0, 5.0, 4.0], [25, 75])
        assert (solve["parent"]["q1"], solve["parent"]["q3"]) == (q1, q3)
        assert solve["parent"]["n"] == 4
        assert rate["change/parent"] == 22.5 / 25.0

    def test_failed_attempted_and_correct(self):
        runs = [run("parent", 0, {"solve_mean_ms": 1.0}, failed=1,
                    attempted=40),
                run("parent", 1, {"solve_mean_ms": 1.0}, failed=2,
                    attempted=60),
                run("change", 0, {"solve_mean_ms": 1.0}, attempted=40),
                run("change", 1, {"solve_mean_ms": 1.0}, attempted=60,
                    correct=False)]
        table = bench.summarize(runs, ["parent", "change"],
                                {"solve_mean_ms": "lower"})[
                                    "transient-dnn seed 301"]
        assert table["failed/attempted"] == {"parent": "3/100",
                                             "change": "0/100"}
        assert table["correct"] == {"parent": True, "change": False}

    def test_one_checkout(self):
        runs = [run("only", k, {"solve_mean_ms": v}, workload=w, seed=s)
                for k, v in enumerate([1.0, 3.0, 2.0])
                for w, s in (("cold-start", 301), ("cold-start", 311))]
        out = bench.summarize(runs, ["only"], {"solve_mean_ms": "lower"})
        assert sorted(out) == ["cold-start seed 301", "cold-start seed 311"]
        row = out["cold-start seed 301"]["solve_mean_ms"]
        assert set(row) == {"only"}
        assert row["only"]["median"] == 2.0 and row["only"]["n"] == 3
        assert out["cold-start seed 311"]["failed/attempted"] == {
            "only": "0/300"}


def test_failed_run_reports_its_stderr(tmp_path):
    # a checkout whose loopbench run prints 25 lines to stderr and exits 1:
    # the error names the run and keeps the last 20 of them
    (tmp_path / "loopbench").mkdir()
    (tmp_path / "loopbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(25):\n"
        "    print('line %d' % i, file=sys.stderr)\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as err:
        bench.run_once(tmp_path, "cold-start", 301, 1.0)
    head, *lines = str(err.value).splitlines()
    assert str(tmp_path) in head
    assert "workload cold-start, seed 301 exited 1" in head
    assert lines == ["line %d" % i for i in range(5, 25)]


class TestParseArgs:
    BASE = ["--tag", "t", "--workload", "cold-start", "--seed", "301"]

    def test_accepts_one_or_two_checkouts(self):
        args = bench.parse_args(self.BASE + ["--checkout", "a=.",
                                             "--checkout", "b=../b"])
        assert args.checkout == ["a=.", "b=../b"] and args.pairs == 10
        assert bench.parse_args(self.BASE + ["--checkout", "a=."]).seed == [301]

    def test_accepts_every_benchmark_workload_and_distinct_seeds(self):
        args = bench.parse_args(
            ["--tag", "t", "--checkout", "a=.", "--workload", "cold-start",
             "--workload", "transient-dnn", "--workload", "transient-l2nw",
             "--seed", "301", "--seed", "977"])
        assert args.workload == ["cold-start", "transient-dnn",
                                 "transient-l2nw"]
        assert args.seed == [301, 977]

    @pytest.mark.parametrize("extra", [
        [],
        ["--checkout", "a=.", "--checkout", "b=.", "--checkout", "c=."],
        ["--checkout", "a=.", "--pairs", "0"],
        ["--checkout", "a=../p", "--checkout", "a=."],
        ["--checkout", "nolabel"],
        ["--checkout", "a=.", "--workload", "transient-dn"],
        ["--checkout", "a=.", "--workload", "cold-start"],
        ["--checkout", "a=.", "--seed", "301"],
    ], ids=["no-checkout", "three-checkouts", "zero-pairs", "duplicate-label",
            "no-label", "unknown-workload", "repeated-workload",
            "repeated-seed"])
    def test_rejects(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.parse_args(self.BASE + extra)
        assert exc.value.code == 2

    @pytest.mark.parametrize("missing", ["--tag", "--workload", "--seed"])
    def test_requires(self, missing, capsys):
        argv = list(self.BASE)
        i = argv.index(missing)
        del argv[i:i + 2]
        with pytest.raises(SystemExit) as exc:
            bench.parse_args(argv + ["--checkout", "a=."])
        assert exc.value.code == 2


def test_resolve_smoke():
    # three steps per scenario, two rounds of least-of-2: a round line per
    # replay and one summary line per oracle for each of the feedback, the
    # preparation and their per-step total, each with its p50, p95, max and
    # mean over steps, every time positive, and no
    # total below either phase; the feedback lines alone count the calls
    # of qp_solve in each phase, at most one per step: step 0's cold QP
    # from the bundled start runs in the preparation at x0, so step 0's
    # feedback returns the prepared step; the replay's own check that each
    # applied input matches the recorded run would end it with a traceback
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "resolve.py"),
         "--k", "2", "--rounds", "2", "--steps", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "k 2, rounds 2, steps linear 3, dnn 3, l2nw 3"
    assert [line.split(":")[0] for line in lines[1:3]] == ["round 1",
                                                           "round 2"]
    assert lines[3].startswith("least-of-2 feedback times")
    assert lines[7].startswith("least-of-2 preparation times")
    assert lines[11].startswith("least-of-2 per-step totals, preparation "
                                "plus feedback")
    assert len(lines) == 15
    blocks = []
    for block in (lines[4:7], lines[8:11], lines[12:15]):
        summary = {line.split()[0]: line.split() for line in block}
        assert sorted(summary) == ["dnn", "l2nw", "linear"]
        blocks.append({})
        for name, fields in summary.items():
            # name, then (stat, median, "(spread", spread) per statistic:
            # p50, p95, max and mean
            assert fields[1:14:4] == ["p50", "p95", "max", "mean"]
            medians = [float(fields[i]) for i in (2, 6, 10, 14)]
            assert 0.0 < medians[0] <= medians[1] <= medians[2]
            assert 0.0 < medians[3] <= medians[2]
            assert fields[-1].count(",") == 1
            blocks[-1][name] = np.array(medians)
            if len(blocks) > 1:
                assert "qp_solve" not in fields
                continue
            at = fields.index("qp_solve")
            assert fields[at + 1:at + 5:2] == ["feedback", "prepare"]
            feedback_calls, steps = fields[at + 2].rstrip(",").split("/")
            prepare_calls, prepare_steps = fields[at + 4].split("/")
            assert int(steps) == int(prepare_steps) == 3
            assert 0 <= int(feedback_calls) <= 2
            assert 1 <= int(prepare_calls) <= 3
    feedback, preparation, total = blocks
    for name, medians in total.items():
        assert np.all(medians >= feedback[name])
        assert np.all(medians >= preparation[name])
