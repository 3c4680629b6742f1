"""Paired runs of the closed-loop benchmark, written to BENCH_<tag>.json.

    python3 tools/bench.py --tag walk --workload cold-start --seed 301 \
        --pairs 10 --checkout parent=../parent --checkout change=.

Runs ``python3 loopbench/run.py --workload W --seed S --seconds T``
unchanged, with T the ``run_seconds`` of BENCHMARK.json, as a subprocess
inside each checkout, for every workload and seed given.  With two
checkouts every pair runs both, and the side that runs first alternates
from pair to pair, so that a drift of the host's speed falls on both
sides alike.  The runs go one after the other, never in parallel.  The
results file is written at the root of this repository.

Each run's ``env`` line and final JSON line are stored as printed.  The
summary gives, per workload, seed and end-to-end metric of BENCHMARK.json,
each side's median and quartiles and, with two checkouts, how many pairs
the second side won (ties count for neither) and the ratio of the second
side's median to the first's, under the key "<second>/<first>".  Next to
the metrics it gives each side's ``failed/attempted`` steps over all its
runs and whether every run was ``correct``.  The file is rewritten after every pair, so an
interrupted session keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """(env, result) of one loopbench run inside ``checkout``.

    A run that exits non-zero raises RuntimeError naming the checkout,
    workload and seed, with the last 20 lines of the run's stderr.
    """
    proc = subprocess.run(
        [sys.executable, "loopbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RuntimeError("loopbench run in %s, workload %s, seed %d exited "
                           "%d:\n%s" % (checkout, workload, seed,
                                        proc.returncode, tail))
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(runs, labels, metrics):
    """Median, quartiles, pair wins and the ratio of medians per workload,
    seed and metric, and per side the failed and attempted steps summed over
    its runs and whether every run was correct."""
    out = {}
    groups = {(r["workload"], r["seed"]) for r in runs}
    for workload, seed in sorted(groups):
        mine = [r for r in runs
                if (r["workload"], r["seed"]) == (workload, seed)]
        table = {}
        for name, better in metrics.items():
            values = {label: {r["pair"]: r["result"]["metrics"][name]["value"]
                              for r in mine if r["checkout"] == label
                              and name in r["result"]["metrics"]}
                      for label in labels}
            row = {}
            for label in labels:
                v = list(values[label].values())
                if v:
                    q1, med, q3 = np.percentile(v, [25, 50, 75])
                    row[label] = {"median": med, "q1": q1, "q3": q3,
                                  "n": len(v)}
            if len(labels) == 2:
                a, b = (values[label] for label in labels)
                sign = 1.0 if better == "lower" else -1.0
                pairs = sorted(a.keys() & b.keys())
                row["wins"] = sum(bool(sign * (a[p] - b[p]) > 0)
                                  for p in pairs)
                row["pairs"] = len(pairs)
                first, second = labels
                if first in row and second in row and row[first]["median"]:
                    row["%s/%s" % (second, first)] = (
                        row[second]["median"] / row[first]["median"])
            table[name] = row
        sides = {label: [r["result"] for r in mine if r["checkout"] == label]
                 for label in labels}
        table["failed/attempted"] = {
            label: "%d/%d" % (sum(r["failed"] for r in results),
                              sum(r["attempted"] for r in results))
            for label, results in sides.items() if results}
        table["correct"] = {label: all(r["correct"] for r in results)
                            for label, results in sides.items() if results}
        out["%s seed %d" % (workload, seed)] = table
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--checkout", action="append", required=True,
                    metavar="LABEL=PATH", help="one or two checkouts")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if len(args.checkout) not in (1, 2):
        ap.error("give one or two checkouts")
    if any("=" not in c for c in args.checkout):
        ap.error("give each checkout as LABEL=PATH")
    labels = [c.split("=", 1)[0] for c in args.checkout]
    if len(set(labels)) < len(labels):
        ap.error("checkout labels must differ")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    labels = list(checkouts)
    out = ROOT / ("BENCH_%s.json" % args.tag)
    doc = {"tag": args.tag, "checkouts": labels, "seconds": seconds,
           "pairs": args.pairs, "runs": []}
    for workload in args.workload:
        for seed in args.seed:
            for pair in range(args.pairs):
                order = labels if pair % 2 == 0 else labels[::-1]
                for label in order:
                    env, result = run_once(Path(checkouts[label]), workload,
                                           seed, seconds)
                    doc["runs"].append({
                        "checkout": label, "workload": workload,
                        "seed": seed, "pair": pair, "env": env,
                        "result": result})
                    print("%s %s seed %d pair %d: setup_s %.4f" % (
                        label, workload, seed, pair,
                        result["metrics"]["setup_s"]["value"]), flush=True)
                doc["summary"] = summarize(doc["runs"], labels, metrics)
                out.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
