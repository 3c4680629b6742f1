"""Writes BENCHMARK.json, the benchmark's contract, from the workload and
metric tables of this directory.

    python3 loopbench/manifest.py
"""

from __future__ import annotations

import json

import layers
import run
import workloads

RUN_SECONDS = 30


def manifest() -> dict:
    return {
        "command": ["python3", "loopbench/run.py"],
        "paths": ["loopbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in run.END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in layers.PER_LAYER],
    }


if __name__ == "__main__":
    (workloads.ROOT / "BENCHMARK.json").write_text(
        json.dumps(manifest(), indent=2) + "\n")
