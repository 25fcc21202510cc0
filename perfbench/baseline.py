"""Measure the benchmark's spread and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For each of the four workloads: one untraced run per seed in ``SEEDS``
(BENCHMARK.json's run_seconds each), the median and spread of every
end-to-end metric (the distance between the first and third quartiles as a
share of the median), the verdict counts per pass, the tail percentile, one
traced run for the per-layer metrics and the tracing overhead, and one pass
at the held-out seed and population that no change may be tuned on.  The
file is rewritten whole from this one invocation.  Times are at the nominal
machine speed of pace.py, which the file records.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))
HELD_OUT_SEED = 424242
HELD_OUT_DEADLINE_S = 600.0

sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def tail(res: dict) -> str:
    return f"p{res['tail_percentile']} with {res['tail_beyond']} samples beyond it"


def measure(workload: str, seconds: float) -> dict:
    runs, verdicts, tails = [], {}, set()
    for seed in SEEDS:
        res = run.run_workload(workload, seed, seconds)
        assert res["failed"] == 0, f"{workload} seed {seed}: {res['errors']}"
        runs.append({m: res[m] for m in run.END_TO_END})
        verdicts[seed] = res["verdicts"]
        tails.add(tail(res))
        print(workload, seed, runs[-1], flush=True)
    traced = run.run_workload(workload, SEEDS[0], seconds, trace=1)
    held_population = workloads.HELD_OUT_POPULATION.get(workload)
    held = run.run_workload(workload, HELD_OUT_SEED, 0, population=held_population, deadline=time.monotonic() + HELD_OUT_DEADLINE_S)
    out = {
        "median": {m: statistics.median(r[m] for r in runs) for m in run.END_TO_END},
        "spread": {m: spread([r[m] for r in runs]) for m in run.END_TO_END},
        "runs": runs,
        "verdicts_per_pass": verdicts,
        "latency_tail": sorted(tails),
        "trace_overhead": traced["per_layer"][tracing.OVERHEAD],
        "per_layer": traced["per_layer"],
        "held_out": {"seed": HELD_OUT_SEED, "population": held_population, "verdicts_per_pass": held["verdicts"]},
    }
    print(workload, "spread", {m: round(v, 4) for m, v in out["spread"].items()}, flush=True)
    return out


def main() -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "reference_nominal_ms": pace.REF_NOMINAL_MS,
        "seeds": SEEDS,
        "traced_seed": SEEDS[0],
        "run_seconds": config["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in config["end_to_end"]},
        "layer_map": {name: moves for name, (_, moves) in tracing.LAYERS.items()},
        "workloads": {name: measure(name, config["run_seconds"]) for name in run.WORKLOADS},
    }
    OUT.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
