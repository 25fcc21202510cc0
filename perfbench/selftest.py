"""Smoke test of the benchmark itself: one pass of every workload.

    python3 perfbench/selftest.py

Asserts that every end-to-end metric appears with its unit for all four
workloads, that no answer was wrong (error_frac == 0), that braid-mix at
seed 50505 reproduces acceptance test 5's 183 Yes / 330 No / 7 Unknown,
and that BENCHMARK.json declares exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BRAID_MIX_50505 = {"yes": 183, "no": 330, "unknown": 7}


def main() -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in config["end_to_end"]}
    assert declared == run.END_TO_END, f"BENCHMARK.json end_to_end {declared} != {run.END_TO_END}"
    layers = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert layers == dict(tracing.metric_names()), "BENCHMARK.json per_layer != tracing.metric_names()"
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)

    results = {}
    for name in run.WORKLOADS:
        results[name] = res = run.run_workload(name, 50505, 0)
        run.describe(name, res, 0)
        line = run.result_line(res, 0)
        got = {m: v["unit"] for m, v in line["metrics"].items()}
        assert got == run.END_TO_END, f"{name}: metrics {got}"
        assert all(v["value"] > 0 for v in line["metrics"].values()), f"{name}: a metric is 0"
        assert res["error_frac"] == 0 and line["correct"], f"{name}: {res['errors']}"
    verdicts = {k: results["braid-mix"]["verdicts"].get(k, 0) for k in BRAID_MIX_50505}
    assert verdicts == BRAID_MIX_50505, f"braid-mix verdicts {verdicts}"
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
