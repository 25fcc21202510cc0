"""Committed benchmark records: every ``BENCH_<workload>.json`` at the repo
root names a workload and metrics that ``BENCHMARK.json`` declares, and
holds a parent and a change median for each metric it reports."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in bench["workloads"]}
    assert path.name == f"BENCH_{record['workload']}.json"
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert record["metrics"] and set(record["metrics"]) <= metrics
    for name, sides in record["metrics"].items():
        for side in ("parent", "change"):
            assert isinstance(sides[side]["median"], (int, float)), (name, side)
