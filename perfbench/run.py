"""kmon decision benchmark.

    python3 perfbench/run.py --workload braid-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 50505 --seconds 0

Each workload runs in its own fresh child process (child.py), one after
another, single-threaded, with PYTHONHASHSEED pinned and kmon imported
from the checkout's ``src``.  With ``--trace 0`` the last line of stdout
is one JSON object holding every end-to-end metric; set-up time is the
median of the measuring child and ``SETUP_PROBES`` set-up-only children.
With ``--trace 1`` it holds every per-layer metric from a traced run, and
the tracing overhead (untraced / traced ``ops_per_s``).  The lines before
it are for people: units, verdict counts per pass, the tail percentile and
its sample count, the unscaled times, per-kind op costs and any wrong
answers.

Every time in the result line is scaled to one nominal machine speed by a
reference task timed all through the run (pace.py), because the CPU time of
the same work drifts by up to 1.7x on a shared host.

``--all`` runs the four workloads in turn, each followed by its own result
line.  Wrong answers show as ``"correct": false``; without kmon's sources
beside this directory, or when a child fails, the benchmark exits non-zero
without printing that workload's result.  baseline.py and selftest.py call
``run_workload`` directly for the fields the result line leaves out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("braid-mix", "axioms", "twogen", "dio-extend")
# error_frac is reported as ok_frac = 1 - error_frac, so that no metric is 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 20
RUN_DEADLINE_S = 170.0


def child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int = 0, population=None, deadline=None) -> dict:
    """One workload's results: every metric plus verdicts, tail percentile,
    error_frac and per-kind costs."""
    deadline = time.monotonic() + RUN_DEADLINE_S if deadline is None else deadline
    common = ["--workload", name, "--seed", str(seed)]
    if population is not None:
        common += ["--population", str(population)]
    res = child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        probes = [child(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        res["setup_samples"] = [res["setup_s"]] + [p["setup_s"] for p in probes]
        res["setup_s"] = statistics.median(res["setup_samples"])
        res["raw"]["setup_s"] = statistics.median([res["raw"]["setup_s"]] + [p["raw_setup_s"] for p in probes])
        res["ok_frac"] = 1.0 - res["error_frac"]
    return res


def describe(name: str, res: dict, trace: int) -> None:
    say = lambda text: print(f"[{name}] {text}")
    counts = " ".join(f"{k}={res['verdicts'].get(k, 0)}" for k in ("yes", "no", "unknown", "error"))
    say(f"passes={res['passes']} ops/pass={res['ops_per_pass']} attempted={res['attempted']} failed={res['failed']}")
    say(f"verdicts per pass: {counts}")
    if trace:
        say(f"traced ops_per_s={res['ops_per_s']:.6g} untraced ops_per_s={res['untraced_ops_per_s']:.6g}")
        for metric, value in res["per_layer"].items():
            say(f"{metric} = {value:.6g}")
        say(f"spans written to {res['spans_file']} ({res['spans_dropped']} beyond the cap dropped)")
    else:
        for metric, unit in END_TO_END.items():
            say(f"{metric} = {res[metric]:.6g} {unit}")
        say(f"error_frac = {res['error_frac']:.6g} ratio")
        say(f"latency_tail_ms is p{res['tail_percentile']} with {res['tail_beyond']} samples beyond it")
        raw = " ".join(f"{m}={v:.6g}" for m, v in res["raw"].items())
        ref = res["ref_ms"]
        say(f"unscaled: {raw}; reference() took {ref['median']:.4g} ms median "
            f"({ref['min']:.4g}..{ref['max']:.4g}, {ref['count']} times)")
    for kind, k in res["kinds"].items():
        say(f"  {kind}: {k['ops']} ops, mean {k['mean_ms']:.4g} ms unscaled")
    for err in res["errors"]:
        print(f"[{name}] WRONG {err}", file=sys.stderr)


def result_line(res: dict, trace: int) -> dict:
    if trace:
        import tracing

        metrics = {m: {"value": res["per_layer"][m], "unit": u} for m, u in tracing.metric_names()}
    else:
        metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not (ROOT / "src" / "kmon" / "__init__.py").is_file():
        print(f"no kmon sources under {ROOT / 'src'}; run from a kmon checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if a.all else [a.workload] if a.workload else []
    if not names:
        ap.error("give --workload or --all")

    for name in names:
        try:
            res = run_workload(name, a.seed, a.seconds, a.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"[{name}] failed: {exc}", file=sys.stderr)
            return 1
        describe(name, res, a.trace)
        print(json.dumps(result_line(res, a.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
