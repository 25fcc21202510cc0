"""One workload in one fresh process: set up, measure, print one JSON line.

Started by run.py with PYTHONHASHSEED pinned and kmon taken from the
checkout's ``src``.  The loop is closed: the next op starts only after the
previous one returned and was checked.  Only the op call is timed, by the
CPU time of the calling thread: kmon is single-threaded and never waits, so
on a dedicated core this equals the op's wall time, and on a shared machine
it leaves out the time the scheduler gave to other work.  Whole passes over
the op list run while the next one is expected to end within ``--seconds``
of wall time; the first pass always runs, and each later one takes the ops
in a new order drawn from ``--seed``.

Every op time, and the set-up time, is scaled to one nominal machine speed
by ``pace.Pace`` (see there); the unscaled figures are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS_SHOWN = 20


def measure(ops, seconds: float, pace: Pace, order_rng: random.Random, tracer=None) -> dict:
    """Run whole passes over ``ops``: the first in the given order, each later
    one in a new order from ``order_rng``, so that a run averages over several
    orders and the cache state each op meets."""
    intervals: list[tuple[float, float]] = []  # Pace.clock() before and after each op
    first: list = [None] * len(ops)
    kinds: dict[str, list] = {}
    errors: list[str] = []
    failed = decided = passes = 0
    order = list(range(len(ops)))
    pace.sample()
    start = perf_counter()
    while True:
        for i in order:
            op = ops[i]
            t0 = pace.clock()
            try:
                out = op.call() if tracer is None else tracer.op_span(i, op.call)
                raised = None
            except Exception as exc:  # an op that raises is a failed op
                raised = f"{type(exc).__name__}: {exc}"
            t1 = pace.clock()
            intervals.append((t0, t1))
            dt = t1 - t0
            if raised:
                verdict, err = "error", raised
            else:
                try:
                    verdict, err = op.check(out)
                except Exception as exc:
                    verdict, err = "error", f"check raised {type(exc).__name__}: {exc}"
            if passes == 0:
                first[i] = verdict
            elif first[i] != verdict and not err:
                err = f"verdict changed between passes: {first[i]} -> {verdict}"
            decided += verdict in ("yes", "no")
            if err:
                failed += 1
                if len(errors) < MAX_ERRORS_SHOWN:
                    errors.append(f"{op.kind}: {err}")
            k = kinds.setdefault(op.kind, [0, 0.0])
            k[0] += 1
            k[1] += dt
        passes += 1
        order_rng.shuffle(order)
        # stop unless another pass of the mean length still ends in time
        if (perf_counter() - start) * (passes + 1) / passes > seconds:
            break

    pace.sample()
    raw = [t1 - t0 for t0, t1 in intervals]
    lat = [pace.scale(t0, t1) for t0, t1 in intervals]
    n, per_pass = len(lat), len(ops)
    # the highest percentile with at least 10 samples beyond it in one pass,
    # so the same percentile holds however many passes ran
    tail_q = max(0.5, (per_pass - 10) / per_pass)

    def timings(samples: list[float]) -> dict:
        srt = sorted(samples)
        quantile = lambda q: srt[max(0, math.ceil(q * n) - 1)]
        return {
            "ops_per_s": n / sum(samples),
            "latency_p50_ms": quantile(0.5) * 1e3,
            "latency_tail_ms": quantile(tail_q) * 1e3,
        }

    return {
        **timings(lat),
        "raw": timings(raw),
        "ref_ms": pace.summary(),
        "tail_percentile": round(100 * tail_q, 3),
        "tail_beyond": n - math.ceil(tail_q * n),
        "decided_frac": decided / n,
        "error_frac": failed / n,
        "attempted": n,
        "failed": failed,
        "passes": passes,
        "ops_per_pass": per_pass,
        "verdicts": dict(Counter(first)),
        "kinds": {k: {"ops": c, "mean_ms": 1e3 * s / c} for k, (c, s) in sorted(kinds.items())},
        "errors": errors,
        "wall_s": perf_counter() - start,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--population", type=int)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()

    pace = Pace()
    pace.start()
    for _ in range(3):
        pace.sample()
    t0 = pace.clock()
    import workloads  # imports kmon: part of set-up

    ops = workloads.build(a.workload, a.seed, a.population)
    t1 = pace.clock()
    for _ in range(3):
        pace.sample()
    raw_setup_s, setup_s = t1 - t0, pace.scale(t0, t1)

    kmon_file = Path(sys.modules["kmon"].__file__).resolve()
    if ROOT / "src" not in kmon_file.parents:
        print(f"kmon was imported from {kmon_file}, not from this checkout", file=sys.stderr)
        return 3
    if a.setup_only:
        pace.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    orders = random.Random(f"pass orders {a.seed}")
    gc.collect()
    if not a.trace:
        result = measure(ops, a.seconds, pace, orders)
        result["setup_s"], result["raw"]["setup_s"] = setup_s, raw_setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing

        untraced = measure(ops, 0.0, pace, orders)
        tracer = tracing.Tracer(pace.clock)
        tracer.install()
        ops = workloads.build(a.workload, a.seed, a.population)  # binds the wrappers
        tracer.reset()
        gc.collect()
        result = measure(ops, a.seconds, pace, orders, tracer)
        result["untraced_ops_per_s"] = untraced["ops_per_s"]
        result["per_layer"] = tracer.metrics(untraced["ops_per_s"] / result["ops_per_s"])
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        result["spans_file"] = str(out_dir / f"spans-{a.workload}-seed{a.seed}.jsonl")
        result["spans_dropped"] = tracer.dropped
        tracer.dump(result["spans_file"])
    pace.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
