"""Traced mode: spans around kmon's layer boundaries, installed from here.

Each traced function is replaced by a wrapper on its defining class or
module, and every ``from .x import f`` copy of it in the other kmon modules
is rebound to the same wrapper (``core`` holds its own ``card_sum``, for
example).  A wrapper records a span (name, start, end, parent span, op id)
and adds the call to its layer's counters; self time is the span minus the
time covered by its child spans.  Span times come from the clock the tracer
is given: the benchmark passes ``Pace.clock``, thread CPU time less the
machine-speed reference's, so self times are unscaled CPU seconds.  Spans
stay in memory, up to ``SPAN_CAP``, and are written out when the run ends.

``LAYERS`` is also the layer -> end-to-end map: each entry names the
end-to-end metric, and the workload, that a change to that layer should
move.  The per-layer metric names in BENCHMARK.json are ``metric_names()``.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Optional

SPAN_CAP = 100_000
MONOID_METHODS = ("raw_ksum", "eq", "sub")
MONOID_MODULES = ("core", "free_vectors", "diophantine", "gallery", "presentations")

VALUE_CORE = "latency_p50_ms on braid-mix; ops_per_s on axioms"
SEARCH = "ops_per_s, latency_tail_ms and decided_frac on braid-mix; no change on axioms"
SATURATION = "ops_per_s and latency_tail_ms on twogen"
ENUMERATION = "latency_tail_ms and decided_frac on dio-extend"
FRONT_END = "setup_s and latency_p50_ms on twogen and dio-extend"

# name -> (stats, what a faster layer should move).  "calls" and "self_s"
# are counted for every entry; the extra stat names an outcome ratio or a
# work count.
LAYERS: dict[str, tuple[tuple[str, ...], str]] = {
    "cardinals.card_sum": (("calls", "self_s"), "ops_per_s on axioms"),
    "cardinals.card_mul": (("calls", "self_s"), "ops_per_s on axioms"),
    "core.Family.of": (("calls", "self_s"), VALUE_CORE),
    **{f"core.monoid.{m}": (("calls", "self_s"), VALUE_CORE) for m in MONOID_METHODS},
    "braiding.braid_find": (("calls", "self_s", "decided_ratio"), SEARCH),
    "braiding.verify": (("calls", "self_s", "accept_ratio"), SEARCH),
    "presentations.forms_equal": (("calls", "self_s", "decided_ratio"), SATURATION),
    "presentations.find_separating_hom": (("calls", "self_s"), SATURATION),
    "presentations.realizable_two_gen": (("calls", "self_s"), SATURATION),
    "presentations.corollary_checks": (("calls", "self_s"), SATURATION),
    "presentations.in_add": (("calls", "self_s"), SATURATION),
    # called by the braid search on dio monoids, not on dio-extend
    "diophantine.enumerate_solutions": (("calls", "self_s", "box_points"), SEARCH),
    "diophantine.Aleph0Extension.member": (("calls", "self_s", "decided_ratio", "box_points"), ENUMERATION),
    "diophantine.rational_feasible": (("calls", "self_s"), "latency_p50_ms on dio-extend"),
    "diophantine.DioMonoid.member": (("calls", "self_s"), "latency_p50_ms on dio-extend"),
    "laws.check_axioms": (("calls", "self_s"), "ops_per_s on axioms"),
    "dsl.parse_presentation": (("self_s",), FRONT_END),
    "dsl.parse_monoid": (("self_s",), FRONT_END),
    "dsl.parse_family": (("self_s",), FRONT_END),
    "dsl.render_certificate": (("self_s",), FRONT_END),
    "cli.run": (("calls", "self_s"), FRONT_END),
}
OVERHEAD = "trace.overhead"
UNITS = {"calls": "count", "self_s": "s", "box_points": "count", "decided_ratio": "ratio", "accept_ratio": "ratio"}

OUTCOMES: dict[str, Callable] = {
    "decided_ratio": lambda r: r.decided,
    "accept_ratio": lambda r: r.is_yes,
}
# box points a call scans, from its arguments and result
POINTS: dict[str, Callable] = {
    "diophantine.enumerate_solutions": lambda r, sys, radius: (radius + 1) ** sys.n,
    "diophantine.Aleph0Extension.member": lambda r, ext, x: _scan_points(r, ext, x),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name, (stats, _) in LAYERS.items():
        out += [(f"{name}.{s}", UNITS[s]) for s in stats]
        if name.startswith("core.monoid."):
            out += [(f"{name}.self_s.{mod}", "s") for mod in MONOID_MODULES]
    return out + [(OVERHEAD, "ratio")]


class Slot:
    """Counters of one wrapped function."""

    __slots__ = ("layer", "module", "calls", "self_s", "good", "points")

    def __init__(self, layer: str, module: str):
        self.layer, self.module = layer, module
        self.calls = self.good = self.points = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.slots: list[Slot] = []
        self.stack: list[list] = []  # [child time, span id] per open span
        self.spans: list[tuple] = []
        self.next_id = 0
        self.dropped = 0
        self.op = -1

    def reset(self) -> None:
        for s in self.slots:
            s.calls = s.good = s.points = 0
            s.self_s = 0.0
        self.spans.clear()
        self.next_id = self.dropped = 0

    def _record(self, name, start: float, end: float, sid: int) -> None:
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][1] if self.stack else -1
            self.spans.append((sid, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, slot: Slot, outcome: Optional[Callable], points: Optional[Callable]):
        stack, index, clock = self.stack, len(self.slots), self.clock
        self.slots.append(slot)

        def traced(*args, **kwargs):
            frame = [0.0, self.next_id]
            self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                slot.calls += 1
                slot.self_s += span - frame[0]
                if stack:
                    stack[-1][0] += span
                self._record(index, start, end, frame[1])
            if outcome is not None:
                slot.good += bool(outcome(result))
            if points is not None:
                slot.points += points(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def op_span(self, op: int, call: Callable):
        """Run one op as a root span; child spans carry its op id."""
        self.op = op
        frame = [0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        start = self.clock()
        try:
            return call()
        finally:
            end = self.clock()
            self.stack.pop()
            self._record("op", start, end, frame[1])

    def install(self) -> None:
        import kmon  # noqa: F401  (loads every kmon module)

        kmon_modules = {n.split(".")[-1]: m for n, m in sys.modules.items() if n.startswith("kmon.")}
        core = kmon_modules["core"]
        wrapped: dict = {}

        def patch(owner, attr: str, layer: str, module: str, stats) -> None:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            extra = next((OUTCOMES[s] for s in stats if s in OUTCOMES), None)
            points = POINTS[layer] if "box_points" in stats else None
            new = self.wrap(fn, Slot(layer, module), extra, points)
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
            wrapped[fn] = new

        classes = [core.KappaMonoid] + _subclasses(core.KappaMonoid)
        for name, (stats, _) in LAYERS.items():
            module, *path = name.split(".")
            if module == "core" and path[0] == "monoid":
                for cls in classes:
                    if path[1] in cls.__dict__:
                        patch(cls, path[1], name, cls.__module__.split(".")[-1], stats)
                continue
            owner = kmon_modules[module]
            for part in path[:-1]:
                owner = getattr(owner, part)
            patch(owner, path[-1], name, module, stats)

        for mod in list(kmon_modules.values()) + [sys.modules["kmon"]]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

    def metrics(self, overhead: float) -> dict[str, float]:
        by_layer: dict[str, list[Slot]] = {}
        for s in self.slots:
            by_layer.setdefault(s.layer, []).append(s)
        out: dict[str, float] = {}
        for name, (stats, _) in LAYERS.items():
            slots = by_layer.get(name, [])
            calls = sum(s.calls for s in slots)
            ratio = sum(s.good for s in slots) / calls if calls else 0.0
            values = {
                "calls": calls,
                "self_s": float(sum(s.self_s for s in slots)),
                "box_points": sum(s.points for s in slots),
                "decided_ratio": ratio,
                "accept_ratio": ratio,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
            if name.startswith("core.monoid."):
                for mod in MONOID_MODULES:
                    out[f"{name}.self_s.{mod}"] = float(sum(s.self_s for s in slots if s.module == mod))
        out[OVERHEAD] = overhead
        return out

    def dump(self, path) -> None:
        names = [f"{s.layer}@{s.module}" if s.layer.startswith("core.monoid.") else s.layer for s in self.slots]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "dropped": self.dropped}, fh)
            fh.write("\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([sid, names[name] if isinstance(name, int) else name, start, end, parent, op]) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return list(dict.fromkeys(out))


def _scan_points(r, ext, x) -> int:
    """Points of the (radius+1)^k completion scan that Aleph0Extension.member
    visited: all of them when it ended in Unknown, up to the witness when
    the scan found one, none when it answered before the scan."""
    side = ext.radius + 1
    if r.kind == "unknown":
        return side ** sum(1 for i in range(len(x)) if x[i].is_infinite)
    if r.is_yes and isinstance(r.witness, tuple) and len(r.witness) == 2 and r.witness[1]:
        cand, inf = r.witness
        index = 0
        for i in inf:
            index = index * side + cand[i]
        return index + 1
    return 0
