"""Spans and counts around the calls between shardsim's layers.

The layers are shardsim's modules.  ``Tracer.install`` replaces every public
function in each layer module's namespace -- the ones a module imports from
another layer and the ones it defines itself -- with a wrapper that records a
span (name, start, end, parent) and accumulates call counts and self time
(span duration minus the time covered by its child spans).  Nothing under
``src/`` changes: the wrappers are installed on module attributes only while a
traced pass runs, and ``uninstall`` restores the originals.  Functions are
discovered by walking the modules, so a function a later change removes is
reported by ``absent()`` rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("arch", "cluster", "collectives", "sharding", "engine", "cli")

# Wrapped names the per-layer metrics were designed around, as
# "<calling module>.<function>"; missing ones are reported, not errors.
EXPECTED = (
    "engine.group_nodes", "engine.group_channel", "engine.step_schedule",
    "engine.make_plan", "engine.build_units", "engine.memory_footprint",
    "engine.simulate_step", "engine.prepare_scenario", "engine.calibrate",
    "collectives.group_nodes", "sharding.build_groups", "cli.run",
    "cli.sweep",
)

SIMULATE = ("engine.simulate_step", "engine.simulate_schedule",
            "engine.comm_fraction")

MAX_SPANS = 100_000

# Per-layer metric name -> unit; every value is per traced pass.
PER_LAYER_METRICS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cluster.build_groups.calls": "count",
    "cluster.build_groups.self_s": "s",
    "cluster.ranks_materialised": "count",
    "sharding.make_plan.self_s": "s",
    "sharding.step_schedule.self_s": "s",
    "sharding.memory_footprint.self_s": "s",
    "sharding.tasks_built": "count",
    "sharding.collective_tasks": "count",
    "sharding.group_rank_entries": "count",
    "engine.simulate.self_s": "s",
    "engine.tasks_simulated": "count",
    "engine.host_us_per_task": "us",
    "engine.calibrate.self_s": "s",
    "engine.prepare_scenario.self_s": "s",
    "engine.sweep.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}

COLLECTIVE_KINDS = ("all-gather", "reduce-scatter", "all-reduce")


def _count_groups(counts: Counter, args, result) -> None:
    for family in (getattr(result, "shard_groups", ()),
                   getattr(result, "replica_groups", ())):
        counts["cluster.ranks_materialised"] += sum(
            len(g) for g in family if isinstance(g, tuple))


def _count_schedule(counts: Counter, args, result) -> None:
    counts["sharding.tasks_built"] += len(result.tasks)
    for task in result.tasks:
        if task.kind in COLLECTIVE_KINDS:
            counts["sharding.collective_tasks"] += 1
            counts["sharding.group_rank_entries"] += len(task.group)


def _count_simulated(counts: Counter, args, result) -> None:
    counts["engine.tasks_simulated"] += len(args[0].tasks)


COUNTERS = {
    "cluster.build_groups": _count_groups,
    "sharding.step_schedule": _count_schedule,
    **{name: _count_simulated for name in SIMULATE},
}


class Tracer:
    """Wrappers for one shardsim import, plus the spans and totals they record."""

    def __init__(self, ss) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # [span index, child seconds]
        self._targets = []             # (module, attribute, original, wrapper)
        for layer in LAYERS:
            module = getattr(ss, layer)
            for attr, value in vars(module).items():
                owner = getattr(value, "__module__", "") or ""
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or owner.rpartition(".")[2] not in LAYERS \
                        or not owner.startswith("shardsim."):
                    continue
                name = f"{owner.rpartition('.')[2]}.{value.__name__}"
                self._targets.append((module, attr, value,
                                      self._wrap(name, value)))
        self.installed_names = {f"{m.__name__.rpartition('.')[2]}.{attr}"
                                for m, attr, _, _ in self._targets}

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < MAX_SPANS:
                spans.append(None)   # filled on return, after its children
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.installed_names]

    def layer_metrics(self, passes: int) -> dict:
        """Every per-layer metric except the overhead ratio, per traced pass."""
        per = 1 / max(passes, 1)
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = per * sum(
                n for k, n in self.calls.items() if k.startswith(layer + "."))
            values[f"{layer}.self_s"] = per * sum(
                s for k, s in self.self_s.items() if k.startswith(layer + "."))
        for name in ("cluster.build_groups", "sharding.make_plan",
                     "sharding.step_schedule", "sharding.memory_footprint",
                     "engine.calibrate", "engine.prepare_scenario",
                     "engine.sweep"):
            values[f"{name}.self_s"] = per * self.self_s[name]
        values["cluster.build_groups.calls"] = per * self.calls["cluster.build_groups"]
        simulate_s = sum(self.self_s[name] for name in SIMULATE)
        values["engine.simulate.self_s"] = per * simulate_s
        for name in ("cluster.ranks_materialised", "sharding.tasks_built",
                     "sharding.collective_tasks", "sharding.group_rank_entries",
                     "engine.tasks_simulated"):
            values[name] = per * self.counts[name]
        tasks = self.counts["engine.tasks_simulated"]
        values["engine.host_us_per_task"] = 1e6 * simulate_s / tasks if tasks else 0.0
        values["trace.spans"] = per * (len(self.spans) + self.dropped)
        return {k: {"value": values[k], "unit": unit}
                for k, unit in PER_LAYER_METRICS.items() if k in values}

    def write(self, path: Path) -> Path:
        """Write the recorded spans as Chrome trace-event JSON (Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 0, "tid": 0,
                   "ts": 1e6 * (start - origin), "dur": 1e6 * (end - start),
                   "args": {"parent": parent}}
                  for name, start, end, parent in self.spans]
        path.write_text(json.dumps({"traceEvents": events,
                                    "droppedSpans": self.dropped}))
        return path
