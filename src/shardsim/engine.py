"""Deterministic discrete-event simulation of a step schedule on a cluster.

One representative rank is simulated: all ranks run the same task sequence and
collectives are symmetric, so the canonical timeline is the step time.
Resources are the rank's compute stream plus one communication stream per
(intra/inter link, group).  Like a GPU stream, each runs its tasks in the
order they were issued (task-id order): a task starts once its dependencies
and the task issued before it on its stream are done.  There is no randomness
anywhere, so identical inputs produce identical traces.

`simulate_step` is the one simulate entry point: it returns the event trace
and the step metrics of one simulation together.

The input stage is modeled as a pipelined source: in steady state the step
time is max(simulated makespan, local_batch / io_rate); it never adds.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, replace

from .arch import CHECKPOINTED, MAEConfig, ViTConfig, activation_bytes, get_model
from .cluster import ClusterSpec
from .collectives import CollectiveCall, group_channel, group_nodes, \
    ring_terms
from .errors import ConfigError, TopologyError
from .sharding import COMPUTE, FREE, MemoryBreakdown, PrefetchPolicy, \
    StepSchedule, Strategy, build_units, make_plan, memory_footprint, \
    step_schedule


@dataclass(frozen=True)
class IoModel:
    """Pipelined input stage feeding each rank at a fixed image rate."""

    images_per_second_per_rank: float

    def __post_init__(self) -> None:
        rate = self.images_per_second_per_rank
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigError(
                f"io rate must be a finite number > 0, got {rate!r}")


@dataclass(frozen=True)
class Event:
    task_id: int
    start: float
    end: float
    resource: str


@dataclass(frozen=True)
class EventTrace:
    """Start and end time of every task, by task id, with the name of the
    resource it ran on; `Event`s are built only when read."""

    start: list[float]
    end: list[float]
    resources: list[str]

    @property
    def makespan(self) -> float:
        return max(self.end, default=0.0)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(map(Event, range(len(self.end)), self.start, self.end,
                         self.resources))

    def to_json_rows(self) -> list[dict]:
        return [{"task": tid, "start": start, "end": end, "resource": resource}
                for tid, (start, end, resource)
                in enumerate(zip(self.start, self.end, self.resources))]


@dataclass(frozen=True)
class StepMetrics:
    step_seconds: float
    images_per_second: float
    comm_seconds_exposed: float
    comm_fraction: float
    compute_seconds: float
    io_seconds: float
    peak_memory: MemoryBreakdown | None = None

    @property
    def feasible(self) -> bool:
        return self.peak_memory.feasible if self.peak_memory else True


class _CompiledSchedule:
    """Static timing terms of a schedule on a cluster, reusable while only
    compute efficiency and latency scale vary between simulations."""

    __slots__ = ("flops", "wire", "latency", "resources", "names", "preds")

    def __init__(self, schedule: StepSchedule, cluster: ClusterSpec) -> None:
        tasks = schedule.tasks
        n = len(tasks)
        self.flops = [0.0] * n
        self.wire = [0.0] * n       # bandwidth term, seconds
        self.latency = [0.0] * n    # latency term at scale 1, seconds
        self.resources = [0] * n    # 0 is the compute stream
        self.names = ["compute"] * n
        # A task waits for its deps and for the task issued before it on its
        # stream; `StepSchedule` guarantees every dep has a lower id.
        self.preds: list[tuple[int, ...]] = []
        last: dict[int, int] = {}   # resource id -> its latest task so far
        # One communication stream per group: (resource id, name, channel).
        streams: dict[range, tuple[int, str, tuple[float, float]]] = {}
        for t in tasks:
            if t.kind == COMPUTE:
                self.flops[t.id] = t.flops
            elif t.kind != FREE:
                # Validate once; the per-candidate loop never re-touches groups.
                group = CollectiveCall(t.kind, t.bytes, t.group).group
                stream = streams.get(group)
                if stream is None:
                    link = "inter" if group_nodes(group, cluster) > 1 \
                        else "intra"
                    stride = group.step if len(group) > 1 else 0
                    key = f"comm:{link}:{group.start}+{stride}x{len(group)}"
                    stream = streams[group] = (len(streams) + 1, key,
                                               group_channel(group, cluster))
                self.resources[t.id], self.names[t.id], channel = stream
                self.wire[t.id], self.latency[t.id] = ring_terms(
                    t.kind, t.bytes, len(group), channel)
            resource = self.resources[t.id]
            previous = last.get(resource)
            self.preds.append(
                t.deps if previous is None or previous in t.deps
                else (*t.deps, previous))
            last[resource] = t.id

    def durations(self, effective_flops: float,
                  latency_scale: float) -> list[float]:
        if not (math.isfinite(latency_scale) and latency_scale > 0):
            raise ConfigError("latency_scale: must be a finite number > 0, "
                              f"got {latency_scale!r}")
        return [
            f / effective_flops if f else w + lat * latency_scale
            for f, w, lat in zip(self.flops, self.wire, self.latency)
        ]

    def compute_seconds(self, durations: list[float]) -> float:
        """Sum of the compute stream's durations in task-id order.

        The compute stream is one dependency chain and its FREE tasks take no
        time, so this is also the makespan with every collective at zero.
        """
        return sum(d for d, r in zip(durations, self.resources) if not r)

    def run(self, durations: list[float]) -> tuple[list[float], list[float]]:
        """Start and end time of every task, each stream running its tasks in
        issue (task-id) order.

        One pass in task-id order: a task starts when the last of its deps and
        of the task issued before it on its stream has ended.
        """
        start: list[float] = []
        end: list[float] = []
        for preds, duration in zip(self.preds, durations):
            ready = 0.0
            for p in preds:
                e = end[p]
                if e > ready:
                    ready = e
            start.append(ready)
            end.append(ready + duration)
        return start, end


def simulate_step(schedule: StepSchedule, cluster: ClusterSpec,
                  io: IoModel | None = None, latency_scale: float = 1.0,
                  memory: MemoryBreakdown | None = None
                  ) -> tuple[EventTrace, StepMetrics]:
    """Simulate one step; return its event trace and throughput metrics.

    Exposed communication is the makespan minus the summed compute time: the
    compute stream is a single dependency chain, so that sum is exactly the
    makespan of the step with every collective at zero duration.
    """
    compiled = _CompiledSchedule(schedule, cluster)
    durations = compiled.durations(cluster.effective_flops_per_gpu,
                                   latency_scale)
    start, end = compiled.run(durations)
    trace = EventTrace(start, end, compiled.names)
    synthetic = trace.makespan
    compute_seconds = compiled.compute_seconds(durations)
    exposed = max(0.0, synthetic - compute_seconds)
    fraction = exposed / synthetic if synthetic > 0 else 0.0

    io_seconds = 0.0
    step = synthetic
    if io is not None:
        io_seconds = schedule.local_batch / io.images_per_second_per_rank
        step = max(synthetic, io_seconds)
    global_batch = schedule.world * schedule.local_batch
    ips = global_batch / step if step > 0 else 0.0
    metrics = StepMetrics(
        step_seconds=step,
        images_per_second=ips,
        comm_seconds_exposed=exposed,
        comm_fraction=fraction,
        compute_seconds=compute_seconds,
        io_seconds=io_seconds,
        peak_memory=memory,
    )
    return trace, metrics


@dataclass(frozen=True)
class Scenario:
    """One simulated configuration: model, strategy, and node count."""

    model: str | ViTConfig | MAEConfig
    strategy: Strategy
    nodes: int
    local_batch: int = 32
    policy: PrefetchPolicy = PrefetchPolicy()


def _resolve_model(model) -> ViTConfig | MAEConfig:
    if isinstance(model, (ViTConfig, MAEConfig)):
        return model
    return get_model(model)


def prepare_scenario(scenario: Scenario, cluster: ClusterSpec,
                     activation_model: str = CHECKPOINTED
                     ) -> tuple[StepSchedule, MemoryBreakdown, ClusterSpec]:
    """Build the schedule and memory breakdown for a scenario (no simulation)."""
    spec = replace(cluster, num_nodes=scenario.nodes)
    model = _resolve_model(scenario.model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        units = build_units(model, scenario.local_batch)
        plan = make_plan(units, scenario.strategy, spec)
        acts = activation_bytes(model, scenario.local_batch,
                                model=activation_model)
    mem = memory_footprint(plan, acts)
    sched = step_schedule(plan, scenario.policy, local_batch=scenario.local_batch)
    return sched, mem, spec


def run_scenario(scenario: Scenario, cluster: ClusterSpec,
                 io: IoModel | None = None,
                 compute_efficiency: float | None = None,
                 latency_scale: float = 1.0) -> StepMetrics:
    """Simulate one scenario end to end and return its metrics."""
    sched, mem, spec = prepare_scenario(scenario, cluster)
    if compute_efficiency is not None:
        spec = replace(spec, compute_efficiency=compute_efficiency)
    _, metrics = simulate_step(sched, spec, io=io, latency_scale=latency_scale,
                               memory=mem)
    return metrics


@dataclass(frozen=True)
class SweepRow:
    model: str
    strategy: str
    nodes: int
    ips: float | None
    ideal_ips: float | None
    comm_fraction: float | None
    peak_gb: float | None
    feasible: bool


_CSV_HEADER = "model,strategy,nodes,ips,ideal_ips,comm_fraction,peak_gb,feasible"


def _fmt(value: float | None, decimals: int) -> str:
    return "" if value is None else f"{value:.{decimals}f}"


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                r.model, r.strategy, str(r.nodes),
                _fmt(r.ips, 1), _fmt(r.ideal_ips, 1),
                _fmt(r.comm_fraction, 4), _fmt(r.peak_gb, 2),
                "yes" if r.feasible else "no",
            ]))
        return "\n".join(lines) + "\n"

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=indent)

    @staticmethod
    def from_csv(text: str) -> "SweepTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != _CSV_HEADER:
            raise ValueError("unrecognized sweep CSV header")
        rows = []
        for line in lines[1:]:
            cols = line.split(",")
            rows.append(SweepRow(
                model=cols[0], strategy=cols[1], nodes=int(cols[2]),
                ips=float(cols[3]) if cols[3] else None,
                ideal_ips=float(cols[4]) if cols[4] else None,
                comm_fraction=float(cols[5]) if cols[5] else None,
                peak_gb=float(cols[6]) if cols[6] else None,
                feasible=cols[7] == "yes",
            ))
        return SweepTable(rows=tuple(rows))


def sweep(models, strategies, node_counts, cluster: ClusterSpec,
          policy: PrefetchPolicy | None = None, local_batch: int = 32,
          io: IoModel | None = None, latency_scale: float = 1.0) -> SweepTable:
    """Weak-scaling sweep: one row per (model, strategy, node count).

    Strategies that cannot be built at a node count produce a row marked
    infeasible instead of being dropped.  The ideal column scales the smallest
    feasible node count's throughput linearly.  Metric values are quantized to
    their printed precision so the CSV, JSON, and in-memory forms agree.
    """
    if not models or not strategies or not node_counts:
        raise ConfigError("models, strategies, and node_counts must be non-empty")
    policy = policy or PrefetchPolicy()
    rows: list[SweepRow] = []
    for model in models:
        for strategy in strategies:
            measured: list[tuple[int, StepMetrics | None]] = []
            for nodes in node_counts:
                scenario = Scenario(model=model, strategy=strategy, nodes=nodes,
                                    local_batch=local_batch, policy=policy)
                try:
                    metrics = run_scenario(scenario, cluster, io=io,
                                           latency_scale=latency_scale)
                except TopologyError:
                    metrics = None
                measured.append((nodes, metrics))
            base = next(((n, m) for n, m in measured if m is not None), None)
            for nodes, metrics in measured:
                if metrics is None:
                    rows.append(SweepRow(model, strategy.label, nodes,
                                         None, None, None, None, False))
                    continue
                ips = round(metrics.images_per_second, 1)
                ideal = None
                if base is not None:
                    base_nodes, base_metrics = base
                    ideal = round(base_metrics.images_per_second
                                  * nodes / base_nodes, 1)
                peak_gb = round(metrics.peak_memory.total_bytes / 1024**3, 2) \
                    if metrics.peak_memory else None
                rows.append(SweepRow(
                    model=model, strategy=strategy.label, nodes=nodes,
                    ips=ips, ideal_ips=ideal,
                    comm_fraction=round(metrics.comm_fraction, 4),
                    peak_gb=peak_gb, feasible=metrics.feasible))
    return SweepTable(rows=tuple(rows))


def _linspace(first: float, last: float, num: int) -> list[float]:
    """`num` >= 2 evenly spaced points, `first + i * step`, ending exactly
    at `last` (numpy.linspace's arithmetic)."""
    step = (last - first) / (num - 1)
    points = [first + i * step for i in range(num)]
    points[-1] = last
    return points


def _geomspace(first: float, last: float, num: int) -> list[float]:
    """`num` >= 2 points evenly spaced in log10 between positive endpoints,
    which are kept exact (numpy.geomspace's arithmetic, with libm's log10
    and pow)."""
    points = [10.0 ** y for y in _linspace(math.log10(first),
                                            math.log10(last), num)]
    points[0], points[-1] = first, last
    return points


@dataclass(frozen=True)
class CalibratedParams:
    compute_efficiency: float
    effective_latency_scale: float
    residual: float


def calibrate(observations, cluster: ClusterSpec,
              efficiency_grid=None, latency_scale_grid=None,
              refinement_rounds: int = 3) -> CalibratedParams:
    """Fit (compute_efficiency, latency scale) to measured throughput points.

    Grid search plus local refinement, minimizing the sum of squared relative
    throughput errors.  Schedules are built once per scenario and re-timed for
    every candidate, so the search stays cheap.  A candidate stops being
    simulated as soon as its partial sum reaches the best loss so far: the
    terms are non-negative, so it could never win, and the result is the one
    a full evaluation of every candidate gives.  The residual of the best fit
    is part of the result, never hidden.

    Each measured ips must be finite and > 0, each efficiency in (0, 1] and
    each latency scale finite and > 0; a bad value raises `ConfigError`.
    """
    observations = list(observations)
    if len(observations) < 2:
        warnings.warn("calibration with fewer than 2 observations is ill-posed",
                      UserWarning, stacklevel=2)
    elif len({scenario for scenario, _ in observations}) < 2:
        warnings.warn("calibration observations all describe the same scenario; "
                      "the fit is ill-posed", UserWarning, stacklevel=2)

    eff_grid = [float(e) for e in efficiency_grid] \
        if efficiency_grid is not None else _linspace(0.05, 1.0, 20)
    scale_grid = [float(s) for s in latency_scale_grid] \
        if latency_scale_grid is not None else _geomspace(0.25, 32.0, 15)
    if not eff_grid or not all(0 < e <= 1 for e in eff_grid):
        raise ConfigError("efficiency_grid: values must lie in (0, 1], "
                          f"got {eff_grid!r}")
    if not scale_grid or not all(math.isfinite(s) and s > 0
                                 for s in scale_grid):
        raise ConfigError("latency_scale_grid: values must be finite "
                          f"numbers > 0, got {scale_grid!r}")

    prepared = []
    for i, (scenario, measured) in enumerate(observations):
        measured = float(measured)
        if not (math.isfinite(measured) and measured > 0):
            raise ConfigError(f"observations[{i}]: measured ips must be a "
                              f"finite number > 0, got {measured!r}")
        sched, _, spec = prepare_scenario(scenario, cluster)
        compiled = _CompiledSchedule(sched, spec)
        global_batch = sched.world * sched.local_batch
        prepared.append((compiled, spec.peak_flops_per_gpu, global_batch,
                         measured))

    def loss(efficiency: float, scale: float, bound: float) -> float:
        """The loss, or a partial sum >= `bound` once it reaches `bound`."""
        total = 0.0
        for compiled, peak, global_batch, measured in prepared:
            if total >= bound:
                return total
            durations = compiled.durations(peak * efficiency, scale)
            _, end = compiled.run(durations)
            ips = global_batch / max(end)
            total += ((ips - measured) / measured) ** 2
        return total

    # Round 0 searches the given grids.  Each later round searches a 9 x 9
    # grid around the best point so far, one coarse step to each side in
    # round 1 and a quarter as far in each round after.
    e_step = (eff_grid[-1] - eff_grid[0]) / max(len(eff_grid) - 1, 1)
    s_width = (scale_grid[-1] / scale_grid[0]) ** (1 / max(len(scale_grid) - 1, 1))
    best = (float("inf"), eff_grid[0], scale_grid[0])
    for round_ in range(refinement_rounds + 1):
        if round_:
            _, e0, s0 = best
            eff_grid = [min(max(e, 1e-3), 1.0)
                        for e in _linspace(e0 - e_step, e0 + e_step, 9)]
            scale_grid = _geomspace(s0 / s_width, s0 * s_width, 9)
            e_step /= 4.0
            s_width **= 0.25
        for e in eff_grid:
            for s in scale_grid:
                value = loss(e, s, best[0])
                if value < best[0]:
                    best = (value, e, s)

    residual, efficiency, scale = best
    return CalibratedParams(compute_efficiency=efficiency,
                            effective_latency_scale=scale,
                            residual=residual)
