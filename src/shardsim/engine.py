"""Deterministic discrete-event simulation of a step schedule on a cluster.

One representative rank is simulated: all ranks run the same task sequence and
collectives are symmetric, so the canonical timeline is the step time.
Resources are the rank's compute stream plus one communication stream per
(intra/inter link, group).  Like a GPU stream, each runs its tasks in the
order they were issued (task-id order): a task starts once its dependencies
and the task issued before it on its stream are done.  There is no randomness
anywhere, so identical inputs produce identical traces.

`simulate_step` is the one simulate entry point: it returns the step metrics
and the event trace, the timed step itself (its schedule, compiled step, and
each task's start and end), which names streams and builds `Event`s on read.

A schedule compiles into one step object: per timed task, two predecessors,
any extra ones, and a term, whose cost a simulation prices once (one per
distinct compute flops value and collective, one zero term for FREEs); a
FREE that ends with the compute stream's last task has no record.  A run
returns each record's end only, and the makespan is read from the stream
tails, each stream's last record; only the trace `simulate_step` returns
rebuilds starts, from the ends.  `simulate_step` and `calibrate` compile a
schedule on its own groups; `sweep` compiles one schedule per shape and
binds it to the groups of every node count that shares that shape.

The input stage is modeled as a pipelined source: in steady state the step
time is max(simulated makespan, local_batch / io_rate); it never adds.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields, replace

from .arch import CHECKPOINTED, ActivationEstimate, MAEConfig, ViTConfig, \
    activation_bytes, get_model
from .cluster import ClusterSpec
from .collectives import group_channel, group_nodes, ring_terms
from .errors import ConfigError, TopologyError
from .sharding import COMPUTE, FREE, MemoryBreakdown, PrefetchPolicy, \
    StepSchedule, Strategy, Unit, build_units, make_plan, memory_footprint, \
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
    """A timed step: the schedule, the step it compiled to, and the start and
    end time of every task by task id.  Stream names and `Event`s are built
    only when read."""

    schedule: StepSchedule
    step: _Step = field(compare=False, repr=False)
    start: list[float]
    end: list[float]

    @property
    def makespan(self) -> float:
        return max(self.end, default=0.0)

    @property
    def resources(self) -> list[str]:
        """The name of each task's stream: "compute", or
        "comm:{intra|inter}:{first rank}+{stride}x{size}" of its group."""
        step = self.step
        names = ["compute"]
        for group in step.groups:
            link = "inter" if group_nodes(group, step.cluster) > 1 else "intra"
            stride = group.step if len(group) > 1 else 0
            names.append(f"comm:{link}:{group.start}+{stride}x{len(group)}")
        return [names[r] for r in step.resources]

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(map(Event, range(len(self.end)), self.start, self.end,
                         self.resources))


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


def _check_latency_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError("latency_scale: must be a finite number > 0, "
                          f"got {scale!r}")


class _Step:
    """A schedule's timing on one group per stream, reusable while only
    compute efficiency and latency scale vary between simulations.

    Each timed task has a record `(pred, pred, extra preds, term)`, in
    task-id order: the records of its deps and of the task issued before it
    on its stream, -1 for a missing pred.  Term 0 costs zero and is only a
    FREE's; term i > 0 is a distinct compute flops value and term -i a
    distinct collective (kind, bytes, stream), so one cost list holds both.
    Stream k > 0 is `groups[k - 1]`, a distinct group in order of first
    appearance, priced on `cluster`; `bind` reprices the collective terms on
    other groups.  A FREE with no deps, or whose one dep is the compute
    stream's last task, ends with that task: it is folded, with no record
    and out of the stream chain.  `task_records` maps each task to its
    record, a folded FREE to the record it ends with (-1 for none), and
    deps are read through it; mae-5b hybrid2 on 32 nodes times 390 records
    for its 520 tasks.  `StepSchedule` has checked every task.  The step
    keeps no names: `EventTrace` builds them.

    `run` returns each record's end only.  Every record waits for the
    previous record of its stream, and `StepSchedule` refuses a negative or
    non-finite flops or bytes, so no cost is negative or NaN and the ends
    along a stream never fall: the makespan is the latest end of the stream
    `tails`, each stream's last record.  Only `task_times`, which the trace
    reads, rebuilds starts.
    """

    __slots__ = ("records", "task_records", "resources", "compute_terms",
                 "tails", "flops", "term_keys", "groups", "cluster", "terms")

    def __init__(self, schedule: StepSchedule, cluster: ClusterSpec) -> None:
        self.records: list[tuple[int, int, tuple[int, ...], int]] = []
        self.task_records: list[int] = []
        self.resources: list[int] = []      # each task's stream
        self.compute_terms: list[int] = []  # each compute task's term
        records = self.records
        record = records.append
        record_of = self.task_records
        map_task = record_of.append
        resource = self.resources.append
        compute = self.compute_terms.append
        flops: dict[float, int] = {}
        collectives: dict[tuple[str, int, int], int] = {}
        streams: dict[range, int] = {}
        last = [-1]     # stream -> its chain's latest record, -1 for none
        for t in schedule.tasks:
            deps = t.deps
            kind = t.kind
            if kind == COMPUTE:
                stream = 0
                term = flops.setdefault(t.flops, len(flops) + 1)
                compute(term)
            elif kind == FREE:
                if not deps or len(deps) == 1 \
                        and record_of[deps[0]] == last[0]:
                    resource(0)
                    map_task(last[0])
                    continue
                stream = term = 0
            else:
                stream = streams.get(t.group)
                if stream is None:
                    stream = streams[t.group] = len(last)
                    last.append(-1)
                term = collectives.setdefault((kind, t.bytes, stream),
                                              -1 - len(collectives))
            previous = last[stream]
            last[stream] = r = len(records)
            map_task(r)
            resource(stream)
            # Unrolled: on a small schedule this walk costs as much as a run.
            k = len(deps)
            if k == 1:
                a = record_of[deps[0]]
                record((a, -1 if previous == a else previous, (), term))
            elif k == 2:
                a = record_of[deps[0]]
                b = record_of[deps[1]]
                record((a, b, () if previous < 0 or previous == a
                        or previous == b else (previous,), term))
            elif k:
                a, b, *more = map(record_of.__getitem__, deps)
                if previous >= 0 and previous != a and previous != b \
                        and previous not in more:
                    more.append(previous)
                record((a, b, tuple(more), term))
            else:
                record((previous, -1, (), term))
        self.tails = [r for r in last if r >= 0]
        self.flops = [0.0, *flops]      # by term, from 0
        self.term_keys = tuple(collectives)[::-1]   # by term, from -len
        self._price(tuple(streams), cluster)

    def bind(self, groups, cluster: ClusterSpec) -> "_Step":
        """This step with stream k on `groups[k - 1]`; it shares this step's
        lists and reprices only the collective terms."""
        step = copy.copy(self)
        step._price(groups, cluster)
        return step

    def _price(self, groups, cluster: ClusterSpec) -> None:
        self.groups = tuple(groups)
        self.cluster = cluster
        rings = [(len(g), group_channel(g, cluster)) for g in self.groups]
        # Collective term -i's (wire, latency at scale 1) is the i-th last.
        self.terms = [ring_terms(kind, nbytes, *rings[stream - 1])
                      for kind, nbytes, stream in self.term_keys]

    def durations(self, effective_flops: float,
                  latency_scale: float) -> list[float]:
        """Each term's cost; term -i is the i-th from the end."""
        costs = [f / effective_flops for f in self.flops]
        costs += [wire + latency * latency_scale for wire, latency in self.terms]
        return costs

    def run(self, costs: list[float]) -> list[float]:
        """The end time of every record, each stream running its tasks in
        issue (task-id) order, given each term's cost.

        One pass in record order: a record starts when the last of its preds
        has ended and ends its term's cost later.  Starts are not kept:
        `makespan` reads the ends and `task_times` rebuilds the starts.
        """
        end = [0.0] * (len(self.records) + 1)   # end[-1] stays 0.0: no pred
        for tid, (a, b, more, term) in enumerate(self.records):
            ready = end[a]
            e = end[b]
            if e > ready:
                ready = e
            if more:
                for p in more:
                    e = end[p]
                    if e > ready:
                        ready = e
            end[tid] = ready + costs[term]
        end.pop()
        return end

    def makespan(self, end: list[float]) -> float:
        """The latest of `run`'s ends, read from the stream tails alone; 0.0
        for a step with no records."""
        latest = 0.0
        for r in self.tails:
            if end[r] > latest:
                latest = end[r]
        return latest

    def task_times(self, end: list[float]) -> tuple[list[float], list[float]]:
        """Each task's start and end, given each record's end from `run`.  A
        record starts at the latest end of its preds, compared in `run`'s
        order, so at exactly the time `run` started it; a folded FREE starts
        and ends when its record ends, at 0.0 for none.  A task owns a
        record when its map entry is the next record."""
        start: list[float] = []
        begin = start.append
        end.append(0.0)     # a missing pred, as in `run`
        for a, b, more, _ in self.records:
            ready = end[a]
            e = end[b]
            if e > ready:
                ready = e
            for p in more:
                e = end[p]
                if e > ready:
                    ready = e
            begin(ready)
        end.pop()
        if len(end) == len(self.task_records):
            return start, end
        starts: list[float] = []
        ends: list[float] = []
        owned = 0
        for r in self.task_records:
            if r == owned:
                starts.append(start[r])
                ends.append(end[r])
                owned += 1
            else:
                e = end[r] if r >= 0 else 0.0
                starts.append(e)
                ends.append(e)
        return starts, ends


def _unpriceable(step: _Step, costs: list[float],
                 latency_scale: float) -> ConfigError:
    """The error for a step whose makespan is not finite: it names the
    cluster field behind the step's largest term, a compute term's peak
    flops or a collective's bottleneck bandwidth or link latency."""
    cluster = step.cluster
    worst = max(range(len(costs)), key=costs.__getitem__)
    if worst < len(step.flops):
        name = "peak_flops_per_gpu"
        detail = f" at compute efficiency {cluster.compute_efficiency!r}"
    else:
        wire, latency = step.terms[worst - len(costs)]
        _, _, stream = step.term_keys[worst - len(costs)]
        group = step.groups[stream - 1]
        if wire >= latency * latency_scale:
            bandwidth, _ = group_channel(group, cluster)
            name = "intra_node_bw" if bandwidth == cluster.intra_node_bw \
                else "inter_node_bw"
            detail = ""
        else:
            name = "inter_node_latency" if group_nodes(group, cluster) > 1 \
                else "intra_node_latency"
            detail = f" at latency scale {latency_scale!r}"
    return ConfigError(
        f"{name}: {getattr(cluster, name)!r}{detail} prices a step term at "
        f"{costs[worst]!r} s, so the step time is not finite")


def _io_seconds(io: IoModel | None, local_batch: int) -> float:
    """The input stage's time for a local batch, 0.0 without one; a time
    that is not finite raises `ConfigError` naming the io rate."""
    if io is None:
        return 0.0
    rate = io.images_per_second_per_rank
    seconds = local_batch / rate
    if not math.isfinite(seconds):
        raise ConfigError(
            f"io_rate: {rate!r} images/s per rank loads a local batch of "
            f"{local_batch} in {seconds!r} s, so the step time is not finite")
    return seconds


def _simulate(step: _Step, world: int, local_batch: int, io: IoModel | None,
              latency_scale: float, memory: MemoryBreakdown | None
              ) -> tuple[list[float], StepMetrics]:
    """Time a compiled step; return each record's end and the metrics.

    Exposed communication is the makespan minus the summed compute time: the
    compute stream is a single dependency chain, so that sum, added left to
    right in issue order as the chain adds it, is exactly the makespan of
    the step with every collective at zero duration.  (The builtin `sum` of
    floats is compensated from Python 3.12 on, so it is not used.)  A
    makespan that is not finite raises `ConfigError` naming the cluster
    field that priced the step's largest term, and an input stage that is
    not finite one naming the io rate.
    """
    costs = step.durations(step.cluster.effective_flops_per_gpu, latency_scale)
    end = step.run(costs)
    synthetic = step.makespan(end)
    if not math.isfinite(synthetic):
        raise _unpriceable(step, costs, latency_scale)
    compute_seconds = 0.0
    for term in step.compute_terms:
        compute_seconds += costs[term]
    exposed = max(0.0, synthetic - compute_seconds)
    fraction = exposed / synthetic if synthetic > 0 else 0.0

    io_seconds = _io_seconds(io, local_batch)
    seconds = max(synthetic, io_seconds)
    ips = world * local_batch / seconds if seconds > 0 else 0.0
    metrics = StepMetrics(
        step_seconds=seconds,
        images_per_second=ips,
        comm_seconds_exposed=exposed,
        comm_fraction=fraction,
        compute_seconds=compute_seconds,
        io_seconds=io_seconds,
        peak_memory=memory,
    )
    return end, metrics


def simulate_step(schedule: StepSchedule, cluster: ClusterSpec,
                  io: IoModel | None = None, latency_scale: float = 1.0,
                  memory: MemoryBreakdown | None = None
                  ) -> tuple[EventTrace, StepMetrics]:
    """Simulate one step; return its event trace and throughput metrics.
    The trace's starts are rebuilt from the run's ends."""
    _check_latency_scale(latency_scale)
    step = _Step(schedule, cluster)
    end, metrics = _simulate(step, schedule.world, schedule.local_batch, io,
                             latency_scale, memory)
    return EventTrace(schedule, step, *step.task_times(end)), metrics


@dataclass(frozen=True)
class Scenario:
    """One simulated configuration: model, strategy, and node count."""

    model: str | ViTConfig | MAEConfig
    strategy: Strategy
    nodes: int
    local_batch: int = 32
    policy: PrefetchPolicy = PrefetchPolicy()


def _workload(model, local_batch: int, activation_model: str = CHECKPOINTED
              ) -> tuple[tuple[Unit, ...], ActivationEstimate]:
    """A model's units and activation estimate at a local batch.  The warning
    that a 512-pixel image truncates to a 36x36 grid of 14-pixel patches is
    silenced: the large presets truncate by design."""
    if not isinstance(model, (ViTConfig, MAEConfig)):
        model = get_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return (build_units(model, local_batch),
                activation_bytes(model, local_batch, model=activation_model))


def prepare_scenario(scenario: Scenario, cluster: ClusterSpec,
                     activation_model: str = CHECKPOINTED
                     ) -> tuple[StepSchedule, MemoryBreakdown, ClusterSpec]:
    """Build the schedule and memory breakdown for a scenario (no simulation)."""
    spec = replace(cluster, num_nodes=scenario.nodes)
    units, acts = _workload(scenario.model, scenario.local_batch,
                            activation_model)
    plan = make_plan(units, scenario.strategy, spec)
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
    """One sweep row.  Each metric's field gives the format of its CSV cell,
    and a row holds the value that cell prints, so the CSV, JSON, and
    in-memory forms agree.  A metric is None, an empty cell, where the
    strategy cannot be built."""

    model: str
    strategy: str
    nodes: int
    ips: float | None = field(metadata={"format": ".1f"})
    ideal_ips: float | None = field(metadata={"format": ".1f"})
    comm_fraction: float | None = field(metadata={"format": ".4f"})
    peak_gb: float | None = field(metadata={"format": ".2f"})
    feasible: bool

    def __post_init__(self) -> None:
        for column in _COLUMNS:
            value = getattr(self, column.name)
            if column.metadata and value is not None:
                object.__setattr__(self, column.name,
                                   float(_cell(value, column)))


_COLUMNS = fields(SweepRow)     # a sweep table's columns, in CSV order


def _cell(value, column) -> str:
    """A value's CSV cell: empty for None, yes or no for a flag."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "" if value is None \
        else format(value, column.metadata.get("format", ""))


def _parse_cell(cell: str, column):
    """The value `_cell` printed as `cell`; a flag must be yes or no."""
    if column.type == "bool":
        if cell not in ("yes", "no"):
            raise ValueError(f"{column.name} must be yes or no, got {cell!r}")
        return cell == "yes"
    if column.metadata:
        return float(cell) if cell else None
    return int(cell) if column.type == "int" else cell


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(map(_cell, vars(row).values(), _COLUMNS))
                 for row in self.rows]
        return "\n".join([",".join(c.name for c in _COLUMNS), *lines, ""])

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=indent)

    @staticmethod
    def from_csv(text: str) -> "SweepTable":
        """The table `to_csv` printed; a header or row it could not have
        printed raises `ValueError` naming its line."""
        lines = [(number, line) for number, line
                 in enumerate(text.splitlines(), 1) if line.strip()]
        if not lines or lines[0][1] != ",".join(c.name for c in _COLUMNS):
            raise ValueError("unrecognized sweep CSV header")
        rows = []
        for number, line in lines[1:]:
            cells = line.split(",")
            try:
                if len(cells) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} cells, "
                                     f"got {len(cells)}")
                rows.append(SweepRow(*map(_parse_cell, cells, _COLUMNS)))
            except ValueError as exc:
                raise ValueError(f"sweep CSV line {number}: {exc}") from None
        return SweepTable(rows=tuple(rows))


def sweep(models, strategies, node_counts, cluster: ClusterSpec,
          policy: PrefetchPolicy | None = None,
          local_batch: int = Scenario.local_batch,
          io: IoModel | None = None, latency_scale: float = 1.0) -> SweepTable:
    """Weak-scaling sweep: one row per (model, strategy, node count).

    Strategies that cannot be built at a node count produce a row marked
    infeasible instead of being dropped.  The ideal column scales the
    throughput of the feasible row with the fewest nodes linearly.

    A model's units are built once.  Across node counts the step DAG of a
    (model, strategy) changes shape only when its shard or replica group
    becomes or stops being a singleton; the strategy fixes the rest of what
    `step_schedule` reads from a plan.  Each shape is built and compiled
    once, then bound to the groups of every node count that has it:
    `step_schedule` issues shard-group collectives before replica-group ones
    and omits singleton groups, so those are its streams in order.
    """
    if not models or not strategies or not node_counts:
        raise ConfigError("models, strategies, and node_counts must be non-empty")
    _check_latency_scale(latency_scale)
    _io_seconds(io, local_batch)    # every row's, checked if none is timed
    policy = policy or PrefetchPolicy()
    rows: list[SweepRow] = []
    for model in models:
        units, acts = _workload(model, local_batch)
        for strategy in strategies:
            steps: dict[tuple[bool, bool], _Step] = {}
            measured: list[tuple[int, StepMetrics | None]] = []
            for nodes in node_counts:
                spec = replace(cluster, num_nodes=nodes)
                try:
                    plan = make_plan(units, strategy, spec)
                except TopologyError:
                    measured.append((nodes, None))
                    continue
                shard = plan.groups.shard_group_of(0)
                replica = plan.groups.replica_group_of(0)
                key = (len(shard) > 1, len(replica) > 1)
                if key in steps:
                    step = steps[key].bind(
                        [g for g in (shard, replica) if len(g) > 1], spec)
                else:
                    step = steps[key] = _Step(step_schedule(
                        plan, policy, local_batch=local_batch), spec)
                _, metrics = _simulate(
                    step, spec.world_size, local_batch, io, latency_scale,
                    memory_footprint(plan, acts))
                measured.append((nodes, metrics))
            base = min(((n, m) for n, m in measured if m is not None),
                       key=lambda row: row[0], default=None)
            for nodes, metrics in measured:
                if metrics is None:
                    rows.append(SweepRow(model, strategy.label, nodes,
                                         None, None, None, None, False))
                    continue
                base_nodes, base_metrics = base
                rows.append(SweepRow(
                    model=model, strategy=strategy.label, nodes=nodes,
                    ips=metrics.images_per_second,
                    ideal_ips=base_metrics.images_per_second
                    * nodes / base_nodes,
                    comm_fraction=metrics.comm_fraction,
                    peak_gb=metrics.peak_memory.total_bytes / 1024**3,
                    feasible=metrics.feasible))
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


class _Frontier:
    """Points (e, s), each ruling out the quadrant e' >= e, s' <= s, kept
    only while no other point's quadrant holds them.  So with e ascending, s
    ascends too: the point with the largest e <= e' has the largest s, and
    one bisect tells whether any point rules out (e', s')."""

    __slots__ = ("es", "ss")

    def __init__(self) -> None:
        self.es: list[float] = []
        self.ss: list[float] = []

    def rules_out(self, e: float, s: float) -> bool:
        i = bisect_right(self.es, e)
        return i > 0 and self.ss[i - 1] >= s

    def add(self, e: float, s: float) -> None:
        """Keep (e, s) unless a point rules it out, dropping the points it
        rules out: those from the first e' >= e while s' <= s."""
        if self.rules_out(e, s):
            return
        i = bisect_left(self.es, e)
        j = bisect_right(self.ss, s, i)
        self.es[i:j] = [e]
        self.ss[i:j] = [s]


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
    every candidate, so the search stays cheap.  The residual of the best fit
    is part of the result, never hidden.

    Two exact prunings keep the fit the one an evaluation of every candidate
    gives, ties included, while simulating far fewer steps:

    - A candidate stops being simulated as soon as its partial sum reaches
      the best loss so far: the terms are non-negative, so it could never
      win.
    - A candidate is skipped when an evaluated point already rules it out.
      Each duration is `flops / (peak * efficiency)` or `wire + latency *
      scale`, and a step's timing uses only `max` and `+`, all monotone in
      IEEE arithmetic, so an observation's simulated ips never falls as the
      efficiency rises and never rises as the scale rises.  If every ips
      simulated at (e0, s0) was at least its measured ips, each of those
      terms is at least as large at any e >= e0, s <= s0 (all at most: e <=
      e0, s >= s0), and so is their sum in the same order.  That sum is
      already >= the best loss, so no candidate in the quadrant can win.
      Grid values, not positions, are compared, so unsorted grids and
      repeated values are fine.  The points are kept as two frontiers, the
      too-fast and the too-slow points no other point of their kind rules
      out; a point a frontier drops rules out only part of what its
      dominator does, so each skip is the one a scan of every point would
      make, and a bisect makes it.

    Each measured ips must be finite and > 0, each efficiency in (0, 1] and
    each latency scale finite and > 0; a bad value raises `ConfigError`, as
    do a peak whose product with the lowest candidate efficiency is 0 and
    observations that no candidate fits with a finite loss.
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
    # Refinement clamps an efficiency to >= 1e-3, so none falls below this.
    lowest = min(*eff_grid, 1e-3)
    if cluster.peak_flops_per_gpu * lowest == 0:
        raise ConfigError(
            f"peak_flops_per_gpu: {cluster.peak_flops_per_gpu!r} at compute "
            f"efficiency {lowest!r} gives 0 flops/s, so a step time is not "
            "finite")

    prepared = []
    for i, (scenario, measured) in enumerate(observations):
        measured = float(measured)
        if not (math.isfinite(measured) and measured > 0):
            raise ConfigError(f"observations[{i}]: measured ips must be a "
                              f"finite number > 0, got {measured!r}")
        try:
            sched, _, spec = prepare_scenario(scenario, cluster)
        except (ConfigError, TopologyError) as exc:
            raise type(exc)(f"observations[{i}]: {exc}") from exc
        global_batch = sched.world * sched.local_batch
        prepared.append((_Step(sched, spec), spec.peak_flops_per_gpu,
                         global_batch, measured))

    def loss(efficiency: float, scale: float,
             bound: float) -> tuple[float, int]:
        """The loss, or a partial sum >= `bound` once it reaches `bound`, and
        the side of every ips simulated for it: +1 if each was >= its
        measured ips, -1 if each was <=, 0 if they were mixed."""
        total = 0.0
        fast = slow = True
        for step, peak, global_batch, measured in prepared:
            if total >= bound:
                break
            ips = global_batch / step.makespan(
                step.run(step.durations(peak * efficiency, scale)))
            fast = fast and ips >= measured
            slow = slow and ips <= measured
            try:
                total += ((ips - measured) / measured) ** 2
            except OverflowError:   # a relative error above ~1.3e154
                total = math.inf
        return total, 1 if fast else -1 if slow else 0

    # Evaluated candidates (e, s) whose simulated ips were each too fast, or
    # each too slow.  The loss found at such a point is >= the best, now and
    # later: it reached the best of its time or was a full loss, and the
    # best only falls.  So each rules out its quadrant for good.  A too-slow
    # (e, s) rules out what a too-fast (-e, -s) would in negated values.
    too_fast = _Frontier()
    too_slow = _Frontier()

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
                if too_fast.rules_out(e, s) or too_slow.rules_out(-e, -s):
                    continue
                value, side = loss(e, s, best[0])
                if value < best[0]:
                    best = (value, e, s)
                if side > 0:
                    too_fast.add(e, s)
                elif side:
                    too_slow.add(-e, -s)

    residual, efficiency, scale = best
    if residual == math.inf:
        raise ConfigError("observations: no candidate fits them with a finite "
                          "loss; a measured ips is out of the model's range")
    return CalibratedParams(compute_efficiency=efficiency,
                            effective_latency_scale=scale,
                            residual=residual)
