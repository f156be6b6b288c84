"""Sharding strategies, per-rank memory accounting, and training-step schedules.

A model is cut into shardable units: one root unit for embeddings/head plus one
unit per transformer block (encoder and, for MAE, decoder blocks).  The step
schedule is the dependency DAG of compute tasks, collectives, and frees that
one training step executes, as seen from a canonical rank (rank 0 - all ranks
are symmetric).

One rule says what a plan shards.  `make_plan` resolves a strategy to a shard
group of `g` ranks (1 for the replicated strategies).  Gradients and optimizer
state are divided by `g`, and so are parameters, re-gathered around each use
(`ShardingPlan.reshards_params`), except under grad-op sharding, which gathers
them once per step and keeps them resident.  A shard group of more than one
rank all-gathers and reduce-scatters; every other collective is an all-reduce
over the replica group.

Scheduling model, mirroring the sharded-data-parallel runtime it abstracts:

  * forward all-gathers are issued in unit order on the communication stream
    and may run ahead of compute, capped at `max_inflight` unconsumed gathers
    when `limit_all_gathers` is on (there is no forward prefetch: gather i is
    never issued before compute i-1 when the limit is 1);
  * backward all-gathers for the next unit are issued per prefetch policy:
    BackwardPre at the point the current unit's backward becomes runnable,
    BackwardPost after the current unit's backward compute, NoPrefetch only
    after the current unit's reduce-scatter completes;
  * gradients are reduced exactly once per step: reduce-scatter over the shard
    group for sharded strategies, plus an all-reduce of the reduced shard over
    the replica group for hybrid plans; replicated plans all-reduce full
    gradients (bucketed for the DDP-style strategy).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .arch import BACKWARD_MULTIPLIER, MAEConfig, ViTConfig, flops, \
    param_count
from .cluster import ClusterSpec, ProcessGroups, build_groups
from .collectives import ALL_GATHER, ALL_REDUCE, FLOAT_MAX, REDUCE_SCATTER, \
    check_collective, check_payload
from .errors import ConfigError

COMPUTE = "compute"
FREE = "free"
FORWARD = "forward"
BACKWARD = "backward"

DEFAULT_BUCKET_BYTES = 25 * 2**20
PARAM_BYTES = 4                     # fp32 parameters and gradients
OPTIMIZER_BYTES_PER_PARAM = 8       # two fp32 moments per parameter


class StrategyKind(str, Enum):
    NO_SHARD = "no-shard"
    FULL_SHARD = "full"
    GRAD_OP_SHARD = "grad-op"
    HYBRID = "hybrid"
    REPLICATED_BUCKETED = "ddp"


@dataclass(frozen=True)
class Strategy:
    """A sharding strategy plus its parameters.

    `shard_group_size` only applies to hybrid; `bucket_bytes` only to the
    replicated (DDP-style) strategy.
    """

    kind: StrategyKind
    shard_group_size: int = 0
    bucket_bytes: int = DEFAULT_BUCKET_BYTES

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.HYBRID and self.shard_group_size < 1:
            raise ConfigError("hybrid strategy needs shard_group_size >= 1")
        if self.bucket_bytes < 1:
            raise ConfigError("bucket_bytes must be >= 1")

    @staticmethod
    def no_shard() -> "Strategy":
        return Strategy(StrategyKind.NO_SHARD)

    @staticmethod
    def full_shard() -> "Strategy":
        return Strategy(StrategyKind.FULL_SHARD)

    @staticmethod
    def grad_op_shard() -> "Strategy":
        return Strategy(StrategyKind.GRAD_OP_SHARD)

    @staticmethod
    def hybrid(shard_group_size: int) -> "Strategy":
        return Strategy(StrategyKind.HYBRID, shard_group_size=shard_group_size)

    @staticmethod
    def replicated(bucket_bytes: int = DEFAULT_BUCKET_BYTES) -> "Strategy":
        return Strategy(StrategyKind.REPLICATED_BUCKETED, bucket_bytes=bucket_bytes)

    @property
    def label(self) -> str:
        if self.kind is StrategyKind.HYBRID:
            return f"hybrid{self.shard_group_size}"
        return self.kind.value

    @staticmethod
    def parse(text: str) -> "Strategy":
        """The strategy whose `label` is `text`, ignoring case and surrounding
        spaces."""
        key = text.strip().lower() if isinstance(text, str) else ""
        size = key[len("hybrid"):]
        if key.startswith("hybrid") and size.isascii() and size.isdigit():
            return Strategy.hybrid(int(size))
        if key != "hybrid" and key in {kind.value for kind in StrategyKind}:
            return Strategy(StrategyKind(key))
        raise ConfigError(f"unknown strategy {text!r}")


PREFETCH_NONE = "none"
PREFETCH_BACKWARD_POST = "backward-post"
PREFETCH_BACKWARD_PRE = "backward-pre"
PREFETCH_MODES = (PREFETCH_NONE, PREFETCH_BACKWARD_POST, PREFETCH_BACKWARD_PRE)


@dataclass(frozen=True)
class PrefetchPolicy:
    mode: str = PREFETCH_BACKWARD_PRE
    limit_all_gathers: bool = True
    max_inflight: int = 2

    def __post_init__(self) -> None:
        if self.mode not in PREFETCH_MODES:
            raise ConfigError(f"unknown prefetch mode {self.mode!r}")
        if self.limit_all_gathers and self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 when limiting all-gathers")


@dataclass(frozen=True)
class Unit:
    """One shardable unit: its parameters and per-step compute cost."""

    name: str
    params: int
    forward_flops: float
    backward_flops: float


def build_units(model: ViTConfig | MAEConfig, batch: int) -> tuple[Unit, ...]:
    """Split a model into the root unit plus one unit per block, with FLOPs
    already scaled by the local batch."""
    profile = flops(model, batch)
    breakdown = param_count(model)
    mult = BACKWARD_MULTIPLIER
    depth, dec_depth = model.encoder.depth, model.decoder_depth
    root_params = breakdown.grand_total - breakdown.blocks_total \
        - breakdown.decoder_blocks_total
    root_fwd = (profile.encoder_total - profile.per_block_forward * depth) \
        + (profile.decoder_total - profile.per_decoder_block_forward * dec_depth)
    units = [Unit("root", root_params, root_fwd, mult * root_fwd)]
    for i in range(depth):
        units.append(Unit(f"block{i}", breakdown.per_block,
                          profile.per_block_forward,
                          mult * profile.per_block_forward))
    for i in range(dec_depth):
        units.append(Unit(f"decoder_block{i}", breakdown.decoder_per_block,
                          profile.per_decoder_block_forward,
                          mult * profile.per_decoder_block_forward))
    return tuple(units)


@dataclass(frozen=True)
class ShardingPlan:
    """Assignment of unit shards to ranks plus the process groups to use."""

    units: tuple[Unit, ...]
    strategy: Strategy
    groups: ProcessGroups
    cluster: ClusterSpec

    @property
    def shard_group_size(self) -> int:
        return self.groups.shard_group_size

    @property
    def reshards_params(self) -> bool:
        """Parameters are sharded and re-gathered around each use: a shard
        group of more than one rank, except under grad-op sharding."""
        return self.shard_group_size > 1 \
            and self.strategy.kind is not StrategyKind.GRAD_OP_SHARD

    def unit_full_bytes(self, unit: Unit) -> int:
        return unit.params * PARAM_BYTES

    def unit_shard_bytes(self, unit: Unit) -> int:
        # ceil keeps every rank's shard equal; padding is < one element/rank.
        return math.ceil(unit.params / self.shard_group_size) * PARAM_BYTES


def make_plan(units: tuple[Unit, ...], strategy: Strategy,
              cluster: ClusterSpec) -> ShardingPlan:
    """Resolve a strategy against a cluster into a concrete plan.

    hybrid(1) is normalized to no-shard: a shard group of one replicates the
    model and the two must behave identically everywhere downstream.
    """
    world = cluster.world_size
    if strategy.kind is StrategyKind.HYBRID and strategy.shard_group_size == 1:
        strategy = Strategy.no_shard()
    if strategy.kind in (StrategyKind.NO_SHARD, StrategyKind.REPLICATED_BUCKETED):
        g = 1
    elif strategy.kind is StrategyKind.HYBRID:
        g = strategy.shard_group_size
    else:
        g = world
    groups = build_groups(cluster, g)
    return ShardingPlan(units=tuple(units), strategy=strategy, groups=groups,
                        cluster=cluster)


@dataclass(frozen=True)
class MemoryBreakdown:
    """Peak per-rank memory, split by component; total is the field sum."""

    params_bytes: int
    grads_bytes: int
    optimizer_bytes: int
    activations_bytes: int
    gathered_peak_bytes: int
    hbm_bytes: int

    @property
    def total_bytes(self) -> int:
        return (self.params_bytes + self.grads_bytes + self.optimizer_bytes
                + self.activations_bytes + self.gathered_peak_bytes)

    @property
    def state_bytes(self) -> int:
        """Persistent parameter + gradient + optimizer bytes per rank."""
        return self.params_bytes + self.grads_bytes + self.optimizer_bytes

    @property
    def feasible(self) -> bool:
        return self.total_bytes <= self.hbm_bytes


def memory_footprint(plan: ShardingPlan, activations) -> MemoryBreakdown:
    """Peak per-rank memory for a plan plus an activation estimate.

    Gradients and optimizer state are divided by the shard-group size, and
    parameters too when the plan re-shards them (`reshards_params`); such a
    plan also holds one gathered unit's full parameters at peak.  Grad-op
    sharding keeps parameters resident.  Activations are never sharded.
    """
    shard = sum(map(plan.unit_shard_bytes, plan.units))
    if plan.reshards_params:
        params = shard
        gathered = max(map(plan.unit_full_bytes, plan.units))
    else:
        params = sum(map(plan.unit_full_bytes, plan.units))
        gathered = 0
    return MemoryBreakdown(
        params_bytes=params,
        grads_bytes=shard,
        optimizer_bytes=shard // PARAM_BYTES * OPTIMIZER_BYTES_PER_PARAM,
        activations_bytes=activations.bytes_per_rank,
        gathered_peak_bytes=gathered,
        hbm_bytes=plan.cluster.hbm_bytes_per_gpu,
    )


@dataclass(frozen=True)
class Task:
    """One node of a step DAG.

    In a schedule `step_schedule` builds, a task's id is its position and its
    deps are a strictly ascending tuple of earlier ids.  Its `add` fills
    each task's instance dict directly: the frozen `__init__` makes one
    `object.__setattr__` call per field, and a small schedule spent about
    half its build time there.
    """

    id: int
    kind: str                       # compute | free | all-gather | reduce-scatter | all-reduce
    unit: str
    phase: str                      # forward | backward
    bytes: int = 0
    flops: float = 0.0
    group: range = range(0)         # rank range; a rank list only in to_json
    deps: tuple[int, ...] = ()


_new = object.__new__


@dataclass(frozen=True)
class StepSchedule:
    """Dependency DAG of one training step for the canonical rank.  Building
    one checks the batch, which must be at least 1, and every task: its id is
    its position, its deps are earlier ids, a compute task's flops is a
    finite number >= 0, and a task that is neither compute nor free is a
    valid collective, whose bytes are a finite number >= 0."""

    tasks: tuple[Task, ...]
    strategy: Strategy
    policy: PrefetchPolicy
    world: int
    local_batch: int

    def __post_init__(self) -> None:
        if self.local_batch < 1:
            raise ConfigError(
                f"local_batch must be >= 1, got {self.local_batch!r}")
        checked = None  # the group the last full collective check passed
        for position, task in enumerate(self.tasks):
            tid = task.id
            if tid != position:
                raise ValueError("task ids must match their positions")
            deps = task.deps
            # Deps on earlier tasks only keep the DAG acyclic and in order.
            if deps and not (0 <= deps[0] < tid if len(deps) == 1
                             else 0 <= min(deps) <= max(deps) < tid):
                raise ValueError(f"task {tid}: deps must be task ids in "
                                 f"[0, {tid}), got {deps}")
            kind = task.kind
            if kind == COMPUTE:
                if not 0 <= task.flops <= FLOAT_MAX:
                    raise ValueError(f"task {tid}: flops must be a finite "
                                     f"number >= 0, got {task.flops!r}")
            elif kind != FREE:
                # A range is immutable, so a group that passed stays valid.
                group = task.group
                try:
                    if group is checked:
                        check_payload(kind, task.bytes)
                    else:
                        check_collective(kind, task.bytes, group)
                        checked = group
                except ValueError as exc:
                    raise ValueError(f"task {tid}: {exc}") from None

    def collectives(self) -> list[Task]:
        return [t for t in self.tasks
                if t.kind in (ALL_GATHER, REDUCE_SCATTER, ALL_REDUCE)]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps({
            "strategy": self.strategy.label,
            "prefetch": vars(self.policy),
            "world": self.world,
            "local_batch": self.local_batch,
            "tasks": [{**vars(t), "group": list(t.group)} for t in self.tasks],
        }, indent=indent)


def _ascending(deps: list[int]) -> tuple[int, ...]:
    """The distinct ids of `deps` as a strictly ascending tuple; two are
    ordered by one comparison."""
    if len(deps) == 2:
        a, b = deps
        return (a, b) if a < b else (b, a) if b < a else (a,)
    return tuple(sorted(set(deps)) if len(deps) > 2 else deps)


def step_schedule(plan: ShardingPlan, policy: PrefetchPolicy,
                  local_batch: int) -> StepSchedule:
    """Build the compute/collective DAG of one training step under a plan.

    Collectives over singleton groups are no-ops and are omitted, which is
    what makes hybrid(1) and no-shard schedules identical.  Lists of task ids
    are indexed by position: unit order forward, reverse unit order backward.
    """
    units = plan.units
    n = len(units)
    tasks: list[Task] = []
    append = tasks.append

    def add(kind: str, name: str, phase: str, nbytes: int, flops: float,
            group: range, deps: tuple[int, ...]) -> int:
        """Issue the task of these field values; `deps` is a strictly
        ascending tuple.  It equals `Task(...)` of them and is as frozen,
        but is built without `Task.__init__`: its own dict is filled in
        field order (assigning a new dict would cost about twice the memory
        per task)."""
        tid = len(tasks)
        task = _new(Task)
        attrs = task.__dict__
        attrs["id"], attrs["kind"], attrs["unit"], attrs["phase"] = \
            tid, kind, name, phase
        attrs["bytes"], attrs["flops"], attrs["group"], attrs["deps"] = \
            nbytes, flops, group, deps
        append(task)
        return tid

    shard_group = plan.groups.shard_group_of(0)
    replica_group = plan.groups.replica_group_of(0)
    gathers = len(shard_group) > 1   # all-gather and reduce-scatter
    reshards = plan.reshards_params
    replica_reduce = len(replica_group) > 1
    bucketed = plan.strategy.kind is StrategyKind.REPLICATED_BUCKETED
    # Gathers that may run ahead of their compute; n never binds.
    limit = policy.max_inflight if policy.limit_all_gathers else n
    names = [unit.name for unit in units]
    full = [plan.unit_full_bytes(unit) for unit in units]
    no_group = range(0)

    # Per pass: its units' names and full bytes in order, then the ids of its
    # computes and of its all-gathers, by position.
    passes = {FORWARD: (names, full, [], []),
              BACKWARD: (names[::-1], full[::-1], [], [])}
    _, _, fwd_compute, fwd_ag = passes[FORWARD]
    _, bwd_full, bwd_compute, bwd_ag = passes[BACKWARD]

    def gather(phase: str, anchor: int) -> None:
        """Issue the all-gather of the pass's next unit, if one is left.  It
        follows the pass's previous gather and `anchor` (-1 for none); once
        `limit` gathers run ahead, it also waits for the compute `limit`
        positions back, if that compute is issued."""
        order, nbytes, computes, issued = passes[phase]
        k = len(issued)
        if k == n:
            return
        deps = [anchor] if anchor >= 0 else []
        if k:
            deps.append(issued[-1])
        if 0 <= k - limit < len(computes):
            deps.append(computes[k - limit])
        issued.append(add(ALL_GATHER, order[k], phase, nbytes[k], 0.0,
                          shard_group, _ascending(deps)))

    # Forward: all-gather (stream-ordered, limiter-capped), compute, free.
    for unit in units:
        if gathers:
            gather(FORWARD, -1)
        c_id = add(COMPUTE, unit.name, FORWARD, 0, unit.forward_flops,
                   no_group, _ascending(fwd_compute[-1:] + fwd_ag[-1:]))
        fwd_compute.append(c_id)
        if reshards:
            add(FREE, unit.name, FORWARD, 0, 0.0, no_group, (c_id,))

    # Backward, reverse unit order.  A plan that re-shards parameters gathers
    # position 0 on entry and each next position per the prefetch policy.
    bucket_fill = 0
    bucket_bytes = plan.strategy.bucket_bytes
    for k, unit in enumerate(units[::-1]):
        name = unit.name
        grad_ready = bwd_compute[-1] if bwd_compute else fwd_compute[-1]
        if reshards and k == 0:
            gather(BACKWARD, grad_ready)
        if reshards and policy.mode == PREFETCH_BACKWARD_PRE:
            gather(BACKWARD, grad_ready)

        c_id = add(COMPUTE, name, BACKWARD, 0, unit.backward_flops, no_group,
                   _ascending([grad_ready, *bwd_ag[k:k + 1]]))
        bwd_compute.append(c_id)

        if reshards and policy.mode == PREFETCH_BACKWARD_POST:
            gather(BACKWARD, c_id)

        if gathers:
            reduced = add(REDUCE_SCATTER, name, BACKWARD, bwd_full[k], 0.0,
                          shard_group, (c_id,))
            if replica_reduce:   # hybrid: all-reduce the reduced shard
                add(ALL_REDUCE, name, BACKWARD, plan.unit_shard_bytes(unit),
                    0.0, replica_group, (reduced,))
            if reshards and policy.mode == PREFETCH_NONE:
                gather(BACKWARD, reduced)
            add(FREE, name, BACKWARD, 0, 0.0, no_group, (c_id,))
        elif bucketed and replica_reduce:
            bucket_fill += bwd_full[k]
            while bucket_fill >= bucket_bytes:
                add(ALL_REDUCE, name, BACKWARD, bucket_bytes, 0.0,
                    replica_group, (c_id,))
                bucket_fill -= bucket_bytes
            if k == n - 1 and bucket_fill:
                add(ALL_REDUCE, name, BACKWARD, bucket_fill, 0.0,
                    replica_group, (c_id,))
        elif replica_reduce:   # full-gradient all-reduce per unit
            add(ALL_REDUCE, name, BACKWARD, bwd_full[k], 0.0, replica_group,
                (c_id,))

    return StepSchedule(tasks=tuple(tasks), strategy=plan.strategy,
                        policy=policy, world=plan.cluster.world_size,
                        local_batch=local_batch)
