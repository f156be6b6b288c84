"""Sharding strategies, per-rank memory accounting, and training-step schedules.

A model is cut into shardable units: one root unit for embeddings/head plus one
unit per transformer block (encoder and, for MAE, decoder blocks).  A strategy
decides which of {parameters, gradients, optimizer state} each unit shards and
over which process group; the step schedule is the dependency DAG of compute
tasks, collectives, and frees that one training step executes, as seen from a
canonical rank (rank 0 - all ranks are symmetric).

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

from .arch import MAEConfig, ViTConfig, flops, mae_param_count, param_count
from .cluster import ClusterSpec, ProcessGroups, build_groups
from .collectives import ALL_GATHER, ALL_REDUCE, REDUCE_SCATTER
from .errors import ConfigError

COMPUTE = "compute"
FREE = "free"
FORWARD = "forward"
BACKWARD = "backward"

DEFAULT_BUCKET_BYTES = 25 * 2**20


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
        key = text.strip().lower() if isinstance(text, str) else ""
        if key in ("no-shard", "noshard", "no_shard"):
            return Strategy.no_shard()
        if key in ("full", "full-shard", "full_shard"):
            return Strategy.full_shard()
        if key in ("grad-op", "grad_op", "shard-grad-op", "shard_grad_op"):
            return Strategy.grad_op_shard()
        if key in ("ddp", "replicated"):
            return Strategy.replicated()
        if key.startswith("hybrid"):
            suffix = key[len("hybrid"):]
            if suffix.isdigit():
                return Strategy.hybrid(int(suffix))
        raise ConfigError(f"unknown strategy {text!r}")


PREFETCH_NONE = "none"
PREFETCH_BACKWARD_POST = "backward-post"
PREFETCH_BACKWARD_PRE = "backward-pre"
_PREFETCH_MODES = (PREFETCH_NONE, PREFETCH_BACKWARD_POST, PREFETCH_BACKWARD_PRE)


@dataclass(frozen=True)
class PrefetchPolicy:
    mode: str = PREFETCH_BACKWARD_PRE
    limit_all_gathers: bool = True
    max_inflight: int = 2

    def __post_init__(self) -> None:
        if self.mode not in _PREFETCH_MODES:
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


def build_units(model: ViTConfig | MAEConfig, batch: int,
                backward_multiplier: float = 2.0) -> tuple[Unit, ...]:
    """Split a model into the root unit plus one unit per block, with FLOPs
    already scaled by the local batch."""
    profile = flops(model, batch, backward_multiplier=backward_multiplier)
    mult = backward_multiplier
    if isinstance(model, ViTConfig):
        breakdown = param_count(model)
        depth, dec_depth = model.depth, 0
    else:
        breakdown = mae_param_count(model)
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
    precision: int = 4
    optimizer_state_bytes_per_param: int = 8

    @property
    def shard_group_size(self) -> int:
        return self.groups.shard_group_size

    def unit_full_bytes(self, unit: Unit) -> int:
        return unit.params * self.precision

    def unit_shard_bytes(self, unit: Unit) -> int:
        # ceil keeps every rank's shard equal; padding is < one element/rank.
        return math.ceil(unit.params / self.shard_group_size) * self.precision

    @property
    def total_param_bytes(self) -> int:
        return sum(self.unit_full_bytes(u) for u in self.units)


def make_plan(units: tuple[Unit, ...], strategy: Strategy, cluster: ClusterSpec,
              precision: int = 4,
              optimizer_state_bytes_per_param: int = 8) -> ShardingPlan:
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
                        cluster=cluster, precision=precision,
                        optimizer_state_bytes_per_param=optimizer_state_bytes_per_param)


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

    Full/hybrid sharding divides all three state components by the shard-group
    size; grad-op sharding divides gradients and optimizer state only, keeping
    parameters resident.  Strategies that re-gather parameters additionally
    hold one gathered unit's full parameters at peak.  Activations are never
    sharded.
    """
    kind = plan.strategy.kind
    g = plan.shard_group_size
    shards_params = kind in (StrategyKind.FULL_SHARD, StrategyKind.HYBRID)
    shards_state = shards_params or kind is StrategyKind.GRAD_OP_SHARD
    div_params = g if shards_params else 1
    div_state = g if shards_state else 1
    prec = plan.precision
    opt = plan.optimizer_state_bytes_per_param

    params = sum(math.ceil(u.params / div_params) * prec for u in plan.units)
    grads = sum(math.ceil(u.params / div_state) * prec for u in plan.units)
    optimizer = sum(math.ceil(u.params / div_state) * opt for u in plan.units)
    gathered = max(u.params for u in plan.units) * prec \
        if shards_params and g > 1 else 0
    return MemoryBreakdown(
        params_bytes=params,
        grads_bytes=grads,
        optimizer_bytes=optimizer,
        activations_bytes=activations.bytes_per_rank,
        gathered_peak_bytes=gathered,
        hbm_bytes=plan.cluster.hbm_bytes_per_gpu,
    )


@dataclass(frozen=True)
class Task:
    id: int
    kind: str                       # compute | free | all-gather | reduce-scatter | all-reduce
    unit: str
    phase: str                      # forward | backward
    bytes: int = 0
    flops: float = 0.0
    group: range = range(0)         # rank range; a rank list only in to_json
    deps: tuple[int, ...] = ()


@dataclass(frozen=True)
class StepSchedule:
    """Dependency DAG of one training step for the canonical rank."""

    tasks: tuple[Task, ...]
    strategy: Strategy
    policy: PrefetchPolicy
    world: int
    local_batch: int

    def __post_init__(self) -> None:
        for position, task in enumerate(self.tasks):
            if task.id != position:
                raise ValueError("task ids must match their positions")
            if task.deps and max(task.deps) >= task.id:
                raise ValueError(
                    f"task {task.id} depends on a later task; schedule is cyclic")

    def by_kind(self, kind: str) -> list[Task]:
        return [t for t in self.tasks if t.kind == kind]

    def collectives(self) -> list[Task]:
        return [t for t in self.tasks
                if t.kind in (ALL_GATHER, REDUCE_SCATTER, ALL_REDUCE)]

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "strategy": self.strategy.label,
            "prefetch": {
                "mode": self.policy.mode,
                "limit_all_gathers": self.policy.limit_all_gathers,
                "max_inflight": self.policy.max_inflight,
            },
            "world": self.world,
            "local_batch": self.local_batch,
            "tasks": [
                {
                    "id": t.id, "kind": t.kind, "unit": t.unit, "phase": t.phase,
                    "bytes": t.bytes, "flops": t.flops,
                    "group": list(t.group), "deps": list(t.deps),
                }
                for t in self.tasks
            ],
        }
        return json.dumps(payload, indent=indent)


class _Builder:
    def __init__(self) -> None:
        self.tasks: list[Task] = []

    def add(self, kind: str, unit: str, phase: str, *, bytes: int = 0,
            flops: float = 0.0, group: range = range(0),
            deps: tuple[int, ...] = ()) -> int:
        task = Task(id=len(self.tasks), kind=kind, unit=unit, phase=phase,
                    bytes=bytes, flops=flops, group=group,
                    deps=tuple(sorted(set(deps))))
        self.tasks.append(task)
        return task.id


def step_schedule(plan: ShardingPlan, policy: PrefetchPolicy,
                  local_batch: int = 0) -> StepSchedule:
    """Build the compute/collective DAG of one training step under a plan.

    Collectives over singleton groups are no-ops and are omitted, which is
    what makes hybrid(1) and no-shard schedules identical.
    """
    kind = plan.strategy.kind
    units = plan.units
    n = len(units)
    b = _Builder()

    shard_group = plan.groups.shard_group_of(0)
    replica_group = plan.groups.replica_group_of(0)
    gathers = kind in (StrategyKind.FULL_SHARD, StrategyKind.HYBRID,
                       StrategyKind.GRAD_OP_SHARD) and len(shard_group) > 1
    reshards = kind in (StrategyKind.FULL_SHARD, StrategyKind.HYBRID) \
        and len(shard_group) > 1
    reduce_in_group = gathers            # reduce-scatter over the shard group
    replica_reduce = len(replica_group) > 1

    limit = policy.max_inflight if policy.limit_all_gathers else None

    # Forward: all-gather (stream-ordered, limiter-capped), compute, free.
    fwd_compute: dict[int, int] = {}
    fwd_ag_units: list[int] = []
    prev_ag = None
    prev_c = None
    for i, unit in enumerate(units):
        compute_deps: list[int] = []
        if gathers:
            ag_deps: list[int] = []
            if prev_ag is not None:
                ag_deps.append(prev_ag)
            if limit is not None and len(fwd_ag_units) >= limit:
                ag_deps.append(fwd_compute[fwd_ag_units[-limit]])
            prev_ag = b.add(ALL_GATHER, unit.name, FORWARD,
                            bytes=plan.unit_full_bytes(unit), group=shard_group,
                            deps=tuple(ag_deps))
            fwd_ag_units.append(i)
            compute_deps.append(prev_ag)
        if prev_c is not None:
            compute_deps.append(prev_c)
        prev_c = b.add(COMPUTE, unit.name, FORWARD, flops=unit.forward_flops,
                       deps=tuple(compute_deps))
        fwd_compute[i] = prev_c
        if reshards:
            b.add(FREE, unit.name, FORWARD, deps=(prev_c,))
    last_forward = prev_c

    # Backward, reverse unit order.
    order = list(range(n))[::-1]
    bwd_compute: dict[int, int] = {}
    pending_ag: dict[int, int] = {}
    bwd_ag_units: list[int] = []
    prev_bag = None
    bucket_fill = 0

    def issue_backward_ag(unit_index: int, anchor: int) -> None:
        nonlocal prev_bag
        unit = units[unit_index]
        deps = [anchor]
        if prev_bag is not None:
            deps.append(prev_bag)
        if limit is not None and len(bwd_ag_units) >= limit:
            consumer = bwd_ag_units[-limit]
            if consumer in bwd_compute:
                deps.append(bwd_compute[consumer])
        prev_bag = b.add(ALL_GATHER, unit.name, BACKWARD,
                         bytes=plan.unit_full_bytes(unit), group=shard_group,
                         deps=tuple(deps))
        pending_ag[unit_index] = prev_bag
        bwd_ag_units.append(unit_index)

    for pos, v in enumerate(order):
        unit = units[v]
        grad_ready = last_forward if pos == 0 else bwd_compute[order[pos - 1]]
        if reshards and pos == 0:
            issue_backward_ag(v, anchor=last_forward)
        if reshards and pos + 1 < n and policy.mode == PREFETCH_BACKWARD_PRE:
            issue_backward_ag(order[pos + 1], anchor=grad_ready)

        compute_deps = [grad_ready]
        if v in pending_ag:
            compute_deps.append(pending_ag[v])
        c_id = b.add(COMPUTE, unit.name, BACKWARD, flops=unit.backward_flops,
                     deps=tuple(compute_deps))
        bwd_compute[v] = c_id

        if reshards and pos + 1 < n and policy.mode == PREFETCH_BACKWARD_POST:
            issue_backward_ag(order[pos + 1], anchor=c_id)

        last_reduce = None
        if reduce_in_group:
            last_reduce = b.add(REDUCE_SCATTER, unit.name, BACKWARD,
                                bytes=plan.unit_full_bytes(unit),
                                group=shard_group, deps=(c_id,))
            if kind is StrategyKind.HYBRID and replica_reduce:
                b.add(ALL_REDUCE, unit.name, BACKWARD,
                      bytes=plan.unit_shard_bytes(unit), group=replica_group,
                      deps=(last_reduce,))
        elif kind is StrategyKind.REPLICATED_BUCKETED and replica_reduce:
            bucket_fill += plan.unit_full_bytes(unit)
            while bucket_fill >= plan.strategy.bucket_bytes:
                b.add(ALL_REDUCE, unit.name, BACKWARD,
                      bytes=plan.strategy.bucket_bytes, group=replica_group,
                      deps=(c_id,))
                bucket_fill -= plan.strategy.bucket_bytes
            if pos == n - 1 and bucket_fill:
                b.add(ALL_REDUCE, unit.name, BACKWARD, bytes=bucket_fill,
                      group=replica_group, deps=(c_id,))
                bucket_fill = 0
        elif replica_reduce:  # no-shard: full-gradient all-reduce per unit
            last_reduce = b.add(ALL_REDUCE, unit.name, BACKWARD,
                                bytes=plan.unit_full_bytes(unit),
                                group=replica_group, deps=(c_id,))

        if reshards and pos + 1 < n and policy.mode == PREFETCH_NONE:
            anchor = last_reduce if last_reduce is not None else c_id
            issue_backward_ag(order[pos + 1], anchor=anchor)

        if gathers:
            b.add(FREE, unit.name, BACKWARD, deps=(c_id,))

    return StepSchedule(tasks=tuple(b.tasks), strategy=plan.strategy,
                        policy=policy, world=plan.cluster.world_size,
                        local_batch=local_batch)
