import json
import math
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim import (
    ActivationEstimate,
    ConfigError,
    PRESETS,
    PrefetchPolicy,
    Strategy,
    StrategyKind,
    Task,
    Unit,
    activation_bytes,
    build_units,
    frontier,
    get_model,
    make_plan,
    memory_footprint,
    param_count,
    step_schedule,
)
from shardsim.sharding import PREFETCH_MODES

warnings.simplefilter("ignore", UserWarning)


def tiny_units(n=3, params=1000, flop=1e9):
    return tuple(Unit(f"u{i}", params, flop, 2 * flop) for i in range(n))


def of_kind(schedule, kind):
    """The schedule's tasks of one kind, in id order."""
    return [t for t in schedule.tasks if t.kind == kind]


def reachable(schedule, src, dst):
    """True if dst transitively depends on src."""
    frontier_ids = {dst}
    seen = set()
    while frontier_ids:
        tid = frontier_ids.pop()
        if tid == src:
            return True
        if tid in seen:
            continue
        seen.add(tid)
        frontier_ids.update(schedule.tasks[tid].deps)
    return False


def find(schedule, kind, unit, phase):
    hits = [t for t in schedule.tasks
            if t.kind == kind and t.unit == unit and t.phase == phase]
    assert len(hits) == 1, f"expected one {kind}/{unit}/{phase}, got {len(hits)}"
    return hits[0]


class TestStrategy:
    def test_parse_labels(self):
        for text, kind in [("no-shard", StrategyKind.NO_SHARD),
                           ("full", StrategyKind.FULL_SHARD),
                           ("grad-op", StrategyKind.GRAD_OP_SHARD),
                           ("ddp", StrategyKind.REPLICATED_BUCKETED)]:
            strategy = Strategy.parse(text)
            assert strategy.kind is kind
            assert Strategy.parse(strategy.label) == strategy
        hybrid = Strategy.parse("hybrid8")
        assert hybrid.kind is StrategyKind.HYBRID
        assert hybrid.shard_group_size == 8
        assert hybrid.label == "hybrid8"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            Strategy.parse("zigzag")

    @pytest.mark.parametrize("text", [
        "hybrid", "noshard", "no_shard", "full-shard", "full_shard",
        "grad_op", "shard-grad-op", "shard_grad_op", "replicated"])
    def test_parse_accepts_only_labels(self, text):
        with pytest.raises(ConfigError):
            Strategy.parse(text)

    def test_parse_folds_case_and_spaces(self):
        assert Strategy.parse(" Full ") == Strategy.full_shard()
        assert Strategy.parse("HYBRID4") == Strategy.hybrid(4)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            PrefetchPolicy(mode="sometime")
        with pytest.raises(ConfigError):
            PrefetchPolicy(limit_all_gathers=True, max_inflight=0)


class TestBuildUnits:
    def test_unit_structure_vit(self):
        units = build_units(PRESETS["vit-base"], 2)
        assert len(units) == 13
        assert units[0].name == "root"
        breakdown = param_count(PRESETS["vit-base"])
        assert units[1].params == breakdown.per_block
        assert sum(u.params for u in units) == breakdown.grand_total

    def test_unit_structure_mae(self):
        units = build_units(get_model("mae-base"), 2)
        assert len(units) == 1 + 12 + 8
        assert units[-1].name == "decoder_block7"

    def test_backward_is_multiplied(self):
        units = build_units(PRESETS["vit-base"], 1)
        for unit in units:
            assert unit.backward_flops == pytest.approx(2.0 * unit.forward_flops)


class TestMakePlan:
    def test_hybrid_one_equals_no_shard_field_for_field(self):
        spec = frontier(2)
        units = tiny_units()
        assert make_plan(units, Strategy.hybrid(1), spec) == \
            make_plan(units, Strategy.no_shard(), spec)

    def test_full_shard_shard_bytes(self):
        spec = frontier(64)  # 512 ranks
        units = build_units(PRESETS["vit-3b"], 32)
        plan = make_plan(units, Strategy.full_shard(), spec)
        assert plan.shard_group_size == 512
        for unit in units:
            shard = plan.unit_shard_bytes(unit)
            assert shard == math.ceil(unit.params / 512) * 4
            total_sharded = shard * 512
            full = plan.unit_full_bytes(unit)
            assert full <= total_sharded <= full + 512 * 4

    def test_no_shard_replicates(self):
        plan = make_plan(tiny_units(), Strategy.no_shard(), frontier(4))
        assert plan.shard_group_size == 1
        for unit in plan.units:
            assert plan.unit_shard_bytes(unit) == plan.unit_full_bytes(unit)

    def test_infeasible_group_size_propagates(self):
        from shardsim import TopologyError
        with pytest.raises(TopologyError):
            make_plan(tiny_units(), Strategy.hybrid(16), frontier(1))


@pytest.fixture(scope="module")
def vit3b_units():
    return build_units(PRESETS["vit-3b"], 32)


@pytest.fixture(scope="module")
def acts():
    return activation_bytes(PRESETS["vit-3b"], 32)


class TestMemoryFootprint:

    def test_hybrid2_halves_states(self, vit3b_units, acts):
        base = memory_footprint(
            make_plan(vit3b_units, Strategy.no_shard(), frontier(1)), acts)
        half = memory_footprint(
            make_plan(vit3b_units, Strategy.hybrid(2), frontier(1)), acts)
        assert half.state_bytes * 2 == base.state_bytes

    def test_full_shard_scales_inverse(self, vit3b_units, acts):
        base = memory_footprint(
            make_plan(vit3b_units, Strategy.no_shard(), frontier(1)), acts)
        for nodes in (1, 2, 8, 64):
            spec = frontier(nodes)
            mem = memory_footprint(
                make_plan(vit3b_units, Strategy.full_shard(), spec), acts)
            padding = len(vit3b_units) * (4 + 4 + 8)
            assert abs(mem.state_bytes - base.state_bytes / spec.world_size) <= padding

    def test_grad_op_keeps_params_full(self, vit3b_units, acts):
        spec = frontier(4)
        full = memory_footprint(
            make_plan(vit3b_units, Strategy.full_shard(), spec), acts)
        gradop = memory_footprint(
            make_plan(vit3b_units, Strategy.grad_op_shard(), spec), acts)
        noshard = memory_footprint(
            make_plan(vit3b_units, Strategy.no_shard(), spec), acts)
        assert gradop.params_bytes == noshard.params_bytes
        assert gradop.grads_bytes == full.grads_bytes
        assert gradop.optimizer_bytes == full.optimizer_bytes
        assert gradop.gathered_peak_bytes == 0

    def test_activations_invariant_to_strategy(self, vit3b_units, acts):
        spec = frontier(2)
        strategies = [Strategy.no_shard(), Strategy.full_shard(),
                      Strategy.grad_op_shard(), Strategy.hybrid(4),
                      Strategy.replicated()]
        values = {memory_footprint(make_plan(vit3b_units, s, spec), acts).activations_bytes
                  for s in strategies}
        assert len(values) == 1

    def test_monotone_in_shard_group_size(self, vit3b_units, acts):
        spec = frontier(4)
        states = [memory_footprint(
            make_plan(vit3b_units, Strategy.hybrid(g), spec), acts).state_bytes
            for g in (1, 2, 4, 8, 16, 32)]
        assert states == sorted(states, reverse=True)

    def test_gathered_peak_counts_largest_unit(self, vit3b_units, acts):
        spec = frontier(2)
        mem = memory_footprint(
            make_plan(vit3b_units, Strategy.full_shard(), spec), acts)
        assert mem.gathered_peak_bytes == max(u.params for u in vit3b_units) * 4
        assert mem.total_bytes == (mem.params_bytes + mem.grads_bytes
                                   + mem.optimizer_bytes + mem.activations_bytes
                                   + mem.gathered_peak_bytes)

    def test_infeasible_flagged(self, vit3b_units):
        # Full-cache activations at image 512 cannot fit.
        huge_acts = activation_bytes(PRESETS["vit-3b"], 32, model="full-cache")
        mem = memory_footprint(
            make_plan(vit3b_units, Strategy.no_shard(), frontier(1)), huge_acts)
        assert not mem.feasible


class TestStepSchedule:
    def schedule(self, strategy, n_units=3, policy=None, world_nodes=2):
        units = tiny_units(n_units, params=10_000, flop=1e9)
        plan = make_plan(units, strategy, frontier(world_nodes))
        return step_schedule(plan, policy or PrefetchPolicy(), local_batch=4)

    def test_no_shard_has_only_all_reduce(self):
        sched = self.schedule(Strategy.no_shard())
        assert of_kind(sched, "all-gather") == []
        assert of_kind(sched, "reduce-scatter") == []
        ars = of_kind(sched, "all-reduce")
        assert sum(t.bytes for t in ars) == 3 * 10_000 * 4

    def test_full_shard_task_pattern(self):
        sched = self.schedule(Strategy.full_shard())
        # one forward and one backward gather per unit, one reduce-scatter
        assert len(of_kind(sched, "all-gather")) == 6
        assert len(of_kind(sched, "reduce-scatter")) == 3
        assert of_kind(sched, "all-reduce") == []

    def test_grad_op_has_no_backward_gathers(self):
        sched = self.schedule(Strategy.grad_op_shard())
        gathers = of_kind(sched, "all-gather")
        assert len(gathers) == 3
        assert all(t.phase == "forward" for t in gathers)
        assert len(of_kind(sched, "reduce-scatter")) == 3

    def test_backward_compute_depends_on_its_gather(self):
        sched = self.schedule(Strategy.full_shard())
        for name in ("u0", "u1", "u2"):
            gather = find(sched, "all-gather", name, "backward")
            compute = find(sched, "compute", name, "backward")
            assert reachable(sched, gather.id, compute.id)
            reduce = find(sched, "reduce-scatter", name, "backward")
            assert compute.id in reduce.deps

    def test_no_prefetch_orders_gather_after_reduce_scatter(self):
        # For every adjacent backward pair the next gather waits for the
        # current unit's reduce-scatter.
        sched = self.schedule(Strategy.full_shard(), n_units=5,
                              policy=PrefetchPolicy(mode="none"))
        for current, following in [("u4", "u3"), ("u3", "u2"), ("u2", "u1"),
                                   ("u1", "u0")]:
            rs = find(sched, "reduce-scatter", current, "backward")
            gather = find(sched, "all-gather", following, "backward")
            assert reachable(sched, rs.id, gather.id)

    def test_backward_pre_allows_overlap(self):
        # For every adjacent backward pair the next gather and the current
        # backward compute are unordered, so they may run concurrently.
        sched = self.schedule(Strategy.full_shard(), n_units=5,
                              policy=PrefetchPolicy(mode="backward-pre"))
        for current, following in [("u4", "u3"), ("u3", "u2"), ("u2", "u1"),
                                   ("u1", "u0")]:
            compute = find(sched, "compute", current, "backward")
            gather = find(sched, "all-gather", following, "backward")
            assert not reachable(sched, compute.id, gather.id)
            assert not reachable(sched, gather.id, compute.id)

    def test_backward_post_waits_for_backward_compute(self):
        sched = self.schedule(Strategy.full_shard(),
                              policy=PrefetchPolicy(mode="backward-post"))
        bwd_u2 = find(sched, "compute", "u2", "backward")
        ag_u1 = find(sched, "all-gather", "u1", "backward")
        rs_u2 = find(sched, "reduce-scatter", "u2", "backward")
        assert bwd_u2.id in ag_u1.deps
        assert not reachable(sched, rs_u2.id, ag_u1.id)

    def test_hybrid_reduce_scatter_intra_all_reduce_inter(self):
        sched = self.schedule(Strategy.hybrid(8), world_nodes=2)
        rs = of_kind(sched, "reduce-scatter")
        ar = of_kind(sched, "all-reduce")
        assert len(rs) == 3 and len(ar) == 3
        for task in rs:
            assert len(task.group) == 8
            assert len({r // 8 for r in task.group}) == 1     # intra-node
        for task in ar:
            assert len(task.group) == 2
            assert len({r // 8 for r in task.group}) == 2     # inter-node
            matching_rs = find(sched, "reduce-scatter", task.unit, "backward")
            assert matching_rs.id in task.deps

    def test_hybrid_all_reduce_carries_shard_bytes(self):
        units = tiny_units(2, params=10_000)
        plan = make_plan(units, Strategy.hybrid(8), frontier(2))
        sched = step_schedule(plan, PrefetchPolicy(), local_batch=4)
        for task in of_kind(sched, "all-reduce"):
            assert task.bytes == math.ceil(10_000 / 8) * 4

    def test_gathered_bytes_bounded(self):
        for strategy in (Strategy.no_shard(), Strategy.full_shard(),
                         Strategy.grad_op_shard(), Strategy.hybrid(4),
                         Strategy.replicated()):
            sched = self.schedule(strategy)
            per_unit = {}
            for task in of_kind(sched, "all-gather"):
                per_unit[task.unit] = per_unit.get(task.unit, 0) + task.bytes
            for unit_name, total in per_unit.items():
                assert total <= 2 * 10_000 * 4

    def test_gradients_reduced_exactly_once(self):
        world = frontier(2).world_size
        for strategy in (Strategy.no_shard(), Strategy.full_shard(),
                         Strategy.grad_op_shard(), Strategy.hybrid(4)):
            sched = self.schedule(strategy)
            for name in ("u0", "u1", "u2"):
                reducers = [t for t in sched.collectives()
                            if t.unit == name and t.kind != "all-gather"]
                spans = 1
                full_bytes_seen = 0
                for task in reducers:
                    spans *= len(task.group)
                    if task.kind in ("reduce-scatter",) or \
                            (task.kind == "all-reduce" and len(reducers) == 1):
                        full_bytes_seen += task.bytes
                assert spans == world
                assert full_bytes_seen == 10_000 * 4

    def test_replicated_buckets_conserve_bytes(self):
        bucket = 16_000  # bytes; unit grads are 40_000 bytes each
        units = tiny_units(3, params=10_000)
        plan = make_plan(units, Strategy.replicated(bucket_bytes=bucket), frontier(2))
        sched = step_schedule(plan, PrefetchPolicy(), local_batch=4)
        ars = of_kind(sched, "all-reduce")
        assert sum(t.bytes for t in ars) == 3 * 40_000
        assert all(t.bytes == bucket for t in ars[:-1])
        assert all(len(t.group) == 16 for t in ars)

    def test_hybrid1_schedule_identical_to_no_shard(self):
        assert self.schedule(Strategy.hybrid(1)) == self.schedule(Strategy.no_shard())

    def test_full_shard_on_one_rank_has_no_collectives(self):
        units = tiny_units(2)
        spec = frontier(1)
        one_rank = make_plan(units, Strategy.full_shard(),
                             type(spec)(num_nodes=1, gpus_per_node=1,
                                        peak_flops_per_gpu=spec.peak_flops_per_gpu))
        sched = step_schedule(one_rank, PrefetchPolicy(), local_batch=4)
        assert sched.collectives() == []

    def test_json_dump_round_trips(self):
        sched = self.schedule(Strategy.hybrid(4))
        payload = json.loads(sched.to_json())
        assert payload["strategy"] == "hybrid4"
        assert payload["prefetch"] == asdict(sched.policy)
        assert len(payload["tasks"]) == len(sched.tasks)
        for raw, task in zip(payload["tasks"], sched.tasks):
            assert list(raw) == [f.name for f in fields(Task)]
            assert raw["group"] == list(task.group)
            assert raw["id"] == task.id
            assert raw["kind"] == task.kind
            assert raw["bytes"] == task.bytes
            assert tuple(raw["deps"]) == task.deps

    def test_forward_limiter_edges(self):
        # max_inflight=1: forward gather i waits for compute i-1.
        sched = self.schedule(Strategy.full_shard(),
                              policy=PrefetchPolicy(mode="none", max_inflight=1))
        c_u0 = find(sched, "compute", "u0", "forward")
        ag_u1 = find(sched, "all-gather", "u1", "forward")
        assert c_u0.id in ag_u1.deps

    def test_mae_schedule_includes_decoder_units(self):
        units = build_units(get_model("mae-base"), 2)
        plan = make_plan(units, Strategy.full_shard(), frontier(1))
        sched = step_schedule(plan, PrefetchPolicy(), local_batch=2)
        decoder_tasks = [t for t in sched.tasks if t.unit.startswith("decoder")]
        assert decoder_tasks
        # backward starts from the last decoder block
        backward = [t for t in sched.tasks if t.phase == "backward" and t.kind == "compute"]
        assert backward[0].unit == "decoder_block7"

    def test_batch_is_required_and_at_least_one(self):
        plan = make_plan(tiny_units(2), Strategy.full_shard(), frontier(1))
        with pytest.raises(TypeError):
            step_schedule(plan, PrefetchPolicy())
        for batch in (0, -1):
            with pytest.raises(ConfigError,
                               match=rf"^local_batch must be >= 1, got {batch}$"):
                step_schedule(plan, PrefetchPolicy(), local_batch=batch)


@st.composite
def plans_per_strategy(draw):
    """Random units on 1-16 nodes, planned under all five strategy kinds;
    the hybrid shard group is any size that tiles the world."""
    units = tuple(Unit(f"u{i}", draw(st.integers(1, 50_000)), 1e9, 2e9)
                  for i in range(draw(st.integers(1, 8))))
    spec = frontier(draw(st.integers(1, 16)))
    world = spec.world_size
    hybrid = draw(st.sampled_from([g for g in range(1, world + 1)
                                   if world % g == 0 and (g > 8 or 8 % g == 0)]))
    strategies = {"no-shard": Strategy.no_shard(),
                  "full": Strategy.full_shard(),
                  "grad-op": Strategy.grad_op_shard(),
                  "hybrid": Strategy.hybrid(hybrid),
                  "ddp": Strategy.replicated(bucket_bytes=8_000)}
    return {label: make_plan(units, strategy, spec)
            for label, strategy in strategies.items()}


class TestShardingRule:
    """What a plan shards follows from its shard-group size alone, with
    grad-op's resident parameters the one exception."""

    ACTS = ActivationEstimate(bytes_per_rank=0, model="checkpointed", factor=1)

    @settings(max_examples=100, deadline=None)
    @given(plans_per_strategy(), st.sampled_from(
        ("none", "backward-post", "backward-pre")))
    def test_schedule_and_memory_follow_the_shard_group(self, plans, mode):
        for plan in plans.values():
            sched = step_schedule(plan, PrefetchPolicy(mode=mode),
                                  local_batch=1)
            mem = memory_footprint(plan, self.ACTS)
            g = plan.shard_group_size
            sharded = g > 1
            assert bool(of_kind(sched, "all-gather")) == sharded
            assert bool(of_kind(sched, "reduce-scatter")) == sharded
            # Every sharded plan frees gathered parameters after backward;
            # only a re-sharding plan frees them after forward as well.
            frees = of_kind(sched, "free")
            assert any(t.phase == "backward" for t in frees) == sharded
            forward_frees = [t for t in frees if t.phase == "forward"]
            backward_gathers = [t for t in of_kind(sched, "all-gather")
                                if t.phase == "backward"]
            assert bool(forward_frees) == plan.reshards_params
            assert bool(backward_gathers) == plan.reshards_params
            assert (mem.gathered_peak_bytes > 0) == plan.reshards_params
            shard = sum(math.ceil(u.params / g) for u in plan.units)
            assert mem.grads_bytes == shard * 4
            assert mem.optimizer_bytes == shard * 8
        gradop, noshard, full = (memory_footprint(plans[label], self.ACTS)
                                 for label in ("grad-op", "no-shard", "full"))
        assert gradop.params_bytes == noshard.params_bytes
        assert gradop.grads_bytes == full.grads_bytes
        assert gradop.optimizer_bytes == full.optimizer_bytes


class TestBuiltTasks:
    """Every task `step_schedule` builds is the `Task` its fields make: equal
    and hashed by value, frozen, and with id = position and deps a strictly
    ascending tuple of earlier ids."""

    @settings(max_examples=60, deadline=None)
    @given(plans_per_strategy(), st.sampled_from(PREFETCH_MODES),
           st.booleans(), st.sampled_from((1, 2, 4)))
    def test_tasks_are_plain_frozen_tasks(self, plans, mode, limit, inflight):
        policy = PrefetchPolicy(mode=mode, limit_all_gathers=limit,
                                max_inflight=inflight)
        for plan in plans.values():
            sched = step_schedule(plan, policy, local_batch=1)
            for position, task in enumerate(sched.tasks):
                assert type(task) is Task
                assert list(vars(task)) == [f.name for f in fields(Task)]
                rebuilt = Task(**vars(task))
                assert task == rebuilt and hash(task) == hash(rebuilt)
                assert task.id == position
                assert type(task.deps) is tuple
                assert all(a < b for a, b in zip(task.deps, task.deps[1:]))
                assert all(0 <= dep < task.id for dep in task.deps)
                with pytest.raises(FrozenInstanceError):
                    task.deps = ()
                with pytest.raises(FrozenInstanceError):
                    del task.kind
                assert replace(task) == task
                moved = replace(task, id=task.id + 1)
                assert moved.id == task.id + 1
                assert replace(moved, id=task.id) == task
