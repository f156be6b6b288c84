"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines as they complete.
"""

import random
import time
import warnings

import pytest

from shardsim import (
    CollectiveCall,
    MAEConfig,
    PRESETS,
    PrefetchPolicy,
    Scenario,
    Strategy,
    StrategyKind,
    Unit,
    activation_bytes,
    build_units,
    calibrate,
    collective_time,
    flops,
    frontier,
    IoModel,
    make_plan,
    memory_footprint,
    reference_report,
    run_scenario,
    simulate_step,
    step_schedule,
    sweep,
)

warnings.simplefilter("ignore", UserWarning)

GB = 1e9


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def calibration():
    """Single calibration shared by every qualitative check: a fit to the two
    published 5B throughput points at 32 nodes."""
    observations = [
        (Scenario("mae-5b", Strategy.hybrid(2), 32), 1509.0),
        (Scenario("mae-5b", Strategy.full_shard(), 32), 1307.0),
    ]
    return calibrate(observations, frontier(1))


def test_criterion_1_parameter_reproduction():
    started = time.perf_counter()
    rows = {r["model"]: r for r in reference_report()}
    targets = {"vit-base": 87, "vit-huge": 635, "vit-1b": 914,
               "vit-3b": 3067, "vit-15b": 14720}
    for name, millions in targets.items():
        computed = rows[name]["computed"]
        assert abs(computed - millions * 1e6) / (millions * 1e6) <= 0.025, name
    # The 5b row deviates from its nominal count; the deviation is computed
    # and reported, never silently absorbed.
    deviation_5b = rows["vit-5b"]["relative_deviation"]
    assert deviation_5b < -0.25
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"five nominal rows within 2.5%; vit-5b deviation "
              f"{deviation_5b:+.1%} reported ({elapsed*1e3:.0f} ms)")


def test_criterion_2_decoder_fraction():
    started = time.perf_counter()
    profile = flops(MAEConfig(encoder=PRESETS["vit-large"], mask_ratio=0.0),
                    batch=1)
    ratio = profile.decoder_total / profile.encoder_total
    assert ratio < 0.10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"default decoder / vit-large encoder FLOP ratio {ratio:.4f} "
              f"< 0.10 ({elapsed*1e3:.0f} ms)")


def test_criterion_3_memory_consistency():
    units = build_units(PRESETS["vit-3b"], 32)
    acts = activation_bytes(PRESETS["vit-3b"], 32)

    no_shard = memory_footprint(make_plan(units, Strategy.no_shard(), frontier(1)), acts)
    assert abs(no_shard.state_bytes - 49.1 * GB) / (49.1 * GB) <= 0.01
    assert 55 * GB <= no_shard.total_bytes <= 68 * GB

    hybrid2 = memory_footprint(make_plan(units, Strategy.hybrid(2), frontier(1)), acts)
    assert 2 * hybrid2.state_bytes == no_shard.state_bytes

    padding = len(units) * (4 + 4 + 8)
    for nodes in (1, 2, 4, 8, 16, 32, 64):
        spec = frontier(nodes)  # worlds 8..512
        sharded = memory_footprint(make_plan(units, Strategy.full_shard(), spec), acts)
        assert abs(sharded.state_bytes - no_shard.state_bytes / spec.world_size) \
            <= padding
    report(3, f"no-shard states {no_shard.state_bytes/GB:.2f} GB, total "
              f"{no_shard.total_bytes/GB:.2f} GB in [55, 68]; hybrid2 exactly "
              f"half; full-shard follows 1/N over 8..512 ranks")


def _random_case(rng):
    n_units = rng.randint(1, 8)
    units = tuple(Unit(f"u{i}", rng.randint(1, 50_000),
                       float(rng.randint(1, 100)) * 1e8, 0.0)
                  for i in range(n_units))
    units = tuple(Unit(u.name, u.params, u.forward_flops, 2 * u.forward_flops)
                  for u in units)
    nodes = rng.choice((1, 2, 4))
    spec = frontier(nodes)
    hybrid_sizes = [g for g in (1, 2, 4, 8, 16) if g <= spec.world_size
                    and spec.world_size % g == 0
                    and (g > 8 or 8 % g == 0)]
    strategy = rng.choice([
        Strategy.no_shard(), Strategy.full_shard(), Strategy.grad_op_shard(),
        Strategy.replicated(bucket_bytes=rng.choice((8_000, 25 * 2**20))),
        Strategy.hybrid(rng.choice(hybrid_sizes)),
    ])
    policy = PrefetchPolicy(
        mode=rng.choice(("none", "backward-post", "backward-pre")),
        limit_all_gathers=rng.random() < 0.7,
        max_inflight=rng.choice((1, 2, 4)))
    return units, spec, strategy, policy


def _assert_grads_reduced_once(schedule, plan):
    world = plan.cluster.world_size
    total = sum(plan.unit_full_bytes(u) for u in plan.units)
    reducers = [t for t in schedule.collectives() if t.kind != "all-gather"]
    if world == 1:
        assert reducers == []
        return
    if plan.strategy.kind is StrategyKind.REPLICATED_BUCKETED:
        assert sum(t.bytes for t in reducers) == total
        assert all(len(t.group) == world for t in reducers)
        return
    for unit in plan.units:
        unit_reducers = [t for t in reducers if t.unit == unit.name]
        span = 1
        for task in unit_reducers:
            span *= len(task.group)
        assert span == world, (plan.strategy.label, unit.name)
        primary = [t for t in unit_reducers
                   if t.kind == "reduce-scatter" or len(unit_reducers) == 1]
        assert sum(t.bytes for t in primary) == plan.unit_full_bytes(unit)


def test_criterion_4_schedule_properties():
    started = time.perf_counter()
    rng = random.Random(20240611)
    cases = 1000
    for _ in range(cases):
        units, spec, strategy, policy = _random_case(rng)
        plan = make_plan(units, strategy, spec)
        schedule = step_schedule(plan, policy, local_batch=1)

        hybrid1 = step_schedule(
            make_plan(units, Strategy.hybrid(1), spec), policy, local_batch=1)
        no_shard = step_schedule(
            make_plan(units, Strategy.no_shard(), spec), policy, local_batch=1)
        assert hybrid1 == no_shard

        _assert_grads_reduced_once(schedule, plan)

        strict = PrefetchPolicy(mode=policy.mode, limit_all_gathers=True,
                                max_inflight=1)
        strict_schedule = step_schedule(plan, strict, local_batch=1)
        trace, _ = simulate_step(strict_schedule, spec)
        gathers = sorted((e for e in trace.events
                          if strict_schedule.tasks[e.task_id].kind == "all-gather"),
                         key=lambda e: (e.start, e.end))
        for first, second in zip(gathers, gathers[1:]):
            assert second.start >= first.end - 1e-15
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"{cases} randomized cases: hybrid(1)=no-shard, gradients "
              f"reduced exactly once, no overlapping gathers at limit 1 "
              f"({elapsed:.1f} s)")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(987654)
    instances = 100
    policy = PrefetchPolicy(mode="none", limit_all_gathers=True, max_inflight=1)
    for _ in range(instances):
        n_units = rng.randint(1, 8)
        units = tuple(Unit(f"u{i}", rng.randint(1, 10**7),
                           float(rng.randint(1, 500)) * 1e9,
                           2.0 * float(rng.randint(1, 500)) * 1e9)
                      for i in range(n_units))
        spec = frontier(rng.choice((1, 2, 4)))
        plan = make_plan(units, Strategy.full_shard(), spec)
        schedule = step_schedule(plan, policy, local_batch=1)
        simulated = simulate_step(schedule, spec)[0].makespan
        closed = sum(t.flops / spec.effective_flops_per_gpu
                     for t in schedule.tasks if t.kind == "compute")
        closed += sum(collective_time(CollectiveCall(t.kind, t.bytes, t.group), spec)
                      for t in schedule.collectives())
        assert simulated == pytest.approx(closed, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(5, f"{instances} serialized instances match the closed-form sum "
              f"within 1e-9 relative ({elapsed:.1f} s)")


def test_criterion_6_calibration_round_trip():
    started = time.perf_counter()
    spec = frontier(1)
    true_eff, true_scale = 0.30, 4.0
    scenarios = [
        Scenario("mae-base", Strategy.no_shard(), 1),
        Scenario("mae-3b", Strategy.no_shard(), 64),
        Scenario("mae-base", Strategy.full_shard(), 8),
    ]
    observations = [
        (s, run_scenario(s, spec, compute_efficiency=true_eff,
                         latency_scale=true_scale).images_per_second)
        for s in scenarios
    ]
    fitted = calibrate(observations, spec)
    assert abs(fitted.compute_efficiency - true_eff) / true_eff <= 0.05
    assert abs(fitted.effective_latency_scale - true_scale) / true_scale <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(6, f"recovered efficiency {fitted.compute_efficiency:.3f} and "
              f"latency scale {fitted.effective_latency_scale:.3f} from "
              f"simulator-generated points within 5% ({elapsed:.1f} s)")


def test_criterion_7a_hybrid2_outranks_full_shard(calibration):
    kwargs = dict(compute_efficiency=calibration.compute_efficiency,
                  latency_scale=calibration.effective_latency_scale)
    hybrid2 = run_scenario(Scenario("mae-5b", Strategy.hybrid(2), 32),
                           frontier(1), **kwargs)
    full = run_scenario(Scenario("mae-5b", Strategy.full_shard(), 32),
                        frontier(1), **kwargs)
    assert hybrid2.images_per_second > full.images_per_second
    report("7a", f"5B at 32 nodes: hybrid2 {hybrid2.images_per_second:.0f} ips "
                 f"> full shard {full.images_per_second:.0f} ips "
                 f"(fit residual {calibration.residual:.2e})")


def test_criterion_7b_comm_fraction_at_64_nodes(calibration):
    metrics = run_scenario(
        Scenario("mae-3b", Strategy.no_shard(), 64), frontier(1),
        compute_efficiency=calibration.compute_efficiency,
        latency_scale=calibration.effective_latency_scale)
    assert abs(metrics.comm_fraction - 0.22) <= 0.08
    report("7b", f"3B no-shard at 64 nodes: communication fraction "
                 f"{metrics.comm_fraction:.3f} within 0.22 +/- 0.08")


def test_criterion_7c_flattening_order(calibration):
    kwargs = dict(compute_efficiency=calibration.compute_efficiency,
                  latency_scale=calibration.effective_latency_scale)
    node_counts = [2**k for k in range(0, 12)]  # 1 .. 2048

    def flattening_point(model):
        ips = {}
        for nodes in node_counts:
            metrics = run_scenario(
                Scenario(model, Strategy.full_shard(), nodes), frontier(1),
                **kwargs)
            ips[nodes] = metrics.images_per_second
        for nodes in node_counts[:-1]:
            if ips[2 * nodes] / ips[nodes] < 1.05:
                return 2 * nodes
        return None

    base_point = flattening_point("mae-base")
    big_point = flattening_point("mae-3b")
    assert base_point is not None
    assert big_point is None or base_point < big_point
    report("7c", f"full-shard throughput flattens at {base_point} nodes for "
                 f"the base model vs {big_point or '>2048'} for 3B")


def test_criterion_7d_io_never_limits_when_faster(calibration):
    kwargs = dict(compute_efficiency=calibration.compute_efficiency,
                  latency_scale=calibration.effective_latency_scale)
    scenario = Scenario("mae-3b", Strategy.no_shard(), 4)
    synthetic = run_scenario(scenario, frontier(1), **kwargs)
    fast_io = run_scenario(scenario, frontier(1),
                           io=IoModel(images_per_second_per_rank=1e9), **kwargs)
    assert fast_io.step_seconds == synthetic.step_seconds
    assert fast_io.images_per_second == synthetic.images_per_second
    report("7d", f"with input faster than the step, real time equals "
                 f"synthetic time ({synthetic.step_seconds:.3f} s)")


def test_criterion_8_deterministic_sweeps():
    args = (["vit-base", "mae-base"],
            [Strategy.no_shard(), Strategy.full_shard()],
            [1, 2, 4])
    first = sweep(*args, frontier(1)).to_csv()
    second = sweep(*args, frontier(1)).to_csv()
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    report(8, f"two identical sweeps produced byte-identical CSV "
              f"({len(first.splitlines()) - 1} rows)")
