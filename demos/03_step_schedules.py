"""What a training step actually issues: gathers, computes, reductions.

Builds the step DAG for a small model under several strategies and prefetch
policies and shows how the policy changes what can overlap.

Run with `python demos/03_step_schedules.py`.
"""

import json
import warnings

from shardsim import (
    PRESETS,
    PrefetchPolicy,
    Strategy,
    build_units,
    frontier,
    make_plan,
    simulate_step,
    step_schedule,
)

warnings.simplefilter("ignore", UserWarning)

spec = frontier(2)
units = build_units(PRESETS["vit-base"], batch=32)

print("== Task census per strategy (vit-base, 13 units, 16 ranks) ==")
for strategy in (Strategy.no_shard(), Strategy.grad_op_shard(),
                 Strategy.hybrid(8), Strategy.full_shard(),
                 Strategy.replicated()):
    plan = make_plan(units, strategy, spec)
    sched = step_schedule(plan, PrefetchPolicy(), local_batch=32)
    census = {}
    for task in sched.tasks:
        census[task.kind] = census.get(task.kind, 0) + 1
    print(f"  {strategy.label:<10} {census}")
print()

print("== Prefetch policy decides backward overlap (full shard) ==")
plan = step = None
for mode in ("none", "backward-post", "backward-pre"):
    plan = make_plan(units, Strategy.full_shard(), spec)
    sched = step_schedule(plan, PrefetchPolicy(mode=mode), local_batch=32)
    trace, _ = simulate_step(sched, spec)
    print(f"  {mode:<14} makespan {trace.makespan*1e3:8.2f} ms")
print("backward-pre issues the next unit's gather before the current backward")
print("compute, hiding it; with no prefetch each gather waits for the previous")
print("reduce-scatter and the step stretches out.")
print()

print("== The in-flight limiter bounds gathered-but-unused buffers ==")
for max_inflight in (1, 2, 4):
    sched = step_schedule(
        make_plan(units, Strategy.full_shard(), spec),
        PrefetchPolicy(limit_all_gathers=True, max_inflight=max_inflight),
        local_batch=32)
    trace, _ = simulate_step(sched, spec)
    print(f"  max_inflight={max_inflight}: makespan {trace.makespan*1e3:8.2f} ms")
print()

print("== Every schedule exports as a JSON task graph ==")
sched = step_schedule(make_plan(units[:3], Strategy.hybrid(8), spec),
                      PrefetchPolicy(), local_batch=32)
payload = json.loads(sched.to_json())
for task in payload["tasks"][:8]:
    print(f"  #{task['id']:<3} {task['kind']:<14} {task['unit']:<7} "
          f"{task['phase']:<8} deps={task['deps']}")
print(f"  ... {len(payload['tasks'])} tasks total")
