import heapq
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shardsim import (
    ClusterSpec,
    CollectiveCall,
    ConfigError,
    EventTrace,
    IoModel,
    PrefetchPolicy,
    Scenario,
    StepSchedule,
    Strategy,
    SweepRow,
    SweepTable,
    Task,
    TopologyError,
    Unit,
    build_units,
    calibrate,
    collective_time,
    frontier,
    get_model,
    make_plan,
    prepare_scenario,
    run_scenario,
    simulate_step,
    step_schedule,
    sweep,
)
from shardsim.collectives import group_nodes
from shardsim.engine import CalibratedParams, _Frontier, _geomspace, \
    _linspace, _Step
from shardsim.sharding import COMPUTE, FREE

warnings.simplefilter("ignore", UserWarning)

# 1 TFLOP/s at full efficiency and latency-free links: a task of n GFLOP runs
# n milliseconds, and an all-gather of 4e8 B over 2 intra ranks runs 4 ms.
LAB = ClusterSpec(num_nodes=1, peak_flops_per_gpu=1e12, compute_efficiency=1.0,
                  intra_node_latency=0.0, inter_node_latency=0.0)

META = dict(strategy=Strategy.no_shard(), policy=PrefetchPolicy(),
            world=8, local_batch=1)


def manual_schedule(tasks):
    return StepSchedule(tasks=tuple(tasks), **META)


def without_comm(sched):
    """`sched` with every collective moving 0 bytes: its makespan is the
    step's makespan with every collective at zero duration."""
    return replace(sched, tasks=tuple(replace(t, bytes=0) for t in sched.tasks))


class TestSimulateStep:
    def test_two_serial_computes(self):
        sched = manual_schedule([
            Task(0, "compute", "a", "forward", flops=10e9),
            Task(1, "compute", "b", "forward", flops=4e9, deps=(0,)),
        ])
        _, metrics = simulate_step(sched, LAB)
        assert metrics.step_seconds == pytest.approx(0.014, abs=1e-12)

    def test_prefetched_gather_overlaps_backward(self):
        overlapped = manual_schedule([
            Task(0, "compute", "b1", "backward", flops=10e9),
            Task(1, "all-gather", "b0", "backward", bytes=int(4e8), group=range(2)),
        ])
        _, metrics = simulate_step(overlapped, LAB)
        assert metrics.step_seconds == pytest.approx(0.010, abs=1e-12)
        assert metrics.comm_seconds_exposed == pytest.approx(0.0, abs=1e-12)

        serial = manual_schedule([
            Task(0, "compute", "b1", "backward", flops=10e9),
            Task(1, "all-gather", "b0", "backward", bytes=int(4e8), group=range(2),
                 deps=(0,)),
        ])
        _, metrics = simulate_step(serial, LAB)
        assert metrics.step_seconds == pytest.approx(0.014, abs=1e-12)
        assert metrics.comm_seconds_exposed == pytest.approx(0.004, abs=1e-12)

    def test_io_bound_step(self):
        sched = manual_schedule([Task(0, "compute", "a", "forward", flops=14e9)])
        # 1 image per rank at 50 images/s -> 20 ms input stage > 14 ms makespan
        _, metrics = simulate_step(sched, LAB, io=IoModel(50.0))
        assert metrics.io_seconds == pytest.approx(0.020)
        assert metrics.step_seconds == pytest.approx(0.020)
        # fast input: the step equals the synthetic makespan exactly
        _, fast = simulate_step(sched, LAB, io=IoModel(1e9))
        assert fast.step_seconds == pytest.approx(0.014, abs=1e-12)

    def test_stream_runs_in_issue_order(self):
        # Gather 2 is ready at once but was issued after gather 1, which
        # waits for the 10 ms compute: the stream runs 1, then 2.
        sched = manual_schedule([
            Task(0, "compute", "a", "forward", flops=10e9),
            Task(1, "all-gather", "b", "forward", bytes=int(4e8),
                 group=range(2), deps=(0,)),
            Task(2, "all-gather", "c", "forward", bytes=int(4e8),
                 group=range(2)),
        ])
        trace, _ = simulate_step(sched, LAB)
        assert trace.start == pytest.approx([0.0, 0.010, 0.014], abs=1e-12)
        assert trace.makespan == pytest.approx(0.018, abs=1e-12)

    def test_cyclic_schedule_rejected(self):
        with pytest.raises(ValueError):
            manual_schedule([
                Task(0, "compute", "a", "forward", flops=1e9, deps=(1,)),
                Task(1, "compute", "b", "forward", flops=1e9, deps=(0,)),
            ])

    @pytest.mark.parametrize("tasks", [
        [Task(0, "compute", "a", "forward", flops=1e9, deps=(-1,))],
        [Task(0, "compute", "a", "forward", flops=1e9),
         Task(1, "compute", "b", "forward", flops=1e9, deps=(0,)),
         Task(2, "compute", "c", "forward", flops=1e9, deps=(-1,))],
    ])
    def test_negative_dep_rejected(self, tasks):
        with pytest.raises(ValueError, match=f"task {tasks[-1].id}: deps"):
            manual_schedule(tasks)

    GATHER = Task(0, "all-gather", "a", "forward", bytes=8, group=range(2))

    @pytest.mark.parametrize("bad", [
        {"kind": "bogus"}, {"bytes": -1}, {"group": range(0)},
        {"group": range(1, -1, -1)}, {"group": range(0, -1, -1)},
    ])
    def test_bad_collective_rejected_on_a_seen_group(self, bad):
        # The bad task follows good ones on range(2) and on range(1), which
        # equals the descending singleton range(0, -1, -1); the schedule
        # refuses it when built.
        with pytest.raises(ValueError, match="task 2: "):
            manual_schedule([
                self.GATHER, replace(self.GATHER, id=1, group=range(1)),
                replace(self.GATHER, id=2, **bad)])

    @pytest.mark.parametrize("bad", [
        {"kind": "bogus"}, {"bytes": -1}, {"bytes": math.nan},
        {"bytes": math.inf}, {"bytes": 10**400},
    ])
    def test_bad_collective_rejected_after_a_good_one_on_its_group(self, bad):
        # Task 1 shares task 0's range object, whose group check passed; its
        # kind and bytes are still checked.
        with pytest.raises(ValueError, match="^task 1: "):
            manual_schedule([self.GATHER, replace(self.GATHER, id=1, **bad)])

    @pytest.mark.parametrize("flops", [-1e12, math.nan, math.inf, 10**400])
    def test_bad_compute_flops_rejected(self, flops):
        with pytest.raises(ValueError, match="^task 1: flops must be a finite "
                                             "number >= 0"):
            manual_schedule([
                Task(0, "compute", "a", "forward", flops=1e9),
                Task(1, "compute", "b", "forward", flops=flops, deps=(0,))])

    def test_negative_unit_flops_rejected(self):
        plan = make_plan((Unit("u", 100, -1e12, -2e12),),
                         Strategy.full_shard(), frontier(1))
        with pytest.raises(ValueError, match=r"^task \d+: flops must be "):
            step_schedule(plan, PrefetchPolicy(), local_batch=1)

    @pytest.mark.parametrize("nbytes", [-1.0, math.nan, math.inf, 10**400])
    def test_bad_collective_call_bytes_rejected(self, nbytes):
        with pytest.raises(ValueError, match="^payload bytes must be a finite "
                                             "number >= 0"):
            CollectiveCall("all-reduce", nbytes, range(2))

    def test_metrics_invariants(self):
        sched = step_schedule(
            make_plan(build_units(get_model("vit-base"), 8),
                      Strategy.full_shard(), frontier(2)),
            PrefetchPolicy(), local_batch=8)
        trace, metrics = simulate_step(sched, frontier(2))
        assert metrics.step_seconds >= metrics.compute_seconds
        assert 0.0 <= metrics.comm_fraction <= 1.0
        longest = max(
            collective_time(CollectiveCall(t.kind, t.bytes, t.group), frontier(2))
            for t in sched.collectives())
        assert metrics.step_seconds >= longest
        assert metrics.step_seconds >= metrics.comm_seconds_exposed
        assert trace.makespan == pytest.approx(metrics.step_seconds)


class TestDeterminism:
    def test_identical_traces(self):
        sched = step_schedule(
            make_plan(build_units(get_model("mae-base"), 4),
                      Strategy.hybrid(4), frontier(2)),
            PrefetchPolicy(), local_batch=4)
        t1, _ = simulate_step(sched, frontier(2), latency_scale=2.5)
        t2, _ = simulate_step(sched, frontier(2), latency_scale=2.5)
        assert t1 == t2


class TestTraceValidity:
    def trace_and_schedule(self):
        sched = step_schedule(
            make_plan(build_units(get_model("mae-base"), 4),
                      Strategy.hybrid(4), frontier(2)),
            PrefetchPolicy(), local_batch=4)
        return simulate_step(sched, frontier(2))[0], sched

    def test_no_overlap_on_any_resource(self):
        trace, _ = self.trace_and_schedule()
        by_resource = {}
        for event in trace.events:
            by_resource.setdefault(event.resource, []).append(event)
        for events in by_resource.values():
            events.sort(key=lambda e: (e.start, e.end))
            for first, second in zip(events, events[1:]):
                assert second.start >= first.end - 1e-15

    def test_dependencies_respected(self):
        trace, sched = self.trace_and_schedule()
        end_of = {e.task_id: e.end for e in trace.events}
        start_of = {e.task_id: e.start for e in trace.events}
        for task in sched.tasks:
            for dep in task.deps:
                assert start_of[task.id] >= end_of[dep] - 1e-15

    def test_trace_json_rows(self):
        trace, sched = self.trace_and_schedule()
        events = trace.events
        assert [e.task_id for e in events] == [t.id for t in sched.tasks]
        assert all(isinstance(e.resource, str) and e.resource for e in events)


class TestInfeasibleStillRuns:
    def test_oversized_plan_is_flagged_but_simulated(self):
        # 5B replicated with a two-moment optimizer cannot fit in 64 GiB.
        metrics = run_scenario(
            Scenario("vit-5b", Strategy.no_shard(), 1), frontier(1))
        assert not metrics.feasible
        assert metrics.step_seconds > 0
        assert metrics.images_per_second > 0


class TestOracle:
    def test_zero_comm_step_identical_across_strategies(self):
        units = build_units(get_model("vit-base"), 4)
        spec = frontier(2)
        makespans = set()
        for strategy in (Strategy.no_shard(), Strategy.full_shard(),
                         Strategy.hybrid(4)):
            sched = step_schedule(make_plan(units, strategy, spec),
                                  PrefetchPolicy(), local_batch=4)
            trace, _ = simulate_step(without_comm(sched), spec)
            makespans.add(round(trace.makespan, 15))
        assert len(makespans) == 1

    def test_serial_schedule_equals_closed_form(self):
        # NoPrefetch with an in-flight limit of one fully serializes the step.
        units = build_units(get_model("vit-base"), 2)
        spec = frontier(2)
        plan = make_plan(units, Strategy.full_shard(), spec)
        sched = step_schedule(
            plan, PrefetchPolicy(mode="none", max_inflight=1), local_batch=2)
        simulated = simulate_step(sched, spec)[0].makespan
        closed = sum(t.flops / spec.effective_flops_per_gpu
                     for t in sched.tasks if t.kind == "compute")
        closed += sum(
            collective_time(CollectiveCall(t.kind, t.bytes, t.group), spec)
            for t in sched.collectives())
        assert simulated == pytest.approx(closed, rel=1e-9)


def reference_run(resources, deps, durations):
    """Reference work-conserving list scheduler in its plainest form
    (dict-keyed ready heaps and busy flags, a `try_start` closure): at every
    completion, each idle resource starts its lowest-id ready task.  It need
    not keep a stream's issue order, but on the schedules `step_schedule`
    builds, and on DAGs that chain each stream, `_Step.run` must
    return exactly its start and end times."""
    n = len(resources)
    children = [[] for _ in range(n)]
    for tid, task_deps in enumerate(deps):
        for d in task_deps:
            children[d].append(tid)
    remaining = [len(d) for d in deps]
    ready = {}
    busy = {}
    start = [0.0] * n
    end = [0.0] * n
    running = []
    scheduled = 0

    def try_start(resource, now):
        nonlocal scheduled
        heap = ready.get(resource)
        if not heap or busy.get(resource):
            return
        tid = heapq.heappop(heap)
        start[tid] = now
        end[tid] = now + durations[tid]
        busy[resource] = True
        heapq.heappush(running, (end[tid], tid))
        scheduled += 1

    for tid in range(n):
        if remaining[tid] == 0:
            heapq.heappush(ready.setdefault(resources[tid], []), tid)
    for resource in list(ready):
        try_start(resource, 0.0)

    while running:
        now, tid = heapq.heappop(running)
        resource = resources[tid]
        busy[resource] = False
        for child in children[tid]:
            remaining[child] -= 1
            if remaining[child] == 0:
                child_resource = resources[child]
                heapq.heappush(ready.setdefault(child_resource, []), child)
                try_start(child_resource, now)
        try_start(resource, now)

    if scheduled != n:
        raise ValueError("schedule contains unreachable tasks (dependency cycle)")
    return start, end


# The group of each communication stream of `dag_schedule`, on LAB's 8 ranks.
STREAM_GROUPS = (None, range(0, 2), range(2, 4), range(4, 6))


def dag_schedule(resources, deps, frees=()):
    """A hand-built schedule: a compute task where the resource is 0, else an
    all-gather on that resource's group in `STREAM_GROUPS`, and a FREE at
    each id in `frees`.  Each task has its own flops or bytes, so its own
    term."""
    return manual_schedule(
        Task(tid, "free", f"u{tid}", "forward", deps=tuple(d))
        if tid in frees else
        Task(tid, "compute", f"u{tid}", "forward", flops=1e9 * (tid + 1),
             deps=tuple(d))
        if r == 0 else
        Task(tid, "all-gather", f"u{tid}", "forward", bytes=tid + 1,
             group=STREAM_GROUPS[r], deps=tuple(d))
        for tid, (r, d) in enumerate(zip(resources, deps)))


def task_terms(step):
    """Each task's term, read through the step's task-to-record map: its
    record's, or the zero term for a folded FREE, which owns no record."""
    terms = []
    owned = 0
    for r in step.task_records:
        if r == owned:
            terms.append(step.records[r][3])
            owned += 1
        else:
            terms.append(0)
    return terms


def task_costs(step, durations):
    """Per-term costs that give each task of a step whose tasks each have
    their own term, but for folded FREEs at 0.0, its duration in
    `durations`."""
    costs = [0.0] * len(step.durations(1.0, 1.0))
    for term, duration in zip(task_terms(step), durations):
        costs[term] = duration
    return costs


def task_durations(step, costs):
    """Each task's duration under per-term `costs`."""
    return [costs[term] for term in task_terms(step)]


def task_run(step, costs):
    """Each task's start and end time under per-term `costs`, the starts
    rebuilt from the run's ends."""
    return step.task_times(step.run(costs))


def assert_valid_timeline(schedule, resources, start, end):
    """Each stream runs its tasks one at a time in task-id order, so no two
    overlap, and every dep ends before its dependant starts."""
    last = {}
    for tid, resource in enumerate(resources):
        if resource in last:
            assert start[tid] >= end[last[resource]]
        last[resource] = tid
    for task in schedule.tasks:
        for dep in task.deps:
            assert start[task.id] >= end[dep]


@st.composite
def random_dags(draw, chain_streams=True):
    """Tasks on up to four streams, deps only to lower ids, and durations from
    a small set with 0.0 and repeats, so ties are common.  With
    `chain_streams`, each task also depends on the task before it on its
    stream."""
    n = draw(st.integers(1, 40))
    n_resources = draw(st.integers(1, len(STREAM_GROUPS)))
    resources = [draw(st.integers(0, n_resources - 1)) for _ in range(n)]
    deps = []
    last = {}
    for tid, resource in enumerate(resources):
        task_deps = draw(st.sets(st.integers(0, tid - 1), max_size=3)) \
            if tid else set()
        if chain_streams and resource in last:
            task_deps.add(last[resource])
        last[resource] = tid
        deps.append(sorted(task_deps))
    durations = [draw(st.sampled_from((0.0, 0.0, 1.0, 1.0, 0.1, 0.2, 0.3, 2.5)))
                 for _ in range(n)]
    return resources, deps, durations


class TestEventLoop:
    @settings(max_examples=300, deadline=None)
    @given(random_dags())
    def test_matches_reference_scheduler(self, dag):
        resources, deps, durations = dag
        step = _Step(dag_schedule(resources, deps), LAB)
        assert task_run(step, task_costs(step, durations)) == \
            reference_run(resources, deps, durations)


@st.composite
def free_dags(draw):
    """Tasks on up to four streams with FREE tasks on the compute stream:
    FREEs whose one dep is their stream's latest task, with no deps, with
    several deps, first on the stream, and depended on by later tasks.
    Returns the resources, each task's deps as built, the FREE ids, each
    task's deps plus the task before it on its stream (what issue order
    means), and durations with every FREE at 0.0."""
    n = draw(st.integers(1, 40))
    n_resources = draw(st.integers(1, len(STREAM_GROUPS)))
    resources, deps, chained, frees = [], [], [], set()
    last = {}
    for tid in range(n):
        resource = draw(st.integers(0, n_resources - 1))
        previous = last.get(resource)
        if resource == 0 and draw(st.booleans()):
            frees.add(tid)
            form = draw(st.sampled_from(("follows", "none", "several")))
            if form == "follows":
                task_deps = {previous} if previous is not None else set()
            elif form == "none":
                task_deps = set()
            else:
                task_deps = draw(st.sets(st.integers(0, tid - 1), min_size=2,
                                         max_size=3)) if tid > 1 else set()
        else:
            # Any earlier task, FREEs included, may be a dep.
            task_deps = draw(st.sets(st.integers(0, tid - 1), max_size=3)) \
                if tid else set()
        resources.append(resource)
        deps.append(sorted(task_deps))
        chained.append(sorted(task_deps | ({previous} - {None})))
        last[resource] = tid
    durations = [0.0 if tid in frees else
                 draw(st.one_of(st.sampled_from((0.0, 1.0, 0.5, 2.5)),
                                st.floats(0.0, 10.0)))
                 for tid in range(n)]
    return resources, deps, frees, chained, durations


class TestFreeRule:
    @settings(max_examples=400, deadline=None)
    @given(free_dags())
    def test_free_tasks_keep_issue_order(self, dag):
        """A FREE that only follows its stream's latest task is folded: it
        has no record and stays out of the chain; every other FREE is in
        it.  Either way each stream runs its tasks in issue order."""
        resources, deps, frees, chained, durations = dag
        step = _Step(dag_schedule(resources, deps, frees), LAB)
        assert task_run(step, task_costs(step, durations)) == \
            reference_run(resources, chained, durations)

    @pytest.mark.parametrize("strategy, tasks, records", [
        (Strategy.hybrid(2), 520, 390),
        (Strategy.full_shard(), 455, 325),
    ])
    def test_published_5b_frees_have_no_record(self, strategy, tasks,
                                               records):
        schedule, _, spec = prepare_scenario(
            Scenario("mae-5b", strategy, 32), frontier(1))
        step = _Step(schedule, spec)
        assert (len(schedule.tasks), len(step.records)) == (tasks, records)
        assert len(step.task_records) == tasks


@st.composite
def plans(draw):
    """A plan over 1-8 random units, any strategy and node count, and any
    prefetch policy."""
    units = []
    for i in range(draw(st.integers(1, 8))):
        forward = draw(st.integers(1, 100)) * 1e8
        units.append(Unit(f"u{i}", draw(st.integers(1, 50_000)), forward,
                          2 * forward))
    spec = frontier(draw(st.sampled_from((1, 2, 4, 8))))
    # Shard groups that tile the world and nest within or span whole nodes.
    hybrid_sizes = (g for g in (1, 2, 4, 8, 16)
                    if spec.world_size % g == 0 and (g > 8 or 8 % g == 0))
    strategy = draw(st.sampled_from((
        Strategy.no_shard(), Strategy.full_shard(), Strategy.grad_op_shard(),
        Strategy.replicated(bucket_bytes=8_000), Strategy.replicated(),
        *map(Strategy.hybrid, hybrid_sizes))))
    policy = PrefetchPolicy(
        mode=draw(st.sampled_from(("none", "backward-post", "backward-pre"))),
        limit_all_gathers=draw(st.booleans()),
        max_inflight=draw(st.integers(1, 4)))
    return make_plan(tuple(units), strategy, spec), policy


@st.composite
def step_schedules(draw):
    """A `step_schedule` output of a `plans` output, with the cluster it was
    planned on."""
    plan, policy = draw(plans())
    return step_schedule(plan, policy, local_batch=1), plan.cluster


@st.composite
def step_cases(draw):
    """A `step_schedules` output compiled on its cluster, with per-term costs
    that are grid-like with zeros, random, or the model's own at a random
    compute efficiency and latency scale; the zero term costs 0.0."""
    schedule, spec = draw(step_schedules())
    step = _Step(schedule, spec)
    n = len(step.durations(1.0, 1.0))
    kind = draw(st.sampled_from(("grid", "random", "model")))
    if kind == "grid":
        costs = draw(st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0)),
                              min_size=n, max_size=n))
    elif kind == "random":
        costs = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    else:
        costs = step.durations(
            spec.peak_flops_per_gpu * draw(st.floats(0.05, 1.0)),
            draw(st.floats(0.1, 50.0)))
    costs[0] = 0.0
    return schedule, step, costs


class TestIssueOrder:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    def test_step_schedules_match_list_scheduler(self, case):
        schedule, step, costs = case
        start, end = task_run(step, costs)
        assert (start, end) == reference_run(
            step.resources, [t.deps for t in schedule.tasks],
            task_durations(step, costs))
        assert_valid_timeline(schedule, step.resources, start, end)

    @settings(max_examples=100, deadline=None)
    @given(random_dags(chain_streams=False))
    def test_any_dag_gives_a_valid_timeline(self, dag):
        resources, deps, durations = dag
        schedule = dag_schedule(resources, deps)
        step = _Step(schedule, LAB)
        assert_valid_timeline(schedule, resources,
                              *task_run(step, task_costs(step, durations)))


class TestRecordEnds:
    """`run` keeps ends only: the makespan comes from the stream tails and
    the trace rebuilds each start from its record's preds."""

    @settings(max_examples=200, deadline=None)
    @given(step_schedules(), st.data())
    def test_tails_and_rebuilt_starts(self, case, data):
        schedule, spec = case
        step = _Step(schedule, spec)
        n = len(step.durations(1.0, 1.0))
        costs = data.draw(st.lists(
            st.one_of(st.floats(0.0, 1e3),
                      st.sampled_from((0.0, 1.0, math.inf))),
            min_size=n, max_size=n))
        costs[0] = 0.0      # the zero term
        end = step.run(costs)
        assert step.makespan(end) == max(end, default=0.0)
        assert step.task_times(end) == reference_run(
            step.resources, [t.deps for t in schedule.tasks],
            task_durations(step, costs))


def sweep_groups(plan):
    """Rank 0's shard and replica groups, singletons dropped, in that order:
    the groups `sweep` binds a step to."""
    return [g for g in (plan.groups.shard_group_of(0),
                        plan.groups.replica_group_of(0)) if len(g) > 1]


def singletons(plan):
    """Whether rank 0's shard and replica groups are single ranks."""
    return [len(plan.groups.shard_group_of(0)) == 1,
            len(plan.groups.replica_group_of(0)) == 1]


def stream_names(schedule, cluster):
    """The name of each task's stream: compute and FREE tasks run on
    "compute", a collective on the stream of its group."""
    names = []
    for task in schedule.tasks:
        group = task.group
        if task.kind in (COMPUTE, FREE):
            names.append("compute")
            continue
        link = "inter" if group_nodes(group, cluster) > 1 else "intra"
        stride = group.step if len(group) > 1 else 0
        names.append(f"comm:{link}:{group.start}+{stride}x{len(group)}")
    return names


def trace_of(schedule, step):
    """The trace of `step`, compiled from `schedule`, at unit costs."""
    return EventTrace(schedule, step,
                      *task_run(step, step.durations(1.0, 1.0)))


def other_plan(plan, nodes):
    """`plan`'s units and strategy on `nodes` nodes, with the same stream
    shape, or an unsatisfied assumption."""
    try:
        other = make_plan(plan.units, plan.strategy, frontier(nodes))
    except TopologyError:
        assume(False)
    assume(singletons(plan) == singletons(other))
    return other


class TestStreams:
    """What `sweep`'s rebinding rests on."""

    @settings(max_examples=300, deadline=None)
    @given(plans())
    def test_streams_are_rank0_groups_in_order(self, case):
        plan, policy = case
        step = _Step(step_schedule(plan, policy, local_batch=1), plan.cluster)
        assert step.groups == tuple(sweep_groups(plan))

    @settings(max_examples=200, deadline=None)
    @given(plans(), st.sampled_from((1, 2, 4, 8)),
           st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.1, 50.0)),
                    min_size=3, max_size=3))
    def test_bind_matches_fresh_step(self, case, nodes, tunings):
        plan, policy = case
        other = other_plan(plan, nodes)
        schedule = step_schedule(plan, policy, local_batch=1)
        bound = _Step(schedule, plan.cluster).bind(sweep_groups(other),
                                                   other.cluster)
        fresh_schedule = step_schedule(other, policy, local_batch=1)
        fresh = _Step(fresh_schedule, other.cluster)
        assert bound.groups == fresh.groups
        assert trace_of(schedule, bound).resources == \
            trace_of(fresh_schedule, fresh).resources
        assert bound.records == fresh.records
        peak = other.cluster.peak_flops_per_gpu
        for efficiency, scale in tunings:
            flops = peak * efficiency
            assert [d.hex() for d in bound.durations(flops, scale)] == \
                [d.hex() for d in fresh.durations(flops, scale)]


class TestTraceView:
    """An `EventTrace` carries its schedule and step and names each task's
    stream on read."""

    @settings(max_examples=200, deadline=None)
    @given(plans(), st.sampled_from((1, 2, 4, 8)))
    def test_resources_name_each_task_stream(self, case, nodes):
        plan, policy = case
        schedule = step_schedule(plan, policy, local_batch=1)
        trace, _ = simulate_step(schedule, plan.cluster)
        assert trace.schedule is schedule
        assert trace.resources == stream_names(schedule, plan.cluster)
        other = other_plan(plan, nodes)
        bound = trace.step.bind(sweep_groups(other), other.cluster)
        assert trace_of(schedule, bound).resources == stream_names(
            step_schedule(other, policy, local_batch=1), other.cluster)


@st.composite
def ordered_pairs(draw, low, high):
    """`a <= b` in [low, high]: independent, equal, or adjacent floats."""
    a, b = sorted(draw(st.lists(st.floats(low, high), min_size=2,
                                max_size=2)))
    return draw(st.sampled_from(
        ((a, b), (a, a), (a, math.nextafter(a, 2 * high)))))


class TestMonotoneTiming:
    """What `calibrate`'s quadrant pruning rests on: a step's simulated
    makespan never rises as compute efficiency rises and never falls as the
    latency scale rises, exactly in floating point."""

    @settings(max_examples=200, deadline=None)
    @given(step_schedules(), ordered_pairs(0.01, 1.0),
           ordered_pairs(0.01, 64.0))
    def test_makespan_monotone(self, case, efficiencies, scales):
        schedule, spec = case
        step = _Step(schedule, spec)

        def makespan(efficiency, scale):
            costs = step.durations(spec.peak_flops_per_gpu * efficiency, scale)
            return step.makespan(step.run(costs))

        (e_low, e_high), (s_low, s_high) = efficiencies, scales
        for s in scales:
            assert makespan(e_high, s) <= makespan(e_low, s)
        for e in efficiencies:
            assert makespan(e, s_low) <= makespan(e, s_high)


class TestZeroCommIdentity:
    @pytest.mark.parametrize("nodes", (1, 2, 4))
    @pytest.mark.parametrize("limit", (True, False))
    @pytest.mark.parametrize("prefetch", ("none", "backward-post",
                                          "backward-pre"))
    @pytest.mark.parametrize("strategy", ("full", "hybrid2", "hybrid8",
                                          "grad-op", "ddp", "no-shard"))
    def test_zero_comm_makespan_is_compute_seconds(self, strategy, prefetch,
                                                   limit, nodes):
        spec = frontier(nodes)
        plan = make_plan(build_units(get_model("vit-base"), 4),
                         Strategy.parse(strategy), spec)
        sched = step_schedule(
            plan, PrefetchPolicy(mode=prefetch, limit_all_gathers=limit),
            local_batch=4)
        trace, metrics = simulate_step(sched, spec)
        zero, _ = simulate_step(without_comm(sched), spec)
        assert zero.makespan == metrics.compute_seconds
        assert metrics.comm_seconds_exposed == \
            max(0.0, trace.makespan - metrics.compute_seconds)
        assert metrics.comm_fraction == \
            metrics.comm_seconds_exposed / trace.makespan


class TestBadScales:
    SCHED = manual_schedule([Task(0, "compute", "a", "forward", flops=1e9)])

    @pytest.mark.parametrize("scale", (0.0, -5.0, math.nan, math.inf))
    def test_latency_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match="latency_scale"):
            simulate_step(self.SCHED, LAB, latency_scale=scale)

    @pytest.mark.parametrize("rate", (0.0, -1.0, math.nan, math.inf))
    def test_io_rate_rejected(self, rate):
        with pytest.raises(ConfigError):
            IoModel(rate)


class TestNonFiniteStep:
    """A step whose time overflows names the cluster field behind its
    largest term: peak flops for compute, and for a collective its
    bottleneck bandwidth or its link's latency."""

    @pytest.mark.parametrize("field, nodes, changes, scale", [
        ("peak_flops_per_gpu", 2, {"peak_flops_per_gpu": 1e-308}, 1.0),
        ("intra_node_bw", 2, {"intra_node_bw": 1e-308}, 1.0),
        ("inter_node_bw", 2, {"inter_node_bw": 1e-308}, 1.0),
        ("inter_node_latency", 2, {"inter_node_latency": 1e307}, 1.0),
        ("inter_node_latency", 2, {"inter_node_latency": 1.0}, 1e308),
        ("intra_node_latency", 1, {"intra_node_latency": 1e307}, 1.0),
    ])
    def test_overflow_names_the_field(self, field, nodes, changes, scale):
        spec = replace(frontier(nodes), **changes)
        sched, mem, _ = prepare_scenario(
            Scenario("vit-base", Strategy.full_shard(), nodes), spec)
        with pytest.raises(ConfigError, match=f"^{field}: "):
            simulate_step(sched, spec, latency_scale=scale, memory=mem)
        with pytest.raises(ConfigError, match=f"^{field}: "):
            sweep(["vit-base"], [Strategy.full_shard()], [nodes], spec,
                  latency_scale=scale)

    def test_tiny_io_rate_names_it(self):
        spec = frontier(2)
        sched, _, _ = prepare_scenario(
            Scenario("vit-base", Strategy.full_shard(), 2), spec)
        io = IoModel(1e-308)
        with pytest.raises(ConfigError, match="^io_rate: 1e-308 "):
            simulate_step(sched, spec, io=io)
        with pytest.raises(ConfigError, match="^io_rate: 1e-308 "):
            sweep(["vit-base"], [Strategy.full_shard()], [2], spec, io=io)

    def test_calibrate_refuses_a_peak_that_prices_no_flops(self):
        observations = [(Scenario("vit-base", Strategy.no_shard(), 1), 500.0),
                        (Scenario("vit-base", Strategy.no_shard(), 4), 1800.0)]
        spec = replace(frontier(1), peak_flops_per_gpu=2e-323)
        with pytest.raises(ConfigError, match="^peak_flops_per_gpu: 2e-323 "):
            calibrate(observations, spec)


class TestCommFraction:
    def test_zero_byte_collectives(self):
        sched = manual_schedule([
            Task(0, "compute", "a", "forward", flops=1e9),
            Task(1, "all-reduce", "a", "backward", bytes=0, group=range(2), deps=(0,)),
        ])
        _, metrics = simulate_step(sched, LAB)
        assert metrics.comm_fraction == 0.0

    def test_nondecreasing_in_node_count(self):
        fractions = []
        for nodes in (1, 4, 16, 64):
            metrics = run_scenario(
                Scenario("mae-3b", Strategy.no_shard(), nodes), frontier(1))
            fractions.append(metrics.comm_fraction)
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


class TestInflightLimit:
    def test_no_two_gathers_overlap_with_limit_one(self):
        units = build_units(get_model("vit-base"), 4)
        spec = frontier(2)
        plan = make_plan(units, Strategy.full_shard(), spec)
        sched = step_schedule(
            plan, PrefetchPolicy(mode="backward-pre", max_inflight=1),
            local_batch=4)
        trace, _ = simulate_step(sched, spec)
        gathers = sorted(
            (e for e in trace.events
             if sched.tasks[e.task_id].kind == "all-gather"),
            key=lambda e: e.start)
        for first, second in zip(gathers, gathers[1:]):
            assert second.start >= first.end - 1e-15


class TestSweepContract:
    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], [Strategy.no_shard()], [1], frontier(1))
        with pytest.raises(ConfigError):
            sweep(["vit-base"], [], [1], frontier(1))
        with pytest.raises(ConfigError):
            sweep(["vit-base"], [Strategy.no_shard()], [], frontier(1))

    def test_ideal_column_scales_first_feasible(self):
        table = sweep(["vit-5b"], [Strategy.hybrid(16)], [1, 2, 4], frontier(1))
        rows = table.rows
        assert not rows[0].feasible and rows[0].ips is None  # 16 > 8 ranks
        assert rows[1].feasible
        assert rows[2].ideal_ips == pytest.approx(rows[1].ips * 2, abs=0.2)

    def test_ideal_column_scales_fewest_nodes(self):
        table = sweep(["vit-base"], [Strategy.full_shard()], [4, 2, 1],
                      frontier(1))
        assert [r.nodes for r in table.rows] == [4, 2, 1]
        base = table.rows[-1]
        assert base.ideal_ips == base.ips
        for row in table.rows:
            assert row.ips <= row.ideal_ips
            assert row.ideal_ips == pytest.approx(base.ips * row.nodes,
                                                  abs=0.3)

    @pytest.mark.parametrize("scale", (math.nan, 0.0))
    def test_bad_latency_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match="latency_scale"):
            sweep(["vit-base"], [Strategy.full_shard()], [1, 2, 2],
                  frontier(1), latency_scale=scale)
        # Every row infeasible: no row is timed, the scale is still checked.
        with pytest.raises(ConfigError, match="latency_scale"):
            sweep(["vit-base"], [Strategy.hybrid(16)], [1], frontier(1),
                  latency_scale=scale)

    def test_one_schedule_per_shape(self, monkeypatch):
        from shardsim import engine
        built = Counter()
        original = engine.step_schedule

        def counted(plan, *args, **kwargs):
            built[plan.strategy.label] += 1
            return original(plan, *args, **kwargs)

        monkeypatch.setattr(engine, "step_schedule", counted)
        strategies = [Strategy.parse(s) for s in (
            "full", "grad-op", "hybrid8", "hybrid16", "hybrid1", "ddp",
            "no-shard")]
        nodes = [1, 2, 4, 16, 2, 1]
        table = sweep(["vit-base", "mae-base"], strategies, nodes, frontier(1))
        assert len(table.rows) == 2 * len(strategies) * len(nodes)
        # Per model: full, grad-op, ddp and no-shard have one shape on 8+
        # ranks; hybrid8's replica group is a singleton only on 1 node, and
        # hybrid16's only on 2 (it cannot be built on 1); hybrid1 is no-shard.
        assert built == {"full": 2, "grad-op": 2, "hybrid8": 4,
                         "hybrid16": 4, "ddp": 2, "no-shard": 4}

    def test_throughput_never_beats_ideal(self):
        table = sweep(["vit-base", "mae-base"],
                      [Strategy.no_shard(), Strategy.full_shard(),
                       Strategy.hybrid(4)],
                      [1, 2, 4, 8, 16], frontier(1))
        for row in table.rows:
            assert row.ips <= row.ideal_ips


class TestSweepCsv:
    TABLE = SweepTable((
        SweepRow("vit-base", "full", 1, 1234.56, 1234.56, 0.123456, 1.2345,
                 True),
        SweepRow("vit-base", "hybrid16", 1, None, None, None, None, False)))

    def test_row_keeps_metrics_at_printed_precision(self):
        row = self.TABLE.rows[0]
        assert (row.ips, row.ideal_ips, row.comm_fraction, row.peak_gb) == \
            (1234.6, 1234.6, 0.1235, 1.23)
        assert SweepTable.from_csv(self.TABLE.to_csv()) == self.TABLE

    @pytest.mark.parametrize("row,problem", [
        ("vit-base,full,1", "expected 8 cells, got 3"),
        ("vit-base,full,1,1.0,1.0,0.1000,1.00,yes,1", "expected 8 cells, got 9"),
        ("vit-base,full,1,1.0,1.0,0.1000,1.00,maybe",
         "feasible must be yes or no, got 'maybe'"),
    ])
    def test_malformed_row_names_its_line(self, row, problem):
        text = self.TABLE.to_csv() + row + "\n"
        with pytest.raises(ValueError, match="^sweep CSV line 4: "
                           + re.escape(problem) + "$"):
            SweepTable.from_csv(text)


@st.composite
def sweep_cases(draw):
    """Random presets x strategies x a prefetch policy x an unsorted node
    list with repeats, with or without an input stage and latency scaling."""
    models = draw(st.lists(st.sampled_from(
        ("vit-base", "mae-base", "vit-large", "mae-large")),
        min_size=1, max_size=2, unique=True))
    strategies = draw(st.lists(st.sampled_from(
        ("full", "grad-op", "ddp", "no-shard", "hybrid1", "hybrid2",
         "hybrid4", "hybrid8", "hybrid16", "hybrid32")),
        min_size=1, max_size=3, unique=True))
    nodes = draw(st.lists(st.sampled_from((1, 2, 3, 4, 8, 16)),
                          min_size=1, max_size=5))
    policy = PrefetchPolicy(
        mode=draw(st.sampled_from(("none", "backward-post", "backward-pre"))),
        limit_all_gathers=draw(st.booleans()),
        max_inflight=draw(st.integers(1, 3)))
    io = draw(st.sampled_from((None, IoModel(100.0), IoModel(1e4))))
    latency_scale = draw(st.sampled_from((0.5, 1.0, 8.0)))
    local_batch = draw(st.sampled_from((1, 8, 32)))
    return (models, [Strategy.parse(s) for s in strategies], nodes, policy,
            io, latency_scale, local_batch)


class TestSweepReuse:
    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_rows_match_fresh_scenarios(self, case):
        models, strategies, nodes, policy, io, latency_scale, batch = case
        table = sweep(models, strategies, nodes, frontier(1), policy=policy,
                      local_batch=batch, io=io, latency_scale=latency_scale)
        expected = [(m, s, n) for m in models for s in strategies
                    for n in nodes]
        assert [(r.model, r.strategy, r.nodes) for r in table.rows] == \
            [(m, s.label, n) for m, s, n in expected]
        for row, (model, strategy, n) in zip(table.rows, expected):
            scenario = Scenario(model, strategy, n, local_batch=batch,
                                policy=policy)
            try:
                fresh = run_scenario(scenario, frontier(1), io=io,
                                     latency_scale=latency_scale)
            except TopologyError:
                assert (row.ips, row.comm_fraction, row.peak_gb,
                        row.feasible) == (None, None, None, False)
                continue
            assert row.ips == round(fresh.images_per_second, 1)
            assert row.comm_fraction == round(fresh.comm_fraction, 4)
            assert row.peak_gb == round(
                fresh.peak_memory.total_bytes / 1024**3, 2)
            assert row.feasible == fresh.feasible


class TestCalibrate:
    def test_round_trip_recovers_parameters(self):
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
        assert fitted.compute_efficiency == pytest.approx(true_eff, rel=0.05)
        assert fitted.effective_latency_scale == pytest.approx(true_scale, rel=0.05)
        assert fitted.residual < 1e-3

    def test_single_observation_warns(self):
        spec = frontier(1)
        scenario = Scenario("vit-base", Strategy.no_shard(), 1)
        with pytest.warns(UserWarning, match="ill-posed"):
            calibrate([(scenario, 1000.0)], spec, refinement_rounds=0,
                      efficiency_grid=[0.3, 0.5], latency_scale_grid=[1.0])

    def test_degenerate_observations_warn(self):
        spec = frontier(1)
        scenario = Scenario("vit-base", Strategy.no_shard(), 1)
        with pytest.warns(UserWarning, match="ill-posed"):
            calibrate([(scenario, 1000.0), (scenario, 1000.0)], spec,
                      refinement_rounds=0, efficiency_grid=[0.3, 0.5],
                      latency_scale_grid=[1.0])

    def test_residual_reported(self):
        spec = frontier(1)
        observations = [
            (Scenario("vit-base", Strategy.no_shard(), 1), 500.0),
            (Scenario("vit-base", Strategy.no_shard(), 4), 1800.0),
        ]
        fitted = calibrate(observations, spec, refinement_rounds=1)
        assert fitted.residual >= 0.0

    TWO_POINTS = ((Scenario("vit-base", Strategy.no_shard(), 1), 500.0),
                  (Scenario("vit-base", Strategy.no_shard(), 4), 1800.0))

    @pytest.mark.parametrize("measured", (math.nan, math.inf, 0.0, -5.0))
    def test_bad_measured_ips_names_observation(self, measured):
        first, (scenario, _) = self.TWO_POINTS
        with pytest.raises(ConfigError, match=r"observations\[1\]"):
            calibrate([first, (scenario, measured)], frontier(1),
                      refinement_rounds=0)

    def test_overflowing_loss_names_observations(self):
        # A relative error above ~1.3e154 overflows when squared: that
        # candidate cannot win, and with no finite loss there is no fit.
        first, (scenario, _) = self.TWO_POINTS
        with pytest.raises(ConfigError, match="^observations: "):
            calibrate([first, (scenario, 1e-300)], frontier(1),
                      refinement_rounds=1)

    def test_unbuildable_observation_names_it(self):
        first, _ = self.TWO_POINTS
        unbuildable = Scenario("vit-base", Strategy.hybrid(16), 1)
        with pytest.raises(TopologyError, match=r"^observations\[1\]: shard "
                           "group size 16 does not divide world size 8$"):
            calibrate([first, (unbuildable, 500.0)], frontier(1),
                      refinement_rounds=0)
        unknown = Scenario("vit-bse", Strategy.full_shard(), 1)
        with pytest.raises(ConfigError, match=r"^observations\[1\]: unknown "
                           "model preset 'vit-bse'$"):
            calibrate([first, (unknown, 500.0)], frontier(1),
                      refinement_rounds=0)
        empty = Scenario("vit-base", Strategy.full_shard(), 1, local_batch=0)
        with pytest.raises(ConfigError, match=r"^observations\[1\]: batch "
                           "must be >= 1, got 0$"):
            calibrate([first, (empty, 500.0)], frontier(1),
                      refinement_rounds=0)

    @pytest.mark.parametrize("grid", ([0.0, 0.5], [0.5, 1.5], [math.nan], []))
    def test_efficiency_grid_outside_unit_interval_rejected(self, grid):
        with pytest.raises(ConfigError, match="efficiency_grid"):
            calibrate(self.TWO_POINTS, frontier(1), efficiency_grid=grid)

    @pytest.mark.parametrize("grid", ([1.0, 0.0], [-1.0], [math.inf], []))
    def test_bad_latency_scale_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="latency_scale_grid"):
            calibrate(self.TWO_POINTS, frontier(1), latency_scale_grid=grid)


def reference_calibrate(observations, cluster, efficiency_grid,
                        latency_scale_grid, refinement_rounds):
    """`calibrate` without pruning: every candidate's loss is the full sum
    over all observations, each from its own `simulate_step`; `calibrate`
    must return exactly its result."""
    prepared = [(prepare_scenario(scenario, cluster), measured)
                for scenario, measured in observations]

    def loss(efficiency, scale):
        total = 0.0
        for (sched, _, spec), measured in prepared:
            _, metrics = simulate_step(
                sched, replace(spec, compute_efficiency=efficiency),
                latency_scale=scale)
            total += ((metrics.images_per_second - measured) / measured) ** 2
        return total

    def scan(best, eff_grid, scale_grid):
        for e in eff_grid:
            for s in scale_grid:
                value = loss(e, s)
                if value < best[0]:
                    best = (value, e, s)
        return best

    best = scan((float("inf"), efficiency_grid[0], latency_scale_grid[0]),
                efficiency_grid, latency_scale_grid)
    e_step = (efficiency_grid[-1] - efficiency_grid[0]) \
        / max(len(efficiency_grid) - 1, 1)
    s_width = (latency_scale_grid[-1] / latency_scale_grid[0]) \
        ** (1 / max(len(latency_scale_grid) - 1, 1))
    for _ in range(refinement_rounds):
        _, e0, s0 = best
        best = scan(best,
                    [min(max(e, 1e-3), 1.0)
                     for e in _linspace(e0 - e_step, e0 + e_step, 9)],
                    _geomspace(s0 / s_width, s0 * s_width, 9))
        e_step /= 4.0
        s_width **= 0.25
    return CalibratedParams(best[1], best[2], best[0])


CALIBRATE_SCENARIOS = (
    Scenario("vit-base", Strategy.no_shard(), 1, local_batch=4),
    Scenario("vit-base", Strategy.full_shard(), 2, local_batch=4),
    Scenario("vit-base", Strategy.hybrid(4), 1, local_batch=4),
    Scenario("vit-base", Strategy.full_shard(), 1, local_batch=4),
)


@st.composite
def calibration_problems(draw):
    """2-4 vit-base observations on unsorted grids of 2-4 values that may
    repeat.  Each measured ips is the simulated ips at one grid point times
    a factor that is often exactly 1, so zero losses and ties between
    candidates (which the strict `<` breaks) are common, and otherwise off
    the model, so no candidate fits every observation."""
    efficiency_grid = draw(st.lists(
        st.sampled_from((0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0)),
        min_size=2, max_size=4))
    scale_grid = draw(st.lists(
        st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 16.0)),
        min_size=2, max_size=4))
    true_eff = draw(st.sampled_from(efficiency_grid))
    true_scale = draw(st.sampled_from(scale_grid))
    scenarios = draw(st.lists(st.sampled_from(CALIBRATE_SCENARIOS),
                              min_size=2, max_size=4, unique=True))
    observations = []
    for scenario in scenarios:
        factor = draw(st.one_of(st.just(1.0), st.floats(0.25, 4.0)))
        ips = run_scenario(scenario, frontier(1), compute_efficiency=true_eff,
                           latency_scale=true_scale).images_per_second
        observations.append((scenario, ips * factor))
    rounds = draw(st.integers(0, 3))
    return observations, efficiency_grid, scale_grid, rounds


# Point coordinates, so ties are common, with two adjacent floats.
FRONTIER_VALUES = (0.1, 0.25, 0.5, math.nextafter(0.5, 1.0), 1.0, 4.0)


class TestFrontier:
    """What `calibrate`'s quadrant skip rests on: a frontier rules out what
    a scan of every point added to it does."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("fast", "slow", "query")),
                              st.sampled_from(FRONTIER_VALUES),
                              st.sampled_from(FRONTIER_VALUES)),
                    max_size=40))
    def test_skip_matches_scan_of_every_point(self, ops):
        too_fast, too_slow = _Frontier(), _Frontier()
        fast, slow = [], []

        def check(e, s):
            assert too_fast.rules_out(e, s) == \
                any(e >= e1 and s <= s1 for e1, s1 in fast)
            assert too_slow.rules_out(-e, -s) == \
                any(e <= e1 and s >= s1 for e1, s1 in slow)

        for kind, e, s in ops:
            if kind == "fast":
                too_fast.add(e, s)
                fast.append((e, s))
            elif kind == "slow":
                too_slow.add(-e, -s)
                slow.append((e, s))
            check(e, s)
        for frontier_ in (too_fast, too_slow):
            assert frontier_.es == sorted(set(frontier_.es))
            assert frontier_.ss == sorted(set(frontier_.ss))
        for e in FRONTIER_VALUES:
            for s in FRONTIER_VALUES:
                check(e, s)


def count_simulations(monkeypatch):
    """Count `_Step.run` calls from here on."""
    calls = [0]
    run = _Step.run

    def counted(self, costs):
        calls[0] += 1
        return run(self, costs)

    monkeypatch.setattr(_Step, "run", counted)
    return calls


class TestCalibratePruning:
    @settings(max_examples=60, deadline=None)
    @given(calibration_problems())
    def test_matches_exhaustive_search(self, problem):
        observations, efficiency_grid, scale_grid, rounds = problem
        spec = frontier(1)
        expected = reference_calibrate(observations, spec, efficiency_grid,
                                       scale_grid, rounds)
        fitted = calibrate(observations, spec, efficiency_grid=efficiency_grid,
                           latency_scale_grid=scale_grid,
                           refinement_rounds=rounds)
        assert fitted == expected

    def test_round_trip_simulates_nothing_after_coarse_grid(self, monkeypatch):
        spec = frontier(1)
        scenarios = (Scenario("mae-base", Strategy.no_shard(), 1),
                     Scenario("mae-3b", Strategy.no_shard(), 64),
                     Scenario("mae-base", Strategy.full_shard(), 8))
        observations = [
            (s, run_scenario(s, spec, compute_efficiency=0.30,
                             latency_scale=4.0).images_per_second)
            for s in scenarios]
        calls = count_simulations(monkeypatch)
        coarse = calibrate(observations, spec, refinement_rounds=0)
        coarse_runs = calls[0]
        fitted = calibrate(observations, spec)
        assert coarse.residual == fitted.residual == 0.0
        assert calls[0] == 2 * coarse_runs
        assert coarse_runs < len(observations) * 20 * 15

    def test_published_5b_simulates_less_than_exhaustive(self, monkeypatch):
        observations = [(Scenario("mae-5b", Strategy.hybrid(2), 32), 1509.0),
                        (Scenario("mae-5b", Strategy.full_shard(), 32), 1307.0)]
        calls = count_simulations(monkeypatch)
        calibrate(observations, frontier(1))
        # Exhaustive: a 20 x 15 coarse grid and three 9 x 9 refinement grids.
        assert calls[0] < len(observations) * (20 * 15 + 3 * 9 * 9)
        # Stopping a candidate once its partial sum reaches the best loss
        # alone runs 667 simulations; also skipping the candidates that an
        # evaluated one-sided point rules out leaves 163.
        assert calls[0] <= 250
