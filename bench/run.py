"""shardsim benchmark: host time of the simulator on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-wide --seed 1 --seconds 30 --trace 0

Every time here is host time (what the simulator takes to answer), never
simulated time.  The load is one process, one thread and a closed loop with a
single caller: each pass, and each operation inside it, starts only after the
previous one returned.  The program under test is imported from ``src/`` of
the checkout this file lives in; the benchmark exits with code 2, printing no
result, when that source tree is missing.

Workloads, and why each was chosen:

* ``sweep-wide`` -- the CLI ``sweep`` subcommand, run in-process, for
  mae-base,mae-3b x full,hybrid8,no-shard x nodes 1,2,4,...,2048, writing CSV
  to a temp path.  This mix is dominated by work that grows with world size:
  group materialisation, the rank-to-node mapping in schedule compilation and
  CLI formatting; the event loop is under 0.1 % of its time.  One operation is
  one sweep row.
* ``calibrate-fit`` -- ``calibrate`` on the two published 5B throughput points
  at 32 nodes (hybrid2 1509 ips, full 1307 ips), then a 3-point round-trip fit
  on simulator-generated observations (efficiency 0.30, latency scale 4.0).
  Worlds are at most 512 ranks, so compilation is small and the same few
  schedules are re-timed about 540 times each: time goes to the engine's
  duration and event-loop path, and world-size optimisations should show no
  change here.  One operation is one calibration fit.
* ``schedule-fuzz`` -- seeded random cases (1-8 units, 1-4 nodes, all five
  strategies, all three prefetch modes, limiter on or off, in-flight 1/2/4),
  each running make_plan -> memory_footprint -> step_schedule ->
  simulate_step.  Many tiny DAGs on tiny worlds stress planning and schedule
  construction plus one simulation per fresh schedule: the engine in the
  opposite pattern from calibrate-fit.  One operation is one case.

Accuracy note: the model this benchmark drives is validated only against the
two 5B throughput points above plus one held-out figure, the 0.22 exposed
communication fraction of mae-3b no-shard at 64 nodes.  ``fit_residual`` and
``holdout_comm_error`` report the model against those three numbers.

With ``--trace 0`` the run is untraced and prints the end-to-end metrics.
With ``--trace 1`` it alternates untraced passes with passes in which every
public shardsim function that a shardsim module calls is wrapped (see
``bench/tracing.py``), and prints per-layer metrics per traced pass plus
``trace.overhead_ratio``.  Every pass's outputs are checked; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 16
# One thread, as the load model says: numpy's BLAS would otherwise start a
# thread pool on import, whose start-up time swings by ~70 ms with whatever
# else the machine runs, and which the simulator never uses.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# The metrics BENCHMARK.json gates.  pass_s, the median pass, is reported
# but not gated: on a host whose speed switches between two levels for tens
# of seconds at a time, the median of a run snaps to one level or the other,
# while the mean behind ops_per_s moves smoothly with the share of each.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# The two published 5B points and the held-out comm fraction (acceptance 7b).
PUBLISHED_5B = (("hybrid2", 1509.0), ("full", 1307.0))
HOLDOUT_COMM_FRACTION = 0.22
HOLDOUT_TOLERANCE = 0.08
ROUND_TRIP_TRUTH = (0.30, 4.0)
ROUND_TRIP_TOLERANCE = 0.05


def load_shardsim():
    """Import shardsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "shardsim" / "__init__.py").is_file():
        print(f"error: no shardsim source tree at {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import shardsim
    if Path(shardsim.__file__).resolve().parent != SRC / "shardsim":
        print(f"error: imported shardsim from {shardsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return shardsim


class Pass:
    """One pass of a workload: its host time and the outputs to check."""

    def __init__(self, seconds: float, ops: int, outputs,
                 op_seconds: list[float] | None = None) -> None:
        self.seconds = seconds
        self.ops = ops
        self.outputs = outputs
        self.op_seconds = op_seconds or []
        self.failed = 0


class SweepWide:
    name = "sweep-wide"
    MODELS = ("mae-base", "mae-3b")
    STRATEGIES = ("full", "hybrid8", "no-shard")

    def __init__(self, ss, seed: int, tiny: bool, workdir: Path) -> None:
        self.ss = ss
        max_exp = 2 if tiny else 11
        self.nodes = [2 ** k for k in range(max_exp + 1)]
        self.rows = len(self.MODELS) * len(self.STRATEGIES) * len(self.nodes)
        self.csv_path = workdir / "sweep.csv"
        self.argv = ["sweep", "--model", ",".join(self.MODELS),
                     "--strategies", ",".join(self.STRATEGIES),
                     "--nodes", ",".join(map(str, self.nodes)),
                     "--format", "csv", "--output", str(self.csv_path)]
        self.reference: list[str] | None = None
        self.digest = None
        self.extra: dict = {}

    def run_pass(self) -> Pass:
        if self.csv_path.exists():
            self.csv_path.unlink()
        start = time.perf_counter()
        try:
            code = self.ss.cli.run(self.argv)
        except Exception as exc:  # a traceback is a failed pass, not a crash
            code = repr(exc)
        seconds = time.perf_counter() - start
        return Pass(seconds, self.rows, code)

    def verify(self, p: Pass) -> list[str]:
        if p.outputs != 0:
            p.failed = self.rows
            return [f"cli sweep returned {p.outputs!r}"]
        text = self.csv_path.read_text(encoding="utf-8")
        lines = text.splitlines()[1:]
        try:
            round_trips = self.ss.engine.SweepTable.from_csv(text).to_csv() == text
        except ValueError:
            round_trips = False
        if not round_trips or len(lines) != self.rows:
            p.failed = self.rows
            return [f"CSV of {len(lines)} rows (expected {self.rows}) does not "
                    "round-trip through SweepTable.from_csv"]
        if self.reference is None:
            self.reference = lines
            self.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        p.failed = sum(a != b for a, b in zip(lines, self.reference))
        return [f"{p.failed} rows differ from the first pass"] if p.failed else []


class CalibrateFit:
    name = "calibrate-fit"

    def __init__(self, ss, seed: int, tiny: bool, workdir: Path) -> None:
        self.ss = ss
        engine, sharding = ss.engine, ss.sharding
        self.cluster = ss.cluster.frontier(1)
        self.published = [
            (engine.Scenario("mae-5b", sharding.Strategy.parse(label), 32), ips)
            for label, ips in PUBLISHED_5B]
        eff, scale = ROUND_TRIP_TRUTH
        scenarios = [
            engine.Scenario("mae-base", sharding.Strategy.no_shard(), 1),
            engine.Scenario("mae-3b", sharding.Strategy.no_shard(), 64),
            engine.Scenario("mae-base", sharding.Strategy.full_shard(), 8),
        ]
        self.generated = [
            (s, engine.run_scenario(s, self.cluster, compute_efficiency=eff,
                                    latency_scale=scale).images_per_second)
            for s in scenarios]
        self.holdout = engine.Scenario("mae-3b", sharding.Strategy.no_shard(), 64)
        self.reference = None
        self.digest = None
        self.extra: dict = {}

    def _fit(self, observations):
        try:
            return self.ss.engine.calibrate(observations, self.cluster)
        except Exception as exc:
            return repr(exc)

    def run_pass(self) -> Pass:
        engine = self.ss.engine
        start = time.perf_counter()
        published = self._fit(self.published)
        round_trip = self._fit(self.generated)
        holdout = None
        if not isinstance(published, str):
            try:
                holdout = engine.run_scenario(
                    self.holdout, self.cluster,
                    compute_efficiency=published.compute_efficiency,
                    latency_scale=published.effective_latency_scale)
            except Exception as exc:
                holdout = repr(exc)
        seconds = time.perf_counter() - start
        return Pass(seconds, 2, (published, round_trip, holdout))

    def verify(self, p: Pass) -> list[str]:
        published, round_trip, holdout = p.outputs
        record = [_fields(published, "compute_efficiency",
                          "effective_latency_scale", "residual"),
                  _fields(round_trip, "compute_efficiency",
                          "effective_latency_scale", "residual"),
                  _fields(holdout, *STEP_FIELDS)]
        if self.reference is None:
            self.reference = record
            self.digest = hashlib.sha256(
                "\n".join(record).encode("utf-8")).hexdigest()
        problems = []
        published_ok = record[0::2] == self.reference[0::2]
        round_trip_ok = record[1] == self.reference[1]
        if not (published_ok and round_trip_ok):
            problems.append("fit outputs differ from the first pass")
        if isinstance(published, str) or not hasattr(holdout, "comm_fraction"):
            problems.append(f"5B fit or holdout failed: {published} {holdout}")
            published_ok = False
        else:
            error = abs(holdout.comm_fraction - HOLDOUT_COMM_FRACTION)
            self.extra = {
                "fit_residual": {"value": published.residual, "unit": "1"},
                "holdout_comm_error": {
                    "value": error / HOLDOUT_COMM_FRACTION, "unit": "1"},
            }
            if error > HOLDOUT_TOLERANCE:
                problems.append(f"holdout comm fraction {holdout.comm_fraction:.4f}"
                                f" outside {HOLDOUT_COMM_FRACTION} +/- "
                                f"{HOLDOUT_TOLERANCE}")
                published_ok = False
        if isinstance(round_trip, str):
            problems.append(f"round-trip fit failed: {round_trip}")
            round_trip_ok = False
        else:
            got = (round_trip.compute_efficiency,
                   round_trip.effective_latency_scale)
            if any(abs(g - t) / t > ROUND_TRIP_TOLERANCE
                   for g, t in zip(got, ROUND_TRIP_TRUTH)):
                problems.append(f"round trip recovered {got}, expected "
                                f"{ROUND_TRIP_TRUTH} within 5%")
                round_trip_ok = False
        p.failed = (not published_ok) + (not round_trip_ok)
        return problems


STEP_FIELDS = ("step_seconds", "images_per_second", "comm_seconds_exposed",
               "comm_fraction", "compute_seconds", "io_seconds")
MEMORY_FIELDS = ("params_bytes", "grads_bytes", "optimizer_bytes",
                 "activations_bytes", "gathered_peak_bytes", "hbm_bytes",
                 "total_bytes", "feasible")


def _fields(obj, *names: str) -> str:
    """Stable text of the named fields, so added fields leave digests alone."""
    if isinstance(obj, str) or obj is None:
        return f"failed: {obj}"
    return ",".join(f"{n}={getattr(obj, n)!r}" for n in names)


class ScheduleFuzz:
    """Random cases from the distribution of the schedule-property acceptance
    criterion, with the invariants re-checked here on the first pass."""

    name = "schedule-fuzz"

    def __init__(self, ss, seed: int, tiny: bool, workdir: Path) -> None:
        self.ss = ss
        rng = random.Random(seed)
        self.cases = [self._random_case(rng) for _ in range(50 if tiny else 2000)]
        self.reference: list[bytes] | None = None  # per-case sha256
        self.digest = None
        self.extra: dict = {}

    def _random_case(self, rng: random.Random):
        sharding, cluster = self.ss.sharding, self.ss.cluster
        Strategy = sharding.Strategy
        units = []
        for i in range(rng.randint(1, 8)):
            forward = float(rng.randint(1, 100)) * 1e8
            units.append(sharding.Unit(f"u{i}", rng.randint(1, 50_000),
                                       forward, 2 * forward))
        spec = cluster.frontier(rng.choice((1, 2, 4)))
        world = spec.world_size
        hybrid_sizes = [g for g in (1, 2, 4, 8, 16)
                        if g <= world and world % g == 0 and (g > 8 or 8 % g == 0)]
        strategy = rng.choice([
            Strategy.no_shard(), Strategy.full_shard(), Strategy.grad_op_shard(),
            Strategy.replicated(bucket_bytes=rng.choice((8_000, 25 * 2**20))),
            Strategy.hybrid(rng.choice(hybrid_sizes)),
        ])
        policy = sharding.PrefetchPolicy(
            mode=rng.choice(("none", "backward-post", "backward-pre")),
            limit_all_gathers=rng.random() < 0.7,
            max_inflight=rng.choice((1, 2, 4)))
        acts = self.ss.arch.ActivationEstimate(
            bytes_per_rank=rng.randint(0, 2**30), model="checkpointed", factor=1)
        return tuple(units), spec, strategy, policy, acts

    def run_pass(self) -> Pass:
        sharding, engine = self.ss.sharding, self.ss.engine
        check = self.reference is None
        digests, times, problems, failed = [], [], [], 0
        whole = hashlib.sha256()
        clock = time.perf_counter
        for index, case in enumerate(self.cases):
            units, spec, strategy, policy, acts = case
            t0 = clock()
            try:
                plan = sharding.make_plan(units, strategy, spec)
                memory = sharding.memory_footprint(plan, acts)
                schedule = sharding.step_schedule(plan, policy, local_batch=1)
                _, metrics = engine.simulate_step(schedule, spec, memory=memory)
                error = None
            except Exception as exc:
                error = repr(exc)
            times.append(clock() - t0)
            # Untimed: reduce the case to a digest at once, so the pass holds
            # no more than the simulator's working set for one case.
            if error:
                record = f"failed: {error}"
                problems.append(f"case {index}: {error}")
                failed += 1
            else:
                record = "|".join((
                    schedule.to_json(), _fields(metrics, *STEP_FIELDS),
                    _fields(metrics.peak_memory, *MEMORY_FIELDS)))
                broken = check and self._invariant_failures(case, plan, schedule)
                if broken:
                    problems.append(f"case {index}: {broken}")
                    failed += 1
            data = record.encode("utf-8")
            whole.update(b"\n" if index else b"")
            whole.update(data)
            digests.append(hashlib.sha256(data).digest())
            plan = memory = schedule = metrics = None  # freed untimed
        return Pass(sum(times), len(self.cases),
                    (digests, whole.hexdigest(), problems, failed), times)

    def verify(self, p: Pass) -> list[str]:
        digests, whole, problems, failed = p.outputs
        if self.reference is None:
            self.reference, self.digest = digests, whole
        else:
            mismatched = sum(a != b for a, b in zip(digests, self.reference))
            if mismatched:
                problems.append(f"{mismatched} cases differ from the first pass")
                failed += mismatched
        p.failed = min(len(self.cases), failed)
        return problems

    def _invariant_failures(self, case, plan, schedule) -> str:
        units, spec, _, policy, _ = case
        sharding, engine = self.ss.sharding, self.ss.engine
        Strategy = sharding.Strategy
        hybrid1 = sharding.step_schedule(
            sharding.make_plan(units, Strategy.hybrid(1), spec), policy,
            local_batch=1)
        no_shard = sharding.step_schedule(
            sharding.make_plan(units, Strategy.no_shard(), spec), policy,
            local_batch=1)
        if hybrid1.to_json() != no_shard.to_json():
            return "hybrid(1) schedule differs from no-shard"
        reduced = _gradient_reduction_error(schedule, plan, sharding)
        if reduced:
            return reduced
        strict = sharding.PrefetchPolicy(mode=policy.mode, limit_all_gathers=True,
                                         max_inflight=1)
        strict_schedule = sharding.step_schedule(plan, strict, local_batch=1)
        trace, _ = engine.simulate_step(strict_schedule, spec)
        gathers = sorted(
            (e for e in trace.events
             if strict_schedule.tasks[e.task_id].kind == "all-gather"),
            key=lambda e: (e.start, e.end))
        for a, b in zip(gathers, gathers[1:]):
            if b.start < a.end - 1e-15:
                return "all-gathers overlap at in-flight limit 1"
        return ""


def _gradient_reduction_error(schedule, plan, sharding) -> str:
    """Empty when every unit's gradient is reduced exactly once over the world."""
    world = plan.cluster.world_size
    total = sum(plan.unit_full_bytes(u) for u in plan.units)
    reducers = [t for t in schedule.collectives() if t.kind != "all-gather"]
    if world == 1:
        return "" if not reducers else "reductions on a one-rank world"
    if plan.strategy.kind is sharding.StrategyKind.REPLICATED_BUCKETED:
        if sum(t.bytes for t in reducers) != total \
                or any(len(t.group) != world for t in reducers):
            return "bucketed all-reduces do not cover the gradients once"
        return ""
    for unit in plan.units:
        unit_reducers = [t for t in reducers if t.unit == unit.name]
        span = math.prod(len(t.group) for t in unit_reducers)
        primary = [t for t in unit_reducers
                   if t.kind == "reduce-scatter" or len(unit_reducers) == 1]
        if span != world or \
                sum(t.bytes for t in primary) != plan.unit_full_bytes(unit):
            return f"unit {unit.name} is not reduced exactly once"
    return ""


WORKLOADS = {w.name: w for w in (SweepWide, CalibrateFit, ScheduleFuzz)}


def measure_setup(probes: int) -> list[float]:
    """Seconds for fresh interpreters to import shardsim and resolve a preset."""
    probe = ("import sys, time\n"
             "start = time.perf_counter()\n"
             f"sys.path.insert(0, {str(SRC)!r})\n"
             "import shardsim\n"
             "shardsim.get_model('mae-3b')\n"
             "print(repr(time.perf_counter() - start))\n")
    samples = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values: list[float], pct: float) -> dict:
    """Nearest-rank percentile, with the sample count and how many lie beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return {"value": ordered[rank - 1], "samples": len(ordered),
            "beyond": len(ordered) - rank}


def tail(values: list[float]) -> dict | None:
    """The highest ladder percentile with >= 10 samples beyond it."""
    for pct in TAIL_PERCENTILES:
        entry = percentile(values, pct)
        if entry["beyond"] >= TAIL_MIN_BEYOND:
            return {"percentile": pct, **entry}
    return None


def provenance() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git clone or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_passes(workload, seconds: float, tracer: Tracer | None,
               after_pass=None):
    """Closed loop of passes until their host time adds up to `seconds`.

    Checking outputs and `after_pass(elapsed)` fall outside that count.  With
    a tracer, passes alternate untraced / traced, at least one of each.
    """
    passes, problems = [], []
    minimum = 2 if tracer else 1
    elapsed = 0.0
    while len(passes) < minimum or elapsed < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            p = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        problems += workload.verify(p)
        p.outputs = None  # the next pass's working set is the program's alone
        passes.append((traced, p))
        elapsed += p.seconds
        if after_pass:
            after_pass(elapsed)
    return passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for a smoke test")
    args = parser.parse_args(argv)

    os.environ.update(SINGLE_THREAD_ENV)  # the setup probes inherit it
    ss = load_shardsim()
    import shardsim.cli  # noqa: F401  (load every layer as a module attribute)

    setup: list[float] = []

    def probe_setup(elapsed: float) -> None:
        # Spread over the run, so setup_s sees the same machine as pass_s.
        while len(setup) < SETUP_PROBES \
                and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.extend(measure_setup(1))

    if not args.trace:
        measure_setup(1)  # may compile the bytecode cache; discarded
        probe_setup(0.0)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer(ss) if args.trace else None
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        tiny_warmup = WORKLOADS[args.workload](ss, args.seed, True, Path(workdir))
        tiny_warmup.verify(tiny_warmup.run_pass())
        workload = WORKLOADS[args.workload](ss, args.seed, args.size == "tiny",
                                            Path(workdir))
        passes, problems = run_passes(workload, args.seconds, tracer,
                                      None if args.trace else probe_setup)
    if not args.trace:
        setup.extend(measure_setup(SETUP_PROBES - len(setup)))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(p.ops for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    untraced = [p for traced, p in passes if not traced]
    pass_seconds = [p.seconds for p in untraced]
    completed = sum(p.ops - p.failed for p in untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(),
        "output_sha256": workload.digest,
        "passes": len(untraced),
        "error_rate": {"value": failed / attempted, "unit": "1"},
        "problems": problems[:20],
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": completed / sum(pass_seconds),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
        report["pass_s"] = {"value": statistics.median(pass_seconds),
                            "unit": "s"}
        report["samples"] = {"setup_s": len(setup), "pass_s": len(pass_seconds),
                             "ops_per_s": len(pass_seconds), "peak_rss_mib": 1}
        report["setup_s_samples"] = setup
        report["pass_s_samples"] = pass_seconds
        pass_tail = tail(pass_seconds)
        if pass_tail:
            report["pass_s_tail"] = {**pass_tail, "unit": "s"}
        if workload.name == "schedule-fuzz":
            op_ms = [1e3 * t for p in untraced for t in p.op_seconds]
            report["op_ms_p50"] = {**percentile(op_ms, 50), "unit": "ms"}
            report["op_ms_p99"] = {**percentile(op_ms, 99), "unit": "ms"}
        report.update(workload.extra)
    else:
        traced = [p.seconds for is_traced, p in passes if is_traced]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(pass_seconds),
            "unit": "1"}
        report["traced_passes"] = len(traced)
        report["absent"] = tracer.absent()
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        report["trace_file"] = str(tracer.write(trace_file).relative_to(ROOT))

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    shown = {**metrics, **{k: v for k, v in report.items()
                           if isinstance(v, dict) and "unit" in v}}
    for name, entry in shown.items():
        print(f"  {name:<34} {entry['value']:<14.6g} {entry['unit']}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
