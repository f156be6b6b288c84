"""Run the benchmark once per seed and summarise each metric's steadiness.

    python3 bench/repeat.py --workloads sweep-wide,schedule-fuzz \\
        --seeds 1-10 --seconds 30 [--trace 0] [--out summary.json]

For every workload and metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs are sequential, one at a time, from
the checkout root.  ``--out`` also writes the summary, with every run's
report line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    report = next((json.loads(line[len("REPORT "):]) for line in lines
                   if line.startswith("REPORT ")), {})
    return {"result": json.loads(lines[-1]), "report": report,
            "wall_s": time.perf_counter() - start}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        names = runs[0]["result"]["metrics"]
        metrics = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            row = metrics[name]
            bound = bounds.get(name)
            print(f"{workload:<14} {name:<34} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
        digests = sorted({r["report"].get("output_sha256") for r in runs})
        print(f"{workload:<14} correct={all(r['result']['correct'] for r in runs)}"
              f" output_sha256 per seed: {len(digests)} distinct; longest run "
              f"{max(r['wall_s'] for r in runs):.1f} s")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
