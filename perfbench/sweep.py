"""Run the benchmark over many seeds and summarize it as one trajectory point.

Run from the root of a checkout:

    python3 perfbench/sweep.py --out perfbench/trajectory/NAME.json

For every workload of BENCHMARK.json it makes RUNS untraced runs of
run_seconds each, with seeds 1..RUNS, and two traced runs with seed 1, then
writes every run's result line plus, per
end-to-end metric, the median and the quartile spread ((Q3 - Q1) / median,
from statistics.quantiles(values, n=4)) next to the metric's bound in
BENCHMARK.json.  It also reports whether the two traced runs gave
identical counts.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes", "ratio")
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    detail, result = proc.stdout.strip().split("\n")[-2:]
    return json.loads(detail), json.loads(result)


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            detail, result = one_run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(workload, seed, json.dumps(result), flush=True)
        traced = [one_run(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                  for _, r in traced]
        metrics = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs], bounds[name])
            for name in bounds
        }
        report["machine"] = runs[0]["detail"]["machine"]
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "ops_failed_ratio": max(r["detail"]["ops_failed_ratio"] for r in runs),
            "traced": {
                "counts_identical_across_runs": counts[0] == counts[1],
                "metrics": {k: v["value"] for k, v in traced[0][1]["metrics"].items()},
                "detail": traced[0][0],
            },
            "runs": runs,
        }
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {s['bound']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
