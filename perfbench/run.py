"""fareylattice benchmark: seeded CLI workloads, checked by an independent oracle.

Run from the root of a checkout (the directory holding src/fareylattice):

    python3 perfbench/run.py --workload gen-stream --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): gen-stream, verify-sweep, point-query.  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it holds details (machine, pass count,
ops_failed_ratio, the p99 where a run has the samples for it).

--trace 0 reports the end-to-end metrics, from a run with no tracing:
  setup_s       median over fresh interpreters of importing fareylattice
                and building the CLI parser (interpreter start excluded)
  wall_s        median wall time of one pass over the seeded batch
  peak_rss_mib  ru_maxrss of the worker process running the calls
  items_per_s   terms (gen-stream), checks (verify-sweep) or queries
                (point-query) per second of that median pass
  call_p50_ms   median over the batch's calls of each call's latency (one
                fareylattice.cli.main call), taken as its median over passes
Times are scaled to a nominal host speed measured by reference.py's chunk,
run between the calls of the same pass (and in the same interpreter, for
setup_s); the detail line keeps the raw times next to them.
--trace 1 reports the per_layer metrics of BENCHMARK.json, from passes run
with tracing.py's spans, and the tracing overhead; layers.json says which
end-to-end metric each one should move, on which workload.

Every run checks every call: pass 0's output against oracle.py, each
later pass's output digest against pass 0's.  A call that fails either
check counts in `failed`.  The benchmark exits 2 without a result when the
checkout holds no fareylattice source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import reference
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench-out")
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 150
ITEMS = {"gen-stream": "terms", "verify-sweep": "checks", "point-query": "queries"}

# Runs in a fresh interpreter: prints the seconds spent importing the package
# and building the parser, then three reference chunk times.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, "src")
import fareylattice.cli
fareylattice.cli.build_parser()
setup = time.perf_counter() - start
sys.path.insert(0, "perfbench")
import reference
print(setup, *(reference.chunk() for _ in range(3)))
"""


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def measure_setup() -> tuple[float, float]:
    """Median import + build_parser time over fresh interpreters: (at
    nominal host speed, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                              text=True, timeout=60, check=True)
        setup, *chunks = map(float, proc.stdout.split())
        raw.append(setup)
        scaled.append(setup * reference.NOMINAL_S / statistics.median(chunks))
    return statistics.median(scaled), statistics.median(raw)


def scale(run: dict) -> float:
    """Factor taking a pass's times to nominal host speed."""
    return reference.NOMINAL_S / statistics.fmean(run["chunks"])


def run_worker(ops: list[workloads.Op], seconds: int, trace: int, capture: Path,
               spans: Path) -> dict:
    job = {"argv": [op.argv for op in ops], "seconds": seconds, "trace": trace,
           "capture": str(capture), "spans": str(spans)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def check_first(op: workloads.Op, record: list, text: str) -> str | None:
    """Oracle verdict on one call of pass 0."""
    rc, _, _, err = record
    if op.kind == "query":
        return oracle.check_answer(op.answer, rc, text, err)
    if rc != 0 or err:
        return f"exit {rc}, stderr {err[-200:]!r}"
    if op.kind == "gen":
        return oracle.check_gen(text, *op.spec, op.items)
    return oracle.check_verify(text, op.items)


def check_run(ops: list[workloads.Op], result: dict, capture: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure reasons) over every call of the run."""
    failures: list[str] = []
    reference = []
    for i, (op, record) in enumerate(zip(ops, result["pass0"])):
        text = (capture / f"{i}.out").read_bytes().decode("utf-8", errors="replace")
        reason = check_first(op, record, text)
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
        reference.append(None if reason else record[:3])
    attempted = len(ops)
    for p, run in enumerate(result["passes"], 1):
        for op, ref, record in zip(ops, reference, run["records"]):
            attempted += 1
            if ref is None or record != ref:
                failures.append(f"pass {p}: {' '.join(op.argv)}: "
                                + ("wrong in pass 0" if ref is None else "output changed"))
    return attempted, len(failures), failures


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values


def end_to_end(ops: list[workloads.Op], result: dict, setup: tuple[float, float]) -> tuple[dict, dict]:
    runs = result["passes"]
    scales = [scale(run) for run in runs]
    pass_s = [sum(run["times"]) * f for run, f in zip(runs, scales)]
    calls = [t * f for run, f in zip(runs, scales) for t in run["times"]]
    raw_calls = [t for run in runs for t in run["times"]]
    wall_s = statistics.median(pass_s)
    # each call's latency is its median over the passes; report the median call
    per_op = [statistics.median(run["times"][i] * f for run, f in zip(runs, scales))
              for i in range(len(ops))]
    metrics = {
        "setup_s": (setup[0], "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mib": (result["maxrss_kib"] / 1024, "MiB"),
        "items_per_s": (sum(op.items for op in ops) / wall_s, "1/s"),
        "call_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
    }
    detail = {"passes": len(runs), "calls_timed": len(calls),
              "pass_s_quartiles": _quartiles(pass_s), "host_speed_quartiles": _quartiles(scales),
              "raw": {"setup_s": setup[1],
                      "wall_s": statistics.median(sum(run["times"]) for run in runs),
                      "call_p50_ms": statistics.median(raw_calls) * 1e3}}
    if len(ops) <= 10:
        detail["call_ms_by_op"] = {" ".join(op.argv): t * 1e3 for op, t in zip(ops, per_op)}
    # the highest percentile reported is the one with ten samples beyond it
    if len(calls) >= 1000:
        detail["call_p99_ms"] = statistics.quantiles(calls, n=100)[98] * 1e3
        detail["raw"]["call_p99_ms"] = statistics.quantiles(raw_calls, n=100)[98] * 1e3
    return metrics, detail


def per_layer(ops: list[workloads.Op], result: dict) -> tuple[dict, dict]:
    traced = [run for run in result["passes"] if "counts" in run]
    untraced = [run for run in result["passes"] if "counts" not in run]
    units = {m["name"]: m["unit"] for m in json.loads(Path("BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: statistics.median(run["layer_times"][name] * scale(run) for run in traced)
               for name in traced[0]["layer_times"]}
    metrics.update(traced[0]["counts"])
    # successor steps per printed term: the oracle's gcd counts of the gen calls
    printed = sum(op.items for op in ops if op.kind == "gen")
    steps = metrics.pop("sequences.steps")
    metrics["sequences.steps_per_term"] = steps / printed if printed else 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(sum(run["times"]) * scale(run) for run in traced)
        - statistics.median(sum(run["times"]) * scale(run) for run in untraced))
    repeat = all(run["counts"] == traced[0]["counts"] for run in traced)
    detail = {"traced_passes": len(traced), "untraced_passes": len(untraced),
              "counts_repeat_exactly": repeat, "spans_written": result["spans"],
              "spans_dropped": result["spans_dropped"]}
    return {k: (v, units[k]) for k, v in metrics.items()}, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/fareylattice/cli.py").is_file():
        print("perfbench: run from the root of a fareylattice checkout "
              "(src/fareylattice not found)", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    setup = None if args.trace else measure_setup()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    capture = OUT_DIR / f"capture-{tag}-{os.getpid()}"
    capture.mkdir(parents=True)
    try:
        result = run_worker(ops, args.seconds, args.trace, capture,
                            OUT_DIR / f"spans-{tag}.jsonl")
        attempted, failed, failures = check_run(ops, result, capture)
    finally:
        shutil.rmtree(capture, ignore_errors=True)

    if args.trace:
        metrics, detail = per_layer(ops, result)
        correct = failed == 0 and detail["counts_repeat_exactly"]
    else:
        metrics, detail = end_to_end(ops, result, setup)
        correct = failed == 0
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, items=ITEMS[args.workload], calls_per_pass=len(ops),
                  ops_failed_ratio=failed / attempted, failures=failures[:5],
                  machine=machine(), time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
