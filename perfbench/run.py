"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a swapnet checkout; the package is imported from
its ./src. The benchmark repeats whole rounds of the workload until S wall
seconds have passed. A round runs each of the workload's jobs in a fresh
process (job.py) with one BLAS thread, so every round pays what a CLI user
pays, cold caches and allocator state included. Timings are process CPU
seconds; wall seconds go to the summary line only. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, and with
--trace 1 its per-layer metrics, from traced rounds that alternate with
untraced ones to give the tracing overhead. A failed operation is counted in
failed and its reason printed to standard error; correct speaks of the
checks of the operations that did not fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"
OUT = ROOT / ".perfbench"
JOB_TIMEOUT_S = 170


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_job(workload, job, seed, trace):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(JOB), "--workload", workload, "--job", job,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"job {workload}/{job} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Rounds:
    """Results of the rounds of one run; a round is every job of the workload."""

    def __init__(self, workload, jobs, seed):
        self.workload, self.jobs, self.seed = workload, jobs, seed
        self.rounds = []
        self.problems = []
        self.errors = []

    def one(self, trace=0):
        jobs = [run_job(self.workload, job, self.seed, trace) for job in self.jobs]
        self.rounds.append({"trace": trace, **{
            key: sum(j[key] for j in jobs)
            for key in ("setup_s", "total_s", "steps", "iterate_s", "attempted", "failed")},
            "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs)})
        for j in jobs:
            self.problems += j["problems"]
            self.errors += j["errors"]
        return jobs

    def values(self, key, trace=0):
        return [r[key] for r in self.rounds if r["trace"] == trace]

    def count(self, key):
        return sum(r[key] for r in self.rounds)


def end_to_end(rounds):
    return {
        "total_s": statistics.median(rounds.values("total_s")),
        "setup_s": statistics.median(rounds.values("setup_s")),
        "steps_per_s": statistics.median(
            r["steps"] / r["iterate_s"] for r in rounds.rounds),
        "peak_rss_mb": max(rounds.values("peak_rss_mb")),
    }


def per_layer(rounds, traced_jobs, run_id):
    """Merge the traced jobs' spans (ids offset to stay unique, round index
    appended), compute the layer metrics and write the trace file."""
    merged = []
    for round_index, jobs in traced_jobs:
        for job in jobs:
            offset = len(merged)
            for span_id, parent, name, start, end, extra in job["spans"]:
                merged.append([span_id + offset, parent + offset if parent >= 0 else -1,
                               name, start, end, extra, round_index])
    plain, traced = rounds.values("total_s", 0), rounds.values("total_s", 1)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics = spans.layer_metrics(merged, len(traced_jobs), overhead)
    path = OUT / "traces" / f"{run_id}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "run_id": run_id, "workload": rounds.workload, "seed": rounds.seed,
        "clock": "process_cpu_ns",
        "fields": ["id", "parent", "name", "start_ns", "end_ns", "extra", "round"],
        "untraced_total_s": plain, "traced_total_s": traced,
        "overhead_pct": overhead, "metrics": metrics, "spans": merged}))
    print(f"{len(merged)} spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    if not (ROOT / "src" / "swapnet" / "__init__.py").is_file():
        print(f"no swapnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the swapnet sources checked for above

    args = parse_args(argv, workloads.NAMES)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = Rounds(args.workload, workloads.make(args.workload, OUT).jobs, args.seed)
    traced_jobs = []
    start = time.monotonic()
    while True:
        rounds.one()
        if args.trace:
            traced_jobs.append((len(rounds.rounds), rounds.one(trace=1)))
        if time.monotonic() - start >= args.seconds:
            break
    wall = time.monotonic() - start

    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}"
        values, metrics = per_layer(rounds, traced_jobs, run_id), spec["per_layer"]
    else:
        values, metrics = end_to_end(rounds), spec["end_to_end"]

    for error in dict.fromkeys(rounds.errors):
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for problem in dict.fromkeys(rounds.problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds.rounds)} rounds, CPU s per round "
          f"{[round(t, 4) for t in rounds.values('total_s')]}, wall {wall:.2f} s")
    correct = not rounds.problems
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.count("attempted"),
        "failed": rounds.count("failed"),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
