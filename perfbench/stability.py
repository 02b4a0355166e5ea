"""Run-to-run spread of the benchmark: one run per seed, per workload.

    python3 perfbench/stability.py --runs 10 [--first-seed 1]

Runs the benchmark command once per seed for every workload of
BENCHMARK.json, one run at a time, with its run_seconds and --trace 0, and
prints for each workload and end-to-end metric the median, the quartiles
(statistics.quantiles with n=4) and the quartile spread as a share of the
median, plus the share of failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((BENCH.parent.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed):
    cmd = [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(statistics.median(values))
                     if statistics.median(values) else float("nan"),
                     "unit": results[0]["metrics"][name]["unit"]}
    out["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
    out["correct"] = all(r["correct"] for r in results)
    out["wall_s_max"] = max(r["wall_s"] for r in results)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    for workload in (w["name"] for w in SPEC["workloads"]):
        summary = summarize([one_run(workload, args.first_seed + k)
                             for k in range(args.runs)])
        print(f"{workload}: correct={summary['correct']} "
              f"failed share={summary['failed_share']} max wall={summary['wall_s_max']:.1f} s")
        for name, s in summary.items():
            if isinstance(s, dict):
                print(f"  {name:36s} median {s['median']:.6g} {s['unit']}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f} %")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
