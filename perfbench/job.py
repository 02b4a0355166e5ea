"""One job of a workload in this fresh process: set-up, run, check.

    python3 perfbench/job.py --workload NAME --job JOB --seed N --trace 0|1

Started by run.py, once per job and round. Prints one JSON line: process
CPU seconds from the process's start to the end of the run (total_s); the
set-up's share of them (setup_s), which is the process start-up (interpreter
and imports) plus the CPU inside swapnet's set-up calls (spans.SETUP_CALLS),
wherever they are made; the channel steps taken inside iterate_channel and
the CPU spent there; ru_maxrss after the run; the operations attempted and
the reasons of those that failed; the problems the checks found and, with
--trace 1, the spans. The checks run after the timed part.
"""

import os

# Before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    startup_s = time.process_time()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--job", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, ROOT / ".perfbench")
    clocks = spans.Clocks()
    tracer = spans.Tracer() if args.trace else None
    clocks.install()
    if tracer:
        tracer.install()
    inputs = workload.setup(args.seed, args.job)
    outputs, errors = workload.run(inputs)
    total_s = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    clocks.uninstall()

    problems = workload.check(inputs, outputs)
    print(json.dumps({
        "setup_s": startup_s + clocks.setup_s, "total_s": total_s,
        "steps": clocks.steps, "iterate_s": clocks.iterate_s, "peak_rss_mb": peak_rss_mb,
        "attempted": workload.ops_per_job, "failed": len(errors), "errors": errors,
        "problems": problems, "spans": tracer.spans if tracer else [],
    }))


if __name__ == "__main__":
    main()
