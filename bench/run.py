"""qfrelay benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; qfrelay is imported from ``src/``.
Each run starts fresh processes of ``bench/workloads.py`` (see there for the
workloads):

* ``--trace 0``: four set-up-only processes and one timed process.  The
  result holds op_p90_us, op_p99_us, setup_s (median of the five set-ups)
  and peak_rss_mb; ops_per_s, op_p50_us, failed_frac and the latency sample
  count are printed before it.
* ``--trace 1``: one process that runs the ops untraced for S/2 seconds and
  then traced for S/2 seconds, and prints every per-layer metric.

Before the result, one ``record`` line carries the run record (commit or
source digest, seed, workload parameters, versions, cores, cache sizes).
The last line is the JSON result.  The exit code is nonzero, and no result
is printed, when a process fails or the checkout has no qfrelay source.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-mismatched", "sweep-marginalized", "relay-reference", "codec-roundtrip")
SETUP_REPEATS = 4  # set-up-only processes per run, besides the timed one
PROCESS_TIMEOUT_S = 150


def run_worker(workload, seed, seconds, mode):
    """Run one fresh workload process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"  # one process, one thread
    command = [
        sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {workload} {mode} process timed out")
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} {mode} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    setups = [run_worker(workload, seed, seconds, "setup") for _ in range(SETUP_REPEATS)]
    timed = run_worker(workload, seed, seconds, "run")
    setup_times = [s["setup_s"] for s in setups] + [timed["setup_s"]]
    correct = timed["correct"] and all(s["correct"] for s in setups)
    # gated metrics: the upper percentiles and set-up; ops_per_s and
    # op_p50_us follow the machine's speed phases, so they are printed only
    metrics = {
        "op_p90_us": (timed["op_p90_us"], "us"),
        "op_p99_us": (timed["op_p99_us"], "us"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MiB"),
    }
    printed = {
        "ops_per_s": (timed["ops_per_s"], "1/s"),
        "op_p50_us": (timed["op_p50_us"], "us"),
        **metrics,
        "failed_frac": (timed["failed"] / timed["ops"], "1"),
    }
    for name, (value, unit) in printed.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"latency_samples {timed['samples']} count (op_p99_us is the "
          f"{timed['tail_percentile']:.4g}th percentile, {timed['samples_above_p99']} above)")
    print(f"setup_samples {len(setup_times)} count")
    print("record " + json.dumps(timed["record"]))
    return {
        "correct": correct,
        "attempted": timed["ops"],
        "failed": timed["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def traced(workload, seed, seconds):
    result = run_worker(workload, seed, seconds, "trace")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {result['failed'] / result['ops']:.6g} 1")
    print(f"traced_vs_untraced_compared_ops {result['compared_ops']} count")
    print("record " + json.dumps(result["record"]))
    return {
        "correct": result["correct"],
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "qfrelay" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qfrelay source under {ROOT / 'src'}")
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
