"""Benchmark of optinput's design -> identify pipeline.

    python3 perfbench/run.py --workload <mc-tc|design-coupling|identify-long> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in its own process with one
BLAS/OpenMP thread and `src` on PYTHONPATH.  With --trace 0, three more short
processes only set up (import optinput and generate the inputs), and setup_s
is the median of the four set-up times.  Prints the workload's information lines, every failed
operation, and as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Run outputs and traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(extra: list[str], args, deadline: float) -> list[str]:
    """Run workloads.py to completion; return its stdout lines, or raise on failure."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(HERE / "out"), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "optinput" / "__init__.py").is_file():
        print(f"no optinput package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [json.loads(run_worker(["--setup-only"], args, deadline)[-1])["setup_s"] for _ in range(probes)]
        lines = run_worker(["--seconds", str(args.seconds), "--trace", str(args.trace)], args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
