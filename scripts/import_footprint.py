"""Measure the cold-start cost of importing optinput's entry modules.

For each of `optinput`, `optinput.experiment` and `optinput.cli` the script
starts fresh `python -c` processes (one BLAS thread, `src/` on PYTHONPATH)
that import the module once and report the import's wall time, the process's
peak resident set size (`ru_maxrss`) and which of `scipy.signal`,
`scipy.optimize` and `scipy.sparse` the import loaded.  Each module is
imported `--repeat` times, each time in a new process; the medians are
printed as one JSON line per module.  Standard library only.

    python scripts/import_footprint.py [--repeat 5] [--src path/to/src]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MODULES = ("optinput", "optinput.experiment", "optinput.cli")
WATCHED = ("scipy.signal", "scipy.optimize", "scipy.sparse")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

CHILD = """\
import json, resource, sys, time
t0 = time.perf_counter()
import {module}
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{"import_s": wall, "maxrss_mb": rss / (2**20 if sys.platform == "darwin" else 2**10),
                  "loaded": [m for m in {watched!r} if m in sys.modules]}}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5, help="fresh processes per module")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the optinput package")
    return parser.parse_args(argv)


def measure(module: str, env: dict) -> dict:
    code = CHILD.format(module=module, watched=WATCHED)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = args.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for module in MODULES:
        runs = [measure(module, env) for _ in range(args.repeat)]
        print(json.dumps({
            "module": module,
            "import_s": round(statistics.median(r["import_s"] for r in runs), 4),
            "maxrss_mb": round(statistics.median(r["maxrss_mb"] for r in runs), 1),
            "loaded": runs[-1]["loaded"],
            "repeat": args.repeat,
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
