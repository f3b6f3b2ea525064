"""symplevy benchmark: one run of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters with ``PYTHONPATH=src`` and no
install: one that runs the workload (worker.py), and SETUP_PROBES that
only import ``symplevy.cli`` and build its parser, half of them before
the workload and half after. ``setup_s`` is the median over all of them,
each at reference speed (see refspeed.py). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
# a run measures at most 60 s; the rest is room for the last operation,
# the checks and the set-up probes on a loaded machine
TIMEOUT_S = 170

UNITS = {"setup_s": "s", "op_ref_s": "s", "items_per_ref_s": "items/s", "peak_rss_mib": "MiB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def worker(args, env):
    """Run worker.py with ``args``; returns its JSON result line."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=TIMEOUT_S,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description="symplevy benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "symplevy", "cli.py")):
        print(f"error: no symplevy sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH="src")
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [worker(["--setup-only"], env)["setup_s"] for _ in range(probes)]
        result = worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            env,
        )
        setups += [worker(["--setup-only"], env)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not result["metrics"]:
        print("error: no operation completed", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        for name, value in sorted(result["metrics"].items()):
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": UNITS[name]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
