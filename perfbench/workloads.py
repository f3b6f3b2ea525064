"""The workloads and the timed loop of one run.

``worker.py`` calls ``main`` in a fresh interpreter, after timing the
import of ``symplevy.cli``. ``main`` runs whole operations of one
workload through ``symplevy.cli.main`` until ``--seconds`` have passed,
then checks each operation's outputs and prints one JSON line.

Every operation runs under the speed gauge of refspeed.py and is timed
in CPU seconds at reference speed.

An operation's seed is the workload seed plus the operation's index,
and it writes into ``perfbench/out/<workload>-<op seed>/``. The checks
run after the timed loop, so that their time and memory count neither
in the timed loop nor in the peak; a directory is removed once its outputs pass.

With ``--trace 1`` each round is a pair: the operation untraced and the
same operation (same seed, directory suffix ``-traced``) with the
tracer installed, the untraced one first in even rounds. The printed
metrics are then the per-layer ones, plus the median over rounds of the
traced minus the untraced operation time at reference speed. The gauge's handler (about 2%
of the time) runs in whichever span is open, so span times carry it too.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import refspeed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

MODEL = {"alpha": "0.1", "beta": "0.1", "lambda": "5.0", "sigma": "0.2"}

# Every flag is spelled out, so a change of a CLI default does not
# silently change a workload.
WORKLOADS = {
    "converge": {
        "commands": [("converge", {**MODEL, "T": "10.0", "samples": "5",
                                   "dts": "0.08,0.04,0.02,0.01,0.005", "scheme": "symplectic"})],
        "check": checks.check_converge,
    },
    "long-orbit": {
        "commands": [
            ("orbit", {**MODEL, "dt": "0.08", "T": "400.0", "svg": True}),
            ("hamiltonian", {**MODEL, "dt": "0.08", "T": "400.0", "svg": True}),
        ],
        # untimed: the event list the check rebuilds L(t) from
        "reference": ("sample-path", {"lambda": MODEL["lambda"], "sigma": MODEL["sigma"],
                                      "horizon": "400.0"}),
        "check": checks.check_long_orbit,
    },
    "symplectic-check": {
        "commands": [("symplectic-check", {"alpha": "0.1", "beta": "0.1", "samples": "1000"})],
        "check": checks.check_symplectic_check,
    },
}


def argv_for(command, flags, seed, out_dir):
    argv = [command]
    for name, value in flags.items():
        argv += [f"--{name}"] if value is True else [f"--{name}", value]
    return argv + ["--seed", str(seed), "--out-dir", out_dir]


def run_commands(main, workload, seed, out_dir):
    """Run one operation's commands; returns (seconds, first non-zero exit code)."""
    elapsed = 0.0
    for command, flags in workload["commands"]:
        argv = argv_for(command, flags, seed, out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            elapsed += time.perf_counter() - start
        if code != 0:
            return elapsed, code
    return elapsed, 0


def verify(cli_main, workload, seed, out_dir):
    """Check one operation's outputs; returns the number of items checked."""
    if "reference" in workload:
        command, flags = workload["reference"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv_for(command, flags, seed, out_dir))
        if code != 0:
            raise checks.CheckError(f"{command} exited {code}")
    flags = {}
    for _, command_flags in workload["commands"]:
        flags.update(command_flags)
    return workload["check"](out_dir, flags)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times = []  # seconds at reference speed
        self.by_seed = {}  # the same, by operation seed
        self.walls = []  # wall seconds
        self.rates = []  # items per second at reference speed


def attempt(cli_main, name, workload, seed, trace=None):
    """Run and time one operation under the speed gauge.

    Returns (out_dir, (wall s, s at reference speed)), or (out_dir, None)
    if the operation failed.
    """
    out_dir = os.path.join(OUT, f"{name}-{seed}" + ("-traced" if trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with refspeed.Gauge() as gauge:
            if trace is None:
                wall, code = run_commands(cli_main, workload, seed, out_dir)
            else:
                main = trace.wrap("cli.main", cli_main)
                wall, code = trace.run_op(lambda: run_commands(main, workload, seed, out_dir))
    except Exception:
        traceback.print_exc()
        return out_dir, None
    if code != 0:
        print(f"{name} seed {seed}: exit code {code}", file=sys.stderr)
        return out_dir, None
    return out_dir, (wall, gauge.reference_s)


def settle(cli_main, name, workload, seed, out_dir, elapsed, stats):
    """Check one attempted operation's outputs and count it in ``stats``."""
    stats.attempted += 1
    if elapsed is None:
        stats.failed += 1
        return
    try:
        items = verify(cli_main, workload, seed, out_dir)
    except (checks.CheckError, OSError, ValueError, IndexError) as err:
        print(f"{name} seed {seed}: wrong output: {err}", file=sys.stderr)
        stats.failed += 1
        stats.wrong += 1
        return
    wall, seconds = elapsed
    stats.walls.append(wall)
    stats.times.append(seconds)
    stats.by_seed[seed] = seconds
    stats.rates.append(items / seconds)
    shutil.rmtree(out_dir, ignore_errors=True)


def main(setup_s):
    import symplevy.cli

    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    cli_main = symplevy.cli.main
    trace = tracer.Tracer(sys.modules["symplevy"]) if args.trace else None
    attempts = []  # (seed, traced, out_dir, seconds)
    start = time.perf_counter()
    index = 0
    while True:
        seed = args.seed + index
        sides = [None] if trace is None else ([None, trace] if index % 2 == 0 else [trace, None])
        for side in sides:
            attempts.append((seed, side is not None, *attempt(cli_main, args.workload, workload, seed, side)))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    # read before the checks, whose parsed CSVs would otherwise set the peak
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = Stats()
    traced = Stats()
    for seed, is_traced, out_dir, elapsed in attempts:
        stats = traced if is_traced else plain
        settle(cli_main, args.workload, workload, seed, out_dir, elapsed, stats)

    result = {
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
    }
    # paired by seed: the two operations of a traced round run back to
    # back, so the machine's drift cancels more than between run medians
    pairs = [t - plain.by_seed[seed] for seed, t in traced.by_seed.items() if seed in plain.by_seed]
    if not plain.times or (trace is not None and not pairs):
        result["metrics"] = {}
    elif trace is None:
        result["setup_s"] = setup_s
        result["metrics"] = {
            "op_ref_s": statistics.median(plain.times),
            "items_per_ref_s": statistics.median(plain.rates),
            "peak_rss_mib": peak_rss_mib,
        }
        # for comparison with op_ref_s; the wall time is not a metric, as it
        # drifts with the machine (see refspeed.py)
        wall = statistics.median(plain.walls)
        print(f"wall time per operation: median {wall:.4f} over {len(plain.walls)} operations", file=sys.stderr)
    else:
        trace.write(os.path.join(OUT, f"trace-{args.workload}.csv"))
        metrics = trace.layer_metrics()
        metrics["trace.overhead_s"] = statistics.median(pairs)
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0

