"""Command-line experiment harness.

Five subcommands write CSV artifacts (and optional SVG charts) into
--out-dir, all deterministic given their full flag set:

* ``sample-path``: one compound Poisson event list (path.csv).
* ``orbit``: exact, symplectic, and explicit trajectories of the Kubo
  oscillator on one shared noise path (exact.csv, symplectic.csv,
  explicit.csv).
* ``hamiltonian``: energy along the same three solutions
  (hamiltonian.csv with columns t,H_exact,H_symplectic,H_explicit).
* ``converge``: mean-square error at T against the exact solution over
  a dt grid, with a log-log order fit (convergence.csv).
* ``symplectic-check``: finite-difference symplectic defects of both
  one-step schemes at random states and increments
  (symplectic_check.csv).

Every setting is one row of ``_SETTINGS``, which generates the flags,
the JSON config coercion and the bounds checks. Settings resolve as
defaults < JSON config (--config) < explicit flags; config keys mirror
flag names (``{"lambda": 5.0, "out-dir": "runs"}``).
Exit codes: 0 success, 2 usage or config error or an --out-dir that
cannot be written (refused before any run), 3 numerical divergence
(partial CSV output is still written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._csv import fmt_rows, write_csv
from ._svg import line_chart
from .analysis import (
    _defect_lanes,
    _jacobian_lanes,
    estimate_order,
    hamiltonian_series,
    ms_error,
    reference_residual,
    write_order_fit_csv,
)
from .errors import DivergenceError, DomainError, InvalidSpecError, NonConvergenceError
from .hamiltonian import KuboParams, PhaseState, _kubo_rotation, kubo_system
from .integrators import (
    _SCHEMES,
    MAX_GRID_STEPS,
    Trajectory,
    _fixed_grid_lanes,
    _pathwise_record,
    write_trajectory_csv,
)
from .levy_path import LevyPathSpec, increment, sample_path, write_path_csv

__all__ = ["main", "run"]


class CliUsageError(Exception):
    """Flag or config combination outside a subcommand's domain."""


def _real(value):
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _count(value):
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError("not an integer")
    return int(value)


def _switch(value):
    if not isinstance(value, bool):
        raise TypeError("not true or false")
    return value


def _step_sizes(value):
    # a comma list on the command line, a JSON array in a config
    items = [part for part in value.split(",") if part.strip()] if isinstance(value, str) else value
    dts = [_real(item) for item in items]
    if not all(dt > 0 for dt in dts):
        raise ValueError("step sizes must be positive")
    if len(set(dts)) < len(dts):
        raise ValueError("step sizes must be distinct")
    return dts


@dataclass(frozen=True)
class _Setting:
    """One flag and config key: its type, help, default per subcommand and bound.

    ``bound`` is ``(op, limit)`` with op one of ``>``, ``>=`` or ``in``;
    list values are bounded by their length.
    """

    name: str
    parse: object
    help: str
    defaults: dict
    bound: tuple = None


_ALL = ("sample-path", "orbit", "hamiltonian", "converge", "symplectic-check")
_ORBITS = ("orbit", "hamiltonian")

# Row order is flag order; a name has one row per distinct bound.
_SETTINGS = (
    _Setting("alpha", _real, "drift frequency", dict.fromkeys(_ALL[1:], 0.1)),
    _Setting("beta", _real, "noise coupling", dict.fromkeys(_ALL[1:], 0.1)),
    _Setting("dt", _real, "step size", dict.fromkeys(_ORBITS, 0.08), (">", 0)),
    _Setting("T", _real, "end time", dict.fromkeys(_ORBITS, 200.0), (">=", 0)),
    _Setting("T", _real, "end time", {"converge": 10.0}, (">", 0)),
    _Setting("lambda", _real, "jump rate per unit time", dict.fromkeys(_ALL[:4], 5.0), (">=", 0)),
    _Setting("sigma", _real, "mark standard deviation", dict.fromkeys(_ALL[:4], 0.2), (">=", 0)),
    _Setting("horizon", _real, "path horizon", {"sample-path": 200.0}, (">", 0)),
    _Setting("samples", _count, "Monte-Carlo sample count", {"converge": 500}, (">=", 2)),
    _Setting("samples", _count, "random sample count", {"symplectic-check": 1000}, (">=", 1)),
    _Setting("dts", _step_sizes, "comma-separated step sizes",
             {"converge": "0.08,0.04,0.02,0.01,0.005"}, (">=", 3)),
    _Setting("scheme", str, "symplectic or explicit", {"converge": "symplectic"}, ("in", _SCHEMES)),
    _Setting("seed", _count, "reproducibility seed", dict.fromkeys(_ALL, 0), (">=", 0)),
    _Setting("out-dir", str, "directory for output files", dict.fromkeys(_ALL, ".")),
    _Setting("svg", _switch, "also write SVG line charts", dict.fromkeys(_ALL, False)),
)

_TESTS = {">": operator.gt, ">=": operator.ge, "in": lambda value, choices: value in choices}


def _rows(command):
    return {row.name: row for row in _SETTINGS if command in row.defaults}


def _parse(row, value):
    try:
        return row.parse(value)
    except (TypeError, ValueError) as err:
        raise CliUsageError(f"bad value for --{row.name}: {value!r} ({err})") from err


def _load_config(config_path):
    try:
        with open(config_path, "r") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError) as err:
        raise CliUsageError(f"cannot load config {config_path}: {err}") from err
    if not isinstance(loaded, dict):
        raise CliUsageError(f"config {config_path} must hold a JSON object")
    return loaded


def _resolve(args):
    command = args.command
    rows = _rows(command)
    settings = {name: _parse(row, row.defaults[command]) for name, row in rows.items()}
    if args.config is not None:
        for key, value in _load_config(args.config).items():
            if key not in rows:
                raise CliUsageError(f"unknown config key {key!r} for {command}")
            settings[key] = _parse(rows[key], value)
    for name, row in rows.items():
        value = getattr(args, name)
        if value is not None:
            settings[name] = _parse(row, value)
    for name, row in rows.items():
        if row.bound is not None:
            op, limit = row.bound
            value = settings[name]
            measured = len(value) if isinstance(value, list) else value
            if not _TESTS[op](measured, limit):
                what = f"--{name} count" if isinstance(value, list) else f"--{name}"
                raise CliUsageError(f"{what} must be {op} {limit}, got {measured!r}")
    return settings


_START = PhaseState([0.0], [1.0])

# samples of symplectic-check per lane call, so memory does not grow with --samples
_CHECK_CHUNK = 4096


def _write(settings, name, write):
    """Write one output file with ``write(file_path)`` and report it."""
    file_path = os.path.join(settings["out-dir"], name)
    write(file_path)
    print(f"wrote {file_path}")


def _chart(settings, name, series, title, x_label, y_label):
    if settings["svg"]:
        _write(settings, name, lambda file_path: line_chart(file_path, series, title, x_label, y_label))


def _kubo(settings):
    params = KuboParams(settings["alpha"], settings["beta"])
    return params, kubo_system(params)


def _sample(settings, horizon, seed):
    spec = LevyPathSpec(
        rate=settings["lambda"], mark_sigma=settings["sigma"], noise_count=1, seed=seed
    )
    return sample_path(spec, horizon)


def _level_sums(path):
    """L after each of the one-channel path's first k events, k = 0 .. len(path).

    Each level is the correctly rounded exact sum of those marks, so it
    equals ``increment`` over them bit for bit: the marks are integer
    multiples of one power-of-two unit, their prefix sums exact integers,
    and int / int rounds correctly. A sum beyond the float range raises
    DomainError, as increment does.
    """
    ratios = [mark.as_integer_ratio() for mark in path.marks.tolist()]
    unit = max((den for _, den in ratios), default=1)
    sums = itertools.accumulate(num * (unit // den) for num, den in ratios)
    try:
        return [0.0] + [total / unit for total in sums]
    except OverflowError:
        raise DomainError("channel 1 marks sum beyond the float range") from None


def _levels(path, times, sums=None):
    """L(t) of the one-channel path at each sorted time, from its _level_sums (summed if None)."""
    sums = _level_sums(path) if sums is None else sums
    counts = np.searchsorted(path.times, times, side="right")
    return [sums[k] for k in counts]


def _exact_trajectory(params, path, times, sums=None):
    levels = np.array(_levels(path, times, sums))[:, None]
    p, q = _kubo_rotation(params, _START.p, _START.q, times[:, None], levels)
    return Trajectory(times, p, q, "exact")


def _fixed_grid_runs(settings):
    """Both schemes as two lanes on one path: (system, runs, code, exact).

    A diverged run keeps its partial trajectory, and exact(times) is the
    exact Trajectory on the same path. Its levels are summed before the
    runs, so marks that sum beyond the float range are refused first.
    """
    params, system = _kubo(settings)
    T = settings["T"]
    path = _sample(settings, T if T > 0 else 1.0, settings["seed"])
    exact = functools.partial(_exact_trajectory, params, path, sums=_level_sums(path))
    code = 0
    runs = {}
    for scheme, run in zip(_SCHEMES, _fixed_grid_lanes(system, _SCHEMES, _START, 0.0, T, path,
                                                       settings["dt"])):
        if isinstance(run, DivergenceError):
            print(f"{scheme} scheme diverged: {run}", file=sys.stderr)
            run, code = run.partial, 3
        elif isinstance(run, Exception):
            raise run
        runs[scheme] = run
    return system, runs, code, exact


def _cmd_sample_path(settings):
    path = _sample(settings, settings["horizon"], settings["seed"])
    print(f"events: {len(path)}")
    _write(settings, "path.csv", lambda file_path: write_path_csv(path, file_path))
    times = [0.0, *path.times.tolist(), path.horizon]
    cumulative = [0.0, *np.cumsum(path.marks), float(np.sum(path.marks))]
    _chart(settings, "path.svg", [(times, cumulative, "L(t)")], "cumulative jump path", "t", "L")
    return 0


def _cmd_orbit(settings):
    _, runs, code, exact = _fixed_grid_runs(settings)
    runs = {"exact": exact(runs["symplectic"].times), **runs}
    radii = {}
    for name, traj in runs.items():
        _write(settings, f"{name}.csv", lambda file_path: write_trajectory_csv(traj, file_path))
        end = traj.final_state()
        radii[name] = math.hypot(float(end.p[0]), float(end.q[0]))
    print(
        "end radius exact={exact:.6f} symplectic={symplectic:.6f} "
        "explicit={explicit:.6f}".format(**radii)
    )
    series = [(traj.qs[:, 0], traj.ps[:, 0], name) for name, traj in runs.items()]
    _chart(settings, "orbit.svg", series, "phase-plane orbits", "Q", "P")
    return code


def _cmd_hamiltonian(settings):
    system, runs, code, exact = _fixed_grid_runs(settings)
    rows_len = min(len(runs["symplectic"]), len(runs["explicit"]))
    times = runs["symplectic"].times[:rows_len]
    h_exact = hamiltonian_series(system, exact(times))[:, 1]
    h_sym = hamiltonian_series(system, runs["symplectic"])[:rows_len, 1]
    h_exp = hamiltonian_series(system, runs["explicit"])[:rows_len, 1]
    lines = fmt_rows(np.column_stack([times, h_exact, h_sym, h_exp]))
    _write(
        settings,
        "hamiltonian.csv",
        lambda file_path: write_csv(file_path, "t,H_exact,H_symplectic,H_explicit", lines),
    )
    print(
        f"H symplectic range=[{h_sym.min():.6f}, {h_sym.max():.6f}] "
        f"explicit final={h_exp[-1]:.6f}"
    )
    series = [(times, h_exact, "exact"), (times, h_sym, "symplectic"), (times, h_exp, "explicit")]
    _chart(settings, "hamiltonian.svg", series, "energy along the solutions", "t", "H")
    return code


def _cell_seed(seed, dt_index, sample_index):
    # schedule-independent per-cell stream, stable across runs
    seq = np.random.SeedSequence([seed, dt_index, sample_index])
    return int(seq.generate_state(1, np.uint64)[0])


def _end_differences(settings, params, system, paths, dts):
    """Final state minus exact final state of each path, as (B, 2n) rows in path order.

    Each path is one lane of one jump-adapted record whose drift is the
    --scheme map; dts holds each path's step.
    """
    T = settings["T"]
    rec = _pathwise_record(system, _START, 0.0, T, paths, dts, settings["scheme"])
    ends = np.hstack([rec.ps[rec.hi - 1], rec.qs[rec.hi - 1]])
    levels = np.array([[increment(path, 1, 0.0, T)] for path in paths])
    exact = _kubo_rotation(params, _START.p, _START.q, T, levels)
    return ends - np.hstack(exact)


def _end_errors(settings, params, system):
    """RMS end-state error of each dt's samples against the exact solution.

    Every (dt, sample) cell is one jump-adapted lane at its own dt, with
    the --scheme map between jumps and the Marcus jump flow at them.
    Cells run in dt-major order, in consecutive chunks of at most
    MAX_GRID_STEPS estimated record rows (at least one cell each), so the
    budget bounds memory whatever the sample count, and a failure raises
    the error of the first failing cell in that order; only final-state
    differences are kept. A cell over the budget alone runs before the
    next is drawn, so no two such paths are held at once.
    """
    T = settings["T"]
    samples = settings["samples"]
    chunks, paths, dts, rows = [], [], [], 0.0
    for i, dt in enumerate(settings["dts"]):
        for s in range(samples):
            path = _sample(settings, T, _cell_seed(settings["seed"], i, s))
            # drift rows, a pre-jump and a post-jump row per event, and the ends
            lane_rows = np.ceil(T / dt) + 2 * len(path) + 2
            if paths and rows + lane_rows > MAX_GRID_STEPS:
                chunks.append(_end_differences(settings, params, system, paths, dts))
                paths, dts, rows = [], [], 0.0
            paths.append(path)
            dts.append(dt)
            rows += lane_rows
            if rows > MAX_GRID_STEPS:
                chunks.append(_end_differences(settings, params, system, paths, dts))
                paths, dts, rows = [], [], 0.0
    if paths:
        chunks.append(_end_differences(settings, params, system, paths, dts))
    diffs = np.concatenate(chunks)
    return [ms_error(diffs[i : i + samples]) for i in range(0, len(diffs), samples)]


def _cmd_converge(settings):
    params, system = _kubo(settings)
    errors = _end_errors(settings, params, system)
    fit = estimate_order(settings["dts"], errors)
    _write(settings, "convergence.csv", lambda file_path: write_order_fit_csv(fit, file_path))
    print(
        f"slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
        f"residual={fit.residual:.6f} half-order-residual={reference_residual(fit):.6f}"
    )
    log_dt = np.log(fit.dts)
    series = [
        (log_dt, np.log(fit.errors), "measured"),
        (log_dt, fit.slope * log_dt + fit.intercept, "fit"),
    ]
    title = "mean-square error vs step size (log-log)"
    _chart(settings, "convergence.svg", series, title, "log dt", "log error")
    return 0


def _defects(system, samples):
    """Both schemes' defects at sample rows (p, q, dt, dL), as (B, 2).

    A failure raises the error of the first failing sample, its
    symplectic Jacobian's before its explicit one's, as checking the
    samples one at a time does.
    """
    p, q, dt, dl = samples[:, 0:1], samples[:, 1:2], samples[:, 2], samples[:, 3:4]
    jacobians, stop, failed = [], len(samples), None
    # quiet, since lanes past the first failure may warn, and one sample at
    # a time stops there
    with np.errstate(all="ignore"):
        for scheme in _SCHEMES:
            if stop == 0:
                break
            # past a failure only the earlier samples can fail first
            jac, failure = _jacobian_lanes(system, scheme, p[:stop], q[:stop], dt[:stop],
                                           dl[:stop])
            jacobians.append(jac)
            if failure is not None:
                stop, failed = failure[0], scheme
    if failed is not None:
        # the failing sample alone raises its error with its own warnings
        one = slice(stop, stop + 1)
        _, failure = _jacobian_lanes(system, failed, p[one], q[one], dt[one], dl[one])
        raise failure[1]
    return np.column_stack([_defect_lanes(jac) for jac in jacobians])


def _cmd_symplectic_check(settings):
    _, system = _kubo(settings)
    rng = np.random.default_rng(settings["seed"])
    # five controls first: at dt = dL = 0 both maps are the identity
    identity = np.zeros((5, 4))
    identity[:, :2] = rng.uniform(-2.0, 2.0, (5, 2))
    tables = [np.hstack([identity, _defects(system, identity)])]
    # draws in the order of one sample at a time: p, q, dt, dL
    low, high = [-2.0, -2.0, 0.0, -1.0], [2.0, 2.0, 0.1, 1.0]
    for start in range(0, settings["samples"], _CHECK_CHUNK):
        size = min(_CHECK_CHUNK, settings["samples"] - start)
        rows = rng.uniform(low, high, (size, 4))
        rows[:, 2] = 0.1 - rows[:, 2]
        tables.append(np.hstack([rows, _defects(system, rows)]))
    table = np.concatenate(tables)
    header = "p,q,dt,dL,defect_symplectic,defect_explicit"
    lines = fmt_rows(table)
    _write(settings, "symplectic_check.csv", lambda file_path: write_csv(file_path, header, lines))
    live = table[:, 2] > 0.0
    # a NaN defect makes its maximum NaN, so an overflow cannot read as a small defect
    max_sym, max_exp = np.max(table[live, 4:], axis=0)
    print(f"max defect symplectic={max_sym:.3e} explicit={max_exp:.3e}")
    index = np.arange(len(table))
    series = [(index, table[:, 4], "symplectic"), (index, table[:, 5], "explicit")]
    _chart(settings, "symplectic_check.svg", series, "symplectic defect per sample", "sample",
           "defect")
    return 0


_COMMANDS = {
    "sample-path": (_cmd_sample_path, "write one compound Poisson event CSV"),
    "orbit": (_cmd_orbit, "exact vs numerical phase-plane orbits on one path"),
    "hamiltonian": (_cmd_hamiltonian, "energy along exact and numerical solutions"),
    "converge": (_cmd_converge, "mean-square error order fit over a dt grid"),
    "symplectic-check": (_cmd_symplectic_check, "finite-difference symplectic defect report"),
}


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symplevy",
        description="structure-preserving integrator experiments for jump-driven "
        "Hamiltonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, row in _rows(command).items():
            default = row.defaults[command]
            extra = {"action": "store_true"} if row.parse is _switch else {}
            p.add_argument(f"--{name}", dest=name, default=None,
                           help=f"{row.help} (default {default})", **extra)
        p.add_argument("--config", default=None, help="JSON file with flag-named settings")
        subparsers[command] = p
    return parser, subparsers


def main(argv=None):
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        settings = _resolve(args)
        os.makedirs(settings["out-dir"] or os.curdir, exist_ok=True)
        return _COMMANDS[args.command][0](settings)
    except (CliUsageError, InvalidSpecError, DomainError) as err:
        if isinstance(err, CliUsageError):
            print(subparsers[args.command].format_usage(), end="", file=sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, NonConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # --out-dir or a file in it
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 2


def run():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
