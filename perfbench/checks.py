"""Output checks for the benchmark's operations.

Each checker reads the files one operation wrote and compares them with
a calculation made here in plain Python, or with a property the method
must have. None of them compares against a stored copy of earlier
output. A checker returns the number of work items it verified and
raises CheckError on the first mismatch.
"""

import math
import os


class CheckError(Exception):
    """An operation's output disagrees with the independent calculation."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _close(actual, expected, abs_tol, rel_tol=0.0):
    return abs(actual - expected) <= abs_tol + rel_tol * abs(expected)


def read_csv(file_path, header):
    """Rows of a CSV as lists of floats, after checking its header line."""
    with open(file_path, "r") as handle:
        lines = handle.read().splitlines()
    _require(lines and lines[0] == header, f"{file_path}: header is not {header!r}")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def least_squares(xs, ys):
    """Slope, intercept and max absolute deviation of the OLS line."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return slope, intercept, residual


def check_converge(out_dir, flags):
    """convergence.csv: order at least 0.45, errors fall with dt, fit recomputed."""
    with open(os.path.join(out_dir, "convergence.csv"), "r") as handle:
        lines = handle.read().splitlines()
    _require(lines[0] == "dt,ms_error,log_dt,log_error", "convergence.csv: bad header")
    _require(lines[-2] == "slope,intercept,residual", "convergence.csv: bad trailer")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-2]]
    slope, intercept, residual = (float(cell) for cell in lines[-1].split(","))
    dts = [float(dt) for dt in flags["dts"].split(",")]
    _require([row[0] for row in rows] == dts, f"convergence.csv: dts {rows} != {dts}")
    for dt, err, log_dt, log_err in rows:
        _require(err > 0 and math.isfinite(err), f"convergence.csv: error {err} at dt={dt}")
        _require(_close(log_dt, math.log(dt), 1e-12), f"convergence.csv: log_dt at dt={dt}")
        _require(_close(log_err, math.log(err), 1e-12), f"convergence.csv: log_error at dt={dt}")
    want = least_squares([row[2] for row in rows], [row[3] for row in rows])
    for name, got, expected in zip(("slope", "intercept", "residual"), (slope, intercept, residual), want):
        _require(_close(got, expected, 1e-9, 1e-9), f"convergence.csv: {name} {got} != refit {expected}")
    _require(slope >= 0.45, f"convergence.csv: order {slope} < 0.45")
    by_dt = sorted((row[0], row[1]) for row in rows)
    for (dt_small, err_small), (dt_big, err_big) in zip(by_dt, by_dt[1:]):
        _require(
            err_small <= 1.1 * err_big,
            f"convergence.csv: error {err_small} at dt={dt_small} exceeds 1.1 x {err_big} at dt={dt_big}",
        )
    return len(rows) * int(flags["samples"])


def _cumulative_marks(path_rows, times):
    """L(t) = sum of marks with event time in (0, t], for ascending times."""
    values = []
    total = 0.0
    k = 0
    for t in times:
        while k < len(path_rows) and path_rows[k][0] <= t:
            total += path_rows[k][2]
            k += 1
        values.append(total)
    return values


def _energy(row):
    return 0.5 * (row[1] ** 2 + row[2] ** 2)


def check_long_orbit(out_dir, flags):
    """orbit + hamiltonian at one setting, against the Kubo rotation.

    Needs path.csv from ``symplevy sample-path`` with the same lambda,
    sigma and seed and horizon T, written into the same directory.
    """
    alpha, beta = float(flags["alpha"]), float(flags["beta"])
    dt, T = float(flags["dt"]), float(flags["T"])
    path_rows = read_csv(os.path.join(out_dir, "path.csv"), "time,channel,mark")
    _require(all(row[1] == 1 for row in path_rows), "path.csv: channel other than 1")
    _require(
        all(a[0] <= b[0] for a, b in zip(path_rows, path_rows[1:])), "path.csv: times not sorted"
    )
    traj = {
        name: read_csv(os.path.join(out_dir, f"{name}.csv"), "t,p1,q1")
        for name in ("exact", "symplectic", "explicit")
    }
    times = [row[0] for row in traj["exact"]]
    _require(times[0] == 0.0 and times[-1] == T, f"exact.csv: grid runs {times[0]}..{times[-1]}, not 0..{T}")
    steps = [b - a for a, b in zip(times, times[1:])]
    _require(
        all(_close(h, dt, 1e-9) for h in steps[:-1]) and 0.0 < steps[-1] <= dt + 1e-9,
        "exact.csv: times are not the uniform dt grid ending at T",
    )
    for name in ("symplectic", "explicit"):
        _require([row[0] for row in traj[name]] == times, f"{name}.csv: times differ from exact.csv")

    for j, (row, L) in enumerate(zip(traj["exact"], _cumulative_marks(path_rows, times))):
        theta = alpha * row[0] + beta * L
        _require(
            _close(row[1], -math.sin(theta), 1e-9) and _close(row[2], math.cos(theta), 1e-9),
            f"exact.csv row {j + 1}: ({row[1]}, {row[2]}) is not (0, 1) rotated by {theta}",
        )

    ham = read_csv(os.path.join(out_dir, "hamiltonian.csv"), "t,H_exact,H_symplectic,H_explicit")
    _require([row[0] for row in ham] == times, "hamiltonian.csv: times differ from exact.csv")
    previous = 0.0
    for j, row in enumerate(ham):
        _require(_close(row[1], 0.5, 1e-12), f"hamiltonian.csv row {j + 1}: H_exact {row[1]} != 0.5")
        for col, name in ((2, "symplectic"), (3, "explicit")):
            want = _energy(traj[name][j])
            _require(
                _close(row[col], want, 0.0, 1e-12),
                f"hamiltonian.csv row {j + 1}: H_{name} {row[col]} != (p^2+q^2)/2 = {want}",
            )
        _require(0.125 <= row[2] <= 2.0, f"hamiltonian.csv row {j + 1}: H_symplectic {row[2]} outside [0.125, 2]")
        # explicit Euler scales p^2+q^2 by 1+a^2 >= 1 each step
        _require(row[3] >= previous * (1.0 - 1e-12), f"hamiltonian.csv row {j + 1}: H_explicit decreased")
        previous = row[3]

    for name in ("orbit", "hamiltonian"):
        with open(os.path.join(out_dir, f"{name}.svg"), "r") as handle:
            text = handle.read()
        _require(
            text.startswith("<svg") and text.endswith("</svg>\n") and text.count("<polyline") == 3,
            f"{name}.svg: not an SVG chart with three series",
        )
    return sum(len(rows) for rows in traj.values()) + len(ham)


def check_symplectic_check(out_dir, flags):
    """symplectic_check.csv against the closed-form defects of the Kubo maps.

    For the Kubo oscillator one step of either scheme is linear with
    a = alpha*dt + beta*dL. The explicit map is ((1, -a), (a, 1)), whose
    defect J^T Jc J - Jc = (det J - 1) Jc has spectral norm a^2. The
    symplectic map has det J = 1, so its defect is finite-difference
    noise only.
    """
    alpha, beta = float(flags["alpha"]), float(flags["beta"])
    rows = read_csv(
        os.path.join(out_dir, "symplectic_check.csv"), "p,q,dt,dL,defect_symplectic,defect_explicit"
    )
    _require(len(rows) == int(flags["samples"]) + 5, f"symplectic_check.csv: {len(rows)} rows")
    for j, (p, q, dt, dl, d_sym, d_exp) in enumerate(rows):
        where = f"symplectic_check.csv row {j + 1}"
        _require(abs(p) <= 2.0 and abs(q) <= 2.0, f"{where}: state ({p}, {q}) outside [-2, 2]^2")
        if j < 5:
            _require(dt == 0.0 and dl == 0.0, f"{where}: expected a zero step")
        else:
            _require(0.0 < dt <= 0.1 and abs(dl) <= 1.0, f"{where}: dt={dt}, dL={dl} out of range")
        a = alpha * dt + beta * dl
        _require(_close(d_exp, a * a, 1e-7), f"{where}: defect_explicit {d_exp} != a^2 = {a * a}")
        _require(0.0 <= d_sym <= 1e-6, f"{where}: defect_symplectic {d_sym} > 1e-6")
    return len(rows)
