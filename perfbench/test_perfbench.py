"""Quick tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench

Each checker must reject a corrupted output, and a one-operation run of
each workload must pass its checks and report every metric that
BENCHMARK.json names.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import checks
import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import symplevy.cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

MODEL = {"alpha": "0.1", "beta": "0.1", "lambda": "5.0", "sigma": "0.2"}


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert symplevy.cli.main(list(argv)) == 0


def write_convergence(out_dir, slope):
    """convergence.csv for errors 0.04 * dt**slope, with a matching fit trailer."""
    dts = [0.08, 0.04, 0.02, 0.01, 0.005]
    rows = [(dt, 0.04 * dt**slope) for dt in dts]
    fit = checks.least_squares([math.log(dt) for dt in dts], [math.log(e) for _, e in rows])
    lines = ["dt,ms_error,log_dt,log_error"]
    lines += [",".join(repr(x) for x in (dt, e, math.log(dt), math.log(e))) for dt, e in rows]
    lines += ["slope,intercept,residual", ",".join(repr(x) for x in fit)]
    with open(os.path.join(out_dir, "convergence.csv"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return {**MODEL, "samples": "20", "dts": ",".join(str(dt) for dt in dts)}


def edit_cell(file_path, row, column, change):
    with open(file_path) as handle:
        lines = handle.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[row] = ",".join(cells)
    with open(file_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_converge_check_accepts_first_order_and_rejects_slope_0_1(tmp_path):
    flags = write_convergence(tmp_path, 1.0)
    assert checks.check_converge(tmp_path, flags) == 100
    write_convergence(tmp_path, 0.1)
    with pytest.raises(checks.CheckError, match="order"):
        checks.check_converge(tmp_path, flags)


def test_converge_check_rejects_trailer_that_is_not_the_fit(tmp_path):
    flags = write_convergence(tmp_path, 1.0)
    edit_cell(tmp_path / "convergence.csv", -1, 0, lambda slope: slope * 1.01)
    with pytest.raises(checks.CheckError, match="refit"):
        checks.check_converge(tmp_path, flags)


def test_long_orbit_check_rejects_one_perturbed_exact_row(tmp_path):
    flags = {**MODEL, "dt": "0.08", "T": "50.0"}
    common = ["--seed", "4", "--out-dir", str(tmp_path)]
    model = [f"--{k}={v}" for k, v in flags.items()]
    cli("orbit", *model, "--svg", *common)
    cli("hamiltonian", *model, "--svg", *common)
    cli("sample-path", "--lambda", "5.0", "--sigma", "0.2", "--horizon", "50.0", *common)
    assert checks.check_long_orbit(tmp_path, flags) == 4 * 626
    edit_cell(tmp_path / "exact.csv", 300, 1, lambda p: p + 1e-6)
    with pytest.raises(checks.CheckError, match="exact.csv row 300"):
        checks.check_long_orbit(tmp_path, flags)


def test_symplectic_check_rejects_defect_explicit_off_by_ten_percent(tmp_path):
    flags = {"alpha": "0.1", "beta": "0.1", "samples": "50"}
    cli("symplectic-check", "--samples", "50", "--seed", "2", "--out-dir", str(tmp_path))
    file_path = tmp_path / "symplectic_check.csv"
    assert checks.check_symplectic_check(tmp_path, flags) == 55
    rows = checks.read_csv(file_path, "p,q,dt,dL,defect_symplectic,defect_explicit")
    # the row with the largest a = alpha*dt + beta*dL, so 10% is well above FD noise
    worst = max(range(len(rows)), key=lambda j: abs(rows[j][2] + rows[j][3]))
    edit_cell(file_path, worst + 1, 5, lambda d: d * 1.1)
    with pytest.raises(checks.CheckError, match="defect_explicit"):
        checks.check_symplectic_check(tmp_path, flags)


def test_gauge_scales_known_work_to_reference_speed():
    # 200 gauge samples' worth of work reads as about 200 x REFERENCE_S
    # times the ratio of a warm sample to the gauge's own samples, which
    # are warm here too
    with refspeed.Gauge() as gauge:
        for _ in range(200):
            refspeed.sample_s()
    assert len(gauge.samples) >= 3
    ratio = gauge.reference_s / (200 * refspeed.REFERENCE_S)
    assert 0.5 < ratio < 2.0


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_operation_of_each_workload_passes(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = run_bench("symplectic-check", 1)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["analysis.jacobian_calls"]["value"] == 2010
    assert metrics["integrators.step_api_calls"]["value"] == 4 * 2010
    assert metrics["marcus.flow_calls"]["value"] == 0
    assert os.path.isfile(os.path.join(HERE, "out", "trace-symplectic-check.csv"))
