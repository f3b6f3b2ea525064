"""End-to-end tests for the command line interface.

Every test drives cli.main in process and inspects the files and text it
produces, so the assertions cover argument parsing, config merging, the
numerical wiring, and the exit-code contract together.
"""

import csv
import hashlib
import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest

from symplevy import cli, integrators, levy_path
from symplevy._svg import _points
from symplevy.analysis import one_step_jacobian, symplectic_defect
from symplevy.errors import DivergenceError, DomainError, NonConvergenceError
from symplevy.hamiltonian import KuboParams, PhaseState, kubo_exact, kubo_system
from symplevy.integrators import integrate_fixed_grid, integrate_pathwise
from symplevy.levy_path import JumpEvent, LevyPath, LevyPathSpec, increment, sample_path
from test_integrators import assert_same_run, scalar_pathwise

# Every setting each subcommand takes, as flag and as config key.
SETTINGS = {
    "sample-path": {"lambda", "sigma", "horizon", "seed", "out-dir", "svg"},
    "orbit": {"alpha", "beta", "dt", "T", "lambda", "sigma", "seed", "out-dir", "svg"},
    "hamiltonian": {"alpha", "beta", "dt", "T", "lambda", "sigma", "seed", "out-dir", "svg"},
    "converge": {"alpha", "beta", "T", "lambda", "sigma", "samples", "dts", "scheme", "seed",
                 "out-dir", "svg"},
    "symplectic-check": {"alpha", "beta", "samples", "seed", "out-dir", "svg"},
}

CONVERGE_SEED_1 = """\
dt,ms_error,log_dt,log_error
0.080000000000000002,0.003189881096010822,-2.5257286443082556,-5.7477716368578742
0.040000000000000001,0.0016234449632941464,-3.2188758248682006,-6.4232048670303961
0.02,0.0008117618394392445,-3.912023005428146,-7.1163035620069968
0.01,0.00041301003221244176,-4.6051701859880909,-7.7920386742269772
0.0050000000000000001,0.00020933726699366771,-5.2983173665480363,-8.4715638889697171
slope,intercept,residual
0.98340128945107463,-3.2630880579180839,0.0061270361886061053
"""

# converge --beta 15 --samples 5 --T 2 --seed 1: large marks, each applied
# by Kubo's exact rotation (the RK4 flow would take its 16-substep cap on
# most of them); the SHA-256 of convergence.csv and of stdout with the
# output directory written as <out-dir>
CONVERGE_CAP_SEED_1_SHA256 = "7024a6ec02bd985dddbf46df0db9598845128b96f63d10c25571ba5ef0d0e5f3"
CONVERGE_CAP_SEED_1_STDOUT_SHA256 = (
    "3a2918ecc4d6f6944ffcb34b3964834fbc99c3d542a5524a81d74f851830b992"
)


# symplectic-check --samples 1000 --seed 1 (the benchmark's flags at seed 1)
SYMPLECTIC_CHECK_SEED_1_SHA256 = "5e41821fb6b2bf4c656ca004f04ba0aa550ecd8088212c0c4db2317bdb58da71"
SYMPLECTIC_CHECK_SEED_1_HEAD = """\
p,q,dt,dL,defect_symplectic,defect_explicit
0.047286498801026866,1.8018547853037412,0,0,8.1266549045722059e-11,8.1266549045722059e-11
-1.4233615491214651,1.7945977885489754,0,0,1.645332758926088e-10,1.645332758926088e-10
"""

# Output bytes at seed 1, from the event-object representation of paths:
# sample-path at its defaults, and orbit/hamiltonian at the benchmark's
# model flags over T=50
MODEL_FLAGS = ["--alpha", 0.1, "--beta", 0.1, "--lambda", 5.0, "--sigma", 0.2]
SAMPLE_PATH_SEED_1_SHA256 = "28ef0d03abd9f2ca229cbed01abd4e0930176372e98edb60d5ef02c97c594398"
MODEL_T50_SEED_1_SHA256 = {
    "exact.csv": "df6f5cd26537d9f1828968869017927daeb1af81a8c63a76f703b8d2f68e171a",
    "symplectic.csv": "bb3d732cff9ea2f7279e9cb98a4d59fb92843cd82175c6312d15c0ef282ddb43",
    "explicit.csv": "69e291bb240310d1215528342b6a2e082ae77d3fbc45e56c435c0e114154207f",
    "hamiltonian.csv": "327067fd0d76a0e96d695d85b6c4a9cf053d83438447c092ea73e161b42ffd1f",
}

# orbit and hamiltonian at the model flags over T=400 at dt=0.08 with --svg
# (the benchmark's long-orbit flags at seed 1): 5,000 steps per scheme
MODEL_T400_SEED_1_SHA256 = {
    "exact.csv": "1051d7a18240092c6469d347d1a5fda92ddb656fefab98cb8a4bf4c6282b89c3",
    "symplectic.csv": "3feb432bc759fb2c3537e9b3b91c309f1f28331b322ba7c1f177db1d44fe5454",
    "explicit.csv": "7231208a9ea044a8022f9df257830b73c0a7ee3a06da05ee66e0e8f9fda31a7a",
    "hamiltonian.csv": "cb2eb25f011e883459af6558071fb4863a330ec581b5067cc67928a5bbc1982f",
    "orbit.svg": "096d21ee6cf1c636eee6c31b9cc1b1d67d6a93e9482f2760f4fcdf0235c4fb15",
    "hamiltonian.svg": "a1db65c7571f6e63a7f30bff9976eff01c242689739ab492007c7ba332b01594",
}

# SVG bytes at seed 1 from per-point formatting: orbit and hamiltonian
# at the model flags over T=50, the other three at small flags
SVG_SEED_1_SHA256 = {
    "orbit.svg": "4f7b8bb6456488f339ff4feff9674da521d80910a211fcc772436fb7d1a74eda",
    "hamiltonian.svg": "80f53ec5d8a6de7477f306785b5f3438fb3dc22d4f04ad5a18ca21897b3f4ca6",
    "path.svg": "c9ead024f3004ce000c2ecdf695d5608d5e6bfc5eb8c3354f54a892c346c89f5",
    "symplectic_check.svg": "ec404ee6e00cc62211b96469d699b72c54a53c8802a4f4aacde8193ae0a0ab28",
    "convergence.svg": "6e00e96b0e7de5bc936ebced8ff71b2ea27babae91cf78ca109a1e0f9642ad89",
}


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSamplePath:
    def test_writes_events_and_reports_count(self, tmp_path, capsys):
        code = run_cli(["sample-path", "--seed", 1, "--horizon", 50, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        rows = read_rows(tmp_path / "path.csv")
        assert rows[0] == ["time", "channel", "mark"]
        count = len(rows) - 1
        assert f"events: {count}" in out
        assert count > 0
        times = [float(r[0]) for r in rows[1:]]
        assert all(0.0 < t <= 50.0 for t in times)
        assert times == sorted(times)

    def test_zero_rate_gives_header_only_file(self, tmp_path, capsys):
        code = run_cli(["sample-path", "--lambda", 0, "--out-dir", tmp_path])
        assert code == 0
        assert "events: 0" in capsys.readouterr().out
        content = (tmp_path / "path.csv").read_text()
        assert content == "time,channel,mark\n"

    def test_same_seed_reproduces_identical_bytes(self, tmp_path):
        run_cli(["sample-path", "--seed", 7, "--horizon", 50, "--out-dir", tmp_path / "a"])
        run_cli(["sample-path", "--seed", 7, "--horizon", 50, "--out-dir", tmp_path / "b"])
        first = (tmp_path / "a" / "path.csv").read_bytes()
        second = (tmp_path / "b" / "path.csv").read_bytes()
        assert first == second

    def test_different_seeds_differ(self, tmp_path):
        run_cli(["sample-path", "--seed", 7, "--horizon", 50, "--out-dir", tmp_path / "a"])
        run_cli(["sample-path", "--seed", 8, "--horizon", 50, "--out-dir", tmp_path / "b"])
        first = (tmp_path / "a" / "path.csv").read_bytes()
        second = (tmp_path / "b" / "path.csv").read_bytes()
        assert first != second

    def test_svg_render(self, tmp_path):
        code = run_cli(["sample-path", "--horizon", 20, "--svg", "--out-dir", tmp_path])
        assert code == 0
        text = (tmp_path / "path.svg").read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")


class TestSettingsTable:
    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_flag_set_is_pinned(self, command):
        _, subparsers = cli._build_parser()
        flags = {
            option
            for action in subparsers[command]._actions
            for option in action.option_strings
        }
        assert flags == {f"--{name}" for name in SETTINGS[command]} | {"--config", "-h", "--help"}

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_config_accepts_exactly_the_flag_names(self, command, tmp_path, capsys):
        # a negative seed stops the run after every key has been accepted
        values = {"svg": False, "out-dir": str(tmp_path), "dts": [0.2, 0.1, 0.05],
                  "scheme": "explicit", "seed": -1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: values.get(name, 2) for name in SETTINGS[command]}))
        assert run_cli([command, "--config", cfg]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        for other in set().union(*SETTINGS.values()) - SETTINGS[command]:
            cfg.write_text(json.dumps({other: 1}))
            assert run_cli([command, "--config", cfg, "--out-dir", tmp_path]) == 2
            assert f"unknown config key {other!r}" in capsys.readouterr().err


class TestConfigMerging:
    def test_config_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.0, "horizon": 25.0}))
        code = run_cli(["sample-path", "--config", cfg, "--out-dir", tmp_path])
        assert code == 0
        assert "events: 0" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.0}))
        code = run_cli(
            ["sample-path", "--config", cfg, "--lambda", 5, "--horizon", 50,
             "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events: 0" not in out

    def test_config_can_set_out_dir_and_svg(self, tmp_path):
        target = tmp_path / "nested" / "deeper"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out-dir": str(target), "svg": True, "horizon": 10.0}))
        code = run_cli(["sample-path", "--config", cfg])
        assert code == 0
        assert (target / "path.csv").exists()
        assert (target / "path.svg").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1.0, "bogus": 3}))
        code = run_cli(["sample-path", "--config", cfg, "--out-dir", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["sample-path", "--config", cfg, "--out-dir", tmp_path]) == 2

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_cli(["sample-path", "--config", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize(
        "command, config",
        [
            ("sample-path", {"lambda": True}),
            ("sample-path", {"seed": True}),
            ("sample-path", {"horizon": False}),
            ("converge", {"samples": True}),
            ("converge", {"dts": [0.2, True, 0.05]}),
            ("sample-path", {"svg": 1}),
        ],
    )
    def test_boolean_and_number_do_not_mix(self, command, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli([command, "--config", cfg, "--out-dir", tmp_path]) == 2


class TestUsageErrors:
    def test_negative_rate(self, tmp_path):
        assert run_cli(["sample-path", "--lambda", -1, "--out-dir", tmp_path]) == 2

    def test_negative_sigma(self, tmp_path):
        assert run_cli(["sample-path", "--sigma", -0.5, "--out-dir", tmp_path]) == 2

    def test_zero_horizon(self, tmp_path):
        assert run_cli(["sample-path", "--horizon", 0, "--out-dir", tmp_path]) == 2

    def test_zero_dt(self, tmp_path):
        assert run_cli(["orbit", "--dt", 0, "--out-dir", tmp_path]) == 2

    def test_negative_seed(self, tmp_path):
        assert run_cli(["sample-path", "--seed", -3, "--out-dir", tmp_path]) == 2

    def test_converge_needs_two_samples(self, tmp_path):
        assert run_cli(
            ["converge", "--samples", 1, "--dts", "0.2,0.1,0.05", "--out-dir", tmp_path]
        ) == 2

    def test_converge_needs_three_dts(self, tmp_path):
        assert run_cli(
            ["converge", "--samples", 2, "--dts", "0.2,0.1", "--out-dir", tmp_path]
        ) == 2

    def test_converge_refuses_repeated_dts_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a path was sampled before the step sizes were checked")

        monkeypatch.setattr(cli, "sample_path", refuse)
        argv = ["converge", "--samples", 3, "--dts", "0.08,0.08,0.08", "--out-dir", tmp_path]
        assert run_cli(argv) == 2
        assert "step sizes must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_converge_rejects_unknown_scheme(self, tmp_path):
        assert run_cli(
            ["converge", "--samples", 2, "--dts", "0.2,0.1,0.05", "--scheme", "magic",
             "--out-dir", tmp_path]
        ) == 2

    def test_converge_needs_positive_end_time(self, tmp_path):
        assert run_cli(
            ["converge", "--T", 0, "--samples", 2, "--dts", "0.2,0.1,0.05", "--out-dir", tmp_path]
        ) == 2

    def test_oversized_path_exits_2_without_drawing(self, tmp_path, monkeypatch):
        def refuse(seed, channel):
            raise AssertionError("a channel generator was built before the size check")

        monkeypatch.setattr(levy_path, "_channel_generator", refuse)
        code = run_cli(["sample-path", "--lambda", 1e12, "--horizon", 1000, "--out-dir", tmp_path])
        assert code == 2

    @pytest.mark.parametrize("T, dt", [(1e6, 1e-6), (1e300, 1e-300)])
    def test_oversized_grid_exits_2(self, T, dt, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid nodes allocated before the size check")

        monkeypatch.setattr(np, "arange", refuse)
        code = run_cli(["orbit", "--lambda", 0, "--T", T, "--dt", dt, "--out-dir", tmp_path])
        assert code == 2
        assert "MAX_GRID_STEPS" in capsys.readouterr().err

    # orbit runs both schemes before its exact trajectory, so their overflow warns first
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("argv", [["converge", "--samples", 2, "--T", 10, "--sigma", 1e307],
                                      ["orbit", "--T", 1, "--sigma", 1e308]],
                             ids=["converge", "orbit"])
    def test_marks_that_sum_beyond_the_float_range_exit_2(self, argv, tmp_path, capsys):
        # finite marks whose sum L(t) is not a float: increment (converge) and
        # _levels (orbit's exact trajectory) refuse it, with no traceback
        assert run_cli(argv + ["--seed", 0, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: channel 1 marks in (0, 10] sum beyond the float range\n"
                            if argv[0] == "converge" else
                            "error: channel 1 marks sum beyond the float range\n")
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["orbit", "hamiltonian"])
    def test_levels_beyond_the_float_range_are_refused_before_the_runs(self, command, tmp_path,
                                                                       capsys):
        # the exact trajectory's levels are summed first, so neither scheme
        # runs: no overflow warning, no divergence line and no file
        argv = [command, "--T", 1, "--sigma", 1e308, "--seed", 0, "--out-dir", tmp_path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: channel 1 marks sum beyond the float range\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_parser_serves_every_call_with_its_own_usage(self, tmp_path, capsys):
        # the parser is built once per process; a usage error still shows
        # the usage of its own subcommand, after a good run of another
        assert cli._build_parser() is cli._build_parser()
        assert run_cli(["orbit", "--dt", 0, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: symplevy orbit ") and err.endswith(
            "error: --dt must be > 0, got 0.0\n")
        assert run_cli(["sample-path", "--horizon", 5, "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(["converge", "--out-dir", tmp_path, "--samples"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: symplevy converge ") and err.endswith(
            "symplevy converge: error: argument --samples: expected one argument\n")
        assert run_cli(["symplectic-check", "--samples", 0, "--out-dir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("usage: symplevy symplectic-check ")

    def test_converge_lane_over_the_step_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # every segment fits in 45 steps; a lane at dt 0.05 has 40 drift
        # ticks and more with its jumps
        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 45)
        argv = ["converge", "--samples", 2, "--dts", "0.2,0.1,0.05", "--T", 2]
        assert run_cli(argv + ["--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: path 4 takes ")
        assert "over the limit MAX_GRID_STEPS = 45" in err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_an_out_dir_under_a_file_exits_2_before_any_run(self, command, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started before the output directory was made")

        monkeypatch.setattr(cli, "sample_path", refuse)
        monkeypatch.setattr(cli, "_kubo", refuse)
        (tmp_path / "path.csv").write_text("")
        for out_dir in (tmp_path / "path.csv" / "x", tmp_path / "path.csv"):
            assert run_cli([command, "--out-dir", out_dir]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    def test_a_file_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        (tmp_path / "path.csv").mkdir()  # the output's name is taken by a directory
        assert run_cli(["sample-path", "--horizon", 5, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert list((tmp_path / "path.csv").iterdir()) == []

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 2


class TestOrbit:
    def test_writes_three_trajectories(self, tmp_path, capsys):
        code = run_cli(["orbit", "--T", 20, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "end radius exact=" in out
        for name in ("exact", "symplectic", "explicit"):
            rows = read_rows(tmp_path / f"{name}.csv")
            assert rows[0] == ["t", "p1", "q1"]
            assert len(rows) == 252

    def test_drift_only_run_tracks_exact_orbit(self, tmp_path):
        code = run_cli(["orbit", "--beta", 0, "--T", 20, "--out-dir", tmp_path])
        assert code == 0
        exact = read_rows(tmp_path / "exact.csv")[1:]
        sym = read_rows(tmp_path / "symplectic.csv")[1:]
        gap = max(
            math.hypot(float(a[1]) - float(b[1]), float(a[2]) - float(b[2]))
            for a, b in zip(exact, sym)
        )
        assert gap < 0.05

    def test_zero_horizon_gives_single_state(self, tmp_path):
        code = run_cli(["orbit", "--T", 0, "--out-dir", tmp_path])
        assert code == 0
        for name in ("exact", "symplectic", "explicit"):
            assert len(read_rows(tmp_path / f"{name}.csv")) == 2

    def test_divergent_run_exits_3_with_partial_output(self, tmp_path, capsys):
        code = run_cli(["orbit", "--lambda", 0, "--dt", 1e6, "--T", 3e6, "--out-dir", tmp_path])
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        assert (tmp_path / "exact.csv").exists()
        assert (tmp_path / "symplectic.csv").exists()
        assert (tmp_path / "explicit.csv").exists()

    # the symplectic lane diverges, the explicit one, both (without and
    # with an overflow warning), neither
    @pytest.mark.parametrize("alpha, dt, T, lam", [(25.0, 0.1, 2.0, 5.0), (10.0, 0.08, 20.0, 5.0),
                                                   (0.1, 1e6, 3e6, 0.0), (1e300, 0.08, 1.0, 5.0),
                                                   (0.1, 0.08, 5.0, 5.0)])
    def test_stderr_is_that_of_the_schemes_run_in_turn(self, alpha, dt, T, lam, tmp_path, capsys,
                                                       monkeypatch):
        def to_stderr(message, category, filename, lineno, file=None, line=None):
            print(warnings.formatwarning(message, category, filename, lineno, line), end="",
                  file=sys.stderr)

        system = kubo_system(KuboParams(alpha, 0.1))
        path = sample_path(LevyPathSpec(rate=lam, mark_sigma=0.2, seed=0), T)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            monkeypatch.setattr(warnings, "showwarning", to_stderr)
            code = 0
            for scheme in ("symplectic", "explicit"):
                try:
                    integrate_fixed_grid(system, scheme, cli._START, 0.0, T, path, dt)
                except DivergenceError as err:
                    print(f"{scheme} scheme diverged: {err}", file=sys.stderr)
                    code = 3
            want = capsys.readouterr().err
            argv = ["orbit", "--alpha", alpha, "--dt", dt, "--T", T, "--lambda", lam]
            assert run_cli(argv + ["--out-dir", tmp_path]) == code
        assert capsys.readouterr().err == want
        assert (want != "") == (code == 3)

    def test_svg_render(self, tmp_path):
        code = run_cli(["orbit", "--T", 10, "--svg", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "orbit.svg").read_text().startswith("<svg")


class TestExactTrajectory:
    @pytest.mark.parametrize("case", ["events-on-nodes", "sampled", "adversarial"])
    def test_one_pass_levels_equal_increment(self, case):
        if case == "events-on-nodes":
            # a running float sum of these marks would round differently
            marks = [(0.25, 1e16), (0.5, 1.0), (0.5, -1e16), (0.6, 0.1), (1.0, 0.2), (1.0, 0.3),
                     (1.75, -0.7), (2.0, 1e-17)]
            events = tuple(JumpEvent(t, 1, m) for t, m in marks)
            path = LevyPath(spec=LevyPathSpec(rate=1.0, mark_sigma=1.0), horizon=2.0, events=events)
            times = np.linspace(0.0, 2.0, 9)
        elif case == "sampled":
            path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=1), 30.0)
            times = np.sort(np.concatenate([np.linspace(0.0, 30.0, 376),
                                            [ev.time for ev in path.events]]))
        elif case == "adversarial":
            # huge cancelling marks, subnormals and a rounding residue
            residue = 0.1 + 0.2 - 0.30000000000000004
            marks = [(0.1, 1e300), (0.2, 1e-300), (0.3, 5e-324), (0.4, -1e300), (0.5, residue),
                     (0.6, 5e-324), (0.7, -1e-300), (0.8, 1e300), (0.9, 0.1), (1.0, -1e300)]
            events = tuple(JumpEvent(t, 1, m) for t, m in marks)
            path = LevyPath(spec=LevyPathSpec(rate=1.0, mark_sigma=1.0), horizon=1.0, events=events)
            times = np.linspace(0.0, 1.0, 21)
        levels = [increment(path, 1, 0.0, float(t)) for t in times]
        assert cli._levels(path, times) == levels
        params = KuboParams(0.1, 0.1)
        start = PhaseState([0.0], [1.0])
        exact = cli._exact_trajectory(params, path, times)
        for j, (t, level) in enumerate(zip(times, levels)):
            state = kubo_exact(params, start, float(t), level)
            assert exact.ps[j, 0] == state.p[0] and exact.qs[j, 0] == state.q[0]


class TestHamiltonianCommand:
    def test_energy_columns(self, tmp_path, capsys):
        code = run_cli(["hamiltonian", "--T", 20, "--out-dir", tmp_path])
        assert code == 0
        assert "H symplectic range=" in capsys.readouterr().out
        rows = read_rows(tmp_path / "hamiltonian.csv")
        assert rows[0] == ["t", "H_exact", "H_symplectic", "H_explicit"]
        exact = [float(r[1]) for r in rows[1:]]
        sym = [float(r[2]) for r in rows[1:]]
        explicit = [float(r[3]) for r in rows[1:]]
        assert max(abs(v - 0.5) for v in exact) < 1e-12
        assert 0.4 < min(sym) and max(sym) < 0.6
        assert all(b >= a for a, b in zip(explicit, explicit[1:]))
        assert explicit[-1] > explicit[0]

    def test_svg_render(self, tmp_path):
        code = run_cli(["hamiltonian", "--T", 10, "--svg", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "hamiltonian.svg").read_text().startswith("<svg")


class TestConverge:
    def test_drift_only_run_recovers_first_order(self, tmp_path, capsys):
        code = run_cli(
            ["converge", "--samples", 2, "--dts", "0.2,0.1,0.05", "--T", 2,
             "--lambda", 0, "--beta", 0, "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slope=" in out
        assert "half-order-residual=" in out
        slope = float(out.split("slope=")[1].split()[0])
        assert 0.9 < slope < 1.1
        rows = read_rows(tmp_path / "convergence.csv")
        assert rows[0] == ["dt", "ms_error", "log_dt", "log_error"]
        assert rows[-2] == ["slope", "intercept", "residual"]
        assert len(rows) == 1 + 3 + 2

    def test_explicit_scheme_runs(self, tmp_path, capsys):
        code = run_cli(
            ["converge", "--samples", 2, "--dts", "0.2,0.1,0.05", "--T", 2,
             "--lambda", 0, "--beta", 0, "--scheme", "explicit", "--out-dir", tmp_path]
        )
        assert code == 0
        slope = float(capsys.readouterr().out.split("slope=")[1].split()[0])
        assert 0.9 < slope < 1.1

    def test_large_marks_fit_first_order(self, tmp_path, capsys):
        # beta R about 3 N(0, 1): Kubo's exact jump map leaves the scheme's
        # own error, where the RK4 flow's cap error fitted a slope of 0.14
        argv = ["converge", "--beta", 15, "--samples", 40, "--T", 2, "--seed", 1,
                "--out-dir", tmp_path]
        assert run_cli(argv) == 0
        assert float(capsys.readouterr().out.split("slope=")[1].split()[0]) >= 0.9

    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    def test_samples_run_in_chunks_under_the_row_budget(self, tmp_path, capsys, monkeypatch, scheme):
        argv = ["converge", "--samples", 7, "--dts", "0.2,0.1,0.05", "--T", 2, "--scheme", scheme,
                "--seed", 3, "--out-dir"]
        cells_in_order = [(dt, cli._cell_seed(3, i, s))
                          for i, dt in enumerate((0.2, 0.1, 0.05)) for s in range(7)]
        chunks = []
        real = cli._end_differences

        def spy(settings, params, system, paths, dts):
            cells = list(zip(dts, paths, strict=True))
            rows = sum(math.ceil(2 / dt) + 2 * len(path) + 2 for dt, path in cells)
            chunks.append((cells, rows))
            return real(settings, params, system, paths, dts)

        monkeypatch.setattr(cli, "_end_differences", spy)
        assert run_cli(argv + [tmp_path / "whole"]) == 0
        whole = capsys.readouterr().out.splitlines()[1:]
        # under the real budget every cell of every dt is one batch
        assert [[(dt, path.spec.seed) for dt, path in cells] for cells, _ in chunks] == [cells_in_order]
        chunks.clear()
        monkeypatch.setattr(cli, "MAX_GRID_STEPS", 65)
        assert run_cli(argv + [tmp_path / "chunked"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == whole
        assert (tmp_path / "chunked" / "convergence.csv").read_bytes() == (
            tmp_path / "whole" / "convergence.csv"
        ).read_bytes()
        # every (dt, sample) cell runs exactly once, in dt-major order
        assert [(dt, path.spec.seed) for cells, _ in chunks for dt, path in cells] == cells_in_order
        assert all(rows <= 65 or len(cells) == 1 for cells, rows in chunks)
        assert any(len(cells) > 1 for cells, _ in chunks)
        assert any(len(cells) == 1 and rows > 65 for cells, rows in chunks)

    def test_a_cell_over_the_budget_runs_before_the_next_is_drawn(self, tmp_path, capsys,
                                                                    monkeypatch):
        # at a budget of 45 rows a lane at dt 0.05 (40 drift ticks) with a
        # jump is over it, and over the step limit: the run stops there, and
        # no path beside it is held
        argv = ["converge", "--samples", 3, "--dts", "0.2,0.1,0.05", "--T", 2, "--seed", 3]
        dts = {cli._cell_seed(3, i, s): dt for i, dt in enumerate((0.2, 0.1, 0.05)) for s in range(3)}
        events = []
        real_sample, real_run = cli._sample, cli._end_differences

        def sample(settings, horizon, seed):
            path = real_sample(settings, horizon, seed)
            events.append(("draw", seed, math.ceil(2 / dts[seed]) + 2 * len(path) + 2))
            return path

        def run(settings, params, system, paths, steps):
            events.append(("run", [path.spec.seed for path in paths]))
            return real_run(settings, params, system, paths, steps)

        monkeypatch.setattr(cli, "_sample", sample)
        monkeypatch.setattr(cli, "_end_differences", run)
        monkeypatch.setattr(cli, "MAX_GRID_STEPS", 45)
        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 45)
        assert run_cli(argv + ["--out-dir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: path 0 takes ")
        over = [k for k, event in enumerate(events) if event[0] == "draw" and event[2] > 45]
        assert over and dts[events[over[-1]][1]] == 0.05
        for k in over:  # the runs right after its draw include it alone
            following = itertools.takewhile(lambda event: event[0] == "run", events[k + 1 :])
            assert ("run", [events[k][1]]) in following
        assert events[-1] == ("run", [events[over[-1]][1]])

    def test_benchmark_flags_write_the_pinned_bytes(self, tmp_path, capsys):
        # the benchmark's converge operation at seed 1: how the cells are
        # batched must not change a digit
        argv = ["converge", "--alpha", 0.1, "--beta", 0.1, "--lambda", 5.0, "--sigma", 0.2,
                "--T", 10.0, "--samples", 5, "--dts", "0.08,0.04,0.02,0.01,0.005",
                "--scheme", "symplectic", "--seed", 1, "--out-dir", tmp_path]
        assert run_cli(argv) == 0
        assert (tmp_path / "convergence.csv").read_text() == CONVERGE_SEED_1
        assert capsys.readouterr().out.splitlines()[1] == (
            "slope=0.983401 intercept=-3.263088 residual=0.006127 half-order-residual=0.668749"
        )

    def test_cap_heavy_flags_write_the_pinned_bytes(self, tmp_path, capsys):
        # beta 15 makes the marks large; Kubo's jumps take its exact rotation,
        # so these bytes are the rotation's (the RK4 flow's cap runs and
        # step-doubling bookkeeping at these paths are pinned in
        # test_integrators, on Kubo without its map)
        argv = ["converge", "--beta", 15, "--samples", 5, "--T", 2, "--seed", 1,
                "--out-dir", tmp_path]
        assert run_cli(argv) == 0
        data = (tmp_path / "convergence.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == CONVERGE_CAP_SEED_1_SHA256
        out = capsys.readouterr().out.replace(str(tmp_path), "<out-dir>")
        assert hashlib.sha256(out.encode()).hexdigest() == CONVERGE_CAP_SEED_1_STDOUT_SHA256

    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    def test_end_differences_are_trajectory_ends_minus_exact_ends(self, scheme):
        params = KuboParams(0.1, 0.1)
        system = kubo_system(params)
        paths = [sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=s), 3.0) for s in range(4)]
        dts = [0.1, 0.05, 0.1, 0.02]
        diffs = cli._end_differences({"T": 3.0, "scheme": scheme}, params, system, paths, dts)
        assert diffs.shape == (4, 2)
        start = PhaseState([0.0], [1.0])
        for path, step, diff in zip(paths, dts, diffs):
            traj = scalar_pathwise(system, start, 0.0, 3.0, path, step, scheme)
            if scheme == "symplectic":
                assert_same_run(traj, integrate_pathwise(system, start, 0.0, 3.0, path, step))
            exact = kubo_exact(params, start, 3.0, increment(path, 1, 0.0, 3.0))
            assert np.array_equal(diff, traj.final_state().as_vector() - exact.as_vector())

    def test_dts_accepts_json_list_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"samples": 2, "dts": [0.2, 0.1, 0.05], "T": 2.0,
                 "lambda": 0.0, "beta": 0.0}
            )
        )
        code = run_cli(["converge", "--config", cfg, "--out-dir", tmp_path])
        assert code == 0
        assert "slope=" in capsys.readouterr().out

    def test_svg_render(self, tmp_path):
        code = run_cli(
            ["converge", "--samples", 2, "--dts", "0.2,0.1,0.05", "--T", 2,
             "--lambda", 0, "--beta", 0, "--svg", "--out-dir", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "convergence.svg").read_text().startswith("<svg")


class TestSymplecticCheck:
    def test_defect_table(self, tmp_path, capsys):
        code = run_cli(["symplectic-check", "--samples", 50, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "max defect symplectic=" in out
        rows = read_rows(tmp_path / "symplectic_check.csv")
        assert rows[0] == ["p", "q", "dt", "dL", "defect_symplectic", "defect_explicit"]
        data = [[float(x) for x in r] for r in rows[1:]]
        assert len(data) == 55
        controls = [r for r in data if r[2] == 0.0 and r[3] == 0.0]
        assert len(controls) == 5
        # dt = 0 and dL = 0 make both maps the identity, so the defect
        # only reflects finite-difference noise.
        assert max(max(r[4], r[5]) for r in controls) < 1e-9
        live = [r for r in data if r[2] > 0.0]
        assert len(live) == 50
        assert max(r[4] for r in live) < 1e-6
        strong = [r for r in live if abs(0.1 * r[2] + 0.1 * r[3]) >= 0.05]
        assert strong
        assert min(r[5] for r in strong) > 1e-4
        # the maxima are over the live samples only
        maxima = f"symplectic={max(r[4] for r in live):.3e} explicit={max(r[5] for r in live):.3e}"
        assert maxima in out

    def test_reproducible_across_runs(self, tmp_path):
        run_cli(["symplectic-check", "--samples", 20, "--seed", 4, "--out-dir", tmp_path / "a"])
        run_cli(["symplectic-check", "--samples", 20, "--seed", 4, "--out-dir", tmp_path / "b"])
        first = (tmp_path / "a" / "symplectic_check.csv").read_bytes()
        second = (tmp_path / "b" / "symplectic_check.csv").read_bytes()
        assert first == second

    def test_svg_render(self, tmp_path):
        code = run_cli(["symplectic-check", "--samples", 20, "--svg", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "symplectic_check.svg").read_text().startswith("<svg")

    def test_seed_1_writes_the_pinned_bytes(self, tmp_path, capsys):
        # running the samples as lanes must not change a digit
        argv = ["symplectic-check", "--samples", 1000, "--seed", 1, "--out-dir", tmp_path]
        assert run_cli(argv) == 0
        data = (tmp_path / "symplectic_check.csv").read_bytes()
        assert data.decode().startswith(SYMPLECTIC_CHECK_SEED_1_HEAD)
        assert hashlib.sha256(data).hexdigest() == SYMPLECTIC_CHECK_SEED_1_SHA256
        assert capsys.readouterr().out.splitlines()[1] == (
            "max defect symplectic=3.562e-10 explicit=1.171e-02"
        )

    def test_chunks_write_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        argv = ["symplectic-check", "--samples", 40, "--seed", 6, "--svg", "--out-dir"]
        sizes = []
        real = cli._defects

        def spy(system, samples):
            sizes.append(len(samples))
            return real(system, samples)

        monkeypatch.setattr(cli, "_defects", spy)
        assert run_cli(argv + [tmp_path / "whole"]) == 0
        whole = capsys.readouterr().out.splitlines()[1]
        assert sizes == [5, 40]
        sizes.clear()
        monkeypatch.setattr(cli, "_CHECK_CHUNK", 7)
        assert run_cli(argv + [tmp_path / "chunked"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == whole
        assert sizes == [5, 7, 7, 7, 7, 7, 5]
        for name in ("symplectic_check.csv", "symplectic_check.svg"):
            chunked = (tmp_path / "chunked" / name).read_bytes()
            assert chunked == (tmp_path / "whole" / name).read_bytes()

    @pytest.mark.parametrize("alpha, beta, code",
                             [(1e300, 0.1, 2), (0.1, 1e308, 3), (1e308, 1e308, 3)])
    def test_overflow_fails_as_one_sample_at_a_time(self, alpha, beta, code, tmp_path, capsys):
        # the error and every warning of checking the samples in order, one
        # public Jacobian at a time, up to the first failure
        system = kubo_system(KuboParams(alpha, beta))
        rng = np.random.default_rng(0)

        def one_at_a_time():
            for k in range(1005):
                state = PhaseState([rng.uniform(-2.0, 2.0)], [rng.uniform(-2.0, 2.0)])
                dt, dl = (0.0, 0.0)
                if k >= 5:
                    dt, dl = 0.1 - rng.uniform(0.0, 0.1), rng.uniform(-1.0, 1.0)
                for scheme in ("symplectic", "explicit"):
                    jac = one_step_jacobian(system, scheme, state, dt, [dl])
                    symplectic_defect(jac)

        def seen(records):
            return [(str(w.message), w.category, w.filename, w.lineno) for w in records]

        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            with pytest.raises((DomainError, NonConvergenceError)) as expected:
                one_at_a_time()
        with warnings.catch_warnings(record=True) as cli_warnings:
            warnings.simplefilter("always")
            argv = ["symplectic-check", "--alpha", alpha, "--beta", beta, "--out-dir", tmp_path]
            assert run_cli(argv) == code
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert seen(cli_warnings) == seen(expected_warnings) != []
        assert not (tmp_path / "symplectic_check.csv").exists()


class TestPinnedPathBytes:
    def sha256(self, file_path):
        return hashlib.sha256(file_path.read_bytes()).hexdigest()

    def test_sample_path_seed_1(self, tmp_path, capsys):
        assert run_cli(["sample-path", "--seed", 1, "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "events: 997"
        assert self.sha256(tmp_path / "path.csv") == SAMPLE_PATH_SEED_1_SHA256

    def test_orbit_and_hamiltonian_seed_1(self, tmp_path):
        for command in ("orbit", "hamiltonian"):
            argv = [command, *MODEL_FLAGS, "--T", 50, "--seed", 1, "--out-dir", tmp_path]
            assert run_cli(argv) == 0
        for name, digest in MODEL_T50_SEED_1_SHA256.items():
            assert self.sha256(tmp_path / name) == digest, name

    def test_orbit_and_hamiltonian_t400_seed_1(self, tmp_path):
        for command in ("orbit", "hamiltonian"):
            argv = [command, *MODEL_FLAGS, "--dt", 0.08, "--T", 400, "--svg", "--seed", 1,
                    "--out-dir", tmp_path]
            assert run_cli(argv) == 0
        for name, digest in MODEL_T400_SEED_1_SHA256.items():
            assert self.sha256(tmp_path / name) == digest, name

    def test_svg_seed_1(self, tmp_path):
        for argv in (
            ["orbit", *MODEL_FLAGS, "--T", 50],
            ["hamiltonian", *MODEL_FLAGS, "--T", 50],
            ["sample-path", "--horizon", 20],
            ["symplectic-check", "--samples", 40],
            ["converge", "--samples", 4, "--T", 2, "--dts", "0.2,0.1,0.05"],
        ):
            assert run_cli([*argv, "--seed", 1, "--svg", "--out-dir", tmp_path]) == 0
        for name, digest in SVG_SEED_1_SHA256.items():
            assert self.sha256(tmp_path / name) == digest, name


def test_polyline_points_match_per_point_formatting():
    # signed zeros, negatives that round to -0.00, ties at the third
    # decimal (exact in binary or not), non-finite and huge values
    values = [0.0, -0.0, -1e-300, -0.004, -0.005, 0.005, 0.125, -0.375, 2.675, 1.005, 0.015,
              np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324, 12.344999999999999]
    rng = np.random.default_rng(5)
    px = np.concatenate([values, rng.uniform(-1e3, 1e3, 200)])
    py = np.concatenate([values[::-1], rng.normal(0.0, 1e-2, 200)])
    assert _points(px, py) == " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    assert _points(np.array([]), np.array([])) == ""


def test_symplectic_check_reports_a_nan_maximum(tmp_path, capsys):
    # the defect product overflows at alpha = 1e150, so every live
    # symplectic defect is NaN and the maximum must say so, not 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run_cli(["symplectic-check", "--alpha", 1e150, "--out-dir", tmp_path])
    assert code == 0
    rows = read_rows(tmp_path / "symplectic_check.csv")[1:]
    assert all(row[4] == "nan" for row in rows if float(row[2]) > 0.0)
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("max defect symplectic=nan explicit=")
