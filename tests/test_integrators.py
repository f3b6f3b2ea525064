"""Tests for the one-step maps and the trajectory drivers."""

import csv
import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplevy as sl
from symplevy import _noise, cli, integrators
from symplevy._csv import fmt, fmt_rows
from symplevy.analysis import _jacobian_lanes
from symplevy.errors import DivergenceError, DomainError, InvalidSpecError, NonConvergenceError
from symplevy.hamiltonian import _kubo_rotation
from symplevy.integrators import (
    MAX_GRID_STEPS,
    _lane_jumps,
    _lane_record,
    _one_step,
    _pathwise_record,
    _step_lanes,
)


KUBO = sl.KuboParams(alpha=0.1, beta=0.1)


def kubo():
    return sl.kubo_system(KUBO)


def rk4_kubo():
    # Kubo without its exact jump map: every jump takes the RK4 flow
    return dataclasses.replace(kubo(), jump_maps=None)


def unit_start():
    return sl.PhaseState([0.0], [1.0])


def empty_path(horizon):
    spec = sl.LevyPathSpec(rate=0.0, mark_sigma=0.0)
    return sl.LevyPath(spec=spec, horizon=horizon, events=())


class TestTrajectory:
    def test_basic_accessors(self):
        traj = sl.Trajectory(
            times=[0.0, 0.5, 1.0],
            ps=[[0.0], [0.1], [0.2]],
            qs=[[1.0], [0.9], [0.8]],
            scheme_tag="symplectic",
        )
        assert len(traj) == 3
        assert traj.n == 1
        assert traj.state(1).p[0] == 0.1
        assert traj.final_state().q[0] == 0.8
        assert len(traj.states) == 3

    def test_allows_tied_times_for_jump_records(self):
        traj = sl.Trajectory(
            times=[0.0, 0.5, 0.5, 1.0],
            ps=[[0.0], [0.1], [0.3], [0.2]],
            qs=[[1.0], [0.9], [0.7], [0.8]],
            scheme_tag="pathwise",
        )
        assert len(traj) == 4

    def test_rejects_decreasing_times(self):
        with pytest.raises(DomainError):
            sl.Trajectory(
                times=[0.0, 0.6, 0.5],
                ps=[[0.0]] * 3,
                qs=[[1.0]] * 3,
                scheme_tag="symplectic",
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            sl.Trajectory(
                times=[0.0, 1.0],
                ps=[[0.0]],
                qs=[[1.0], [0.9]],
                scheme_tag="symplectic",
            )

    def test_rejects_non_finite_states(self):
        with pytest.raises(DomainError):
            sl.Trajectory(
                times=[0.0, 1.0],
                ps=[[0.0], [float("nan")]],
                qs=[[1.0], [0.9]],
                scheme_tag="symplectic",
            )


class TestOneStepMaps:
    def test_solver_settings_are_constants(self):
        assert (integrators._IMPLICIT_TOL, integrators._IMPLICIT_MAX_ITERS) == (1e-12, 50)
        assert sl.DEFAULT_SUBSTEPS == 16

    def test_zero_step_is_identity(self):
        state = sl.PhaseState([0.3], [-0.7])
        dl = np.zeros(1)
        for step in (sl.symplectic_euler_step, sl.explicit_euler_step):
            out = step(kubo(), state, 0.0, dl)
            assert out.p[0] == state.p[0]
            assert out.q[0] == state.q[0]

    def test_symplectic_drift_step_values(self):
        # One drift-only step from (P, Q) = (0, 1) with a = alpha * dt = 0.008:
        # P1 = -a, Q1 = 1 - a^2.
        out = sl.symplectic_euler_step(kubo(), unit_start(), 0.08, np.zeros(1))
        assert out.p[0] == pytest.approx(-0.008, abs=1e-15)
        assert out.q[0] == pytest.approx(0.999936, abs=1e-15)

    def test_explicit_drift_step_values(self):
        # Explicit update evaluates both fields at the old state, so Q1
        # stays exactly 1 when P0 = 0.
        out = sl.explicit_euler_step(kubo(), unit_start(), 0.08, np.zeros(1))
        assert out.p[0] == pytest.approx(-0.008, abs=1e-15)
        assert out.q[0] == 1.0

    def test_symplectic_matches_linear_map_with_jump_increment(self):
        # For the oscillator both updates reduce to the linear map
        # (P1, Q1) = (P0 - a Q0, Q0 + a P1) with a = alpha dt + beta dL.
        rng = np.random.default_rng(11)
        for _ in range(20):
            p0, q0 = rng.uniform(-2.0, 2.0, size=2)
            dl = rng.uniform(-1.0, 1.0)
            a = KUBO.alpha * 0.08 + KUBO.beta * dl
            out = sl.symplectic_euler_step(kubo(), sl.PhaseState([p0], [q0]), 0.08, np.array([dl]))
            p1 = p0 - a * q0
            assert out.p[0] == pytest.approx(p1, abs=1e-14)
            assert out.q[0] == pytest.approx(q0 + a * p1, abs=1e-14)

    def test_explicit_matches_linear_map_with_jump_increment(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p0, q0 = rng.uniform(-2.0, 2.0, size=2)
            dl = rng.uniform(-1.0, 1.0)
            a = KUBO.alpha * 0.08 + KUBO.beta * dl
            out = sl.explicit_euler_step(kubo(), sl.PhaseState([p0], [q0]), 0.08, np.array([dl]))
            assert out.p[0] == pytest.approx(p0 - a * q0, abs=1e-14)
            assert out.q[0] == pytest.approx(q0 + a * p0, abs=1e-14)

    def test_rejects_negative_dt_and_bad_increment_shape(self):
        with pytest.raises(DomainError):
            sl.symplectic_euler_step(kubo(), unit_start(), -0.1, np.zeros(1))
        with pytest.raises(DomainError):
            sl.symplectic_euler_step(kubo(), unit_start(), 0.1, np.zeros(2))
        with pytest.raises(DomainError):
            sl.explicit_euler_step(kubo(), unit_start(), 0.1, np.zeros((1, 1)))

    def test_messages_name_the_bad_value(self):
        with pytest.raises(DomainError, match=r"^dt must be >= 0, got -1$"):
            sl.symplectic_euler_step(kubo(), unit_start(), -1, 0.0)
        with pytest.raises(DomainError, match=r"^dL must have length m=1, got shape \(2,\)$"):
            sl.explicit_euler_step(kubo(), unit_start(), 0.1, [0.0, 0.0])
        with pytest.raises(DomainError, match=r"got shape \(1, 1\)$"):
            sl.explicit_euler_step(kubo(), unit_start(), 0.1, np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "dt, dl, message",
        [
            (math.nan, 0.0, r"^dt must be finite, got nan$"),
            (math.inf, 0.0, r"^dt must be finite, got inf$"),
            (True, 0.0, r"^dt must be a number, not a boolean, got True$"),
            (0.1, math.nan, r"^dL must be finite, got \[nan\]$"),
            (0.1, -math.inf, r"^dL must be finite, got \[-inf\]$"),
            ("0.1", 0.0, r"^dt must be a number, got '0.1'$"),
            (0.1, "0.2", r"^dL must be a number, got \['0.2'\]$"),
            (0.1, True, r"^dL must be a number, not a boolean, got \[True\]$"),
        ],
        ids=["nan-dt", "inf-dt", "bool-dt", "nan-dL", "inf-dL", "str-dt", "str-dL", "bool-dL"],
    )
    @pytest.mark.parametrize(
        "step",
        [
            sl.symplectic_euler_step,
            sl.explicit_euler_step,
            lambda *args: sl.one_step_jacobian(args[0], "symplectic", *args[1:]),
            lambda *args: sl.one_step_jacobian(args[0], "explicit", *args[1:]),
        ],
        ids=["symplectic", "explicit", "jacobian-symplectic", "jacobian-explicit"],
    )
    def test_non_finite_or_boolean_input_is_refused_before_stepping(self, step, dt, dl, message):
        # refused up front: no solve that stalls on NaN, no numpy warnings
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                step(kubo(), unit_start(), dt, [dl])

    def test_lane_groups_step_at_their_own_dt_and_increments(self):
        dts = [0.05, 0.0, 0.08]
        dls = np.array([[0.3], [0.0], [-0.6]])
        starts = np.array([[0.4], [-1.2], [0.9], [0.1], [2.0], [-0.3]])
        for scheme, step in (("symplectic", sl.symplectic_euler_step),
                             ("explicit", sl.explicit_euler_step)):
            p, q, stalled = _one_step(kubo(), scheme, starts, starts[::-1], dts, dls)
            assert stalled is None
            for lane in range(6):
                alone = step(kubo(), sl.PhaseState(starts[lane], starts[5 - lane]),
                             dts[lane // 2], dls[lane // 2])
                assert p[lane, 0] == alone.p[0] and q[lane, 0] == alone.q[0]
        with pytest.raises(DomainError, match=r"^dt must be >= 0, got -0\.2$"):
            _one_step(kubo(), "explicit", starts, starts, [0.1, -0.2, -0.3], dls)

    def test_fixed_point_non_convergence_reports_residual(self):
        # sigma_0 = 30 p makes the fixed-point iteration expand by a
        # factor of 3 per sweep at dt = 0.1, so the solve cannot settle.
        stiff = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=[lambda p, q: 30.0 * p, lambda p, q: 0.0 * q],
            gamma=[lambda p, q: 0.0 * p, lambda p, q: 0.0 * p],
            hamiltonians=[lambda p, q: 0.0, lambda p, q: 0.0],
        )
        with pytest.raises(NonConvergenceError) as info:
            sl.symplectic_euler_step(stiff, sl.PhaseState([1.0], [1.0]), 0.1, np.zeros(1))
        assert info.value.residual is not None
        assert info.value.residual > 1.0


class TestFixedGridNodes:
    def test_step_count_is_ceiling_of_span_over_dt(self):
        path = empty_path(300.0)
        cases = [
            (0.0, 1.0, 0.3, 5),
            (0.0, 1.0, 0.25, 5),
            (0.0, 200.0, 0.08, 2501),
            (1.0, 2.0, 0.4, 4),
        ]
        for t0, T, dt, n_nodes in cases:
            traj = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), t0, T, path, dt)
            assert len(traj) == n_nodes
            assert traj.times[0] == t0
            assert traj.times[-1] == T

    def test_interior_nodes_are_uniform(self):
        path = empty_path(2.0)
        traj = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 1.0, path, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_zero_span_run_returns_single_state(self):
        path = empty_path(1.0)
        traj = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.5, 0.5, path, 0.1)
        assert len(traj) == 1
        assert traj.times[0] == 0.5
        assert traj.ps[0, 0] == 0.0
        assert traj.qs[0, 0] == 1.0


class TestGridSizeLimit:
    def test_oversized_grid_fails_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid nodes allocated before the size check")

        monkeypatch.setattr(np, "arange", refuse)
        dt = 1e-6
        with pytest.raises(InvalidSpecError, match="MAX_GRID_STEPS"):
            sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 1e6,
                                    empty_path(1e6), dt)

    def test_infinite_step_count_is_refused(self):
        dt = 1e-300
        with pytest.raises(InvalidSpecError, match="MAX_GRID_STEPS"):
            sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), 0.0, 1e300,
                                    empty_path(1e300), dt)


class TestRunValidation:
    def test_requires_a_path(self):
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 1.0, None, 0.1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(kubo(), "magic", unit_start(), 0.0, 1.0, empty_path(1.0), 0.1)

    def test_rejects_window_outside_path_horizon(self):
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(
                kubo(), "symplectic", unit_start(), 0.0, 2.0, empty_path(1.0),
                0.1,
            )

    def test_rejects_reversed_window(self):
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(
                kubo(), "symplectic", unit_start(), 1.0, 0.5, empty_path(2.0),
                0.1,
            )

    def test_rejects_channel_count_mismatch(self):
        spec = sl.LevyPathSpec(rate=1.0, mark_sigma=0.1, noise_count=2)
        path = sl.sample_path(spec, 1.0)
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 1.0, path, 0.1)

    def test_rejects_dimension_mismatch(self):
        bad = sl.PhaseState([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            sl.integrate_fixed_grid(kubo(), "symplectic", bad, 0.0, 1.0, empty_path(1.0), 0.1)


class TestDeterministicRuns:
    def test_symplectic_orbit_stays_on_annulus(self):
        # Noise-free oscillator over 2500 steps: the symplectic map keeps
        # the radius within a band of half-width about a/2 around 1.
        path = empty_path(200.0)
        traj = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 200.0, path, 0.08)
        radii = np.hypot(traj.ps[:, 0], traj.qs[:, 0])
        assert radii.min() > 0.99
        assert radii.max() < 1.01

    def test_explicit_energy_grows_every_step(self):
        path = empty_path(200.0)
        traj = sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), 0.0, 200.0, path, 0.08)
        energy = 0.5 * (traj.ps[:, 0] ** 2 + traj.qs[:, 0] ** 2)
        assert np.all(np.diff(energy) > 0)
        assert energy[-1] > energy[0]

    def test_first_order_convergence_without_noise(self):
        params = sl.KuboParams(alpha=0.1, beta=0.0)
        system = sl.kubo_system(params)
        path = empty_path(10.0)
        exact = sl.kubo_exact(params, unit_start(), 10.0, 0.0)
        errors = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            traj = sl.integrate_fixed_grid(system, "symplectic", unit_start(), 0.0, 10.0, path, dt)
            errors.append(
                math.hypot(traj.ps[-1, 0] - exact.p[0], traj.qs[-1, 0] - exact.q[0])
            )
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        for ratio in ratios:
            assert 1.8 < ratio < 2.2

    def test_explicit_energy_recursion_with_jumps(self):
        # Each explicit step multiplies P^2 + Q^2 by exactly 1 + a_j^2
        # with a_j = alpha dt_j + beta dL_j.
        path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=7), 10.0)
        traj = sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), 0.0, 10.0, path, 0.1)
        dls = sl.grid_increments(path, 1, traj.times)
        energy = 0.5 * (traj.ps[:, 0] ** 2 + traj.qs[:, 0] ** 2)
        for j in range(len(dls)):
            a = KUBO.alpha * (traj.times[j + 1] - traj.times[j]) + KUBO.beta * dls[j]
            assert energy[j + 1] == pytest.approx((1.0 + a * a) * energy[j], rel=1e-12)


class TestZeroEventEquivalence:
    def test_fixed_grid_ignores_noise_spec_when_no_events(self):
        spec5 = sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=1)
        silent = sl.LevyPath(spec=spec5, horizon=20.0, events=())
        quiet = sl.sample_path(sl.LevyPathSpec(rate=0.0, mark_sigma=0.0), 20.0)
        dt = 0.08
        for scheme in ("symplectic", "explicit"):
            a = sl.integrate_fixed_grid(kubo(), scheme, unit_start(), 0.0, 20.0, silent, dt)
            b = sl.integrate_fixed_grid(kubo(), scheme, unit_start(), 0.0, 20.0, quiet, dt)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.ps, b.ps)
            assert np.array_equal(a.qs, b.qs)

    def test_pathwise_matches_fixed_grid_bitwise_without_events(self):
        path = empty_path(20.0)
        dt = 0.08
        grid = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 20.0, path, dt)
        adapted = sl.integrate_pathwise(kubo(), unit_start(), 0.0, 20.0, path, dt)
        assert np.array_equal(grid.times, adapted.times)
        assert np.array_equal(grid.ps, adapted.ps)
        assert np.array_equal(grid.qs, adapted.qs)


class TestPathwiseJumps:
    def one_jump_path(self, tau, mark, horizon):
        spec = sl.LevyPathSpec(rate=1.0, mark_sigma=1.0, seed=0)
        return sl.LevyPath(spec=spec, horizon=horizon, events=(sl.JumpEvent(tau, 1, mark),))

    def test_records_pre_and_post_states_at_jump_time(self):
        path = self.one_jump_path(0.5, 0.8, 1.0)
        traj = sl.integrate_pathwise(rk4_kubo(), unit_start(), 0.0, 1.0, path, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.5, 0.75, 1.0], atol=1e-15)
        i_pre = 2
        pre = traj.state(i_pre)
        post = traj.state(i_pre + 1)
        # beta R = 0.08: the 2-substep flow misses the tolerance, the 4-substep one meets it
        expected, substeps = doubled_jump_flow(rk4_kubo(), pre, np.array([0.8]))
        assert substeps == 4
        assert post.p[0] == expected.p[0]
        assert post.q[0] == expected.q[0]
        assert (pre.p[0], pre.q[0]) != (post.p[0], post.q[0])

    def test_drift_segments_end_exactly_at_jump_times(self):
        path = self.one_jump_path(0.37, -0.4, 1.0)
        traj = sl.integrate_pathwise(kubo(), unit_start(), 0.0, 1.0, path, 0.25)
        times = traj.times
        assert np.count_nonzero(times == 0.37) == 2
        assert times[-1] == 1.0

    def test_single_jump_run_matches_exact_rotation(self):
        # One mark R at t = 3.7 rotates the exact solution by
        # alpha T + beta R in total; a fine step resolves the drift.
        path = self.one_jump_path(3.7, 0.6, 10.0)
        traj = sl.integrate_pathwise(kubo(), unit_start(), 0.0, 10.0, path, 1e-4)
        exact = sl.kubo_exact(KUBO, unit_start(), 10.0, 0.6)
        err = math.hypot(traj.ps[-1, 0] - exact.p[0], traj.qs[-1, 0] - exact.q[0])
        assert err < 1e-3

    def test_errors_shrink_under_dt_halving_on_one_path(self):
        path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=17), 10.0)
        total = sl.increment(path, 1, 0.0, 10.0)
        exact = sl.kubo_exact(KUBO, unit_start(), 10.0, total)
        errors = []
        for dt in (0.2, 0.1, 0.05, 0.025, 0.0125):
            traj = sl.integrate_pathwise(kubo(), unit_start(), 0.0, 10.0, path, dt)
            errors.append(
                math.hypot(traj.ps[-1, 0] - exact.p[0], traj.qs[-1, 0] - exact.q[0])
            )
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        assert errors[-1] < errors[0] / 8.0

    def test_zero_beta_jumps_only_resegment_the_grid(self):
        # With beta = 0 the jump flow is the identity, so events change
        # nothing but the placement of drift nodes; the end-state gap to
        # the event-free run is first order in dt.
        params = sl.KuboParams(alpha=0.1, beta=0.0)
        system = sl.kubo_system(params)
        noisy = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=3), 10.0)
        quiet = empty_path(10.0)
        gaps = []
        for dt in (0.08, 0.02):
            a = sl.integrate_pathwise(system, unit_start(), 0.0, 10.0, noisy, dt)
            b = sl.integrate_pathwise(system, unit_start(), 0.0, 10.0, quiet, dt)
            gaps.append(
                math.hypot(a.ps[-1, 0] - b.ps[-1, 0], a.qs[-1, 0] - b.qs[-1, 0])
            )
        assert gaps[0] < 1e-3
        assert gaps[1] < gaps[0]


class TestJumpSubsteps:
    # beta = 0.1, so marks 0.1, 0.8 and 30 are jump angles 0.01, 0.08 and 3;
    # the RK4 flow's substep rule, on Kubo without its jump map
    MARKS = (0.1, 0.8, 30.0)

    def paths(self):
        return [event_path([(0.6, 1, mark)], 1.0) for mark in self.MARKS]

    def jumps(self, dt):
        """Each lane's pre-jump state and post-jump row, from one batch that equals the paths alone."""
        paths = self.paths()
        system = rk4_kubo()
        lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 1.0, paths, dt)
        for path, lane in zip(paths, lanes):
            assert_same_run(lane, sl.integrate_pathwise(system, unit_start(), 0.0, 1.0, path, dt))
            assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 1.0, path, dt))
        pre = [int(np.flatnonzero(lane.times == 0.6)[0]) for lane in lanes]
        return [(lane.state(i), lane.state(i + 1)) for lane, i in zip(lanes, pre)]

    def flows_at(self, pre, mark, post, counts=(1, 2, 3, 4, 8, 12, 16)):
        """The substep counts whose fixed-count jump_flow maps pre to post bit for bit."""
        taken = []
        for n in counts:
            state = sl.jump_flow(rk4_kubo(), pre, np.array([mark]), n)
            if np.array_equal(state.p, post.p) and np.array_equal(state.q, post.q):
                taken.append(n)
        return taken

    def test_each_jump_takes_the_substeps_its_mark_needs(self):
        jumps = self.jumps(0.25)
        taken = [self.flows_at(pre, mark, post) for (pre, post), mark in zip(jumps, self.MARKS)]
        assert taken == [[2], [4], [16]]

    @pytest.mark.parametrize("cap", [16, 12, 3])
    def test_a_jump_that_cannot_meet_the_tolerance_takes_exactly_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(integrators, "_JUMP_TOL", 1e-300)
        monkeypatch.setattr(integrators, "DEFAULT_SUBSTEPS", cap)
        jumps = self.jumps(0.25)
        taken = [self.flows_at(pre, mark, post) for (pre, post), mark in zip(jumps, self.MARKS)]
        assert taken == [[cap]] * 3

    def test_one_jump_substep_is_one_substep_for_every_jump(self, monkeypatch):
        monkeypatch.setattr(integrators, "DEFAULT_SUBSTEPS", 1)
        jumps = self.jumps(0.25)
        taken = [self.flows_at(pre, mark, post) for (pre, post), mark in zip(jumps, self.MARKS)]
        assert taken == [[1]] * 3


class TestJumpMaps:
    # Kubo's jumps take its exact rotation; other jumps the RK4 flow

    def test_the_rk4_flow_at_large_marks_keeps_its_bytes(self):
        # the cells of converge --beta 15 --samples 5 --T 2 --seed 1 as one
        # record on Kubo without its map: most jumps miss the tolerance below
        # the cap, so the step doubling, its cap runs and its bookkeeping
        # decide these bytes; the digest is the record's from before systems
        # had jump maps
        system = dataclasses.replace(sl.kubo_system(sl.KuboParams(alpha=0.1, beta=15.0)),
                                     jump_maps=None)
        dts = [0.08, 0.04, 0.02, 0.01, 0.005]
        paths = [sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2,
                                                seed=cli._cell_seed(1, i, s)), 2.0)
                 for i in range(len(dts)) for s in range(5)]
        rec = _pathwise_record(system, unit_start(), 0.0, 2.0, paths, np.repeat(dts, 5).tolist(),
                               "symplectic")
        digest = hashlib.sha256()
        for column in (rec.times, rec.ps, rec.qs):
            digest.update(column.tobytes())
        assert rec.times.size == 4307
        assert digest.hexdigest() == (
            "aacd3bbf4ba93d376a5d7f867e9dde5119a600c5af482aa319f74baeb4dfb7ba"
        )

    @pytest.mark.parametrize("beta", [0.1, 15.0])
    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    def test_every_post_jump_row_is_the_rotation_of_its_pre_jump_row(self, beta, scheme):
        params = sl.KuboParams(alpha=0.1, beta=beta)
        system = sl.kubo_system(params)
        paths = [sampled(seed, 4.0) for seed in range(6)]
        rec = _pathwise_record(system, unit_start(), 0.0, 4.0, paths, [0.1, 0.05, 0.02] * 2,
                               scheme)
        _, _, marks = _lane_jumps(system, paths, 0.0, 4.0)  # lane by lane, in time order
        stepped = np.ones(rec.times.size, dtype=bool)
        stepped[rec.lo] = False
        rows = np.flatnonzero(stepped)
        jump = rows[rec.times[rows] == rec.times[rows - 1]]  # a jump's post-jump rows
        assert jump.size == len(marks) > 50
        p, q = _kubo_rotation(params, rec.ps[jump - 1], rec.qs[jump - 1], 0.0, marks)
        assert np.array_equal(rec.ps[jump], p) and np.array_equal(rec.qs[jump], q)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_map_that_is_not_finite_fails_only_its_lane(self, monkeypatch, block):
        # Kubo's rotation, but NaN for marks over 0.5: lane 1's second jump
        # fails as a flow that failed at substep 0, and the lanes beside it
        # end as alone
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def jump_map(p, q, R):
            p, q = _kubo_rotation(KUBO, p, q, 0.0, R)
            return np.where(np.abs(R) > 0.5, np.nan, p), q

        system = dataclasses.replace(kubo(), jump_maps=(jump_map,))
        paths = [event_path([(0.3, 1, 0.2), (1.1, 1, -0.4)], 2.0),
                 event_path([(0.45, 1, 0.3), (0.9, 1, 0.8), (1.5, 1, 0.1)], 2.0),
                 event_path([(0.9, 1, -0.3)], 2.0)]
        dts = np.array([0.1, 0.05, 0.1])
        err = run_error(system, paths[1:2], 2.0, 0.05)
        assert str(err) == "jump flow diverged at t=0.9 (substep 0)" and err.step == 0
        assert str(err.__cause__) == "jump flow produced a non-finite state at substep 0"
        assert err.partial.times[-1] == 0.9 and np.count_nonzero(err.partial.times == 0.45) == 2
        assert np.isfinite(err.partial.ps).all()
        assert_batch_as_alone(system, paths, dts.tolist(), 2.0)
        rec, jumps, ticks, marks = _lane_record(system, paths, 0.0, 2.0, dts)
        rec.ps[rec.lo], rec.qs[rec.lo] = unit_start().p, unit_start().q
        failures = integrators._step_record(system, rec, rec.lo, ticks, jumps, marks, alone=True)
        assert list(failures) == [1]
        assert_same_error(failures[1], err)
        for b in (0, 2):
            alone = sl.integrate_pathwise(system, unit_start(), 0.0, 2.0, paths[b], dts[b])
            assert_same_run(rec.trajectory(b), alone)

    def test_a_simultaneous_instant_takes_the_summed_rk4_flow(self):
        # two_channel's exact maps, a rotation and a squeeze, serve the
        # instants that drive one channel; the instant that drives both takes
        # the RK4 flow of the summed field, which the maps one after the
        # other miss, since the fields do not commute
        def rotation(p, q, R):
            c, s = np.cos(0.3 * R), np.sin(0.3 * R)
            return p * c - q * s, p * s + q * c

        def squeeze(p, q, R):
            return p * np.exp(-0.2 * R), q * np.exp(0.2 * R)

        system = dataclasses.replace(two_channel(), jump_maps=(rotation, squeeze))
        path = event_path([(0.3, 1, 0.5), (0.3, 2, -0.4), (0.6, 1, 0.7), (0.8, 2, 0.3)], 1.0,
                          channels=2)
        traj = sl.integrate_pathwise(system, unit_start(), 0.0, 1.0, path, 0.1)
        pre = np.flatnonzero(np.diff(traj.times) == 0)
        assert traj.times[pre].tolist() == [0.3, 0.6, 0.8]
        summed, _ = doubled_jump_flow(system, traj.state(pre[0]), np.array([0.5, -0.4]))
        assert traj.ps[pre[0] + 1] == summed.p and traj.qs[pre[0] + 1] == summed.q
        one_by_one = squeeze(*rotation(traj.ps[pre[0]][None], traj.qs[pre[0]][None], 0.5), -0.4)
        assert abs(one_by_one[0][0, 0] - summed.p[0]) > 1e-3
        for i, (jump_map, mark) in zip(pre[1:], [(rotation, 0.7), (squeeze, 0.3)]):
            p, q = jump_map(traj.ps[i][None], traj.qs[i][None], np.array([[mark]]))
            assert traj.ps[i + 1] == p[0] and traj.qs[i + 1] == q[0]
        single = event_path([(0.25, 2, 0.6), (0.5, 1, -0.2)], 1.0, channels=2)
        assert_batch_as_alone(system, [path, single], [0.1, 0.05], 1.0)

    def test_a_map_of_the_wrong_shape_is_refused_before_any_lane_runs(self):
        system = dataclasses.replace(kubo(), jump_maps=(lambda p, q, R: (p[:, 0], q),))
        message = ("jump_maps[0] maps lane arrays of shape (2, 1) to shapes [(2,), (2, 1)]; "
                   "jump maps must map (B, n) arrays to two (B, n)")
        with pytest.raises(DomainError, match=re.escape(message)):
            sl.integrate_pathwise_batch(system, unit_start(), 0.0, 1.0, [sampled(1, 1.0)] * 2, 0.1)


class TestDivergenceGuard:
    def test_explicit_blowup_raises_with_partial_trajectory(self):
        # a = alpha dt = 1e5 per step multiplies the radius by about 1e5,
        # so the 1e12 guard trips on the third step.
        path = empty_path(1e7)
        with pytest.raises(DivergenceError) as info:
            sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), 0.0, 3e6, path, 1e6)
        err = info.value
        assert err.step == 2
        assert err.time == 3e6
        assert err.partial is not None
        assert np.array_equal(err.partial.times, [0.0, 1e6, 2e6])

    def test_pathwise_blowup_raises_with_partial_trajectory(self):
        path = empty_path(1e7)
        with pytest.raises(DivergenceError) as info:
            sl.integrate_pathwise(kubo(), unit_start(), 0.0, 3e6, path, 1e6)
        assert info.value.partial is not None
        assert len(info.value.partial) >= 1


class TestTrajectoryCsv:
    def test_roundtrip_through_text_is_exact(self, tmp_path):
        path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=2), 5.0)
        traj = sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, 5.0, path, 0.1)
        out = tmp_path / "traj.csv"
        sl.write_trajectory_csv(traj, out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "p1", "q1"]
        assert len(rows) == len(traj) + 1
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == traj.times[i]
            assert float(row[1]) == traj.ps[i, 0]
            assert float(row[2]) == traj.qs[i, 0]


    def test_rows_are_formatted_value_by_value(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(200, 5)) * 10.0 ** rng.integers(-320, 300, (200, 5))
        values[0] = [-0.0, 1e16, 5e-324, 1e-5, 0.1]
        values[1] = [np.inf, -np.inf, np.nan, 0.0, 2.0 ** 70]
        assert fmt_rows(values) == [",".join(fmt(x) for x in row) for row in values]
        assert fmt_rows(values[:2, :1]) == ["-0", "inf"]


def symplectic_raw(system, p0, q0, dt, dL, tol, max_iters):
    """The symplectic Euler map on one state, as the lane kernel's reference.

    Fixed-point iteration for the implicit momentum equation, seeded at
    p0; a channel term is skipped when its increment is zero.
    """
    sigma0 = system.sigma[0]
    p = p0
    residual = math.inf
    for _ in range(max_iters):
        rhs = p0 - sigma0(p, q0) * dt
        for r in range(1, system.m + 1):
            if dL[r - 1] != 0.0:
                rhs = rhs - system.sigma[r](p, q0) * dL[r - 1]
        residual = float(np.abs(rhs - p).max())
        p = rhs
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(
            f"implicit momentum solve stalled at residual {residual:.3e} after {max_iters} iterations",
            residual=residual,
        )
    q = q0 + system.gamma[0](p, q0) * dt
    for r in range(1, system.m + 1):
        if dL[r - 1] != 0.0:
            q = q + system.gamma[r](p, q0) * dL[r - 1]
    return p, q


def explicit_raw(system, p0, q0, dt, dL):
    """The explicit Euler map on one state, as the lane kernel's reference."""
    p = p0 - system.sigma[0](p0, q0) * dt
    q = q0 + system.gamma[0](p0, q0) * dt
    for r in range(1, system.m + 1):
        if dL[r - 1] != 0.0:
            p = p - system.sigma[r](p0, q0) * dL[r - 1]
            q = q + system.gamma[r](p0, q0) * dL[r - 1]
    return p, q


def raw_step(system, scheme, p, q, dt, dL, max_iters=None):
    """The reference map of `scheme`, at the driver's solver settings unless max_iters is given."""
    if scheme == "symplectic":
        max_iters = integrators._IMPLICIT_MAX_ITERS if max_iters is None else max_iters
        return symplectic_raw(system, p, q, dt, dL, integrators._IMPLICIT_TOL, max_iters)
    return explicit_raw(system, p, q, dt, dL)


def grid_times(t0, T, dt):
    """Uniform nodes from t0 to T, one segment at a time, as the node builder's reference.

    ceil((T - t0) / dt) nominal steps, the last node replaced by T and
    the node before it dropped when rounding puts it at or past T.
    """
    span = T - t0
    if span == 0.0:
        return np.array([float(t0)])
    if span / dt > MAX_GRID_STEPS:
        raise InvalidSpecError(
            f"(T - t0) / dt = {span / dt:g} steps exceeds the limit MAX_GRID_STEPS = {MAX_GRID_STEPS:g}"
        )
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    times = t0 + dt * np.arange(n + 1, dtype=float)
    times[-1] = T
    if times[-1] <= times[-2]:
        times = np.delete(times, -2)
    return times


def lane_grid(system, path, t0, T, dt):
    """One lane's record times, ticks per segment and jump marks, segment by segment.

    The reference for ``_lane_record``: segment k drifts on the
    grid_times nodes from the previous jump (or t0) to jump k (or T),
    and the post-jump state takes one more row at the jump time.
    """
    events = sl.jumps_in(path, t0, T) if T > t0 else []
    ends, marks = [], []
    i = 0
    while i < len(events):
        tau = events[i].time
        mark = np.zeros(system.m)
        while i < len(events) and events[i].time == tau:
            mark[events[i].channel - 1] += events[i].mark
            i += 1
        ends.append(tau)
        marks.append(mark)
    pieces, ticks, start = [np.array([t0])], [], t0
    for k, end in enumerate(ends + [T]):
        nodes = grid_times(start, end, dt)[1:] if end - start > 0.0 else np.empty(0)
        ticks.append(nodes.size)
        pieces.append(nodes)
        if k < len(ends):
            pieces.append(np.array([end]))
        start = end
    return np.concatenate(pieces), ticks, marks


def scalar_fixed_grid(system, scheme, initial, t0, T, path, dt):
    """The fixed-grid driver one state at a time, on the reference maps."""
    times = grid_times(t0, T, dt)
    dls = [sl.grid_increments(path, r, times) for r in range(1, system.m + 1)]
    ps, qs = [initial.p], [initial.q]
    for j in range(times.size - 1):
        dL = np.array([dl[j] for dl in dls])
        p, q = raw_step(system, scheme, ps[-1], qs[-1], times[j + 1] - times[j], dL)
        ps.append(p)
        qs.append(q)
    return sl.Trajectory(times, ps, qs, scheme)


def scalar_pathwise(system, initial, t0, T, path, dt, scheme="symplectic"):
    """The jump-adapted scheme one state at a time, as the lane driver's reference.

    Drift steps are the reference map of `scheme` with zero increments on
    the driver's grid nodes; each jump instant applies
    ``doubled_jump_flow`` to the marks of all events at that time, or, if
    they drive one channel r of a system with jump maps, ``jump_maps[r-1]``
    (a non-finite result raises the flow's error at substep 0). A
    check after every drift tick and jump raises what the driver raises
    for this path alone: a stalled tick's NonConvergenceError, or a
    DivergenceError at the first state beyond the divergence limit, with
    the trajectory before it and the count of drift ticks before it as
    its step.
    """
    times, ps, qs = [t0], [initial.p], [initial.q]
    drifts = 0

    def push(t, p, q):
        if not (np.abs(p).max() <= sl.DIVERGENCE_LIMIT and np.abs(q).max() <= sl.DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"state magnitude exceeded {sl.DIVERGENCE_LIMIT:g} at step {drifts} (t={t:g})",
                step=drifts,
                time=t,
                partial=sl.Trajectory(times, ps, qs, "pathwise"),
            )
        times.append(t)
        ps.append(p)
        qs.append(q)

    def drift_to(t_end):
        nonlocal drifts
        if t_end - times[-1] <= 0.0:
            return
        nodes = grid_times(times[-1], t_end, dt)
        for a, b in zip(nodes[:-1], nodes[1:]):
            try:
                p, q = raw_step(system, scheme, ps[-1], qs[-1], b - a, np.zeros(system.m))
            except NonConvergenceError as inner:
                raise NonConvergenceError(
                    f"drift substep at t={a:g}: {inner}", residual=inner.residual, step=drifts
                ) from inner
            push(b, p, q)
            drifts += 1

    events = sl.jumps_in(path, t0, T) if T > t0 else []
    for tau in sorted({ev.time for ev in events}):
        marks = np.zeros(system.m)
        for ev in events:
            if ev.time == tau:
                marks[ev.channel - 1] += ev.mark
        drift_to(tau)
        driven = np.flatnonzero(marks)
        if system.jump_maps is not None and driven.size == 1:
            r = driven[0]
            p, q = system.jump_maps[r](ps[-1][None], qs[-1][None], marks[None, r : r + 1])
            if not (np.isfinite(p).all() and np.isfinite(q).all()):
                raise DivergenceError("jump flow produced a non-finite state at substep 0", step=0)
            after = sl.PhaseState(p[0], q[0])
        else:
            after, _ = doubled_jump_flow(system, sl.PhaseState(ps[-1], qs[-1]), marks)
        push(tau, after.p, after.q)
    drift_to(T)
    return sl.Trajectory(times, ps, qs, "pathwise")


def doubled_jump_flow(system, state, marks):
    """One jump by the driver's substep rule, from public ``jump_flow`` calls: (state, N).

    N is the first of 2, 4, ... with 2N < the cap DEFAULT_SUBSTEPS whose
    flow y_N and half-count flow y_{N/2} have max|y_{N/2} - y_N| / 15 <=
    tol * max(1, max|y_N|), tol the driver's. If none does, or a flow
    below the cap warns, meets a floating-point event the caller does not
    ignore, raises or is not finite, or the difference is not finite, N
    is the cap.
    """
    cap, tol, n = integrators.DEFAULT_SUBSTEPS, integrators._JUMP_TOL, 1
    loud = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    try:
        with warnings.catch_warnings(), np.errstate(**loud):
            warnings.simplefilter("error")
            coarse = sl.jump_flow(system, state, marks, 1)
            while 4 * n < cap:
                n *= 2
                fine = sl.jump_flow(system, state, marks, n)
                with np.errstate(all="ignore"):
                    err = np.abs(np.concatenate([coarse.p - fine.p, coarse.q - fine.q])).max()
                if not math.isfinite(err):
                    break
                size = np.abs(np.concatenate([fine.p, fine.q])).max()
                if err / 15.0 <= tol * max(1.0, size):
                    return fine, n
                coarse = fine
    except Exception:
        pass
    return sl.jump_flow(system, state, marks, cap), cap


def assert_same_run(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.ps, b.ps)
    assert np.array_equal(a.qs, b.qs)


def anharmonic():
    # H0 = 0.3 (p^2+q^2)^2 / 4: sigma_0 depends on p, so the implicit
    # solve takes a state-dependent number of sweeps and lanes disagree
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.3 * q * (p * p + q * q), lambda p, q: 0.1 * q),
        gamma=(lambda p, q: 0.3 * p * (p * p + q * q), lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
    )


def anharmonic_2d():
    # anharmonic() on two degrees of freedom, r^2 = |p|^2 + |q|^2 per row:
    # the momentum solve's residual has two entries
    def r2(p, q):
        return (p * p + q * q).sum(axis=1, keepdims=True)

    return sl.HamiltonianSystem(
        n=2,
        m=1,
        sigma=(lambda p, q: 0.3 * q * r2(p, q), lambda p, q: 0.1 * q),
        gamma=(lambda p, q: 0.3 * p * r2(p, q), lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
    )


def counting(system, sizes):
    """`system` whose sigma[0] appends the number of lanes of each call to `sizes`."""
    def sigma0(p, q):
        sizes.append(len(p))
        return system.sigma[0](p, q)

    return sl.HamiltonianSystem(n=system.n, m=system.m, sigma=(sigma0, *system.sigma[1:]),
                                gamma=system.gamma, hamiltonians=system.hamiltonians,
                                separable=system.separable)


def coupled(delta=0.5):
    # H0 = (p^2 + q^2)/2 + delta p q: a linear drift whose sigma_0 = q + delta p
    # depends on p, so the momentum solve sweeps until its update settles
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: q + delta * p, lambda p, q: 0.1 * q),
        gamma=(lambda p, q: p + delta * q, lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.5 * (p[:, 0] ** 2 + q[:, 0] ** 2) + delta * p[:, 0] * q[:, 0],
                      lambda p, q: 0.05 * (p[:, 0] ** 2 + q[:, 0] ** 2)),
    )


def two_channel():
    # channel fields that do not commute, so combining simultaneous
    # marks into one flow differs from applying them one by one
    return sl.HamiltonianSystem(
        n=1,
        m=2,
        sigma=(lambda p, q: 0.1 * q, lambda p, q: 0.3 * q, lambda p, q: 0.2 * p),
        gamma=(lambda p, q: 0.1 * p, lambda p, q: 0.3 * p, lambda p, q: 0.2 * q),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0, lambda p, q: 0.0),
    )


def event_path(events, horizon, channels=1):
    spec = sl.LevyPathSpec(rate=1.0, mark_sigma=1.0, noise_count=channels, seed=0)
    return sl.LevyPath(
        spec=spec, horizon=horizon, events=tuple(sl.JumpEvent(*ev) for ev in events)
    )


def sampled(seed, horizon=10.0):
    return sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=seed), horizon)


def stiff_where_q_positive():
    # the fixed-point sweep expands (30 dt > 1) only on states with q > 0
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: np.where(q > 0.0, 30.0 * p + q, 0.1 * p), lambda p, q: 0.1 * q),
        gamma=(lambda p, q: 0.1 * p, lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
    )


def raw_error(system, p, q, dt, dL, max_iters=None):
    with pytest.raises(NonConvergenceError) as info:
        raw_step(system, "symplectic", p, q, dt, dL, max_iters)
    return info.value


class TestStepLanes:
    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    @pytest.mark.parametrize(
        "system", [kubo(), anharmonic(), two_channel(), coupled()],
        ids=["kubo", "anharmonic", "two-channel", "coupled"]
    )
    def test_every_lane_equals_the_scalar_reference(self, system, scheme):
        rng = np.random.default_rng(3)
        lanes = 40
        p = rng.uniform(-1.5, 1.5, (lanes, 1))
        q = rng.uniform(-1.5, 1.5, (lanes, 1))
        dt = rng.uniform(0.0, 0.1, (lanes, 1))
        dl = rng.uniform(-1.0, 1.0, (lanes, system.m))  # nonzero on every lane
        # zero on some lanes: those get a zero term the reference skips,
        # equal up to the sign of a zero
        mixed = np.where(rng.uniform(size=dl.shape) < 0.5, 0.0, dl)
        sizes = []
        for increments in (dl, mixed, None):
            sizes.clear()
            got_p, got_q, stalled = _step_lanes(
                counting(system, sizes), lanes if scheme == "symplectic" else 0, p, q, dt, increments
            )
            assert stalled is None
            # one sigma_0 sweep for an explicit step or a separable system (Kubo), more otherwise
            assert (len(sizes) == 1) == (scheme == "explicit" or system.separable)
            for b in range(lanes):
                dL = np.zeros(system.m) if increments is None else increments[b]
                want_p, want_q = raw_step(system, scheme, p[b], q[b], dt[b, 0], dL)
                assert np.array_equal(got_p[b], want_p)
                assert np.array_equal(got_q[b], want_q)

    def test_stalled_lanes_report_their_own_residuals(self):
        system = stiff_where_q_positive()
        rng = np.random.default_rng(4)
        p = rng.uniform(-1.0, 1.0, (12, 1))
        q = rng.uniform(-1.0, 1.0, (12, 1))
        dt = np.full((12, 1), 0.1)
        dl = rng.uniform(-1.0, 1.0, (12, 1))
        got_p, _, stalled = _step_lanes(system, len(p), p, q, dt, dl)
        assert np.array_equal(stalled[0], np.flatnonzero(q[:, 0] > 0.0))
        for b, residual in zip(*stalled):
            assert residual == raw_error(system, p[b], q[b], 0.1, dl[b]).residual
        for b in np.flatnonzero(q[:, 0] <= 0.0):
            assert np.array_equal(got_p[b], raw_step(system, "symplectic", p[b], q[b], 0.1, dl[b])[0])

    @pytest.mark.parametrize(
        "system", [kubo(), anharmonic(), two_channel()], ids=["kubo", "anharmonic", "two-channel"]
    )
    def test_leading_lanes_symplectic_the_rest_explicit(self, system):
        rng = np.random.default_rng(5)
        lanes = 30
        p = rng.uniform(-1.5, 1.5, (lanes, 1))
        q = rng.uniform(-1.5, 1.5, (lanes, 1))
        dt = rng.uniform(0.0, 0.1, (lanes, 1))
        dl = rng.uniform(-1.0, 1.0, (lanes, system.m))
        mixed = np.where(rng.uniform(size=dl.shape) < 0.5, 0.0, dl)
        for s in [0, 1, lanes - 1, lanes, *rng.integers(2, lanes - 1, 4)]:
            for increments in (dl, mixed, None):
                got_p, got_q, stalled = _step_lanes(system, s, p, q, dt, increments)
                assert stalled is None
                for b in range(lanes):
                    dL = np.zeros(system.m) if increments is None else increments[b]
                    scheme = "symplectic" if b < s else "explicit"
                    want_p, want_q = raw_step(system, scheme, p[b], q[b], dt[b, 0], dL)
                    assert np.array_equal(got_p[b], want_p)
                    assert np.array_equal(got_q[b], want_q)
                if increments is not None:
                    # the driver's channel list gives the same bits
                    channels = [r for r in range(1, system.m + 1) if (increments[:, r - 1] != 0).any()]
                    listed = _step_lanes(system, s, p, q, dt, increments, channels)
                    assert np.array_equal(listed[0], got_p) and np.array_equal(listed[1], got_q)

    def test_only_leading_lanes_can_stall(self):
        system = stiff_where_q_positive()
        rng = np.random.default_rng(6)
        p = rng.uniform(-1.0, 1.0, (16, 1))
        q = rng.uniform(-1.0, 1.0, (16, 1))
        dt = np.full((16, 1), 0.1)
        dl = rng.uniform(-1.0, 1.0, (16, 1))
        for s in (0, 5, 11, 16):
            got_p, got_q, stalled = _step_lanes(system, s, p, q, dt, dl)
            stiff = np.flatnonzero(q[:s, 0] > 0.0)
            if stiff.size == 0:
                assert stalled is None
                continue
            assert np.array_equal(stalled[0], stiff)
            for b, residual in zip(*stalled):
                assert residual == raw_error(system, p[b], q[b], 0.1, dl[b]).residual
            for b in range(s, 16):
                want_p, want_q = raw_step(system, "explicit", p[b], q[b], 0.1, dl[b])
                assert np.array_equal(got_p[b], want_p) and np.array_equal(got_q[b], want_q)

    @pytest.mark.parametrize("max_iters", range(2, 12))
    def test_a_lane_settling_on_the_last_sweep_keeps_the_residuals_aligned(self, max_iters,
                                                                            monkeypatch):
        # lane 0 converges at a rate of 0.01 per sweep and settles on some
        # sweep <= max_iters; lane 1 expands and stalls
        system = stiff_where_q_positive()
        p, q, dt = np.array([[0.5], [0.5]]), np.array([[-0.5], [0.5]]), np.full((2, 1), 0.1)
        monkeypatch.setattr(integrators, "_IMPLICIT_MAX_ITERS", max_iters)
        _, _, stalled = _step_lanes(system, 2, p, q, dt, None)
        want = [raw_error(system, p[1], q[1], 0.1, np.zeros(1), max_iters).residual]
        try:
            raw_step(system, "symplectic", p[0], q[0], 0.1, np.zeros(1), max_iters)
        except NonConvergenceError as err:
            want.insert(0, err.residual)
        assert stalled[0].tolist() == list(range(2 - len(want), 2))
        assert stalled[1].tolist() == want

    @pytest.mark.parametrize("n", [1, 2])
    def test_lanes_settling_at_different_sweeps_and_a_nan_lane_are_each_as_alone(self, n):
        # the anharmonic drift's sweeps contract by about 0.9 dt r^2, so
        # the lanes settle at different sweeps; the NaN lane never settles
        # and stalls with a NaN residual
        sizes = []

        def sigma0(p, q):
            sizes.append(len(p))
            return 0.3 * q * (p * p + q * q).sum(axis=1, keepdims=True)

        system = sl.HamiltonianSystem(
            n=n,
            m=1,
            sigma=(sigma0, lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 0.3 * p * (p * p + q * q).sum(axis=1, keepdims=True),
                   lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        rng = np.random.default_rng(11)
        lanes = 12
        p = rng.uniform(-1.5, 1.5, (lanes, n))
        q = rng.uniform(-1.5, 1.5, (lanes, n))
        p[7, n - 1] = np.nan
        dt = rng.uniform(0.0, 0.1, (lanes, 1))
        with np.errstate(invalid="ignore"):
            got_p, got_q, stalled = _step_lanes(system, lanes, p, q, dt, None)
            assert len(set(sizes[1:-1])) > 3  # lanes leave the solve at several sweeps
            alone = [_step_lanes(system, 1, p[b : b + 1], q[b : b + 1], dt[b : b + 1], None)
                     for b in range(lanes)]
        for b, (want_p, want_q, _) in enumerate(alone):
            assert np.array_equal(got_p[b : b + 1], want_p, equal_nan=True)
            assert np.array_equal(got_q[b : b + 1], want_q, equal_nan=True)
        assert [b for b, (_, _, bad) in enumerate(alone) if bad is not None] == [7]
        assert stalled[0].tolist() == [7] and np.isnan(stalled[1]).all()
        assert np.isnan(alone[7][2][1]).all()

    def test_a_lane_within_tolerance_after_the_first_sweep_stops_there(self):
        # a truncated last tick: its first update, about 1e-15, is already
        # within _IMPLICIT_TOL, so the solve evaluates sigma[0] only once
        sizes = []
        system = counting(anharmonic(), sizes)
        p, q, dt = np.array([[0.7]]), np.array([[-0.4]]), np.array([[1e-14]])
        for dl in (None, np.array([[1e-14]])):
            sizes.clear()
            got_p, got_q, stalled = _step_lanes(system, 1, p, q, dt, dl)
            assert stalled is None and sizes == [1]
            assert 0.0 < abs(got_p[0, 0] - 0.7) <= integrators._IMPLICIT_TOL
            dL = np.zeros(1) if dl is None else dl[0]
            want_p, want_q = raw_step(system, "symplectic", p[0], q[0], 1e-14, dL)
            assert np.array_equal(got_p[0], want_p) and np.array_equal(got_q[0], want_q)

    def test_a_nan_lane_alone_stalls_with_a_nan_residual(self):
        # alone, and as the last lane iterating once lane 1 settles: the same bits
        system = anharmonic()
        p, q, dt = np.array([[np.nan], [0.5]]), np.array([[0.3], [0.5]]), np.full((2, 1), 0.05)
        got_p, got_q, stalled = _step_lanes(system, 1, p[:1], q[:1], dt[:1], None)
        assert stalled[0].tolist() == [0] and np.isnan(stalled[1]).all()
        assert math.isnan(raw_error(system, p[0], q[0], 0.05, np.zeros(1)).residual)
        both_p, both_q, both_stalled = _step_lanes(system, 2, p, q, dt, None)
        assert both_stalled[0].tolist() == [0] and np.isnan(both_stalled[1]).all()
        assert np.array_equal(got_p, both_p[:1], equal_nan=True)
        assert np.array_equal(got_q, both_q[:1], equal_nan=True)
        want_p, want_q = raw_step(system, "symplectic", p[1], q[1], 0.05, np.zeros(1))
        assert np.array_equal(both_p[1], want_p) and np.array_equal(both_q[1], want_q)

    def test_a_one_row_lane_of_two_entries_settles_on_both(self):
        # the first entry's update is zero from the first sweep (q1 = 0), so
        # reading it alone would stop the solve after one sweep
        sizes = []
        system = counting(anharmonic_2d(), sizes)
        rng = np.random.default_rng(12)
        states = [(np.array([[0.4, -0.6]]), np.array([[0.0, 1.2]]))]
        states += [(rng.uniform(-1.5, 1.5, (1, 2)), rng.uniform(-1.5, 1.5, (1, 2))) for _ in range(10)]
        for p, q in states:
            dt, dl = rng.uniform(0.0, 0.1), rng.uniform(-1.0, 1.0, (1, 1))
            for increments in (dl, None):
                sizes.clear()
                got_p, got_q, stalled = _step_lanes(system, 1, p, q, np.array([[dt]]), increments)
                assert stalled is None
                dL = np.zeros(1) if increments is None else increments[0]
                want_p, want_q = raw_step(system, "symplectic", p, q, dt, dL)
                assert np.array_equal(got_p, want_p) and np.array_equal(got_q, want_q)
        assert len(sizes) > 2  # the first state's solve swept on

    def test_the_last_lane_iterating_is_as_alone(self):
        # the anharmonic sweeps contract by about 0.9 dt r^2: the three small
        # lanes settle sweeps before the large one, which then iterates alone
        sizes = []
        system = counting(anharmonic(), sizes)
        p = np.array([[0.1], [0.2], [-0.15], [1.4]])
        q = np.array([[0.1], [-0.1], [0.2], [1.3]])
        dt = np.full((4, 1), 0.08)
        for dl in (np.full((4, 1), 0.3), None):
            sizes.clear()
            got_p, got_q, stalled = _step_lanes(system, 4, p, q, dt, dl)
            assert stalled is None and sizes[:2] == [4, 4] and sizes[-3:] == [1, 1, 1]
            for b in range(4):
                dL = np.zeros(1) if dl is None else dl[b]
                want_p, want_q = raw_step(system, "symplectic", p[b], q[b], 0.08, dL)
                assert np.array_equal(got_p[b], want_p) and np.array_equal(got_q[b], want_q)
                alone = _step_lanes(system, 1, p[b : b + 1], q[b : b + 1], dt[b : b + 1],
                                    None if dl is None else dl[b : b + 1])
                assert np.array_equal(got_p[b : b + 1], alone[0])
                assert np.array_equal(got_q[b : b + 1], alone[1])

    @pytest.mark.parametrize("s, lanes", [(1, 2), (2, 3)])
    def test_mixed_lanes_of_two_entries_step_the_explicit_q_from_p0(self, s, lanes):
        system = anharmonic_2d()
        rng = np.random.default_rng(13)
        p = rng.uniform(-1.5, 1.5, (lanes, 2))
        q = rng.uniform(-1.5, 1.5, (lanes, 2))
        dt = rng.uniform(0.0, 0.1, (lanes, 1))
        dl = rng.uniform(-1.0, 1.0, (lanes, 1))
        for increments in (dl, None):
            got_p, got_q, stalled = _step_lanes(system, s, p, q, dt, increments)
            assert stalled is None
            for b in range(lanes):
                dL = np.zeros(1) if increments is None else increments[b]
                scheme = "symplectic" if b < s else "explicit"
                want_p, want_q = raw_step(system, scheme, p[b : b + 1], q[b : b + 1], dt[b, 0], dL)
                assert np.array_equal(got_p[b : b + 1], want_p)
                assert np.array_equal(got_q[b : b + 1], want_q)

    def test_a_forced_stall_of_a_p_dependent_drift_keeps_its_message(self, monkeypatch):
        p, q, dl = np.array([0.4]), np.array([-1.1]), np.array([0.3])
        monkeypatch.setattr(integrators, "_IMPLICIT_MAX_ITERS", 3)
        want = raw_error(coupled(), p, q, 0.08, dl, 3)
        with pytest.raises(NonConvergenceError) as info:
            sl.symplectic_euler_step(coupled(), sl.PhaseState(p, q), 0.08, dl)
        assert str(info.value) == str(want) and info.value.residual == want.residual
        assert re.fullmatch(r"implicit momentum solve stalled at residual \d\.\d{3}e-\d\d after 3 "
                            r"iterations", str(want))

    def test_fixed_grid_stall_raises_the_reference_error(self):
        start = sl.PhaseState([0.5], [0.25])
        want = raw_error(stiff_where_q_positive(), start.p, start.q, 0.1, np.zeros(1))
        with pytest.raises(NonConvergenceError) as info:
            sl.integrate_fixed_grid(
                stiff_where_q_positive(), "symplectic", start, 0.0, 1.0, empty_path(1.0), 0.1
            )
        assert str(info.value) == f"step 0 (t=0): {want}"
        assert (info.value.step, info.value.residual) == (0, want.residual)
        assert isinstance(info.value.__cause__, NonConvergenceError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: sl.jump_flow(kubo(), unit_start(), [0.1], substeps=True),
        lambda: sl.HamiltonianSystem(n=True, m=False, sigma=(abs,), gamma=(abs,), hamiltonians=(abs,)),
        lambda: sl.HamiltonianSystem(n=1, m=False, sigma=(abs,), gamma=(abs,), hamiltonians=(abs,)),
        lambda: sl.LevyPathSpec(rate=1.0, mark_sigma=0.1, noise_count=True),
        lambda: sl.LevyPathSpec(rate=1.0, mark_sigma=0.1, seed=True),
        lambda: sl.LevyPathSpec(rate=1.0, mark_sigma=0.1, seed="0"),
        lambda: sl.KuboParams(alpha=True, beta=0.1),
        lambda: sl.KuboParams(alpha=0.1, beta=False),
        lambda: sl.LevyPath(spec=sl.LevyPathSpec(rate=1.0, mark_sigma=0.1), horizon=True, events=()),
        lambda: sl.sample_path(sl.LevyPathSpec(rate=1.0, mark_sigma=0.1), True),
        lambda: sl.integrate_fixed_grid(kubo(), "symplectic", unit_start(), 0.0, True, empty_path(2.0),
                                        0.1),
        lambda: sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), False, 1.0, empty_path(2.0),
                                        0.1),
        lambda: sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, True, [empty_path(2.0)],
                                            0.1),
        lambda: sl.integrate_pathwise_batch(kubo(), unit_start(), False, 1.0, [empty_path(2.0)],
                                            0.1),
    ],
)
def test_specs_refuse_booleans_and_non_numbers(build):
    with pytest.raises((InvalidSpecError, DomainError)):
        build()


class TestStepSize:
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf, True, "0.1"])
    @pytest.mark.parametrize("driver", ["fixed-grid", "pathwise", "batch", "batch-list"])
    def test_a_step_that_is_not_a_finite_positive_real_is_refused(self, driver, dt):
        path = empty_path(1.0)
        runs = {
            "fixed-grid": lambda: sl.integrate_fixed_grid(kubo(), "explicit", unit_start(), 0.0, 1.0,
                                                          path, dt),
            "pathwise": lambda: sl.integrate_pathwise(kubo(), unit_start(), 0.0, 1.0, path, dt),
            "batch": lambda: sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 1.0, [path] * 2,
                                                         dt),
            "batch-list": lambda: sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 1.0,
                                                              [path] * 2, [0.1, dt]),
        }
        message = f"^dt must be a finite positive number, got {re.escape(repr(dt))}$"
        with pytest.raises(InvalidSpecError, match=message):
            runs[driver]()


class TestPathwiseLanes:
    @pytest.mark.parametrize("system", [kubo(), anharmonic()], ids=["kubo", "anharmonic"])
    def test_each_lane_equals_its_path_alone(self, system):
        paths = [sampled(seed) for seed in range(6)] + [empty_path(10.0)]
        dt = 0.05
        lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 10.0, paths, dt)
        assert len(lanes) == len(paths)
        for path, lane in zip(paths, lanes):
            alone = sl.integrate_pathwise(system, unit_start(), 0.0, 10.0, path, dt)
            assert_same_run(lane, alone)
            assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 10.0, path, dt))
        order = [3, 6, 0, 5, 1, 4, 2]
        permuted = sl.integrate_pathwise_batch(
            system, unit_start(), 0.0, 10.0, [paths[i] for i in order], dt
        )
        for i, lane in zip(order, permuted):
            assert_same_run(lane, lanes[i])

    def test_events_on_grid_nodes_and_lanes_without_events(self):
        dt = 0.25
        paths = [
            event_path([(0.25, 1, 0.4), (0.5, 1, -0.3), (1.75, 1, 0.2)], 2.0),
            empty_path(2.0),
            event_path([(2.0, 1, 0.5)], 2.0),  # a jump at T ends the run
            event_path([(0.1, 1, 0.3)], 2.0),
        ]
        lanes = sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 2.0, paths, dt)
        for path, lane in zip(paths, lanes):
            assert_same_run(lane, scalar_pathwise(kubo(), unit_start(), 0.0, 2.0, path, dt))
        assert np.count_nonzero(lanes[0].times == 0.5) == 2
        assert len(lanes[1]) == 9
        assert lanes[2].times[-2] == lanes[2].times[-1] == 2.0

    def test_simultaneous_events_on_two_channels(self):
        dt = 0.1
        paths = [
            event_path([(0.3, 1, 0.5), (0.3, 2, -0.7), (0.6, 2, 0.4)], 1.0, channels=2),
            event_path([(0.3, 2, 0.9), (0.45, 1, 0.2)], 1.0, channels=2),
            event_path([(0.3, 1, 0.0), (0.6, 1, 0.25), (0.6, 1, 0.5)], 1.0, channels=2),
            event_path([(0.3, 1, 0.6), (0.3, 2, 0.0)], 1.0, channels=2),
        ]
        system = two_channel()
        lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 1.0, paths, dt)
        for path, lane in zip(paths, lanes):
            assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 1.0, path, dt))
            assert_same_run(lane, sl.integrate_pathwise(system, unit_start(), 0.0, 1.0, path, dt))

    def test_evaluator_that_mixes_lanes_is_refused(self):
        mixing = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: np.array([q[0]]), lambda p, q: 0.1 * q),
            gamma=(lambda p, q: p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        paths = [sampled(0, 1.0), sampled(1, 1.0)]
        with pytest.raises(DomainError, match=r"sigma\[0\]"):
            sl.integrate_pathwise_batch(mixing, unit_start(), 0.0, 1.0, paths, 0.1)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(DomainError):
            sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 1.0, [], 0.1)


def assert_record_matches_reference(system, paths, t0, T, dts):
    rec, jumps, ticks, marks = _lane_record(system, paths, t0, T, np.array(dts))
    for b, (path, dt) in enumerate(zip(paths, dts)):
        times, lane_ticks, lane_marks = lane_grid(system, path, t0, T, dt)
        assert np.array_equal(rec.times[rec.lo[b] : rec.hi[b]], times)
        assert jumps[b] == len(lane_marks)
        assert np.array_equal(ticks[b, : len(lane_ticks)], lane_ticks)
        assert not ticks[b, len(lane_ticks) :].any()
        assert np.array_equal(marks[b, : len(lane_marks)], np.reshape(lane_marks, (-1, system.m)))
        assert not marks[b, len(lane_marks) :].any()
    assert rec.hi[-1] == rec.times.size


class TestLaneRecord:
    def test_matches_the_per_segment_reference_on_random_paths(self):
        rng = np.random.default_rng(5)
        paths = [sampled(seed) for seed in range(12)] + [empty_path(10.0)]
        for t0, T in ((0.0, 10.0), (1.3, 7.9), (0.0, 0.0), (4.0, 4.0)):
            dts = rng.choice([0.3, 0.08, 0.05, 0.013, 0.5], size=len(paths))
            assert_record_matches_reference(kubo(), paths, t0, T, list(dts))
        two = [sl.sample_path(sl.LevyPathSpec(rate=4.0, mark_sigma=0.3, noise_count=2, seed=s), 5.0)
               for s in range(6)]
        assert_record_matches_reference(two_channel(), two, 0.0, 5.0, [0.1, 0.07, 0.1, 0.25, 0.03, 0.1])

    def test_events_on_grid_nodes_and_at_the_end(self):
        paths = [
            event_path([(0.25, 1, 0.4), (0.5, 1, -0.3), (1.75, 1, 0.2)], 2.0),
            event_path([(2.0, 1, 0.5)], 2.0),
            event_path([(0.5, 1, 0.1), (0.5, 1, 0.2), (2.0, 1, 0.3), (2.0, 1, -0.3)], 2.0),
            event_path([(0.1, 1, 0.3)], 2.0),
        ]
        assert_record_matches_reference(kubo(), paths, 0.0, 2.0, [0.25, 0.25, 0.125, 0.1])
        assert_record_matches_reference(kubo(), paths, 0.5, 2.0, [0.25, 0.5, 0.25, 0.3])
        assert_record_matches_reference(kubo(), paths[1:2], 0.0, 2.0, [2.0])

    def test_a_node_that_rounding_puts_at_the_end_is_dropped(self):
        # (5000 - 4999.95) / 0.05 = 1.0000000000036 asks for 2 steps, but
        # 4999.95 + 0.05 rounds to 5000: the segment has one tick, not two
        assert np.array_equal(grid_times(4999.95, 5000.0, 0.05), [4999.95, 5000.0])
        paths = [
            event_path([(4999.95, 1, 0.2)], 5000.0),
            event_path([(4998.7, 1, -0.1), (4999.24, 1, 0.3)], 5000.0),
            event_path([(4952.9, 1, 0.1)], 5000.0),
        ]
        for dts in ([0.05, 0.01, 0.3], [0.01, 0.05, 0.05]):
            assert_record_matches_reference(kubo(), paths, 4940.0, 5000.0, dts)
        rec, _, ticks, _ = _lane_record(kubo(), paths[:1], 4999.0, 5000.0, np.array([0.05]))
        assert ticks[0, 1] == 1

    def test_an_over_budget_segment_is_refused_with_the_reference_message(self, monkeypatch):
        # lane 1's second segment is the first over budget (8.99e7 steps);
        # lane 2's first one is over budget too (2.4e7 steps)
        paths = [sampled(0), event_path([(0.01, 1, 0.1), (9.0, 1, 0.1)], 10.0), sampled(2)]
        with pytest.raises(InvalidSpecError) as want:
            lane_grid(kubo(), paths[1], 0.0, 10.0, 1e-7)
        assert "8.99e+07" in str(want.value)

        def refuse(*args, **kwargs):
            raise AssertionError("record rows allocated before the size check")

        monkeypatch.setattr(sl.integrators, "_Record", refuse)
        with pytest.raises(InvalidSpecError) as got:
            _lane_record(kubo(), paths, 0.0, 10.0, np.array([0.1, 1e-7, 1e-8]))
        assert str(got.value) == str(want.value)

    def test_a_lane_over_budget_is_refused_though_every_segment_fits(self, monkeypatch):
        # lane 1 drifts 20 ticks in each of its 4 segments and takes 3
        # jumps: 83 steps, though no segment has more than 20
        paths = [empty_path(4.0), event_path([(1.0, 1, 0.1), (2.0, 1, 0.2), (3.0, 1, 0.3)], 4.0)]
        dt = [0.1, 0.05]
        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 83)
        rec = _pathwise_record(kubo(), unit_start(), 0.0, 4.0, paths, dt, "explicit")
        assert list(rec.hi - rec.lo) == [41, 84]

        def refuse(*args, **kwargs):
            raise AssertionError("record rows allocated before the size check")

        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 82)
        monkeypatch.setattr(integrators, "_Record", refuse)
        with pytest.raises(InvalidSpecError) as err:
            sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 4.0, paths, dt)
        assert str(err.value) == (
            "path 1 takes 83 steps (drift ticks and jumps), over the limit MAX_GRID_STEPS = 82"
        )

    def test_a_lane_over_budget_on_its_events_alone_is_refused_before_its_jumps(self,
                                                                                 monkeypatch):
        # in (0.5, 3] path 0 has 3 events (one at t0 is outside) and path 1
        # has 4, path 2 has 5; at a limit of 3 path 1 is the first refused,
        # before any per-jump array or segment grid is built
        paths = [event_path([(t, 1, 0.1) for t in (0.5, 1.0, 2.0, 3.0)], 3.0),
                 event_path([(t, 1, 0.1) for t in (1.0, 1.5, 2.0, 2.5)], 3.0),
                 event_path([(t, 1, 0.1) for t in (0.6, 1.0, 1.5, 2.0, 2.5)], 3.0)]

        def refuse(*args, **kwargs):
            raise AssertionError("segment grids built before the event count")

        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 3)
        monkeypatch.setattr(integrators, "_segment_grids", refuse)
        monkeypatch.setattr(np, "repeat", refuse)
        message = "path 1 has 4 events in (t0, T], over the limit MAX_GRID_STEPS = 3"
        with pytest.raises(InvalidSpecError) as err:
            sl.integrate_pathwise_batch(kubo(), unit_start(), 0.5, 3.0, paths, 0.1)
        assert str(err.value) == message
        with pytest.raises(InvalidSpecError) as err:
            _lane_jumps(kubo(), paths, 0.5, 3.0)
        assert str(err.value) == message
        monkeypatch.undo()
        # within the count, a lane is refused on its steps as before: path 0
        # drifts 1 + 2 + 2 ticks and takes 3 jumps, no segment over 2 steps
        monkeypatch.setattr(integrators, "MAX_GRID_STEPS", 3)
        with pytest.raises(InvalidSpecError) as err:
            sl.integrate_pathwise_batch(kubo(), unit_start(), 0.5, 3.0, paths[:1], 0.5)
        assert str(err.value) == (
            "path 0 takes 8 steps (drift ticks and jumps), over the limit MAX_GRID_STEPS = 3"
        )


def sampled_on(system, seed, horizon):
    spec = sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, noise_count=system.m, seed=seed)
    return sl.sample_path(spec, horizon)


class TestPerLaneControls:
    @pytest.mark.parametrize(
        "system", [kubo(), anharmonic(), two_channel()], ids=["kubo", "anharmonic", "two-channel"]
    )
    def test_each_lane_equals_its_path_alone_at_its_own_dt(self, system):
        dts = [0.08, 0.01, 0.05, 0.08, 0.3, 0.02, 0.013]
        paths = [sampled_on(system, seed, 4.0) for seed in range(6)] + [empty_path(4.0)]
        if system.m == 2:
            paths[-1] = sampled_on(system, 99, 4.0)
        lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 4.0, paths, dts)
        for path, step, lane in zip(paths, dts, lanes):
            alone = sl.integrate_pathwise(system, unit_start(), 0.0, 4.0, path, step)
            assert_same_run(lane, alone)
            assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 4.0, path, step))
        # a list of equal steps runs as the one number does
        listed = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 4.0, paths, [dts[0]] * 7)
        single = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 4.0, paths, dts[0])
        for a, b in zip(listed, single, strict=True):
            assert_same_run(a, b)

    @pytest.mark.parametrize(
        "dt, error",
        [
            ([0.1], DomainError),
            ([0.1] * 3, DomainError),
            ((0.1, "0.1"), InvalidSpecError),
            (None, InvalidSpecError),
        ],
        ids=["too-short", "too-long", "not-numbers", "none"],
    )
    def test_controls_that_do_not_fit_the_batch_are_refused(self, dt, error):
        paths = [sampled(0, 1.0), sampled(1, 1.0)]
        with pytest.raises(error):
            sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 1.0, paths, dt)

    def test_lowest_failing_lane_of_a_mixed_dt_batch_raises_its_error(self):
        # a rotation at rate 30 diverges for 30 dt > 2 (symplectic Euler's
        # stability bound), and sigma_0 = 30 p + q stalls the solve for
        # 30 dt > 1: in both systems the lanes with 30 dt <= 1 finish and
        # the others fail, each at its own step
        spin = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 30.0 * q, lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 30.0 * p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        stiff = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 30.0 * p + q, lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        paths = [sampled(seed, 3.0) for seed in range(5)]
        cases = ((spin, [0.01, 0.09, 0.01, 0.1, 0.08]), (stiff, [0.01, 0.04, 0.02, 0.05, 0.01]))
        for system, dts in cases:
            alone = {}
            for b, dt in enumerate(dts):
                if 30.0 * dt > 1.0:
                    alone[b] = run_error(system, [paths[b]], 3.0, dt)
                else:
                    sl.integrate_pathwise(system, unit_start(), 0.0, 3.0, paths[b], dt)
            assert len({(err.step, str(err)) for err in alone.values()}) == len(alone)
            for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [0, 2, 3, 4], [2, 0, 4, 1], [3, 1]):
                got = run_error(system, [paths[b] for b in order], 3.0, [dts[b] for b in order])
                want = alone[next(b for b in order if b in alone)]
                assert_same_error(got, want)
                assert getattr(got, "residual", None) == getattr(want, "residual", None)

    def test_a_diverging_explicit_lane_of_a_mixed_dt_batch_raises_its_error(self):
        # explicit Euler grows a rotation at rate 30 by sqrt(1 + (30 dt)^2)
        # a step: over T = 3 the lanes at dt >= 0.05 pass 1e12, the others
        # finish
        spin = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 30.0 * q, lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 30.0 * p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        paths = [sampled(seed, 3.0) for seed in range(5)]
        dts = [0.01, 0.1, 0.02, 0.05, 0.005]

        def explicit_error(lanes):
            with pytest.raises(DivergenceError) as info:
                _pathwise_record(spin, unit_start(), 0.0, 3.0, [paths[b] for b in lanes],
                                 [dts[b] for b in lanes], "explicit")
            return info.value

        alone = {}
        for b in range(5):
            if dts[b] >= 0.05:
                alone[b] = explicit_error([b])
                with pytest.raises(DivergenceError) as scalar:
                    scalar_pathwise(spin, unit_start(), 0.0, 3.0, paths[b], dts[b], "explicit")
                assert_same_error(alone[b], scalar.value)
            else:
                rec = _pathwise_record(spin, unit_start(), 0.0, 3.0, [paths[b]], dts[b],
                                       "explicit")
                want = scalar_pathwise(spin, unit_start(), 0.0, 3.0, paths[b], dts[b],
                                       "explicit")
                assert_same_run(rec.trajectory(0), want)
        assert alone[1].step != alone[3].step
        # one diverging lane among finishing ones, then two: the lowest raises
        for order in ([0, 1, 2, 4], [4, 2, 0, 3], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 1, 3]):
            want = alone[next(b for b in order if b in alone)]
            assert_same_error(explicit_error(order), want)


def run_error(system, paths, T, dt):
    with pytest.raises((DivergenceError, NonConvergenceError)) as info:
        sl.integrate_pathwise_batch(system, unit_start(), 0.0, T, paths, dt)
    return info.value


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.step == want.step
    assert getattr(got, "time", None) == getattr(want, "time", None)
    assert type(got.__cause__) is type(want.__cause__)
    if getattr(want, "partial", None) is None:
        assert getattr(got, "partial", None) is None
    else:
        assert_same_run(got.partial, want.partial)


class TestPathwiseLaneFailures:
    def test_lowest_failing_lane_raises_its_own_divergence(self):
        # P' = q, Q' = p grows like e^t and trips the 1e12 guard near
        # t = 28; sigma_1 = -p^2 makes a huge mark overflow the jump flow.
        blow = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: -q, lambda p, q: -(p * p)),
            gamma=(lambda p, q: p, lambda p, q: 0.0 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        dt = 0.5
        paths = {
            "drift": empty_path(40.0),
            "early flow": event_path([(1.0, 1, 1e200)], 40.0),
            "late flow": event_path([(5.25, 1, 1e200)], 40.0),
            "drift after jumps": event_path([(2.0, 1, 1e-3), (3.3, 1, 1e-3)], 40.0),
            "healthy": event_path([(0.7, 1, 1e-3)], 20.0),
        }
        T = 40.0
        alone = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for name, path in paths.items():
                if name != "healthy":
                    alone[name] = run_error(blow, [path], T, dt)
            assert isinstance(alone["drift"], DivergenceError)
            assert alone["early flow"].partial.times[-1] == 1.0
            orders = [
                ["drift", "early flow", "late flow"],
                ["late flow", "drift after jumps", "early flow"],
                ["drift after jumps", "drift", "late flow"],
                ["early flow", "late flow", "drift"],
            ]
            for order in orders:
                got = run_error(blow, [paths[name] for name in order], T, dt)
                assert_same_error(got, alone[order[0]])
            healthy = sl.integrate_pathwise_batch(
                blow, unit_start(), 0.0, 20.0, [paths["healthy"]] * 2, 0.5
            )
            assert_same_run(healthy[0], healthy[1])

    def test_post_jump_state_out_of_range_fails_its_lane(self):
        # sigma_1 = -1 makes a jump add its mark to P: a finite post-jump
        # state beyond the divergence limit trips the guard at the jump
        kick = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 0.0 * q, lambda p, q: 0.0 * p - 1.0),
            gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.0 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        dt = 0.25
        paths = [
            event_path([(0.3, 1, 0.5), (1.6, 1, 3e12)], 2.0),
            event_path([(0.5, 1, 2e12)], 2.0),
            event_path([(0.9, 1, 0.5)], 2.0),
        ]
        first, second = (run_error(kick, [path], 2.0, dt) for path in paths[:2])
        assert (first.time, first.step) == (1.6, 8)
        assert (second.time, second.step) == (0.5, 2)
        for order, want in (([0, 1, 2], first), ([1, 0], second), ([2, 1, 0], second)):
            got = run_error(kick, [paths[i] for i in order], 2.0, dt)
            assert_same_error(got, want)

    def test_lowest_failing_lane_raises_its_own_non_convergence(self):
        # sigma_0 = 30 p + q: the fixed-point sweep contracts only for
        # dt < 1/30, so a lane stalls at its first full-size drift step
        stiff = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 30.0 * p + q, lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
        )
        dt = 0.1
        paths = [
            empty_path(1.0),
            event_path([(0.01, 1, 0.3)], 1.0),
            event_path([(0.02, 1, 0.3), (0.04, 1, -0.2)], 1.0),
        ]
        alone = [run_error(stiff, [path], 1.0, dt) for path in paths]
        assert [err.step for err in alone] == [0, 1, 2]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0]):
            got = run_error(stiff, [paths[i] for i in order], 1.0, dt)
            assert_same_error(got, alone[order[0]])
            assert got.residual == alone[order[0]].residual


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    dts=st.lists(st.floats(0.01, 0.5), min_size=6, max_size=6),
    anharmonic_drift=st.booleans(),
    scheme=st.sampled_from(["symplectic", "explicit"]),
    marks=st.lists(st.floats(-1.0, 1.0).filter(lambda x: x != 0.0), min_size=1, max_size=6),
)
def test_every_lane_equals_its_path_alone(seeds, dts, anharmonic_drift, scheme, marks):
    system = anharmonic() if anharmonic_drift else kubo()
    dts = dts[: len(seeds)]
    paths = [sampled(seed, 3.0) for seed in seeds]
    lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 3.0, paths, dts)
    for path, step, lane in zip(paths, dts, lanes):
        assert_same_run(lane, sl.integrate_pathwise(system, unit_start(), 0.0, 3.0, path, step))
        assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 3.0, path, step))
        assert_same_run(
            sl.integrate_fixed_grid(system, scheme, unit_start(), 0.0, 3.0, path, step),
            scalar_fixed_grid(system, scheme, unit_start(), 0.0, 3.0, path, step),
        )
    # the same mixed-dt batch with `scheme` drift: every lane as the scalar run
    rec = _pathwise_record(system, unit_start(), 0.0, 3.0, paths, dts, scheme)
    for b, (path, step) in enumerate(zip(paths, dts)):
        assert_same_run(rec.trajectory(b),
                        scalar_pathwise(system, unit_start(), 0.0, 3.0, path, step, scheme))
    # one kernel step from every lane's end state, each lane with its own
    # step and a nonzero increment
    p = np.array([lane.ps[-1] for lane in lanes])
    q = np.array([lane.qs[-1] for lane in lanes])
    steps = np.array([[step * (b + 1) / len(lanes)] for b, step in enumerate(dts)])
    dl = np.resize(marks, (len(lanes), 1))
    implicit = len(p) if scheme == "symplectic" else 0
    got_p, got_q, stalled = _step_lanes(system, implicit, p, q, steps, dl)
    assert stalled is None
    for b in range(len(lanes)):
        want_p, want_q = raw_step(system, scheme, p[b], q[b], steps[b, 0], dl[b])
        assert np.array_equal(got_p[b], want_p)
        assert np.array_equal(got_q[b], want_q)


def reference_lane_jumps(system, paths, t0, T):
    """``_lane_jumps`` one event at a time, from ``jumps_in``."""
    lanes, times, marks = [], [], []
    for b, path in enumerate(paths):
        for ev in sl.jumps_in(path, t0, T):
            if not (lanes and lanes[-1] == b and times[-1] == ev.time):
                lanes.append(b)
                times.append(ev.time)
                marks.append(np.zeros(system.m))
            marks[-1][ev.channel - 1] += ev.mark
    return np.array(lanes, dtype=int), np.array(times, dtype=float), np.reshape(marks, (-1, system.m))


class TestLaneJumps:
    def assert_matches_reference(self, system, paths, t0, T):
        lane, times, marks = _lane_jumps(system, paths, t0, T)
        want_lane, want_times, want_marks = reference_lane_jumps(system, paths, t0, T)
        assert np.array_equal(lane, want_lane)
        assert np.array_equal(times, want_times)
        assert np.array_equal(marks, want_marks)
        assert marks.shape == (lane.size, system.m)

    def test_window_edges_ties_and_empty_lanes(self):
        # events at t0 are outside (t0, T] and events at T inside; channel
        # 1 and 2 jump together at 1.5 and channel 2 twice at 2.0
        edges = event_path([(0.5, 1, 0.1), (1.0, 2, 0.2), (1.5, 1, 0.3), (1.5, 2, -0.4),
                            (2.0, 2, 0.5), (2.0, 2, 0.25), (3.0, 1, 0.6), (4.0, 1, 0.7)],
                           4.0, channels=2)
        silent = event_path([], 4.0, channels=2)
        outside = event_path([(0.2, 1, 0.9), (3.5, 2, 0.8)], 4.0, channels=2)
        # a lane whose last jump is at the next lane's first jump time
        early = event_path([(0.5, 2, 0.4)], 4.0, channels=2)
        paths = [silent, early, edges, outside, silent, edges]
        for t0, T in [(0.0, 4.0), (0.5, 3.0), (1.0, 2.0), (1.5, 1.5), (3.0, 3.2)]:
            self.assert_matches_reference(two_channel(), paths, t0, T)

    def test_sampled_paths(self):
        spec = sl.LevyPathSpec(rate=4.0, mark_sigma=0.3, noise_count=2, seed=5)
        paths = [sl.sample_path(spec, 6.0), sl.sample_path(sl.LevyPathSpec(0.0, 0.3, 2), 6.0)]
        self.assert_matches_reference(two_channel(), paths, 0.0, 6.0)
        self.assert_matches_reference(two_channel(), paths[::-1], 1.25, 4.5)


def per_step_fixed_grid(system, scheme, initial, t0, T, path, dt):
    """The fixed-grid driver with a range check after every step, as the block check's reference.

    Each step is one lane-kernel call on one state, so numpy warnings
    come from the same source lines as the driver's.
    """
    times = grid_times(t0, T, dt)
    dls = np.column_stack([sl.grid_increments(path, r, times) for r in range(1, system.m + 1)])
    ps, qs = [initial.p], [initial.q]
    for j in range(times.size - 1):
        dl = dls[j : j + 1] if dls[j].any() else None
        step = np.array([[times[j + 1] - times[j]]])
        p, q, stalled = _step_lanes(system, int(scheme == "symplectic"), ps[-1][None],
                                    qs[-1][None], step, dl)
        if stalled is not None:
            raise NonConvergenceError(f"step {j} stalled", residual=float(stalled[1][0]), step=j)
        if not (np.abs(p).max() <= sl.DIVERGENCE_LIMIT and np.abs(q).max() <= sl.DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"state magnitude exceeded {sl.DIVERGENCE_LIMIT:g} at step {j} (t={times[j + 1]:g})",
                step=j,
                time=times[j + 1],
                partial=sl.Trajectory(times[: j + 1], ps, qs, scheme),
            )
        ps.append(p[0])
        qs.append(q[0])
    return sl.Trajectory(times, ps, qs, scheme)


def doubling(sigma0=lambda p, q: 0.0 * p, gamma0=lambda p, q: 10.0 * q):
    # at dt = 0.1 the symplectic step keeps P and doubles Q, so Q = 2^40
    # after step 39 is the first state beyond the divergence limit
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(sigma0, lambda p, q: 0.0 * p),
        gamma=(gamma0, lambda p, q: 0.0 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
    )


def both_errors(system, scheme, T, path, dt):
    """The driver's and the per-step reference's errors, with the warnings each issued."""
    errors = []
    for run in (sl.integrate_fixed_grid, per_step_fixed_grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Exception) as info:
                run(system, scheme, unit_start(), 0.0, T, path, dt)
        seen = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        errors.append((info.value, seen))
    return errors


class TestFixedGridBlocks:
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    def test_block_size_does_not_change_the_trajectory(self, monkeypatch, block, scheme):
        dt = 0.05
        args = (unit_start(), 0.0, 10.0, sampled(3), dt)
        for system in (kubo(), anharmonic()):
            default = sl.integrate_fixed_grid(system, scheme, *args)
            monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
            got = sl.integrate_fixed_grid(system, scheme, *args)
            monkeypatch.undo()
            assert_same_run(got, default)
            assert_same_run(got, per_step_fixed_grid(system, scheme, *args))

    # Q leaves the range at step 39: in the middle of a 64-step block,
    # at the end of a 40- or 8-step one and at the start of a 3-step one.
    # exp(Q) overflows from step 10 on without leaving the range, so
    # blocks before the divergence record floating-point events too
    @pytest.mark.parametrize("block", [64, 40, 8, 3])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_divergence_matches_a_check_after_every_step(self, monkeypatch, block, overflow):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def saturating(p, q):  # exp(q) overflows to inf, and 1 / inf = 0
            return 0.0 * p + 1.0 / (1.0 + np.exp(q))

        system = doubling(sigma0=saturating) if overflow else doubling()
        (got, got_warnings), (want, want_warnings) = both_errors(
            system, "symplectic", 10.0, empty_path(10.0), 0.1
        )
        assert want.step == 39
        assert_same_error(got, want)
        assert got_warnings == want_warnings
        assert bool(want_warnings) == overflow

    def test_overflow_at_the_divergence_step(self):
        # alpha dt = 0.1 on a 1e4-step grid: the explicit run overflows in
        # alpha * p and leaves the range at step 5215, mid-block
        system = sl.kubo_system(sl.KuboParams(alpha=1e297, beta=0.1))
        (got, got_warnings), (want, want_warnings) = both_errors(
            system, "explicit", 1e-294, empty_path(1e-294), 1e-298
        )
        assert want.step == 5215
        assert_same_error(got, want)
        assert want_warnings and got_warnings == want_warnings

    def test_stall_after_an_out_of_range_state_is_a_divergence(self):
        # the momentum solve expands (30 dt > 1) from the state after step
        # 39 on, so the block also stalls at step 40
        stiff = doubling(sigma0=lambda p, q: np.where(np.abs(q) > 1e12, 30.0 * p + q, 0.0 * p))
        (got, _), (want, _) = both_errors(stiff, "symplectic", 10.0, empty_path(10.0), 0.1)
        assert isinstance(want, DivergenceError) and want.step == 39
        assert_same_error(got, want)

    @pytest.mark.parametrize("limit", [1e12, 1e6])
    def test_evaluator_exceptions(self, limit):
        # past the limit the evaluator raises: after the divergence at
        # step 39 the divergence is raised, before it the evaluator's error
        def gamma0(p, q):
            if np.abs(q).max() > limit:
                raise ValueError(f"q beyond {limit:g}")
            return 10.0 * q

        (got, _), (want, _) = both_errors(
            doubling(gamma0=gamma0), "symplectic", 10.0, empty_path(10.0), 0.1
        )
        if limit == 1e12:
            assert isinstance(want, DivergenceError)
            assert_same_error(got, want)
        else:
            assert type(got) is type(want) is ValueError
            assert str(got) == str(want)

    def test_raising_error_state_stops_at_the_same_step(self):
        seen = []

        def sigma0(p, q):
            seen.append(q[0, 0])
            return 1e297 * q

        system = doubling(sigma0=sigma0, gamma0=lambda p, q: -1e297 * p)
        dt = 1e-298
        last = []
        for run in (sl.integrate_fixed_grid, per_step_fixed_grid):
            seen.clear()
            with np.errstate(all="raise"), pytest.raises(FloatingPointError) as info:
                run(system, "explicit", unit_start(), 0.0, 1e-294, empty_path(1e-294), dt)
            last.append((str(info.value), seen[-1]))
        assert last[0] == last[1]


def warning_gamma(low, high, limit=math.inf, rate=10.0):
    # gamma_0 = rate * q that warns while some |Q| lies in (low, high) and
    # raises once some |Q| exceeds limit
    def gamma0(p, q):
        size = np.abs(q)
        if (size > limit).any():
            raise ValueError(f"q beyond {limit:g}")
        if ((size > low) & (size < high)).any():
            warnings.warn(f"q between {low:g} and {high:g}")
        return rate * q

    return gamma0


def recorded(run, *args):
    """run(*args)'s error and the warnings it issued, as (category, message, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as info:
            run(*args)
    return info.value, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


class TestPythonWarnings:
    # doubling at dt = 0.1 passes Q = 1024 and 2048 into gamma_0 at steps
    # 10 and 11, so a check after every step issues two warnings
    @pytest.mark.parametrize("T", [2.0, 10.0])  # the run ends, or diverges at step 39
    def test_each_warning_is_issued_once(self, T):
        system = doubling(gamma0=warning_gamma(1e3, 3e3))
        args = (system, unit_start(), 0.0, T, empty_path(T), 0.1)
        runs = {
            "fixed grid": (sl.integrate_fixed_grid, system, "symplectic", *args[1:]),
            "per-step fixed grid": (per_step_fixed_grid, system, "symplectic", *args[1:]),
            "pathwise": (sl.integrate_pathwise, *args),
            "per-tick pathwise": (scalar_pathwise, *args),
        }
        seen = {}
        for name, (run, *run_args) in runs.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    run(*run_args)
                except DivergenceError:
                    assert T == 10.0
            seen[name] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert len(seen["per-step fixed grid"]) == 2
        assert all(warnings_ == seen["per-step fixed grid"] for warnings_ in seen.values())

    # from step 10 on every block warns again, from one evaluator line
    @pytest.mark.parametrize("overflow", [False, True])
    def test_default_filter_shows_a_location_once(self, monkeypatch, overflow):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", 8)

        def saturating(p, q):  # exp(q) overflows from step 10 on
            return 0.0 * p + 1.0 / (1.0 + np.exp(q))

        if overflow:
            system = doubling(sigma0=saturating)
        else:
            system = doubling(gamma0=warning_gamma(1e3, math.inf))
        args = (unit_start(), 0.0, 10.0, empty_path(10.0), 0.1)
        counts = []
        for run in (sl.integrate_fixed_grid, per_step_fixed_grid, sl.integrate_pathwise,
                    scalar_pathwise):
            scheme = ("symplectic",) if run in (sl.integrate_fixed_grid, per_step_fixed_grid) else ()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                with pytest.raises(DivergenceError):
                    run(system, *scheme, *args)
            counts.append(len(caught))
        assert counts == [1, 1, 1, 1]


SCHEMES = ("symplectic", "explicit")


def issued(caught):
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def lanes_and_alone(system, T, path, dt):
    """Each scheme's outcome from one record of both, and from its run alone, with warnings.

    An outcome is a Trajectory or the error the run raises. The record's
    warnings are split where it yields the symplectic outcome, so each
    lane's are those issued before its outcome came.
    """
    lanes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in integrators._fixed_grid_lanes(system, SCHEMES, unit_start(), 0.0, T, path,
                                                 dt):
            lanes.append((run, issued(caught)))
            caught.clear()
    alone = []
    for scheme in SCHEMES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                run = sl.integrate_fixed_grid(system, scheme, unit_start(), 0.0, T, path, dt)
            except Exception as err:
                run = err
        alone.append((run, issued(caught)))
    return lanes, alone


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert_same_error(got, want)
        want, got = getattr(want, "partial", None), getattr(got, "partial", None)
        if want is None:
            return
    assert_same_run(got, want)
    assert got.scheme_tag == want.scheme_tag


def hyperbolic(gamma0=lambda p, q: p):
    # dP = Q dt, dQ = P dt: at dt = 1 the symplectic step grows by 2.618
    # and the explicit one by 2, so the symplectic lane diverges first
    return doubling(sigma0=lambda p, q: -q, gamma0=gamma0)


def warns_beyond(size):
    def gamma0(p, q):
        if (np.abs(q) > size).any():
            warnings.warn(f"q beyond {size:g}")
        return p

    return gamma0


class TestFixedGridLanes:
    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize(
        "system", [kubo(), anharmonic(), two_channel()], ids=["kubo", "anharmonic", "two-channel"]
    )
    def test_each_lane_equals_its_scheme_alone(self, monkeypatch, block, system):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        path = sampled_on(system, 3, 6.0)
        lanes, alone = lanes_and_alone(system, 6.0, path, 0.05)
        for scheme, (got, got_warnings), (want, want_warnings) in zip(SCHEMES, lanes, alone):
            assert got_warnings == want_warnings == []
            assert_same_outcome(got, want)
            assert got.scheme_tag == scheme
            assert_same_run(got, per_step_fixed_grid(system, scheme, unit_start(), 0.0, 6.0, path,
                                                     0.05))

    # (system, dt, T, outcome types, symplectic then explicit)
    FAILURES = {
        # the harmonic oscillator at dt = 1.5: explicit Euler grows by 1.8
        # per step, symplectic Euler stays bounded
        "explicit-only": (lambda: doubling(sigma0=lambda p, q: q, gamma0=lambda p, q: p), 1.5,
                          150.0, (sl.Trajectory, DivergenceError)),
        "symplectic-only": (hyperbolic, 1.0, 35.0, (DivergenceError, sl.Trajectory)),
        "both": (hyperbolic, 1.0, 60.0, (DivergenceError, DivergenceError)),
        "symplectic-stall": (stiff_where_q_positive, 0.1, 10.0,
                             (NonConvergenceError, sl.Trajectory)),
    }

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("case", FAILURES)
    def test_each_lane_fails_as_alone(self, monkeypatch, block, case):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        build, dt, T, kinds = self.FAILURES[case]
        system, path = build(), sampled(7, T)
        lanes, alone = lanes_and_alone(system, T, path, dt)
        for scheme, kind, (got, got_warnings), (want, want_warnings) in zip(SCHEMES, kinds, lanes,
                                                                             alone):
            assert type(want) is kind
            assert got_warnings == want_warnings == []
            assert_same_outcome(got, want)
            try:
                reference = per_step_fixed_grid(system, scheme, unit_start(), 0.0, T, path, dt)
            except NonConvergenceError as err:
                assert (got.step, got.residual) == (err.step, err.residual)
            except DivergenceError as err:
                assert_same_error(got, err)
            else:
                assert_same_run(got, reference)

    # both lanes warn before they diverge, the symplectic lane first; the
    # record cannot tell whose warning it saw, so the schemes run in turn
    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("case", ["python-warning", "overflow"])
    def test_warnings_come_lane_by_lane_as_alone(self, monkeypatch, block, case):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def saturating(p, q):  # exp(q) overflows from step 10 on
            return 0.0 * p + 1.0 / (1.0 + np.exp(q))

        if case == "overflow":
            system, dt, T = doubling(sigma0=saturating), 0.1, 10.0
        else:
            system, dt, T = hyperbolic(warns_beyond(1e10)), 1.0, 60.0
        lanes, alone = lanes_and_alone(system, T, empty_path(T), dt)
        for (got, got_warnings), (want, want_warnings) in zip(lanes, alone):
            assert isinstance(want, DivergenceError)
            assert_same_outcome(got, want)
            assert got_warnings == want_warnings != []

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_noisy_block_resumes_each_lane_alone_from_its_first_state(self, monkeypatch, block):
        # the explicit lane diverges cleanly at step 47 (harmonic oscillator
        # at dt = 1.5); a mark of 1.7e308 at t = 120.5 then overflows the
        # symplectic lane alone, whose solve stalls on NaN at step 80
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        rows = []

        def gamma0(p, q):
            rows.append(len(p))
            return p

        system = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: q, lambda p, q: 100.0 * q),
            gamma=(gamma0, lambda p, q: 0.0 * p),
            hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
        )
        path, dt = event_path([(120.5, 1, 1.7e308)], 150.0), 1.5
        lanes, alone = lanes_and_alone(system, 150.0, path, dt)
        for kind, (got, got_warnings), (want, want_warnings) in zip(
            (NonConvergenceError, DivergenceError), lanes, alone
        ):
            assert type(want) is kind
            assert_same_outcome(got, want)
            assert got_warnings == want_warnings
        assert lanes[0][1] != [] and lanes[1][1] == []
        # the symplectic lane goes on alone from the noisy block: the record
        # makes fewer one-lane steps than the two runs alone, which a
        # restart from t0 would add to its own
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows.clear()
            list(integrators._fixed_grid_lanes(system, SCHEMES, unit_start(), 0.0, 150.0, path, dt))
            resumed = rows.count(1)
            rows.clear()
            for scheme in SCHEMES:
                with pytest.raises((NonConvergenceError, DivergenceError)):
                    sl.integrate_fixed_grid(system, scheme, unit_start(), 0.0, 150.0, path, dt)
        assert 0 < resumed < len(rows)

    def test_a_window_where_both_lanes_are_noisy_runs_each_lane_alone_from_t0(self, monkeypatch):
        # exp(q) overflows from step 10 on in both lanes; with windows of 3
        # ticks the record steps ticks 0-11 as a pair and drops them at the
        # noisy window, and each lane then runs alone from t0
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", 3)
        rows = []

        def gamma0(p, q):
            rows.append(len(p))
            return 10.0 * q

        def saturating(p, q):
            return 0.0 * p + 1.0 / (1.0 + np.exp(q))

        system, dt = doubling(sigma0=saturating, gamma0=gamma0), 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs = list(integrators._fixed_grid_lanes(system, SCHEMES, unit_start(), 0.0, 10.0,
                                                      empty_path(10.0), dt))
            paired = list(rows)
            rows.clear()
            for scheme, run in zip(SCHEMES, runs):
                with pytest.raises(DivergenceError) as info:
                    sl.integrate_fixed_grid(system, scheme, unit_start(), 0.0, 10.0,
                                            empty_path(10.0), dt)
                assert_same_outcome(run, info.value)
        # 3 clean windows and the noisy one's unchecked pass as a pair, then
        # every one-lane call the two runs alone make
        assert paired[:12] == [2] * 12 and paired[12:] == rows

    # the symplectic lane diverges cleanly at step 29; the explicit lane,
    # P = Q from step 1 on, warns from step 35 on, in a later window, and
    # diverges at step 40: its warnings come after the symplectic outcome
    # (windows of 1 or 3 ticks hold steps 29 and 35 apart)
    @pytest.mark.parametrize("block", [1, 3])
    def test_a_later_noisy_window_of_the_explicit_lane_comes_after_the_symplectic_outcome(
            self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def gamma0(p, q):  # the symplectic lane evaluates at P1 = P0 + Q0 > Q0
            if ((np.abs(q) > 1e10) & (np.abs(q) >= np.abs(p))).any():
                warnings.warn("q beyond 1e10 and not below p")
            return p

        lanes, alone = lanes_and_alone(hyperbolic(gamma0), 60.0, empty_path(60.0), 1.0)
        for (got, got_warnings), (want, want_warnings) in zip(lanes, alone):
            assert isinstance(want, DivergenceError)
            assert_same_outcome(got, want)
            assert got_warnings == want_warnings
        assert (lanes[0][0].step, lanes[1][0].step) == (29, 40)
        assert lanes[0][1] == [] and len(lanes[1][1]) == 6

    def test_a_two_lane_grid_opens_one_recorder_per_window(self, monkeypatch):
        # T = 400 at dt = 0.08: 5,000 ticks of two lanes in windows of
        # 4,096 states, each run once under one recorder
        entered = []
        enter = _noise.Recording.__enter__

        def counted(self):
            entered.append(self)
            return enter(self)

        monkeypatch.setattr(_noise.Recording, "__enter__", counted)
        system = kubo()
        lanes = list(integrators._fixed_grid_lanes(system, SCHEMES, unit_start(), 0.0, 400.0,
                                                   sampled_on(system, 1, 400.0), 0.08))
        assert all(isinstance(run, sl.Trajectory) for run in lanes)
        assert len(entered) <= 4

    def test_an_evaluator_error_raises_before_the_explicit_lane_runs(self):
        seen = []

        def gamma0(p, q):
            seen.append(len(p))
            if (np.abs(q) > 1e6).any():
                raise ValueError("q beyond 1e6")
            return p

        runs = integrators._fixed_grid_lanes(hyperbolic(gamma0), SCHEMES, unit_start(), 0.0, 60.0,
                                             empty_path(60.0), 1.0)
        with pytest.raises(ValueError, match="q beyond 1e6"):
            next(runs)
        # the record of both lanes, dropped at the error, then the symplectic lane alone
        first_alone = seen.index(1)
        assert seen[:first_alone] and set(seen[:first_alone]) == {2}
        assert set(seen[first_alone:]) == {1}


def growth(gamma0=lambda p, q: 10.0 * q, sigma0=lambda p, q: 0.0 * p):
    # symplectic drift steps keep P and scale Q by 1 + 10 dt, and a jump
    # of mark x scales Q by e^x, so a lane's divergence depends on its dt
    # and on its marks
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(sigma0, lambda p, q: 0.0 * p),
        gamma=(gamma0, lambda p, q: q),
        hamiltonians=(lambda p, q: 0.0 * p[..., 0], lambda p, q: 0.0 * p[..., 0]),
    )


def lane_errors(system, paths, dts, T):
    """The batch's error and warnings, and those of the lowest lane that fails alone."""
    got = recorded(sl.integrate_pathwise_batch, system, unit_start(), 0.0, T, paths, dts)
    for path, step in zip(paths, dts):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                scalar_pathwise(system, unit_start(), 0.0, T, path, step)
            except Exception as err:
                return got, (err, [(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    raise AssertionError("no lane fails alone")


class TestLaneBlocks:
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("system", [kubo(), anharmonic()], ids=["kubo", "anharmonic"])
    def test_block_size_does_not_change_the_record(self, monkeypatch, block, system):
        dts = [0.08, 0.01, 0.05, 0.3, 0.013]
        paths = [sampled(seed, 4.0) for seed in range(4)] + [empty_path(4.0)]
        default = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 4.0, paths, dts)
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        lanes = sl.integrate_pathwise_batch(system, unit_start(), 0.0, 4.0, paths, dts)
        for path, step, lane, want in zip(paths, dts, lanes, default, strict=True):
            assert_same_run(lane, want)
            assert_same_run(lane, scalar_pathwise(system, unit_start(), 0.0, 4.0, path, step))

    # lanes 0 and 1 stay below 1e8 up to T = 2; lane 2's jump at 0.5
    # scales Q by e^12, and it diverges in the middle of its second segment
    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    @pytest.mark.parametrize("limit", [math.inf, 1e12], ids=["finite", "raises-past-divergence"])
    def test_one_lane_diverges_while_the_others_go_on(self, monkeypatch, block, limit):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        system = growth(gamma0=warning_gamma(1e9, 3e9, limit))
        paths = [sampled_on(system, 0, 2.0), empty_path(2.0), event_path([(0.5, 1, 12.0)], 2.0)]
        (got, got_warnings), (want, want_warnings) = lane_errors(system, paths, [0.05, 0.1, 0.02], 2.0)
        assert isinstance(want, DivergenceError) and want.partial.times[-1] > 0.5
        assert_same_error(got, want)
        assert got_warnings == want_warnings != []

    def test_divergence_on_the_last_and_first_tick_of_a_block(self, monkeypatch):
        system = growth()
        paths = [empty_path(4.0), empty_path(4.0), empty_path(4.0)]
        dts = [0.2, 0.3, 0.01]
        _, (want, _) = lane_errors(system, paths, dts, 4.0)
        # lane 2 has no jumps, so its failing tick is its step
        for block in (want.step + 1, want.step, (want.step + 1) // 2):
            monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
            (got, got_warnings), (want, want_warnings) = lane_errors(system, paths, dts, 4.0)
            assert_same_error(got, want)
            assert got_warnings == want_warnings == []

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_stall(self, monkeypatch, block):
        # sigma_0 = 30 p + q: the momentum solve stalls for 30 dt > 1
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        system = growth(sigma0=lambda p, q: 30.0 * p + q, gamma0=lambda p, q: 0.1 * p)
        paths = [sampled_on(system, seed, 3.0) for seed in range(4)]
        (got, got_warnings), (want, want_warnings) = lane_errors(system, paths, [0.01, 0.02, 0.05, 0.04], 3.0)
        assert isinstance(want, NonConvergenceError)
        assert_same_error(got, want)
        assert got.residual == want.residual
        assert got_warnings == want_warnings == []

    # both jumping lanes drift 20 ticks to their jump; in the second
    # segment lane 2 has the most ticks and fails first, so lane 1 goes on
    # in a new buffer and diverges later, raising the batch's error
    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_a_later_failure_after_a_new_buffer_layout(self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        system = growth()
        paths = [empty_path(3.0), event_path([(1.0, 1, 8.0)], 3.0), event_path([(0.2, 1, 25.0)], 3.0)]
        dts = [0.1, 0.05, 0.01]
        (got, _), (want, _) = lane_errors(system, paths, dts, 3.0)
        with pytest.raises(DivergenceError) as first:
            scalar_pathwise(system, unit_start(), 0.0, 3.0, paths[2], 0.01)
        assert 20 < first.value.step < want.step
        assert_same_error(got, want)


def stall_after_a_huge_mark():
    # the system of the resume test above: the explicit lane diverges
    # cleanly at step 47, and a mark of 1.7e308 at t = 120.5 overflows
    # the symplectic lane, whose solve stalls on NaN at step 80
    system = sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: q, lambda p, q: 100.0 * q),
        gamma=(lambda p, q: p, lambda p, q: 0.0 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
    )
    return system, event_path([(120.5, 1, 1.7e308)], 150.0), 1.5


@pytest.mark.parametrize("block", [1, 3, 64])
def test_a_noisy_block_of_the_first_lane_alone_runs_again_in_the_record(monkeypatch, block):
    # once the explicit lane has failed, the symplectic lane's noisy block
    # is checked in place: its warnings still come before either outcome
    monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
    entered = []
    grid_runs = integrators._grid_runs

    def counted(system, schemes, *args):
        entered.append(schemes)
        return grid_runs(system, schemes, *args)

    monkeypatch.setattr(integrators, "_grid_runs", counted)
    system, path, dt = stall_after_a_huge_mark()
    lanes, alone = lanes_and_alone(system, 150.0, path, dt)
    for kind, (got, got_warnings), (want, want_warnings) in zip(
        (NonConvergenceError, DivergenceError), lanes, alone
    ):
        assert type(want) is kind
        assert_same_outcome(got, want)
        assert got_warnings == want_warnings
    assert lanes[0][1] != [] and lanes[1][1] == []
    assert entered == [SCHEMES, ("symplectic",), ("explicit",)]  # the record, then each run alone


def kicks(gamma1=lambda p, q: 0.0 * q + 1.0):
    # drift steps scale Q by 1 + dt; a jump adds its mark to Q, exactly,
    # in any number of RK4 substeps, and a mark of 1e308 overflows it
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.0 * p, lambda p, q: 0.0 * p),
        gamma=(lambda p, q: q, gamma1),
        hamiltonians=(lambda p, q: 0.0 * p[..., 0], lambda p, q: 0.0 * p[..., 0]),
    )


def outcome(run, *args):
    """run(*args)'s trajectories or error, with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = run(*args)
        except (DivergenceError, NonConvergenceError) as err:
            got = err
    return got, issued(caught)


def assert_batch_as_alone(system, paths, dts, T):
    """The batch ends as its paths alone and as scalar_pathwise, warnings included.

    That is each path's run, or the lowest failing path's error after the
    warnings of the paths before it; returns the batch's outcome.
    """
    got, got_warnings = outcome(sl.integrate_pathwise_batch, system, unit_start(), 0.0, T, paths,
                                dts)
    seen = []
    for b, (path, step) in enumerate(zip(paths, dts)):
        want, want_warnings = outcome(sl.integrate_pathwise, system, unit_start(), 0.0, T, path, step)
        scalar, scalar_warnings = outcome(scalar_pathwise, system, unit_start(), 0.0, T, path, step)
        assert want_warnings == scalar_warnings
        seen += want_warnings
        if isinstance(want, Exception):
            # scalar_pathwise raises a failed flow's own error, the driver's cause
            assert str(scalar) == str(want.__cause__ if "jump flow" in str(want) else want)
            assert_same_error(got, want)
            assert got_warnings == seen
            return got
        assert_same_run(want, scalar)
        if not isinstance(got, Exception):  # else a later path fails, and the batch with it
            assert_same_run(got[b], want)
    assert got_warnings == seen and not isinstance(got, Exception)
    return got


class TestOnePass:
    # the lanes jump every 2, 13 and 3 or 4 ticks, so a block of 64 entries
    # holds several jump indices; the kicked lane's fifth jump puts Q just
    # below the divergence limit and its next tick beyond it, and the flow
    # lane's tenth jump overflows, later in the pass
    QUIET = [(0.1 * i, 1, 0.01) for i in range(1, 20)]
    FLOW = [(0.13 * i, 1, 0.01) for i in range(1, 10)] + [(1.3, 1, 1e308), (1.5, 1, 0.01)]
    KICK = [(0.07 * i, 1, 0.01) for i in range(1, 5)] + [(0.35, 1, 0.99e12), (0.5, 1, 0.01)]

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_flow_and_a_tick_after_a_jump_fail_as_alone(self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        lanes = {name: (event_path(events, 2.0), dt) for name, events, dt in (
            ("quiet", self.QUIET, 0.05), ("flow", self.FLOW, 0.01), ("kick", self.KICK, 0.02))}
        kick, _ = outcome(sl.integrate_pathwise, kicks(), unit_start(), 0.0, 2.0, lanes["kick"][0],
                          0.02)
        assert list(kick.partial.times[-2:]) == [0.35, 0.35] and kick.time > 0.35
        flow, flow_warnings = outcome(sl.integrate_pathwise, kicks(), unit_start(), 0.0, 2.0,
                                      lanes["flow"][0], 0.01)
        assert str(flow).startswith("jump flow diverged at t=1.3") and flow_warnings
        for order in (["quiet", "flow", "kick"], ["quiet", "kick", "flow"], ["kick", "flow"],
                      ["flow", "quiet", "kick"]):
            err = assert_batch_as_alone(kicks(), [lanes[n][0] for n in order],
                                        [lanes[n][1] for n in order], 2.0)
            lowest = min(order.index("flow"), order.index("kick"))
            assert_same_error(err, flow if order[lowest] == "flow" else kick)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_an_evaluator_that_warns_only_in_a_flow_at_the_cap(self, monkeypatch, block):
        # gamma_1 = q, called by jump flows only, warns once |Q| passes 100,
        # which only the second path's marks reach; a noisy run below the
        # cap sends a jump to the cap, whose warnings the run issues
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def gamma1(p, q):
            if (np.abs(q) > 100.0).any():
                warnings.warn("q beyond 100")
            return q

        loud = event_path([(0.4, 1, 2.0), (0.9, 1, 2.0), (1.2, 1, -0.1)], 2.0)
        paths, dts = [sampled(4, 2.0), loud, sampled(5, 2.0)], [0.05, 0.02, 0.1]
        for path, dt in zip(paths, dts):
            _, warned = outcome(sl.integrate_pathwise, kicks(gamma1), unit_start(), 0.0, 2.0, path,
                                dt)
            assert bool(warned) == (path is loud)
        for order in ([0, 1, 2], [1, 2, 0]):
            assert_batch_as_alone(kicks(gamma1), [paths[i] for i in order], [dts[i] for i in order],
                                  2.0)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_flow_below_the_cap_overflows_beside_a_cap_run_that_diverges(self, monkeypatch,
                                                                          block):
        # a rotation jump field that overflows in a masked branch past
        # |p| or |q| = 3: a mark of 30 (angle 3) gets there only in the
        # runs below the cap, so that lane takes the cap silently; a mark of
        # 1e308 makes the cap run itself non-finite, so that lane fails.
        # The block runs unchecked first, its flows sharing the pass's
        # recorder, and again checked, where each flow keeps its own
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def rotation(scale):
            def evaluate(p, q):
                np.exp(1000.0 * ((np.abs(p) > 3.0) | (np.abs(q) > 3.0)))
                return scale(p, q)

            return evaluate

        system = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 0.0 * q, rotation(lambda p, q: 0.1 * q)),
            gamma=(lambda p, q: 0.0 * p, rotation(lambda p, q: 0.1 * p)),
            hamiltonians=(lambda p, q: 0.0 * p[..., 0], lambda p, q: 0.0 * p[..., 0]),
        )
        quiet = event_path([(0.1 * i, 1, 0.2) for i in range(1, 10)], 1.0)
        clipped = event_path([(0.3, 1, 0.1), (0.5, 1, 30.0), (0.7, 1, -0.2)], 1.0)
        diverging = event_path([(0.2, 1, 0.1), (0.5, 1, 1e308), (0.9, 1, 0.1)], 1.0)
        run, warned = outcome(sl.integrate_pathwise, system, unit_start(), 0.0, 1.0, clipped, 0.05)
        assert not warned and list(run.times[11:13]) == [0.5, 0.5]
        capped = sl.jump_flow(system, run.state(11), [30.0], 16)
        assert np.array_equal(run.ps[12], capped.p) and np.array_equal(run.qs[12], capped.q)
        err, warned = outcome(sl.integrate_pathwise, system, unit_start(), 0.0, 1.0, diverging,
                              0.05)
        assert str(err) == "jump flow diverged at t=0.5 (substep 0)" and warned
        for paths, dts in (([quiet, clipped, diverging], [0.05, 0.05, 0.05]),
                           ([clipped, diverging], [0.05, 0.05]),
                           ([diverging, clipped, quiet], [0.05, 0.1, 0.02]),
                           ([clipped, quiet], [0.1, 0.05])):
            got = assert_batch_as_alone(system, paths, dts, 1.0)
            if diverging in paths:
                assert_same_error(got, err)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_an_empty_path_beside_a_busy_one(self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        busy = sampled(6, 40.0)
        assert 180 < len(busy) < 220
        for paths in ([empty_path(40.0), busy], [busy, empty_path(40.0)]):
            assert_batch_as_alone(kubo(), paths, [0.05, 0.03], 40.0)

    # Q grows from 1 by 1 + dt per drift tick and by e^x per jump of mark
    # x, so it passes (1.4, 1.7) at about tick 4 at dt = 0.1 and tick 34 at
    # dt = 0.01: the second path warns first in tick order, but the batch
    # issues the first path's warnings first, as the paths run alone
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_warnings_come_path_by_path(self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def gamma0(p, q):
            inside = (q > 1.4) & (q < 1.7)
            if inside.any():
                warnings.warn(f"q = {q[inside].tolist()}")
            return q

        system = growth(gamma0=gamma0)
        paths = [sampled_on(system, seed, 1.0) for seed in (0, 1)]
        alone = [outcome(sl.integrate_pathwise, system, unit_start(), 0.0, 1.0, path, dt)[1]
                 for path, dt in zip(paths, [0.01, 0.1])]
        assert all(alone)
        assert_batch_as_alone(system, paths, [0.01, 0.1], 1.0)

    def test_a_noisy_shape_check_issues_only_the_warnings_of_the_paths_alone(self):
        # gamma[0] warns on the start state, Q = 1: the batch's shape check of
        # both lanes is noisy, so the paths run alone, each with its own check
        def gamma0(p, q):
            if (np.abs(q) >= 1.0).any():
                warnings.warn(f"|Q| >= 1 on {len(q)} lanes")
            return 0.1 * p

        system = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: 0.1 * q, lambda p, q: 0.1 * q),
            gamma=(gamma0, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0 * p[..., 0], lambda p, q: 0.0 * p[..., 0]),
        )
        paths = [sampled(seed, 1.0) for seed in (0, 1)]
        got, warned = outcome(sl.integrate_pathwise_batch, system, unit_start(), 0.0, 1.0, paths, 0.1)
        alone = [outcome(sl.integrate_pathwise, system, unit_start(), 0.0, 1.0, path, 0.1)
                 for path in paths]
        assert alone[0][1] and alone[1][1]
        assert warned == alone[0][1] + alone[1][1]  # not the batch check's "on 2 lanes" first
        for run, (want, _) in zip(got, alone):
            assert_same_run(run, want)

    def test_a_wrong_shape_in_a_batch_raises_after_its_warnings(self):
        # the check's warnings are issued once, then its error, before any lane runs
        def gamma0(p, q):
            warnings.warn(f"gamma[0] on {len(q)} lanes")
            return 0.1 * p[0]

        system = growth(gamma0=gamma0)
        paths = [sampled(seed, 1.0) for seed in (0, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"gamma\[0\] maps lane arrays of shape \(2, 1\)"):
                sl.integrate_pathwise_batch(system, unit_start(), 0.0, 1.0, paths, 0.1)
        assert [str(w.message) for w in caught] == ["gamma[0] on 2 lanes"]


def phase_flows(system, paths, dts, T):
    """Per phase of the pass, the (lane, jump index) pairs its flow applies."""
    _, jumps, ticks, _ = _lane_record(system, paths, 0.0, T, np.array(dts))
    _, jumped, _ = integrators._phases(ticks, jumps)
    return [[(b, int(jumped[i, b])) for b in np.flatnonzero(jumped[i + 1] != jumped[i])]
            for i in range(len(jumped) - 1)]


def stiff_beyond(level):
    # kicks() whose momentum solve stalls once Q passes `level`: the sweep
    # P <- P0 - dt (30 P + Q0) expands for dt > 1/30 and creeps at 0.02
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: np.where(q > level, 30.0 * p + q, 0.0 * p), lambda p, q: 0.0 * p),
        gamma=(lambda p, q: q, lambda p, q: 0.0 * q + 1.0),
        hamiltonians=(lambda p, q: 0.0 * p[..., 0], lambda p, q: 0.0 * p[..., 0]),
    )


BENCHMARK_CONVERGE = ("converge --alpha 0.1 --beta 0.1 --lambda 5.0 --sigma 0.2 --T 10.0 --samples 5 "
                      "--dts 0.08,0.04,0.02,0.01,0.005 --scheme symplectic --seed 1").split()


def kernel_calls(monkeypatch):
    """Count the pass's drift and flow calls, and keep each record's jump counts and ticks."""
    calls, records = {"drift": 0, "flow": 0}, []

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    def kept(*args):
        rec, jumps, ticks, marks = lane_record(*args)
        records.append((jumps, ticks))
        return rec, jumps, ticks, marks

    lane_record = integrators._lane_record
    monkeypatch.setattr(integrators, "_lane_record", kept)
    monkeypatch.setattr(integrators, "_step_lanes", counted("drift", integrators._step_lanes))
    monkeypatch.setattr(integrators, "_flow_raw", counted("flow", integrators._flow_raw))
    return calls, records


class TestPhases:
    """Lanes step in phases: the lanes waiting at a jump share a flow, whatever its jump index."""

    def test_benchmark_cells_take_few_kernel_calls(self, monkeypatch, tmp_path):
        # the exact schedule the benchmark's speed rests on: by jump index these
        # cells took 4,946 drift calls and 59 flows, against 2,029 ticks in the
        # longest lane
        calls, records = kernel_calls(monkeypatch)
        assert cli.main([*BENCHMARK_CONVERGE, "--out-dir", str(tmp_path)]) == 0
        ((jumps, ticks),) = records
        assert len(jumps) == 25 and ticks.sum(axis=1).max() == 2029 and jumps.max() == 59
        assert calls == {"drift": 2690, "flow": 104}

    def test_the_fixed_grid_pair_takes_one_drift_call_a_step(self, monkeypatch):
        # orbit's model flags at T=400: both schemes step as one two-lane call
        # per grid step, and the linearized grid takes no flow
        path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=1), 400.0)
        calls, _ = kernel_calls(monkeypatch)
        runs = list(integrators._fixed_grid_lanes(kubo(), SCHEMES, unit_start(), 0.0, 400.0, path,
                                                  0.08))
        assert [len(run) for run in runs] == [5001, 5001]
        assert calls == {"drift": 5000, "flow": 0}

    def test_lanes_in_lockstep_take_a_phase_per_segment(self, monkeypatch):
        path = sampled(3, 4.0)
        calls, records = kernel_calls(monkeypatch)
        sl.integrate_pathwise_batch(kubo(), unit_start(), 0.0, 4.0, [path] * 3, 0.05)
        ((jumps, ticks),) = records
        assert calls == {"drift": ticks[0].sum(), "flow": len(path)} and (jumps == len(path)).all()

    # lane 1 is kicked to 0.99e12 by its second jump, in phase 2, and its
    # next tick, in phase 3 after two jumps, passes the limit; lane 0's
    # seventh mark overflows its flow three phases later
    EARLY = [(0.3, 1, 0.01), (0.6, 1, 0.99e12), (1.5, 1, 0.01)]
    LATE = [(0.05 * i, 1, 0.01) for i in range(1, 6)] + [(1.0, 1, 0.01), (1.2, 1, 1e308)]

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_higher_lane_fails_in_an_earlier_phase(self, monkeypatch, block):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        paths = [event_path(events, 2.0) for events in (self.LATE, self.EARLY, [(0.7, 1, 0.01)])]
        flows = phase_flows(kicks(), paths, [0.01, 0.01, 0.02], 2.0)
        assert (1, 1) in flows[2] and (0, 6) in flows[6]
        err = assert_batch_as_alone(kicks(), paths, [0.01, 0.01, 0.02], 2.0)
        assert str(err).startswith("jump flow diverged at t=1.2")
        # the kicked lane lowest: its step counts its own two jumps, not the phase's index
        err = assert_batch_as_alone(kicks(), paths[1::-1] + paths[2:], [0.01, 0.01, 0.02], 2.0)
        assert (err.step, err.time) == (61, 0.62)

    # lane 1's third jump overflows its flow (or, with marks of 200 and a
    # gamma_1 that warns beyond 100, warns there) in phase 2, whose flow
    # also applies lane 0's second jump
    QUICK = [(0.05, 1, 0.01), (0.1, 1, 0.01), (0.15, 1, 1e308), (1.5, 1, 0.01)]

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("loud", [False, True], ids=["overflow", "warning"])
    def test_a_flow_fails_or_warns_in_a_phase_of_mixed_jump_indices(self, monkeypatch, block, loud):
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)

        def gamma1(p, q):
            if loud and (np.abs(q) > 100.0).any():
                warnings.warn("q beyond 100")
            return 0.0 * q + 1.0

        quick = [(t, r, 200.0 if loud and mark > 1.0 else mark) for t, r, mark in self.QUICK]
        paths = [event_path(events, 2.0) for events in ([(0.33, 1, 0.01), (0.9, 1, 0.01)], quick,
                                                        [(0.7, 1, 0.01)])]
        assert phase_flows(kicks(gamma1), paths, [0.01, 0.01, 0.02], 2.0)[2] == [(0, 1), (1, 2)]
        got = assert_batch_as_alone(kicks(gamma1), paths, [0.01, 0.01, 0.02], 2.0)
        if not loud:
            assert str(got) == "jump flow diverged at t=0.15 (substep 0)"

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_stall_counts_its_own_lane_jumps(self, monkeypatch, block):
        # lane 1 (dt 0.05) stalls on the first tick after its second jump,
        # in phase 4, beside a lane that has jumped four times; lane 2 (dt
        # 0.02) stalls later, once its drift carries Q past 5
        monkeypatch.setattr(integrators, "_CHECK_BLOCK", block)
        busy = [(0.05 * i, 1, 0.01) for i in range(1, 6)] + [(1.0, 1, 0.01)]
        paths = [event_path(events, 2.0) for events in (busy, [(0.3, 1, 0.01), (0.6, 1, 5.0),
                                                               (1.5, 1, 0.01)], [(0.7, 1, 0.01)])]
        dts = [0.01, 0.05, 0.02]
        flows = phase_flows(stiff_beyond(5.0), paths, dts, 2.0)
        assert (1, 1) in flows[3] and (0, 3) in flows[3]
        for order in ([0, 1, 2], [1, 0, 2], [2, 0]):
            err = assert_batch_as_alone(stiff_beyond(5.0), [paths[i] for i in order],
                                        [dts[i] for i in order], 2.0)
            assert isinstance(err, NonConvergenceError)
        assert err.step > 80  # lane 2's own stall, after its one jump


def separable_and_loop(params=KUBO):
    """kubo_system(params), then its copy that does not declare itself separable."""
    system = sl.kubo_system(params)
    return system, dataclasses.replace(system, separable=False)


def assert_same_outcome_bits(got, want):
    """Two outcomes of `outcome`: equal errors, or lists of equal runs or errors."""
    if isinstance(want, Exception):
        assert_same_error(got, want)
        return
    assert not isinstance(got, Exception) and len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Exception):
            assert_same_error(a, b)
        else:
            assert_same_run(a, b)


class TestSeparable:
    """Kubo's one-sweep momentum against the fixed-point loop on the same system, bit for bit."""

    @pytest.mark.parametrize("alpha, beta, rate, sigma, dt, T, ends", [
        (0.1, 0.1, 5.0, 0.2, 0.08, 20.0, "runs"),
        (10.0, 0.1, 5.0, 0.2, 0.08, 20.0, "explicit diverges"),  # orbit --alpha 10
        (0.1, 0.1, 0.0, 0.2, 1e6, 3e6, "both diverge"),  # orbit --lambda 0 --dt 1e6 --T 3e6
        (1e200, 0.1, 5.0, 0.2, 0.08, 5.0, "both diverge"),  # hamiltonian --alpha 1e200: noisy
        (0.1, 1e308, 5.0, 0.2, 0.08, 5.0, "both diverge"),  # beta dL overflows p's bound
        (0.1, 1e308, 5.0, 20.0, 0.08, 5.0, "symplectic stalls"),  # beta dL overflows to inf
    ])
    def test_the_fixed_grid_pair(self, alpha, beta, rate, sigma, dt, T, ends):
        path = sl.sample_path(sl.LevyPathSpec(rate=rate, mark_sigma=sigma, seed=1), T)

        def pair(system):
            return list(integrators._fixed_grid_lanes(system, SCHEMES, unit_start(), 0.0, T, path,
                                                      dt))

        separable, loop = separable_and_loop(sl.KuboParams(alpha, beta))
        got, want = outcome(pair, separable)[0], outcome(pair, loop)[0]
        assert_same_outcome_bits(got, want)
        kinds = [type(run).__name__ for run in want]
        assert kinds == {"runs": ["Trajectory"] * 2,
                         "explicit diverges": ["Trajectory", "DivergenceError"],
                         "both diverge": ["DivergenceError"] * 2,
                         "symplectic stalls": ["NonConvergenceError", "DivergenceError"]}[ends]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("alpha, dts, ends", [
        (0.1, [0.08, 0.02, 0.005], None),
        (1e308, [3.0, 0.5, 0.1], NonConvergenceError),  # 3 alpha overflows: lane 0 stalls
        (1e308, [0.5, 3.0, 0.1], DivergenceError),
    ])
    def test_pathwise_batches(self, scheme, alpha, dts, ends):
        paths = [empty_path(3.0), sampled(1, 3.0), sampled(2, 3.0)]

        def batch(system):
            rec = _pathwise_record(system, unit_start(), 0.0, 3.0, paths, dts, scheme)
            return [rec.trajectory(b) for b in range(len(paths))]

        separable, loop = separable_and_loop(sl.KuboParams(alpha, 0.1))
        got, want = outcome(batch, separable)[0], outcome(batch, loop)[0]
        assert_same_outcome_bits(got, want)
        if scheme == "explicit" or ends is None:
            assert not isinstance(want, NonConvergenceError)
        else:
            assert isinstance(want, ends)

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (0.1, 1e308), (1e308, 1e308)])
    def test_one_step_maps_and_jacobians(self, alpha, beta):
        rng = np.random.default_rng(21)
        p, q = rng.uniform(-2.0, 2.0, (2, 60, 1))
        dt, dl = 0.1 - rng.uniform(0.0, 0.1, 60), rng.uniform(-1.0, 1.0, (60, 1))
        dt[::11], dl[::7] = 0.0, 0.0
        separable, loop = separable_and_loop(sl.KuboParams(alpha, beta))
        with np.errstate(all="ignore"):
            for scheme in SCHEMES:
                got, got_failure = _jacobian_lanes(separable, scheme, p, q, dt, dl)
                want, want_failure = _jacobian_lanes(loop, scheme, p, q, dt, dl)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                if want_failure is None:
                    assert got_failure is None and beta == 0.1
                    continue
                assert got_failure[0] == want_failure[0]
                assert type(got_failure[1]) is type(want_failure[1])
                assert str(got_failure[1]) == str(want_failure[1])
            stalls = 0
            for b in range(60):
                state = sl.PhaseState(p[b], q[b])
                results = []
                for system in (separable, loop):
                    try:
                        results.append(sl.symplectic_euler_step(system, state, dt[b], dl[b]))
                    except (DomainError, NonConvergenceError) as err:
                        results.append(err)
                got, want = results
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want)
                    stalls += isinstance(want, NonConvergenceError)
                else:
                    assert got.p.tobytes() == want.p.tobytes()
                    assert got.q.tobytes() == want.q.tobytes()
        assert (stalls > 0) == (beta > 1.0)

    @pytest.mark.parametrize("s", [0, 1, 5, 12])
    def test_kernel_rows_that_overflow_or_start_non_finite_stall_as_in_the_loop(self, s):
        rng = np.random.default_rng(22)
        p, q = rng.uniform(-2.0, 2.0, (2, 12, 1))
        p[3], p[5], q[8] = np.inf, np.nan, -np.inf
        dt = rng.uniform(0.0, 0.1, (12, 1))
        dl = rng.uniform(-1.0, 1.0, (12, 1))
        dl[::2] *= 1e308
        separable, loop = separable_and_loop(sl.KuboParams(0.1, 1e308))
        with np.errstate(all="ignore"):
            for increments in (dl, None):
                got_p, got_q, got = _step_lanes(separable, s, p, q, dt, increments)
                want_p, want_q, want = _step_lanes(loop, s, p, q, dt, increments)
                assert got_p.tobytes() == want_p.tobytes()
                assert got_q.tobytes() == want_q.tobytes()
                if want is None:
                    assert got is None and s < 4
                    continue
                assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
                assert np.isnan(want[1]).all()
