"""Tests for error metrics, order fitting, and symplecticity checks."""

import csv
import math

import numpy as np
import pytest

import symplevy as sl
from symplevy import cli
from symplevy.analysis import FD_STEP, _defect_lanes, _jacobian_lanes
from symplevy.errors import DomainError, NonConvergenceError


KUBO = sl.KuboParams(alpha=0.1, beta=0.1)


def kubo():
    return sl.kubo_system(KUBO)


class TestMsError:
    def test_zero_differences(self):
        assert sl.ms_error(np.zeros((10, 2))) == 0.0

    def test_single_vector_is_its_norm(self):
        assert sl.ms_error([[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-15)

    def test_averages_squared_norms(self):
        value = sl.ms_error([[1.0, 0.0], [0.0, 0.0]])
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_sample_order_is_irrelevant(self):
        rng = np.random.default_rng(5)
        diffs = rng.normal(size=(40, 2))
        shuffled = diffs[rng.permutation(40)]
        assert sl.ms_error(diffs) == pytest.approx(sl.ms_error(shuffled), rel=1e-15)

    def test_scales_linearly(self):
        rng = np.random.default_rng(6)
        diffs = rng.normal(size=(25, 2))
        assert sl.ms_error(3.0 * diffs) == pytest.approx(3.0 * sl.ms_error(diffs), rel=1e-14)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(DomainError):
            sl.ms_error(np.zeros((0, 2)))
        with pytest.raises(DomainError):
            sl.ms_error([[1.0, float("nan")]])


class TestEstimateOrder:
    def test_recovers_planted_half_order(self):
        dts = np.array([0.08, 0.04, 0.02, 0.01, 0.005])
        errors = 0.7 * dts ** 0.5
        fit = sl.estimate_order(dts, errors)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-12)
        assert fit.residual < 1e-12

    def test_recovers_planted_first_order(self):
        dts = np.array([0.2, 0.1, 0.05, 0.025])
        errors = 1.3 * dts
        fit = sl.estimate_order(dts, errors)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_give_zero_slope(self):
        dts = np.array([0.1, 0.05, 0.025])
        fit = sl.estimate_order(dts, [2e-3, 2e-3, 2e-3])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_positive_points(self):
        with pytest.raises(DomainError):
            sl.estimate_order([0.1, 0.05], [1e-2, 5e-3])
        with pytest.raises(DomainError):
            sl.estimate_order([0.1, 0.05, 0.025], [1e-2, 0.0, 1e-3])
        with pytest.raises(DomainError):
            sl.estimate_order([0.1, -0.05, 0.025], [1e-2, 5e-3, 1e-3])
        with pytest.raises(DomainError):
            sl.estimate_order([0.1, 0.05, 0.025], [1e-2, 5e-3])

    def test_requires_two_distinct_step_sizes(self):
        with pytest.raises(DomainError, match="distinct"):
            sl.estimate_order([0.08, 0.08, 0.08], [1e-2, 2e-2, 3e-2])
        fit = sl.estimate_order([0.08, 0.08, 0.04], [1e-2, 1e-2, 5e-3])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_result_records_inputs(self):
        dts = [0.1, 0.05, 0.025]
        errors = [1e-2, 5e-3, 2.5e-3]
        fit = sl.estimate_order(dts, errors)
        assert np.allclose(fit.dts, dts)
        assert np.allclose(fit.errors, errors)


class TestReferenceResidual:
    def test_exact_half_order_data_has_zero_residual(self):
        dts = np.array([0.08, 0.04, 0.02, 0.01])
        fit = sl.estimate_order(dts, 0.9 * dts ** 0.5)
        assert sl.reference_residual(fit, slope=0.5) < 1e-13

    def test_measures_minimax_gap_to_prescribed_slope(self):
        # For errors = dt the centered values against slope 0.5 are
        # 0.5 log dt, so the best constant leaves half the spread.
        dts = np.array([0.4, 0.2, 0.1, 0.05])
        fit = sl.estimate_order(dts, dts.copy())
        expected = 0.25 * (math.log(0.4) - math.log(0.05))
        assert sl.reference_residual(fit, slope=0.5) == pytest.approx(expected, rel=1e-12)

    def test_default_slope_is_half(self):
        dts = np.array([0.08, 0.04, 0.02, 0.01])
        fit = sl.estimate_order(dts, 0.9 * dts ** 0.5)
        assert sl.reference_residual(fit) == sl.reference_residual(fit, slope=0.5)


class TestHamiltonianSeries:
    def test_constant_energy_on_exact_rotation(self):
        times = np.linspace(0.0, 10.0, 50)
        states = [sl.kubo_exact(KUBO, sl.PhaseState([0.0], [1.0]), t, 0.0) for t in times]
        traj = sl.Trajectory(
            times=times,
            ps=[s.p for s in states],
            qs=[s.q for s in states],
            scheme_tag="exact",
        )
        series = sl.hamiltonian_series(kubo(), traj)
        assert series.shape == (50, 2)
        assert np.array_equal(series[:, 0], times)
        assert np.allclose(series[:, 1], 0.5, atol=1e-13)

    def test_indexed_hamiltonian_selects_channel(self):
        traj = sl.Trajectory(times=[0.0], ps=[[2.0]], qs=[[1.0]], scheme_tag="x")
        # H_0 = alpha (P^2 + Q^2) / 2 and H_1 = beta (P^2 + Q^2) / 2.
        series0 = sl.hamiltonian_series(kubo(), traj, r=0)
        series1 = sl.hamiltonian_series(kubo(), traj, r=1)
        assert series0[0, 1] == pytest.approx(0.1 * 2.5, abs=1e-15)
        assert series1[0, 1] == pytest.approx(0.1 * 2.5, abs=1e-15)

    def test_equals_per_row_hamiltonian_value(self):
        path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=4), 20.0)
        traj = sl.integrate_fixed_grid(
            kubo(), "explicit", sl.PhaseState([0.0], [1.0]), 0.0, 20.0, path, 0.08
        )
        for r in (None, 0, 1):
            series = sl.hamiltonian_series(kubo(), traj, r)
            rows = [sl.hamiltonian_value(kubo(), r, traj.state(j)) for j in range(len(traj))]
            assert np.array_equal(series[:, 0], traj.times)
            assert np.array_equal(series[:, 1], rows)

    def test_monitored_energy_grows_along_explicit_run(self):
        path = sl.LevyPath(
            spec=sl.LevyPathSpec(rate=0.0, mark_sigma=0.0), horizon=20.0, events=()
        )
        traj = sl.integrate_fixed_grid(
            kubo(), "explicit", sl.PhaseState([0.0], [1.0]), 0.0, 20.0, path, 0.08
        )
        series = sl.hamiltonian_series(kubo(), traj)
        assert np.all(np.diff(series[:, 1]) > 0)


def anharmonic():
    # sigma_0 depends on p, so the implicit solve takes a state-dependent
    # number of sweeps and the perturbed lanes stop at different sweeps
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.3 * q * (p * p + q * q), lambda p, q: 0.1 * q),
        gamma=(lambda p, q: 0.3 * p * (p * p + q * q), lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
    )


def column_jacobian(system, scheme, state, dt, dL, step=FD_STEP):
    """The Jacobian one perturbed state at a time through the public steps."""
    one_step = sl.symplectic_euler_step if scheme == "symplectic" else sl.explicit_euler_step
    x0 = state.as_vector()
    jac = np.empty((x0.size, x0.size))
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += step
        xm[k] -= step
        sp = one_step(system, sl.PhaseState.from_vector(xp), dt, dL)
        sm = one_step(system, sl.PhaseState.from_vector(xm), dt, dL)
        jac[:, k] = (sp.as_vector() - sm.as_vector()) / (2.0 * step)
    return jac


class TestOneStepJacobian:
    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    @pytest.mark.parametrize("system", [kubo(), anharmonic()], ids=["kubo", "anharmonic"])
    def test_equals_column_by_column_public_steps(self, system, scheme):
        rng = np.random.default_rng(21)
        for _ in range(50):
            state = sl.PhaseState([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            dt = rng.uniform(0.0, 0.1)
            dl = np.array([rng.choice([0.0, rng.uniform(-1, 1)])])
            jac = sl.one_step_jacobian(system, scheme, state, dt, dl)
            assert np.array_equal(jac, column_jacobian(system, scheme, state, dt, dl))

    def test_stall_is_the_first_failing_column_error(self):
        # The sweep expands only off q = 0.7: the +q and -q perturbed
        # states (columns 2 and 3 of the old column order, after +p and
        # -p) stall with different residuals, and the +q one comes first.
        stiff = sl.HamiltonianSystem(
            n=1,
            m=1,
            sigma=(lambda p, q: np.where(np.abs(q - 0.7) > 5e-7, 30.0 * p + q, 0.1 * p),
                   lambda p, q: 0.1 * q),
            gamma=(lambda p, q: 0.1 * p, lambda p, q: 0.1 * p),
            hamiltonians=(lambda p, q: 0.0 * p[:, 0], lambda p, q: 0.0 * p[:, 0]),
        )
        state = sl.PhaseState([0.4], [0.7])
        errors = []
        for q in (0.7 + FD_STEP, 0.7 - FD_STEP):
            with pytest.raises(NonConvergenceError) as info:
                sl.symplectic_euler_step(stiff, sl.PhaseState([0.4], [q]), 0.1, [0.2])
            errors.append(info.value)
        assert errors[0].residual != errors[1].residual
        with pytest.raises(NonConvergenceError) as info:
            column_jacobian(stiff, "symplectic", state, 0.1, [0.2])
        assert (str(info.value), info.value.residual) == (str(errors[0]), errors[0].residual)
        with pytest.raises(NonConvergenceError) as info:
            sl.one_step_jacobian(stiff, "symplectic", state, 0.1, [0.2])
        assert (str(info.value), info.value.residual) == (str(errors[0]), errors[0].residual)

    def test_zero_step_gives_identity(self):
        state = sl.PhaseState([0.4], [-0.2])
        for scheme in ("symplectic", "explicit"):
            jac = sl.one_step_jacobian(kubo(), scheme, state, 0.0, np.zeros(1))
            assert np.allclose(jac, np.eye(2), atol=1e-9)

    def test_symplectic_jacobian_matches_linear_map(self):
        # With a = alpha dt + beta dL the map is linear, so finite
        # differences recover ((1, -a), (a, 1 - a^2)) to roundoff.
        dl = np.array([0.3])
        a = KUBO.alpha * 0.08 + KUBO.beta * 0.3
        jac = sl.one_step_jacobian(kubo(), "symplectic", sl.PhaseState([0.2], [0.7]), 0.08, dl)
        expected = np.array([[1.0, -a], [a, 1.0 - a * a]])
        assert np.allclose(jac, expected, atol=1e-9)
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-8)

    def test_explicit_jacobian_matches_linear_map(self):
        dl = np.array([0.3])
        a = KUBO.alpha * 0.08 + KUBO.beta * 0.3
        jac = sl.one_step_jacobian(kubo(), "explicit", sl.PhaseState([0.2], [0.7]), 0.08, dl)
        expected = np.array([[1.0, -a], [a, 1.0]])
        assert np.allclose(jac, expected, atol=1e-9)
        assert np.linalg.det(jac) == pytest.approx(1.0 + a * a, abs=1e-8)

    def test_step_size_parameter_is_used(self):
        jac_default = sl.one_step_jacobian(
            kubo(), "symplectic", sl.PhaseState([0.2], [0.7]), 0.08, np.zeros(1)
        )
        jac_wide = sl.one_step_jacobian(
            kubo(), "symplectic", sl.PhaseState([0.2], [0.7]), 0.08, np.zeros(1),
            step=1e-4,
        )
        assert np.allclose(jac_default, jac_wide, atol=1e-8)
        assert FD_STEP == 1e-6


def two_channel():
    # channel fields that do not commute, one of them depending on p
    return sl.HamiltonianSystem(
        n=1,
        m=2,
        sigma=(lambda p, q: 0.1 * q, lambda p, q: 0.3 * q, lambda p, q: 0.2 * p),
        gamma=(lambda p, q: 0.1 * p, lambda p, q: 0.3 * p, lambda p, q: 0.2 * q),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0],) * 3,
    )


def random_lanes(system, rng, states):
    """States, steps and increments; about a third of the dt and dL rows are zero."""
    p = rng.uniform(-2, 2, (states, system.n))
    q = rng.uniform(-2, 2, (states, system.n))
    dt = rng.uniform(0.0, 0.1, states) * (rng.uniform(size=states) > 0.3)
    dl = rng.uniform(-1, 1, (states, system.m)) * (rng.uniform(size=(states, 1)) > 0.3)
    dl[rng.uniform(size=(states, system.m)) < 0.2] = 0.0
    return p, q, dt, dl


class TestJacobianLanes:
    @pytest.mark.parametrize("scheme", ["symplectic", "explicit"])
    @pytest.mark.parametrize("system", [kubo(), anharmonic(), two_channel()],
                             ids=["kubo", "anharmonic", "two-channel"])
    def test_each_lane_equals_the_column_reference(self, system, scheme):
        p, q, dt, dl = random_lanes(system, np.random.default_rng(31), 40)
        assert not dt.all() and not dl.any(axis=1).all() and dl.any()
        jacs, failure = _jacobian_lanes(system, scheme, p, q, dt, dl)
        assert failure is None and jacs.shape == (40, 2, 2)
        for b in range(40):
            state = sl.PhaseState(p[b], q[b])
            expected = column_jacobian(system, scheme, state, dt[b], dl[b])
            assert np.array_equal(jacs[b], expected)

    def test_one_state_is_the_public_jacobian(self):
        state = sl.PhaseState([0.4], [-1.1])
        for scheme in ("symplectic", "explicit"):
            jacs, failure = _jacobian_lanes(
                anharmonic(), scheme, state.p[None], state.q[None], [0.07], [[0.3]]
            )
            public = sl.one_step_jacobian(anharmonic(), scheme, state, 0.07, 0.3)
            assert failure is None and np.array_equal(jacs[0], public)

    def test_validates_the_first_bad_state(self):
        p = q = np.zeros((3, 1))
        with pytest.raises(DomainError, match=r"dt must be >= 0, got -0\.2$"):
            _jacobian_lanes(kubo(), "symplectic", p, q, [0.1, -0.2, -0.3], np.zeros((3, 1)))
        with pytest.raises(DomainError, match=r"got shape \(2,\)$"):
            _jacobian_lanes(kubo(), "symplectic", p, q, [0.1] * 3, np.zeros((3, 2)))
        with pytest.raises(DomainError, match="scheme must be one of"):
            _jacobian_lanes(kubo(), "implicit", p, q, [0.1] * 3, np.zeros((3, 1)))


def trap():
    """A system whose steps fail in chosen regions of phase space.

    The momentum solve stalls below q = -50 (its sweep expands there), and
    gamma_0 is infinite above p = 50, so the explicit map, which takes
    gamma_0 at p0, fails for p0 just above 50 where the symplectic map,
    at p1 = p0 - q dt, does not.
    """
    return sl.HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: np.where(q < -50.0, 30.0 * p, q), lambda p, q: 0.1 * q),
        gamma=(lambda p, q: np.where(p > 50.0, np.inf, 0.1 * p), lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0 * p[:, 0],) * 2,
    )


# sample rows (p, q, dt, dL)
FINE = (0.3, 0.2, 0.5, 0.1)
NON_FINITE = (60.0, 0.2, 0.5, 0.0)  # both maps
EXPLICIT_ONLY = (50.2, 1.0, 0.5, 0.0)  # non-finite for the explicit map only
SYMPLECTIC_ONLY = (49.8, -1.0, 0.5, 0.0)  # non-finite for the symplectic map only
STALL = (0.3, -60.0, 0.1, 0.0)  # stalls the symplectic map only
STALL_AND_EXPLICIT = (60.0, -60.0, 0.1, 0.0)


def first_failure_one_at_a_time(system, samples):
    """The error of checking the samples in order, one public Jacobian at a time."""
    for p, q, dt, dl in samples:
        for scheme in ("symplectic", "explicit"):
            try:
                sl.one_step_jacobian(system, scheme, sl.PhaseState([p], [q]), dt, [dl])
            except (DomainError, NonConvergenceError) as err:
                return err
    return None


class TestLaneFailures:
    @pytest.mark.parametrize(
        "samples, kind",
        [
            ([FINE, NON_FINITE, STALL], DomainError),
            ([FINE, STALL, NON_FINITE], NonConvergenceError),
            ([FINE, EXPLICIT_ONLY, STALL], DomainError),
            ([STALL, FINE, NON_FINITE, EXPLICIT_ONLY], NonConvergenceError),
            ([FINE, STALL_AND_EXPLICIT, EXPLICIT_ONLY], NonConvergenceError),
            ([FINE, FINE, EXPLICIT_ONLY, STALL_AND_EXPLICIT], DomainError),
            ([FINE, SYMPLECTIC_ONLY, STALL], DomainError),
            ([SYMPLECTIC_ONLY, STALL_AND_EXPLICIT], DomainError),
        ],
    )
    def test_the_lowest_failing_sample_raises_first(self, samples, kind):
        expected = first_failure_one_at_a_time(trap(), samples)
        assert isinstance(expected, kind)
        with np.errstate(all="ignore"), pytest.raises(kind) as info:
            cli._defects(trap(), np.array(samples))
        assert str(info.value) == str(expected)
        if kind is NonConvergenceError:
            assert info.value.residual == expected.residual

    def test_failure_reports_the_state_index(self):
        rows = np.array([FINE, FINE, EXPLICIT_ONLY, SYMPLECTIC_ONLY, STALL, NON_FINITE])
        p, q, dt, dl = rows[:, :1], rows[:, 1:2], rows[:, 2], rows[:, 3:]
        with np.errstate(all="ignore"):
            jacs, (b, err) = _jacobian_lanes(trap(), "symplectic", p, q, dt, dl)
            assert b == 3 and isinstance(err, DomainError) and jacs.shape == (3, 2, 2)
            jacs, (b, err) = _jacobian_lanes(trap(), "symplectic", p[4:], q[4:], dt[4:], dl[4:])
            assert b == 0 and isinstance(err, NonConvergenceError) and jacs.shape == (0, 2, 2)
            jacs, (b, err) = _jacobian_lanes(trap(), "explicit", p, q, dt, dl)
            assert b == 2 and isinstance(err, DomainError) and jacs.shape == (2, 2, 2)
        for j in range(2):
            state = sl.PhaseState(p[j], q[j])
            assert np.array_equal(jacs[j], sl.one_step_jacobian(trap(), "explicit", state,
                                                                dt[j], dl[j]))


class TestSymplecticDefect:
    def test_stacked_defects_equal_one_at_a_time(self):
        rng = np.random.default_rng(17)
        for system in (kubo(), two_channel()):
            for scheme in ("symplectic", "explicit"):
                p, q, dt, dl = random_lanes(system, rng, 30)
                jacs, _ = _jacobian_lanes(system, scheme, p, q, dt, dl)
                stacked = _defect_lanes(jacs)
                assert stacked.shape == (30,)
                assert [float(d) for d in stacked] == [sl.symplectic_defect(j) for j in jacs]
        for dim in (2, 4):
            jacs = rng.normal(size=(25, dim, dim)) * 10.0 ** rng.integers(-3, 4, (25, 1, 1))
            expected = [sl.symplectic_defect(j) for j in jacs]
            assert [float(d) for d in _defect_lanes(jacs)] == expected

    def test_identity_has_zero_defect(self):
        assert sl.symplectic_defect(np.eye(2)) == 0.0

    def test_rotation_is_symplectic(self):
        theta = 0.83
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert sl.symplectic_defect(rot) < 1e-14

    def test_pure_stretch_has_unit_defect(self):
        assert sl.symplectic_defect(np.diag([2.0, 1.0])) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            sl.symplectic_defect(np.eye(3))

    def test_symplectic_steps_have_small_defect_everywhere(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            state = sl.PhaseState([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            dt = rng.uniform(0.0, 0.1)
            dl = np.array([rng.uniform(-1, 1)])
            jac = sl.one_step_jacobian(kubo(), "symplectic", state, dt, dl)
            worst = max(worst, sl.symplectic_defect(jac))
        assert worst < 1e-6

    def test_explicit_steps_violate_the_structure(self):
        jac = sl.one_step_jacobian(
            kubo(), "explicit", sl.PhaseState([0.0], [1.0]), 0.08, np.array([0.9])
        )
        # a = 0.098 gives a defect near a^2, far above discretization noise.
        assert sl.symplectic_defect(jac) > 1e-3


class TestOrderFitCsv:
    def test_file_layout(self, tmp_path):
        dts = np.array([0.08, 0.04, 0.02, 0.01])
        fit = sl.estimate_order(dts, 0.9 * dts ** 0.5)
        out = tmp_path / "fit.csv"
        sl.write_order_fit_csv(fit, out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["dt", "ms_error", "log_dt", "log_error"]
        assert len(rows) == 1 + len(dts) + 2
        for i in range(len(dts)):
            assert float(rows[1 + i][0]) == dts[i]
            assert float(rows[1 + i][1]) == fit.errors[i]
            assert float(rows[1 + i][2]) == pytest.approx(math.log(dts[i]), rel=1e-15)
            assert float(rows[1 + i][3]) == pytest.approx(math.log(fit.errors[i]), rel=1e-15)
        assert rows[-2] == ["slope", "intercept", "residual"]
        tail = [float(x) for x in rows[-1]]
        assert tail[0] == pytest.approx(fit.slope, rel=1e-15)
        assert tail[1] == pytest.approx(fit.intercept, rel=1e-15)
        assert tail[2] == pytest.approx(fit.residual, rel=1e-15, abs=1e-300)
