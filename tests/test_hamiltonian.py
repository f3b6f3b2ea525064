import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplevy as sl
from symplevy import (
    DomainError,
    HamiltonianSystem,
    InvalidSpecError,
    KuboParams,
    PhaseState,
    gradient_defect,
    hamiltonian_value,
    kubo_exact,
    kubo_system,
)

PARAMS = KuboParams(alpha=0.1, beta=0.1)


def test_phase_state_copies_and_freezes_input():
    raw = np.array([1.0, 2.0])
    state = PhaseState(raw, [3.0, 4.0])
    raw[0] = 99.0
    assert state.p[0] == 1.0
    with pytest.raises(ValueError):
        state.p[0] = 5.0


def test_phase_state_rejects_mismatched_lengths():
    with pytest.raises(DomainError):
        PhaseState([1.0, 2.0], [3.0])


def test_phase_state_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError):
        PhaseState([], [])
    with pytest.raises(DomainError):
        PhaseState([float("inf")], [0.0])
    with pytest.raises(DomainError):
        PhaseState([0.0], [float("nan")])


def test_vector_roundtrip():
    state = PhaseState([1.0, -2.0], [0.5, 3.0])
    back = PhaseState.from_vector(state.as_vector())
    assert np.array_equal(back.p, state.p)
    assert np.array_equal(back.q, state.q)


def test_from_vector_rejects_odd_length():
    with pytest.raises(DomainError):
        PhaseState.from_vector([1.0, 2.0, 3.0])


def test_kubo_params_validation():
    with pytest.raises(InvalidSpecError):
        KuboParams(alpha=float("nan"), beta=0.0)
    with pytest.raises(InvalidSpecError):
        KuboParams(alpha=0.0, beta=float("inf"))
    KuboParams(alpha=-0.3, beta=0.0)


def test_system_validation():
    f = lambda p, q: p
    h = lambda p, q: 0.0
    with pytest.raises(InvalidSpecError):
        HamiltonianSystem(n=1, m=1, sigma=(f,), gamma=(f, f), hamiltonians=(h, h))
    with pytest.raises(InvalidSpecError):
        HamiltonianSystem(n=1, m=1, sigma=(f, 3), gamma=(f, f), hamiltonians=(h, h))
    with pytest.raises(InvalidSpecError):
        HamiltonianSystem(n=0, m=1, sigma=(f, f), gamma=(f, f), hamiltonians=(h, h))


@pytest.mark.parametrize("field, value, message", [
    ("jump_maps", lambda p, q, R: (p, q), "jump_maps must be None or a tuple, got <function"),
    ("jump_maps", "ab", "jump_maps must be None or a tuple, got 'ab'"),
    ("jump_maps", (), "jump_maps must have m = 1 entries, got 0"),
    ("jump_maps", [None], "jump_maps entries must be callable"),
    ("separable", 1, "separable must be True or False, got 1"),
    ("separable", 0, "separable must be True or False, got 0"),
    ("separable", None, "separable must be True or False, got None"),
    ("separable", "yes", "separable must be True or False, got 'yes'"),
    ("separable", np.True_, "separable must be True or False, got np.True_"),
])
def test_optional_fields_are_checked(field, value, message):
    f = lambda p, q: p
    h = lambda p, q: 0.0
    with pytest.raises(InvalidSpecError, match="^" + re.escape(message)):
        HamiltonianSystem(n=1, m=1, sigma=(f, f), gamma=(f, f), hamiltonians=(h, h),
                          **{field: value})
    identity = lambda p, q, R: (p, q)
    system = HamiltonianSystem(n=1, m=1, sigma=(f, f), gamma=(f, f), hamiltonians=(h, h),
                               jump_maps=[identity])
    assert system.jump_maps == (identity,) and system.separable is False


def test_kubo_declares_itself_separable_and_keeps_it_without_maps():
    system = kubo_system(PARAMS)
    assert system.separable is True
    assert dataclasses.replace(system, jump_maps=None).separable is True
    assert dataclasses.replace(system, separable=False).separable is False


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(p1=_ANY_FLOAT, p2=_ANY_FLOAT, q=_ANY_FLOAT,
       alpha=st.floats(allow_nan=False, allow_infinity=False),
       beta=st.floats(allow_nan=False, allow_infinity=False))
def test_kubo_sigma_ignores_p_bit_for_bit(p1, p2, q, alpha, beta):
    # the separable declaration: at fixed q every sigma_r gives the same bits
    # for any p, infinite and NaN included
    system = kubo_system(KuboParams(alpha, beta))
    q_lane = np.array([[q]])
    with np.errstate(all="ignore"):
        for sigma in system.sigma:
            a = sigma(np.array([[p1]]), q_lane)
            b = sigma(np.array([[p2]]), q_lane)
            assert a.tobytes() == b.tobytes()


def test_kubo_coefficients_at_unit_position():
    system = kubo_system(PARAMS)
    p = np.array([0.0])
    q = np.array([1.0])
    assert system.sigma[0](p, q)[0] == pytest.approx(0.1, abs=1e-15)
    assert system.sigma[1](p, q)[0] == pytest.approx(0.1, abs=1e-15)
    assert system.gamma[0](p, q)[0] == 0.0


def test_kubo_zero_parameters_vanish_everywhere():
    system = kubo_system(KuboParams(alpha=0.0, beta=0.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=1)
        q = rng.normal(size=1)
        for r in (0, 1):
            assert system.sigma[r](p, q)[0] == 0.0
            assert system.gamma[r](p, q)[0] == 0.0


def test_gradient_consistency_at_fixed_state():
    system = kubo_system(PARAMS)
    state = PhaseState([0.3], [0.7])
    assert gradient_defect(system, state) <= 1e-6


def test_gradient_consistency_at_random_states():
    system = kubo_system(KuboParams(alpha=0.7, beta=-0.4))
    rng = np.random.default_rng(42)
    for _ in range(100):
        state = PhaseState(rng.uniform(-2, 2, size=1), rng.uniform(-2, 2, size=1))
        assert gradient_defect(system, state) <= 1e-6


def test_gradient_defect_detects_wrong_coefficient():
    bad = HamiltonianSystem(
        n=1,
        m=0,
        sigma=(lambda p, q: 2.0 * q,),
        gamma=(lambda p, q: p,),
        hamiltonians=(lambda p, q: 0.5 * (p[:, 0] ** 2 + q[:, 0] ** 2),),
    )
    assert gradient_defect(bad, PhaseState([0.5], [1.0])) > 0.1


def test_kubo_evaluators_round_like_scalar_squares():
    # the rows must match the scalar formula float(p) ** 2 + float(q) ** 2
    # bit for bit, which x * x does not on every double
    system = kubo_system(KuboParams(alpha=0.7, beta=-0.4))
    rng = np.random.default_rng(31)
    p = rng.standard_normal((20000, 1)) * rng.choice([1e-3, 1.0, 1e3], (20000, 1))
    q = rng.standard_normal((20000, 1)) * rng.choice([1e-3, 1.0, 1e3], (20000, 1))
    squares = [float(a) ** 2 + float(b) ** 2 for a, b in zip(p[:, 0], q[:, 0])]
    for evaluate, scale in ((system.monitored, 0.5), (system.hamiltonians[0], 0.5 * 0.7),
                            (system.hamiltonians[1], 0.5 * -0.4)):
        assert np.array_equal(evaluate(p, q), [scale * s for s in squares])


@pytest.mark.parametrize(
    "wrong", [lambda p, q: 0.0, lambda p, q: p], ids=["scalar", "lane-rows"]
)
def test_hamiltonian_of_wrong_shape_is_refused(wrong):
    system = HamiltonianSystem(
        n=1, m=0, sigma=(lambda p, q: q,), gamma=(lambda p, q: p,), hamiltonians=(wrong,),
        monitored=wrong,
    )
    state = PhaseState([0.3], [0.4])
    traj = sl.Trajectory(times=[0.0, 1.0], ps=[[0.3], [0.2]], qs=[[0.4], [0.5]], scheme_tag="x")
    checks = [
        lambda: hamiltonian_value(system, None, state),
        lambda: hamiltonian_value(system, 0, state),
        lambda: sl.hamiltonian_series(system, traj),
        lambda: gradient_defect(system, state),
    ]
    for check in checks:
        with pytest.raises(DomainError, match=r"\(B,\)"):
            check()


class TestKuboExact:
    def test_zero_angle_is_identity(self):
        initial = PhaseState([0.4], [-1.2])
        out = kubo_exact(PARAMS, initial, 0.0, 0.0)
        assert out.p[0] == initial.p[0]
        assert out.q[0] == initial.q[0]

    def test_quarter_rotation(self):
        params = KuboParams(alpha=0.1, beta=0.0)
        out = kubo_exact(params, PhaseState([0.0], [1.0]), 5.0 * math.pi, 0.0)
        assert out.p[0] == pytest.approx(-1.0, abs=1e-12)
        assert out.q[0] == pytest.approx(0.0, abs=1e-12)

    def test_radius_preserved(self):
        rng = np.random.default_rng(7)
        initial = PhaseState([1.3], [-0.4])
        r0 = initial.p[0] ** 2 + initial.q[0] ** 2
        for _ in range(50):
            t = rng.uniform(0.0, 100.0)
            L = rng.normal(0.0, 5.0)
            out = kubo_exact(PARAMS, initial, t, L)
            r1 = out.p[0] ** 2 + out.q[0] ** 2
            assert abs(r1 - r0) <= 1e-14 * r0

    def test_group_action_in_angle(self):
        # rotating by L1 then L2 equals rotating by L1 + L2
        params = KuboParams(alpha=0.0, beta=1.0)
        initial = PhaseState([0.8], [0.6])
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            chained = kubo_exact(params, kubo_exact(params, initial, 0.0, a), 0.0, b)
            direct = kubo_exact(params, initial, 0.0, a + b)
            assert chained.p[0] == pytest.approx(direct.p[0], abs=1e-14)
            assert chained.q[0] == pytest.approx(direct.q[0], abs=1e-14)

    def test_jacobian_determinant_is_one(self):
        # the map is linear, so columns are the images of basis states
        params = KuboParams(alpha=0.3, beta=0.7)
        for L in (-2.0, 0.1, 5.0):
            e1 = kubo_exact(params, PhaseState([1.0], [0.0]), 1.7, L)
            e2 = kubo_exact(params, PhaseState([0.0], [1.0]), 1.7, L)
            det = e1.p[0] * e2.q[0] - e2.p[0] * e1.q[0]
            assert det == pytest.approx(1.0, abs=1e-15)


class TestHamiltonianValue:
    def test_monitored_examples(self):
        system = kubo_system(PARAMS)
        assert hamiltonian_value(system, None, PhaseState([0.0], [1.0])) == 0.5
        assert hamiltonian_value(system, None, PhaseState([0.0], [0.0])) == 0.0
        assert hamiltonian_value(system, None, PhaseState([3.0], [4.0])) == 12.5

    def test_indexed_values_scale_with_parameters(self):
        system = kubo_system(PARAMS)
        state = PhaseState([3.0], [4.0])
        assert hamiltonian_value(system, 0, state) == pytest.approx(1.25, abs=1e-14)
        assert hamiltonian_value(system, 1, state) == pytest.approx(1.25, abs=1e-14)

    def test_index_out_of_range(self):
        system = kubo_system(PARAMS)
        state = PhaseState([0.0], [1.0])
        with pytest.raises(DomainError):
            hamiltonian_value(system, 2, state)
        with pytest.raises(DomainError):
            hamiltonian_value(system, -1, state)

    @pytest.mark.parametrize("r", [True, False])
    def test_boolean_index_refused(self, r):
        # bool is an int subclass: True used to select H_1 and False H_0
        system = kubo_system(KuboParams(0.1, 0.3))
        with pytest.raises(DomainError, match=f"Hamiltonian index {r} outside 0..1"):
            hamiltonian_value(system, r, PhaseState([0.0], [1.0]))

    def test_missing_monitored_invariant(self):
        bare = HamiltonianSystem(
            n=1,
            m=0,
            sigma=(lambda p, q: q,),
            gamma=(lambda p, q: p,),
            hamiltonians=(lambda p, q: 0.0,),
        )
        with pytest.raises(DomainError):
            hamiltonian_value(bare, None, PhaseState([0.0], [1.0]))
