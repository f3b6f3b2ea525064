import math

import numpy as np
import pytest

from symplevy import (
    DivergenceError,
    DomainError,
    HamiltonianSystem,
    KuboParams,
    PhaseState,
    jump_flow,
    kubo_jump_closed_form,
    kubo_system,
)
from symplevy.marcus import _flow_raw

PARAMS = KuboParams(alpha=0.1, beta=0.1)
SYSTEM = kubo_system(PARAMS)


def flow_error(theta, substeps, state=(1.0, 0.0)):
    """Distance between the integrated flow and the rotation by theta."""
    st = PhaseState([state[0]], [state[1]])
    mark = theta / PARAMS.beta
    out = jump_flow(SYSTEM, st, [mark], substeps=substeps)
    ref = kubo_jump_closed_form(PARAMS, st, mark)
    return math.hypot(out.p[0] - ref.p[0], out.q[0] - ref.q[0])


def test_zero_marks_identity():
    st = PhaseState([0.37], [-1.9])
    out = jump_flow(SYSTEM, st, [0.0])
    assert out.p[0] == st.p[0]
    assert out.q[0] == st.q[0]


def test_quarter_turn_accuracy():
    # fourth-order flow at 16 substeps: error for a quarter turn is
    # (pi/2)^5 / O(16^4), measured 1.22e-6; 256 substeps push it below
    # 1e-10
    assert flow_error(math.pi / 2, 16) <= 5e-6
    assert flow_error(math.pi / 2, 256) <= 1e-10


def test_small_angle_accuracy_at_default_substeps():
    # jump angles at the experiment scale (|beta*R| well below 0.2)
    # match the rotation to 1e-10 and better at 16 substeps
    assert flow_error(0.05, 16) <= 1e-12
    assert flow_error(0.1, 16) <= 1e-11
    assert flow_error(0.2, 16) <= 1e-10


def test_closed_form_cross_check_small_angles():
    # 64 substeps reach 1e-12 for angles up to 0.25; angle 1.0 needs
    # 512 substeps for the same bar (error at 64 is 5e-10)
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = rng.uniform(-0.25, 0.25)
        assert flow_error(theta, 64) <= 1e-12
    assert flow_error(1.0, 512) <= 1e-12


def test_substep_convergence_is_fourth_order():
    substeps = np.array([2, 4, 8, 16, 32])
    errors = np.array([flow_error(1.0, int(s)) for s in substeps])
    slope = -np.polyfit(np.log(substeps), np.log(errors), 1)[0]
    assert 3.5 <= slope <= 4.5


def test_sequential_marks_match_combined_mark():
    st = PhaseState([1.0], [0.0])
    seq = jump_flow(SYSTEM, jump_flow(SYSTEM, st, [1.0]), [0.5])
    one = jump_flow(SYSTEM, st, [1.5])
    assert seq.p[0] == pytest.approx(one.p[0], abs=1e-10)
    assert seq.q[0] == pytest.approx(one.q[0], abs=1e-10)


def test_flow_additivity_property():
    # at |R| <= 5 the integration error itself is up to 2e-7 with 16
    # substeps, so the additivity bar of 1e-9 needs 64
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        r1, r2 = rng.uniform(-5.0, 5.0, 2)
        seq = jump_flow(SYSTEM, jump_flow(SYSTEM, st, [r1], substeps=64), [r2], substeps=64)
        one = jump_flow(SYSTEM, st, [r1 + r2], substeps=64)
        assert math.hypot(seq.p[0] - one.p[0], seq.q[0] - one.q[0]) <= 1e-9


def test_radius_preserved():
    rng = np.random.default_rng(12)
    for _ in range(50):
        st = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        mark = rng.uniform(-5.0, 5.0)
        out = jump_flow(SYSTEM, st, [mark])
        r0 = math.hypot(st.p[0], st.q[0])
        r1 = math.hypot(out.p[0], out.q[0])
        assert abs(r1 - r0) <= 1e-9


def test_inverse_mark_returns_start():
    rng = np.random.default_rng(13)
    for _ in range(50):
        st = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        mark = rng.uniform(-5.0, 5.0)
        back = jump_flow(SYSTEM, jump_flow(SYSTEM, st, [mark]), [-mark])
        assert math.hypot(back.p[0] - st.p[0], back.q[0] - st.q[0]) <= 1e-9


def test_simultaneous_channels_use_summed_field():
    # two channels with equal coupling: marks (a, b) act like one
    # channel with mark a + b
    params = KuboParams(alpha=0.0, beta=0.1)
    two = HamiltonianSystem(
        n=1,
        m=2,
        sigma=(lambda p, q: 0.0 * q, lambda p, q: 0.1 * q, lambda p, q: 0.1 * q),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.1 * p, lambda p, q: 0.1 * p),
        hamiltonians=(
            lambda p, q: 0.0,
            lambda p, q: 0.05 * (p[:, 0] ** 2 + q[:, 0] ** 2),
            lambda p, q: 0.05 * (p[:, 0] ** 2 + q[:, 0] ** 2),
        ),
    )
    st = PhaseState([0.7], [-0.4])
    out = jump_flow(two, st, [1.2, 0.8])
    ref = kubo_jump_closed_form(params, st, 2.0)
    assert out.p[0] == pytest.approx(ref.p[0], abs=1e-10)
    assert out.q[0] == pytest.approx(ref.q[0], abs=1e-10)


def test_validation_errors():
    st = PhaseState([1.0], [0.0])
    with pytest.raises(DomainError):
        jump_flow(SYSTEM, st, [1.0], substeps=0)
    with pytest.raises(DomainError):
        jump_flow(SYSTEM, st, [1.0, 2.0])
    with pytest.raises(DomainError):
        jump_flow(SYSTEM, st, [float("nan")])


def test_divergent_field_names_substep():
    # dP/ds = P^2 blows up before s = 1 when P(0) > 1; overflow inside
    # the flow must surface as a divergence error, not a crash
    quad = HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.0 * p, lambda p, q: -(p * p)),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.0 * p),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            jump_flow(quad, PhaseState([1e160], [0.0]), [1.0], substeps=8)
    assert info.value.step is not None
    assert 0 <= info.value.step < 8


def test_closed_form_examples():
    st = PhaseState([0.6], [-1.1])
    same = kubo_jump_closed_form(PARAMS, st, 0.0)
    assert same.p[0] == st.p[0] and same.q[0] == st.q[0]
    half_turn = kubo_jump_closed_form(PARAMS, st, math.pi / PARAMS.beta)
    assert half_turn.p[0] == pytest.approx(-st.p[0], abs=1e-12)
    assert half_turn.q[0] == pytest.approx(-st.q[0], abs=1e-12)


def test_lane_flow_equals_each_lane_alone():
    # lanes drive different channel sets (one, both, none); channel 2's
    # field is undefined where Q < 0, which a lane that drives only
    # channel 1 never evaluates; one lane overflows and is reported with
    # its substep, the others are the single-state flows bit for bit
    two = HamiltonianSystem(
        n=1,
        m=2,
        sigma=(lambda p, q: 0.0 * q, lambda p, q: -(p * p), lambda p, q: 0.2 * np.sqrt(q)),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.3 * p, lambda p, q: 0.2 * q),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0, lambda p, q: 0.0),
    )
    p = np.array([[0.5], [0.4], [1e160], [0.3], [-0.2], [0.2]])
    q = np.array([[0.1], [0.7], [0.0], [0.9], [0.6], [-0.5]])
    marks = np.array([[0.8, 0.0], [0.5, -0.4], [1.0, 0.0], [0.0, 0.0], [0.0, 1.1], [0.5, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        out_p, out_q, failed = _flow_raw(two, p, q, marks, 8)
        with pytest.raises(DivergenceError) as info:
            jump_flow(two, PhaseState(p[2], q[2]), marks[2], substeps=8)
    assert failed[2] == info.value.step
    fine = [0, 1, 3, 4, 5]
    assert list(failed[fine]) == [-1] * len(fine)
    for i in fine:
        alone = jump_flow(two, PhaseState(p[i], q[i]), marks[i], substeps=8)
        assert out_p[i, 0] == alone.p[0] and out_q[i, 0] == alone.q[0]
    assert out_p[3, 0] == p[3, 0] and out_q[3, 0] == q[3, 0]
