import dataclasses
import math
import warnings

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
from symplevy.hamiltonian import _kubo_rotation
from symplevy.marcus import _flow_raw

PARAMS = KuboParams(alpha=0.1, beta=0.1)
SYSTEM = kubo_system(PARAMS)
# Kubo without its exact jump map: the driver's flow (a tol) is RK4 on every jump
RK4_SYSTEM = dataclasses.replace(SYSTEM, jump_maps=None)


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


def substeps_taken(system, p, q, marks, out_p, out_q, counts=(1, 2, 3, 4, 8, 12, 16)):
    """For each lane, the substep counts whose fixed-count jump_flow gives its output bit for bit."""
    taken = []
    for b in range(len(p)):
        state = PhaseState(p[b], q[b])
        taken.append([
            n for n in counts
            if np.array_equal(jump_flow(system, state, marks[b], substeps=n).p, out_p[b])
            and np.array_equal(jump_flow(system, state, marks[b], substeps=n).q, out_q[b])
        ])
    return taken


def test_each_lane_takes_the_substeps_its_mark_needs():
    # beta R = 0.01, 0.08 and 3: the step-doubling estimate |y_N - y_2N| / 15
    # meets 1e-9 at 2 substeps, at 4, and below the cap of 16 not at all
    p = np.array([[0.3], [0.0], [-0.7]])
    q = np.array([[0.9], [1.0], [0.2]])
    marks = np.array([[0.1], [0.8], [30.0]])
    out_p, out_q, failed = _flow_raw(RK4_SYSTEM, p, q, marks, 16, 1e-9)
    assert failed is None
    assert substeps_taken(RK4_SYSTEM, p, q, marks, out_p, out_q) == [[2], [4], [16]]
    for b in range(3):
        alone = _flow_raw(RK4_SYSTEM, p[b : b + 1], q[b : b + 1], marks[b : b + 1], 16, 1e-9)
        assert np.array_equal(alone[0], out_p[b : b + 1])
        assert np.array_equal(alone[1], out_q[b : b + 1])


def test_a_lane_that_misses_the_tolerance_takes_the_cap():
    p = np.array([[0.3], [0.0], [-0.7]])
    q = np.array([[0.9], [1.0], [0.2]])
    marks = np.array([[0.1], [0.8], [30.0]])
    for cap in (5, 8, 9, 12, 16):
        out_p, out_q, _ = _flow_raw(RK4_SYSTEM, p, q, marks, cap, 1e-300)
        taken = substeps_taken(RK4_SYSTEM, p, q, marks, out_p, out_q,
                               counts=sorted({1, 2, 4, cap}))
        assert taken == [[cap]] * 3
    # a cap of 8 tries only 2 substeps: the mark that needs 4 takes the cap
    out_p, out_q, _ = _flow_raw(RK4_SYSTEM, p, q, marks, 8, 1e-9)
    assert substeps_taken(RK4_SYSTEM, p, q, marks, out_p, out_q) == [[2], [8], [8]]
    out_p, out_q, _ = _flow_raw(RK4_SYSTEM, p, q, marks, 9, 1e-9)
    assert (substeps_taken(RK4_SYSTEM, p, q, marks, out_p, out_q, counts=(2, 4, 8, 9))
            == [[2], [4], [9]])


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_a_cap_of_four_or_less_is_the_fixed_count_flow(cap):
    p = np.array([[0.3], [0.0], [-0.7]])
    q = np.array([[0.9], [1.0], [0.2]])
    marks = np.array([[0.1], [0.8], [30.0]])
    out_p, out_q, _ = _flow_raw(RK4_SYSTEM, p, q, marks, cap, 1e-9)
    assert substeps_taken(RK4_SYSTEM, p, q, marks, out_p, out_q) == [[cap]] * 3


def nan_beyond(beyond, value):
    return np.where(beyond, np.nan, value)


def raise_beyond(beyond, value):
    if beyond.any():
        raise ValueError("outside the domain")
    return value


def warn_beyond(beyond, value):
    if beyond.any():
        warnings.warn("outside the domain", UserWarning)
    return value


def overflow_beyond(beyond, value):
    np.exp(1000.0 * beyond)  # a masked branch: it overflows, and its result is dropped
    return value


@pytest.mark.parametrize("beyond", [nan_beyond, raise_beyond, warn_beyond, overflow_beyond])
def test_a_lane_whose_runs_below_the_cap_fail_takes_the_cap(beyond):
    # the rotation field meets `beyond` past |p| or |q| = 3, which only the
    # one-substep flow of beta R = 3 reaches: that lane takes the cap
    # although 4 substeps already meet the loose tolerance against 2, and
    # the flow raises and issues nothing, as jump_flow at the cap; the
    # small mark beside it still takes 2 substeps, as alone
    def rotation(scale):
        def evaluate(p, q):
            return beyond((np.abs(p) > 3.0) | (np.abs(q) > 3.0), scale(p, q))

        return evaluate

    clipped = HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.0 * q, rotation(lambda p, q: 0.1 * q)),
        gamma=(lambda p, q: 0.0 * p, rotation(lambda p, q: 0.1 * p)),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
    )
    p, q, marks = np.array([[0.0], [0.3]]), np.array([[1.0], [0.9]]), np.array([[30.0], [0.1]])
    with pytest.raises(Exception):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            jump_flow(clipped, PhaseState(p[0], q[0]), marks[0], substeps=1)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out_p, out_q, failed = _flow_raw(clipped, p, q, marks, 16, 1e-2)
        alone = [_flow_raw(clipped, p[b : b + 1], q[b : b + 1], marks[b : b + 1], 16, 1e-2)
                 for b in range(2)]
    assert failed is None
    assert substeps_taken(clipped, p, q, marks, out_p, out_q, counts=(2, 4, 8, 16)) == [[16], [2]]
    for b in range(2):
        assert np.array_equal(alone[b][0], out_p[b : b + 1])
        assert np.array_equal(alone[b][1], out_q[b : b + 1])
    loose = jump_flow(clipped, PhaseState(p[0], q[0]), marks[0], substeps=2)
    finer = jump_flow(clipped, PhaseState(p[0], q[0]), marks[0], substeps=4)
    assert np.abs(np.concatenate([loose.p - finer.p, loose.q - finer.q])).max() / 15.0 <= 1e-2


@pytest.mark.parametrize("act", ["warn", "raise"])
def test_a_cap_run_warns_and_raises_as_jump_flow_at_the_cap(act):
    # the exact flow of beta R = 1.5 from (0, 1) takes |p| past 0.9, so
    # every run meets the evaluator's noise; the runs below the cap keep it
    # and send the lane to the cap, whose run issues what jump_flow issues
    def noisy(p, q):
        if (np.abs(p) > 0.9).any():
            if act == "raise":
                raise ValueError("far out")
            warnings.warn("far out", UserWarning)
        return 0.1 * q

    system = HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.0 * q, noisy),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.1 * p),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
    )
    p, q, marks = np.array([[0.0]]), np.array([[1.0]]), np.array([[15.0]])
    if act == "raise":
        for run in (lambda: jump_flow(system, PhaseState(p[0], q[0]), marks[0], substeps=16),
                    lambda: _flow_raw(system, p, q, marks, 16, 1e-9)):
            with pytest.raises(ValueError, match="far out"):
                run()
        return
    with pytest.warns(UserWarning, match="far out") as fixed:
        expected = jump_flow(system, PhaseState(p[0], q[0]), marks[0], substeps=16)
    with pytest.warns(UserWarning, match="far out") as doubled:
        out_p, out_q, _ = _flow_raw(system, p, q, marks, 16, 1e-9)
    assert len(doubled) == len(fixed)
    assert out_p[0] == expected.p and out_q[0] == expected.q


def test_a_non_finite_flow_reports_the_substep_of_the_cap():
    quad = HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: 0.0 * p, lambda p, q: -(p * p)),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: 0.0 * p),
        hamiltonians=(lambda p, q: 0.0, lambda p, q: 0.0),
    )
    p, q = np.array([[0.5], [1e160], [0.2]]), np.array([[0.0], [0.0], [0.0]])
    marks = np.array([[0.3], [1.0], [0.1]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            jump_flow(quad, PhaseState(p[1], q[1]), marks[1], substeps=8)
        out_p, out_q, failed = _flow_raw(quad, p, q, marks, 8, 1e-9)
    assert list(failed) == [-1, info.value.step, -1]
    # the finite lanes: dP/ds = 0.3 P^2 from 0.5 misses 1e-9 below the cap
    fine = [0, 2]
    taken = substeps_taken(quad, p[fine], q[fine], marks[fine], out_p[fine], out_q[fine])
    assert taken == [[8], [2]]


def test_closed_form_is_the_kubo_jump_map_and_the_rotation_it_was():
    # kubo_jump_closed_form is the one-state case of kubo_system's map, and
    # its bits are those of the rotation it computed itself before
    rng = np.random.default_rng(21)
    for alpha, beta in ((0.1, 0.1), (-0.3, 15.0), (2, -1), (0.0, 0.7)):
        params = KuboParams(alpha=alpha, beta=beta)
        jump_map = kubo_system(params).jump_maps[0]
        for _ in range(200):
            st = PhaseState(rng.normal(size=1), rng.normal(size=1))
            mark = float(rng.normal(scale=3.0))
            got = kubo_jump_closed_form(params, st, mark)
            p, q = _kubo_rotation(params, st.p, st.q, 0.0, mark)
            assert got.p.tobytes() == p.tobytes() and got.q.tobytes() == q.tobytes()
            p, q = jump_map(st.p[None], st.q[None], np.array([[mark]]))
            assert got.p.tobytes() == p[0].tobytes() and got.q.tobytes() == q[0].tobytes()


def test_the_driver_flow_applies_a_channel_map_and_jump_flow_stays_rk4():
    # with a tol (the driver's flow), lanes that drive channel 1 alone take
    # Kubo's rotation in one call, a lane without marks stays put; without
    # a tol, and through jump_flow, the flow is RK4 at its count, the same
    # bits as on Kubo without its map
    p = np.array([[0.3], [0.0], [-0.7], [0.2]])
    q = np.array([[0.9], [1.0], [0.2], [-0.4]])
    for marks in (np.array([[0.1], [0.8], [30.0], [-2.0]]),
                  np.array([[0.1], [0.0], [30.0], [-2.0]])):
        out_p, out_q, failed = _flow_raw(SYSTEM, p, q, marks, 16, 1e-9)
        want_p, want_q = _kubo_rotation(PARAMS, p, q, 0.0, marks)
        assert failed is None
        assert np.array_equal(out_p, want_p) and np.array_equal(out_q, want_q)
        for substeps in (1, 4, 16):
            fixed = _flow_raw(SYSTEM, p, q, marks, substeps)
            rk4 = _flow_raw(RK4_SYSTEM, p, q, marks, substeps)
            assert np.array_equal(fixed[0], rk4[0]) and np.array_equal(fixed[1], rk4[1])
            for b in range(len(p)):
                one = jump_flow(SYSTEM, PhaseState(p[b], q[b]), marks[b], substeps=substeps)
                assert one.p[0] == fixed[0][b, 0] and one.q[0] == fixed[1][b, 0]


def test_a_map_that_is_not_finite_fails_its_lane_at_substep_0():
    # a channel map that returns NaN from states with q < 0 fails those
    # lanes only, as a flow that failed at its first substep; the others
    # keep the map
    def jump_map(p, q, R):
        out_p, out_q = _kubo_rotation(PARAMS, p, q, 0.0, R)
        return np.where(q < 0.0, np.nan, out_p), out_q

    system = dataclasses.replace(SYSTEM, jump_maps=(jump_map,))
    p, q = np.array([[0.3], [0.0], [-0.7]]), np.array([[0.9], [-1.0], [0.2]])
    marks = np.array([[0.1], [0.8], [3.0]])
    out_p, out_q, failed = _flow_raw(system, p, q, marks, 16, 1e-9)
    assert list(failed) == [-1, 0, -1]
    want_p, want_q = _kubo_rotation(PARAMS, p, q, 0.0, marks)
    assert np.array_equal(out_p[[0, 2]], want_p[[0, 2]])
    assert np.array_equal(out_q, want_q)
