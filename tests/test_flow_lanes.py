"""Every lane of a jump-flow call is its own one-lane call.

``marcus._flow_raw`` applies many lanes' jumps at once: lanes are grouped
by the channels their marks drive, every try of the step-doubling rule
runs every lane of a group, and a noisy try starts the lanes still trying
over alone. Whatever the mix, each lane's state, ``failed`` entry and
warnings must be those of the lane's own call.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplevy import HamiltonianSystem, marcus
from symplevy.marcus import _flow_raw
from test_marcus import overflow_beyond, raise_beyond, substeps_taken, warn_beyond


def guarded(beyond, where, value):
    """An evaluator that makes `beyond`'s noise on the lanes `where` picks."""

    def evaluate(p, q):
        return beyond(where(p, q), value(p, q))

    return evaluate


def outside(p, q):
    return (np.abs(p) > 3.0) | (np.abs(q) > 3.0)


def mixed_system(beyond, where=outside):
    """Channel 1 rotates (H1 = (p^2 + q^2) / 2), channel 2 squeezes (H2 = p q / 2).

    The fields do not commute, so a lane driving both takes their sum.
    Channel 1's momentum and channel 2's position evaluators make noise
    where `where` holds: by default outside the square |p|, |q| <= 3,
    which from the unit disc only the one-substep run of a large rotation
    leaves.
    """
    return HamiltonianSystem(
        n=1,
        m=2,
        sigma=(lambda p, q: 0.0 * p, guarded(beyond, where, lambda p, q: q), lambda p, q: 0.5 * p),
        gamma=(lambda p, q: 0.0 * p, lambda p, q: p, guarded(beyond, where, lambda p, q: 0.5 * q)),
        hamiltonians=(lambda p, q: 0.0,) * 3,
    )


def quiet(p, q):
    return np.zeros(p.shape, dtype=bool)


def heard(run):
    """run()'s result and its warnings as a set of (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, {(w.category, str(w.message)) for w in caught}


def assert_every_lane_is_alone(system, p, q, marks):
    (out_p, out_q, failed), noise = heard(lambda: _flow_raw(system, p, q, marks, 16, 1e-9))
    alone_noise = set()
    for b in range(len(p)):
        one = slice(b, b + 1)
        (want_p, want_q, bad), lane_noise = heard(
            lambda: _flow_raw(system, p[one], q[one], marks[one], 16, 1e-9))
        assert np.array_equal(out_p[one], want_p, equal_nan=True), b
        assert np.array_equal(out_q[one], want_q, equal_nan=True), b
        assert (-1 if failed is None else failed[b]) == (-1 if bad is None else bad[0]), b
        alone_noise |= lane_noise
    assert noise == alone_noise
    return out_p, out_q, failed


# (p, q, mark 1, mark 2) of the lanes every batch holds
CORE = [
    (0.0, 1.0, 0.01, 0.0),  # 2 substeps
    (0.0, 1.0, 0.08, 0.0),  # 4 substeps
    (0.0, 1.0, 1.0, 0.0),  # misses the tolerance below the cap: 16
    (0.3, 0.9, 0.0, 0.0),  # no mark: unchanged
    (0.0, 1.0, 3.0, 0.0),  # the one-substep run leaves the square: noisy below the cap
    (math.nan, 1.0, 0.01, 0.0),  # not finite: the cap names substep 0
    (0.5, 0.5, 0.08, 0.5),  # both channels
    (0.2, 0.7, 0.0, 0.08),  # channel 2 alone
]
# outside the square from the start, so its cap run makes noise too; a
# raising evaluator would raise from it, alone and in any batch
LOUD = (3.5, 0.0, 0.01, 0.0)

extra_lane = st.tuples(
    st.floats(0.0, 2.0 * math.pi),  # start angle on a circle of radius at most 1
    st.floats(0.2, 1.0),
    st.sampled_from([0.0, 0.01, 0.08, 1.0, 3.0, -0.08, -3.0]),
    st.sampled_from([0.0, 0.01, 0.08, 0.5, -0.5]),
)


@pytest.mark.parametrize("beyond", [warn_beyond, raise_beyond, overflow_beyond])
@settings(max_examples=25, deadline=None)
@given(extra=st.lists(extra_lane, max_size=6), order=st.randoms(use_true_random=False))
def test_every_lane_equals_its_one_lane_call(beyond, extra, order):
    lanes = CORE + ([] if beyond is raise_beyond else [LOUD])
    lanes += [(r * math.sin(a), r * math.cos(a), m1, m2) for a, r, m1, m2 in extra]
    order.shuffle(lanes)
    rows = np.array(lanes)
    p, q, marks = rows[:, :1], rows[:, 1:2], rows[:, 2:]
    system = mixed_system(beyond)
    out_p, out_q, failed = assert_every_lane_is_alone(system, p, q, marks)
    # the batch holds every outcome: 2, 4 and 16 substeps (the fixed-count
    # flows of the same fields, without the noise), a failed lane
    at = [lanes.index(lane) for lane in CORE[:3]]
    taken = substeps_taken(mixed_system(beyond, quiet), p[at], q[at], marks[at], out_p[at],
                           out_q[at])
    assert taken == [[2], [4], [16]]
    assert failed[lanes.index(CORE[5])] == 0


@pytest.mark.parametrize("beyond", [warn_beyond, raise_beyond, overflow_beyond])
def test_noise_from_a_lane_that_met_the_tolerance_restarts_only_the_others(beyond, monkeypatch):
    # from (0, 1) the rotation by 0.01 meets the tolerance at 2 substeps;
    # its 4-substep try alone puts a stage at p = -0.00125, in the band
    # below, where the 1- and 2-substep runs put none. The rotation by 0.08
    # beside it needs 4 substeps and stays out of the band, so the noise
    # comes only from a lane already met, and the other starts over alone
    def band(p, q):
        return (p < -0.0006) & (p > -0.0019)

    tripped, calls = [], []

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return flow(*args, **kwargs)

    def where(p, q):
        tripped.append(band(p, q).any())
        return band(p, q)

    flow = marcus._flow
    monkeypatch.setattr(marcus, "_flow", spy)
    system = mixed_system(beyond, where)
    p, q, marks = np.zeros((2, 1)), np.ones((2, 1)), np.array([[0.01, 0.0], [0.08, 0.0]])
    out_p, out_q, failed = _flow_raw(system, p, q, marks, 16, 1e-9)
    assert any(tripped) and calls == [2, 1]  # the batch, then the lane still trying
    assert failed is None
    assert substeps_taken(mixed_system(beyond, quiet), p, q, marks, out_p, out_q) == [[2], [4]]
    assert_every_lane_is_alone(system, p, q, marks)
