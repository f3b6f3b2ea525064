"""Tests for the array form of a noise path.

A LevyPath keeps its realization as three read-only arrays; these tests
pin the arrays against a reference that samples and validates one
JumpEvent at a time, as the event-object representation did.
"""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplevy
from symplevy import (
    DomainError,
    JumpEvent,
    LevyPath,
    LevyPathSpec,
    grid_increments,
    increment,
    jumps_in,
    read_path_csv,
    sample_path,
    write_path_csv,
)


def reference_events(spec, horizon):
    """Events of sample_path built and sorted one JumpEvent at a time.

    Channel r draws from Philox keyed by (seed, r): exponential waiting
    times in fixed-size blocks until they pass the horizon, then one
    normal mark per arrival.
    """
    events = []
    for channel in range(1, spec.noise_count + 1):
        key = np.array([spec.seed & (2**64 - 1), channel], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        arrivals = np.empty(0)
        if spec.rate > 0.0:
            expected = spec.rate * horizon
            block = int(math.ceil(expected + 8.0 * math.sqrt(expected + 1.0) + 16.0))
            arrivals = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
            while arrivals[-1] <= horizon:
                more = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
                arrivals = np.append(arrivals, arrivals[-1] + more)
            arrivals = arrivals[arrivals <= horizon]
        marks = rng.normal(0.0, spec.mark_sigma, size=arrivals.size)
        events.extend(JumpEvent(float(t), channel, float(x)) for t, x in zip(arrivals, marks))
    events.sort(key=lambda ev: (ev.time, ev.channel))
    return tuple(events)


def reference_error(horizon, m, events):
    """The message of the first event the per-event checks refuse, or None."""
    previous = (0.0, 0)
    for ev in events:
        if not (math.isfinite(ev.time) and 0.0 < ev.time <= horizon):
            return f"event time {float(ev.time)!r} outside (0, {horizon}]"
        if not (type(ev.channel) is int and 1 <= ev.channel <= m):
            return f"event channel {ev.channel!r} outside 1..{m}"
        if not math.isfinite(ev.mark):
            return f"event mark {float(ev.mark)!r} is not finite"
        if (ev.time, ev.channel) < previous:
            return "events must be sorted by time, ties by channel"
        previous = (ev.time, ev.channel)
    return None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rate=st.sampled_from([0.0, 0.3, 1.0, 5.0, 50.0]),
    noise_count=st.integers(1, 3),
    horizon=st.floats(0.5, 40.0),
)
def test_sampled_events_equal_the_one_at_a_time_reference(seed, rate, noise_count, horizon):
    spec = LevyPathSpec(rate=rate, mark_sigma=0.2, noise_count=noise_count, seed=seed)
    path = sample_path(spec, horizon)
    want = reference_events(spec, horizon)
    assert path.events == want
    assert len(path) == len(want)
    for ev in path.events:
        assert (type(ev.time), type(ev.channel), type(ev.mark)) == (float, int, float)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.5, math.nan, math.inf]),
            st.sampled_from([0, 1, 2, 2, 3, True, 1.0, np.int64(1), "1", None]),
            st.sampled_from([0.1, -0.2, math.nan, math.inf]),
        ),
        max_size=6,
    )
)
def test_construction_refuses_the_first_bad_event_as_the_loop_did(rows):
    spec = LevyPathSpec(rate=1.0, mark_sigma=1.0, noise_count=2)
    events = [JumpEvent(*row) for row in rows]
    want = reference_error(1.0, 2, events)
    if want is None:
        path = LevyPath(spec=spec, horizon=1.0, events=events)
        assert path.events == tuple(events)
    else:
        with pytest.raises(DomainError) as err:
            LevyPath(spec=spec, horizon=1.0, events=events)
        assert str(err.value) == want


class TestArrays:
    def test_arrays_are_the_events_in_columns(self):
        path = sample_path(LevyPathSpec(rate=4.0, mark_sigma=0.3, noise_count=3, seed=8), 12.0)
        assert path.times.dtype == np.float64 and path.marks.dtype == np.float64
        assert path.channels.dtype == np.int64
        assert path.times.tolist() == [ev.time for ev in path.events]
        assert path.channels.tolist() == [ev.channel for ev in path.events]
        assert path.marks.tolist() == [ev.mark for ev in path.events]

    def test_events_are_built_once(self):
        path = sample_path(LevyPathSpec(rate=4.0, mark_sigma=0.3, seed=8), 12.0)
        assert path.events is path.events

    def test_arrays_are_read_only(self):
        path = sample_path(LevyPathSpec(rate=4.0, mark_sigma=0.3, seed=8), 12.0)
        for column in (path.times, path.channels, path.marks):
            with pytest.raises(ValueError):
                column[0] = 0.5
        with pytest.raises(AttributeError):
            path.times = np.zeros(3)

    def test_constructed_and_sampled_paths_answer_alike(self):
        sampled = sample_path(LevyPathSpec(rate=4.0, mark_sigma=0.3, noise_count=2, seed=9), 12.0)
        built = LevyPath(spec=sampled.spec, horizon=12.0, events=list(sampled.events))
        for column in ("times", "channels", "marks"):
            assert np.array_equal(getattr(built, column), getattr(sampled, column))
        grid = np.linspace(0.0, 12.0, 31)
        for r in (1, 2):
            assert increment(built, r, 1.5, 9.0) == increment(sampled, r, 1.5, 9.0)
            assert np.array_equal(grid_increments(built, r, grid), grid_increments(sampled, r, grid))
        assert jumps_in(built, 2.0, 7.0) == jumps_in(sampled, 2.0, 7.0)


class TestBadInput:
    def test_boolean_channel_refused(self):
        spec = LevyPathSpec(rate=1.0, mark_sigma=1.0)
        with pytest.raises(DomainError, match="event channel True outside 1..1"):
            LevyPath(spec=spec, horizon=1.0, events=(JumpEvent(0.5, True, 0.1),))

    def test_query_channel_must_be_an_integer(self):
        # 1.0 and True used to pass `channel in range(...)` and sum channel 1
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, noise_count=2), 4.0)
        grid = np.linspace(0.0, 4.0, 9)
        for channel in (True, False, 1.0, np.float64(2.0), np.bool_(True), "1", None):
            message = re.escape(f"channel {channel!r} outside 1..2")
            with pytest.raises(DomainError, match=message):
                increment(path, channel, 0.0, 4.0)
            with pytest.raises(DomainError, match=message):
                grid_increments(path, channel, grid)
        assert increment(path, np.int64(2), 0.0, 4.0) == increment(path, 2, 0.0, 4.0)
        assert np.array_equal(grid_increments(path, np.int32(1), grid), grid_increments(path, 1, grid))

    @pytest.mark.parametrize("row", ["0.5,x,0.1", "0.5,1.0,0.1", "0.5,1,y", "z,1,0.1"])
    def test_unparsable_csv_row_is_a_domain_error(self, tmp_path, row):
        file_path = tmp_path / "events.csv"
        file_path.write_text(f"time,channel,mark\n0.25,1,0.3\n{row}\n")
        with pytest.raises(DomainError, match=f"malformed event row '{row}'"):
            read_path_csv(file_path, LevyPathSpec(rate=1.0, mark_sigma=1.0), 1.0)

    def test_csv_rows_are_validated_like_events(self, tmp_path):
        file_path = tmp_path / "events.csv"
        file_path.write_text("time,channel,mark\n0.75,1,0.3\n0.25,1,0.1\n")
        with pytest.raises(DomainError, match="events must be sorted"):
            read_path_csv(file_path, LevyPathSpec(rate=1.0, mark_sigma=1.0), 1.0)

    def test_csv_round_trip_keeps_the_arrays(self, tmp_path):
        path = sample_path(LevyPathSpec(rate=6.0, mark_sigma=0.4, noise_count=3, seed=2), 9.0)
        write_path_csv(path, tmp_path / "events.csv")
        back = read_path_csv(tmp_path / "events.csv", path.spec, path.horizon)
        for column in ("times", "channels", "marks"):
            assert np.array_equal(getattr(back, column), getattr(path, column))


MEMORY_PROBE = """
import resource
from symplevy.levy_path import LevyPathSpec, sample_path

spec = LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=3)
sample_path(spec, 10.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
path = sample_path(spec, 2e5)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(path), after - before)
"""


def test_a_million_events_fit_in_160_mib():
    # ru_maxrss is in KiB on Linux; a fresh interpreter keeps other
    # tests' allocations out of the peak
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(symplevy.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    events, rise_kib = map(int, result.stdout.split())
    assert events > 990_000
    assert rise_kib <= 160 * 1024


ONE_CHANNEL_PROBE = """
import resource
from symplevy.levy_path import LevyPathSpec, sample_path

sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=3), 10.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
path = sample_path(LevyPathSpec(rate=1.5e6, mark_sigma=0.2, seed=3), 1.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(path.times.nbytes + path.channels.nbytes + path.marks.nbytes, after - before)
"""


def test_one_channel_peaks_below_two_and_a_half_times_the_arrays_it_keeps():
    # one channel's columns are kept as drawn: no concatenated or sorted
    # copies (about 1.7 times the 34 MiB kept here, 4 times with them)
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(symplevy.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", ONE_CHANNEL_PROBE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    kept_bytes, rise_kib = map(int, result.stdout.split())
    assert kept_bytes > 30 * 2**20
    assert rise_kib * 1024 <= 2.5 * kept_bytes
