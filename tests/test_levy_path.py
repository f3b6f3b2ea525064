import math

import numpy as np
import pytest

from symplevy import (
    DomainError,
    InvalidSpecError,
    JumpEvent,
    LevyPath,
    LevyPathSpec,
    grid_increments,
    increment,
    jumps_in,
    levy_path,
    read_path_csv,
    sample_path,
    write_path_csv,
)


def two_event_path():
    spec = LevyPathSpec(rate=2.0, mark_sigma=1.0, seed=0)
    events = (JumpEvent(0.3, 1, 0.5), JumpEvent(0.7, 1, -0.2))
    return LevyPath(spec=spec, horizon=1.0, events=events)


class RefusingGenerator:
    """Stands in for a channel generator; any draw fails the test."""

    def exponential(self, *args, **kwargs):
        raise AssertionError("sample_path drew before checking its size limit")

    normal = exponential


def refusing_generator(seed, channel):
    return RefusingGenerator()


class TestSpecValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidSpecError):
            LevyPathSpec(rate=-1.0, mark_sigma=0.2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidSpecError):
            LevyPathSpec(rate=1.0, mark_sigma=-0.2)

    def test_nan_rate_rejected(self):
        with pytest.raises(InvalidSpecError):
            LevyPathSpec(rate=float("nan"), mark_sigma=0.2)

    def test_zero_channels_rejected(self):
        with pytest.raises(InvalidSpecError):
            LevyPathSpec(rate=1.0, mark_sigma=0.2, noise_count=0)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvalidSpecError):
            LevyPathSpec(rate=1.0, mark_sigma=0.2, seed=1.5)

    def test_zero_rate_and_zero_sigma_allowed(self):
        spec = LevyPathSpec(rate=0.0, mark_sigma=0.0)
        assert spec.rate == 0.0


class TestSamplePath:
    def test_zero_rate_gives_no_events(self):
        path = sample_path(LevyPathSpec(rate=0.0, mark_sigma=0.2), 1.0)
        assert len(path) == 0

    def test_determinism_bitwise(self):
        spec = LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=123)
        a = sample_path(spec, 50.0)
        b = sample_path(spec, 50.0)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=1), 50.0)
        b = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=2), 50.0)
        assert a.events != b.events

    def test_events_sorted_with_channel_tiebreak(self):
        path = sample_path(LevyPathSpec(rate=3.0, mark_sigma=0.5, noise_count=3, seed=9), 30.0)
        keys = [(ev.time, ev.channel) for ev in path.events]
        assert keys == sorted(keys)

    def test_events_within_horizon(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=4), 17.0)
        assert all(0.0 < ev.time <= 17.0 for ev in path.events)

    def test_bad_horizon_rejected(self):
        with pytest.raises(DomainError):
            sample_path(LevyPathSpec(rate=1.0, mark_sigma=0.2), 0.0)
        with pytest.raises(DomainError):
            sample_path(LevyPathSpec(rate=1.0, mark_sigma=0.2), -3.0)

    def test_oversized_expected_count_fails_before_drawing(self, monkeypatch):
        monkeypatch.setattr(levy_path, "_channel_generator", refusing_generator)
        with pytest.raises(InvalidSpecError, match="MAX_EXPECTED_EVENTS"):
            sample_path(LevyPathSpec(rate=1e12, mark_sigma=0.2), 1000.0)
        with pytest.raises(InvalidSpecError, match="MAX_EXPECTED_EVENTS"):
            sample_path(LevyPathSpec(rate=1e300, mark_sigma=0.2), 1e300)

    def test_event_count_statistics(self):
        # Poisson(1000) count: within 3 standard deviations for at
        # least 99% of seeds (99.7% expected)
        lam, horizon = 5.0, 200.0
        mean = lam * horizon
        band = 3.0 * math.sqrt(mean)
        hits = 0
        seeds = 1000
        for seed in range(seeds):
            path = sample_path(LevyPathSpec(rate=lam, mark_sigma=0.2, seed=seed), horizon)
            if abs(len(path) - mean) <= band:
                hits += 1
        assert hits >= 0.99 * seeds

    def test_mark_moments(self):
        sigma = 0.2
        path = sample_path(LevyPathSpec(rate=50.0, mark_sigma=sigma, seed=6), 200.0)
        marks = np.array([ev.mark for ev in path.events])
        n = marks.size
        assert n > 5000
        # 3-sigma bands for the mean and variance estimators
        assert abs(marks.mean()) <= 3.0 * sigma / math.sqrt(n)
        var = marks.var(ddof=1)
        assert abs(var - sigma**2) <= 3.0 * sigma**2 * math.sqrt(2.0 / (n - 1))


class TestPathValidation:
    def test_unsorted_events_rejected(self):
        spec = LevyPathSpec(rate=1.0, mark_sigma=1.0)
        events = (JumpEvent(0.7, 1, 0.1), JumpEvent(0.3, 1, 0.2))
        with pytest.raises(DomainError):
            LevyPath(spec=spec, horizon=1.0, events=events)

    def test_event_at_zero_rejected(self):
        spec = LevyPathSpec(rate=1.0, mark_sigma=1.0)
        with pytest.raises(DomainError):
            LevyPath(spec=spec, horizon=1.0, events=(JumpEvent(0.0, 1, 0.1),))

    def test_event_beyond_horizon_rejected(self):
        spec = LevyPathSpec(rate=1.0, mark_sigma=1.0)
        with pytest.raises(DomainError):
            LevyPath(spec=spec, horizon=1.0, events=(JumpEvent(1.5, 1, 0.1),))

    def test_bad_channel_rejected(self):
        spec = LevyPathSpec(rate=1.0, mark_sigma=1.0)
        with pytest.raises(DomainError):
            LevyPath(spec=spec, horizon=1.0, events=(JumpEvent(0.5, 2, 0.1),))


class TestIncrement:
    def test_empty_interval_is_zero(self):
        path = two_event_path()
        assert increment(path, 1, 0.75, 1.0) == 0.0

    def test_full_interval_sums_marks(self):
        path = two_event_path()
        assert increment(path, 1, 0.0, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_half_open_convention(self):
        # the left endpoint is excluded, the right endpoint included
        path = two_event_path()
        assert increment(path, 1, 0.3, 0.7) == -0.2
        assert increment(path, 1, 0.0, 0.3) == 0.5
        assert increment(path, 1, 0.3, 1.0) == -0.2

    def test_zero_length_interval(self):
        path = two_event_path()
        assert increment(path, 1, 0.3, 0.3) == 0.0

    def test_bad_channel(self):
        with pytest.raises(DomainError):
            increment(two_event_path(), 2, 0.0, 1.0)

    def test_out_of_range_interval(self):
        path = two_event_path()
        with pytest.raises(DomainError):
            increment(path, 1, -0.1, 0.5)
        with pytest.raises(DomainError):
            increment(path, 1, 0.0, 1.5)
        with pytest.raises(DomainError):
            increment(path, 1, 0.8, 0.2)


class TestJumpsIn:
    def test_empty_window(self):
        assert jumps_in(two_event_path(), 0.71, 1.0) == []

    def test_full_interval_returns_all(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=11), 20.0)
        assert tuple(jumps_in(path, 0.0, 20.0)) == path.events

    def test_partition_additivity(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=12), 20.0)
        cuts = [0.0, 3.1, 7.7, 7.7, 15.0, 20.0]
        collected = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            collected.extend(jumps_in(path, a, b))
        assert tuple(collected) == path.events


class TestGridIncrements:
    def test_two_point_grid_is_total(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=13), 10.0)
        total = grid_increments(path, 1, [0.0, 10.0])
        assert total.shape == (1,)
        assert total[0] == increment(path, 1, 0.0, 10.0)

    def test_refinement_telescopes(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=14), 10.0)
        coarse = np.linspace(0.0, 10.0, 11)
        fine = np.linspace(0.0, 10.0, 41)
        coarse_inc = grid_increments(path, 1, coarse)
        fine_inc = grid_increments(path, 1, fine)
        resummed = fine_inc.reshape(10, 4).sum(axis=1)
        np.testing.assert_allclose(resummed, coarse_inc, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", ["sampled", "ties-on-nodes"])
    def test_each_step_equals_increment_on_grid_through_events(self, case):
        if case == "sampled":
            path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=16), 10.0)
            event_times = [ev.time for ev in path.events]
            grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 51), event_times]))
        else:
            # a cancelling pair and a tie sitting exactly on grid nodes
            marks = [(0.25, 1e16), (0.5, 1.0), (0.5, -1e16), (0.75, 0.1)]
            events = tuple(JumpEvent(t, 1, m) for t, m in marks)
            path = LevyPath(spec=LevyPathSpec(rate=2.0, mark_sigma=1.0), horizon=1.0, events=events)
            grid = np.array([0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
        inc = grid_increments(path, 1, grid)
        assert inc.shape == (grid.size - 1,)
        for j in range(grid.size - 1):
            assert inc[j] == increment(path, 1, grid[j], grid[j + 1])

    def test_each_step_equals_increment_bit_for_bit(self):
        # steps with no event, one event (a -0.0 mark among them) and
        # several, on two channels; a -0.0 sum is 0.0, as fsum gives it
        events = [(0.1, 1, 0.3), (0.1, 2, 5.0), (0.2, 1, -0.0), (0.35, 1, 1e16), (0.4, 1, 1.0),
                  (0.45, 1, -1e16), (0.55, 2, -0.0), (0.6, 1, -0.0), (0.65, 1, -0.0),
                  (0.85, 1, -2.5), (0.9, 2, 7.0)]
        spec = LevyPathSpec(rate=2.0, mark_sigma=1.0, noise_count=2)
        path = LevyPath(spec=spec, horizon=1.0, events=tuple(JumpEvent(*ev) for ev in events))
        grid = np.array([0.0, 0.05, 0.15, 0.25, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0])
        for channel in (1, 2):
            inc = grid_increments(path, channel, grid)
            want = [increment(path, channel, a, b) for a, b in zip(grid[:-1], grid[1:])]
            assert [float(x).hex() for x in inc] == [x.hex() for x in want]
        assert math.copysign(1.0, grid_increments(path, 1, grid)[2]) == 1.0

    def test_zero_rate_grid_is_zero(self):
        path = sample_path(LevyPathSpec(rate=0.0, mark_sigma=0.2, seed=15), 5.0)
        inc = grid_increments(path, 1, np.linspace(0.0, 5.0, 21))
        assert np.all(inc == 0.0)

    def test_unsorted_grid_rejected(self):
        path = two_event_path()
        with pytest.raises(DomainError):
            grid_increments(path, 1, [0.0, 0.6, 0.4, 1.0])

    def test_grid_outside_horizon_rejected(self):
        path = two_event_path()
        with pytest.raises(DomainError):
            grid_increments(path, 1, [0.0, 2.0])


class TestCsvRoundTrip:
    def test_roundtrip_preserves_events(self, tmp_path):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=21), 30.0)
        file_path = tmp_path / "events.csv"
        write_path_csv(path, file_path)
        back = read_path_csv(file_path, path.spec, path.horizon)
        assert back.events == path.events

    def test_empty_path_is_header_only(self, tmp_path):
        path = sample_path(LevyPathSpec(rate=0.0, mark_sigma=0.2), 1.0)
        file_path = tmp_path / "events.csv"
        write_path_csv(path, file_path)
        assert file_path.read_text() == "time,channel,mark\n"

    def test_wrong_header_rejected(self, tmp_path):
        file_path = tmp_path / "junk.csv"
        file_path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(DomainError):
            read_path_csv(file_path, LevyPathSpec(rate=1.0, mark_sigma=1.0), 2.0)


class TestChannelIndependence:
    def test_channels_have_distinct_streams(self):
        path = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, noise_count=2, seed=31), 50.0)
        t1 = [ev.time for ev in path.events if ev.channel == 1]
        t2 = [ev.time for ev in path.events if ev.channel == 2]
        assert t1 and t2
        assert t1 != t2

    def test_adding_a_channel_keeps_existing_ones(self):
        # channel streams are keyed independently, so channel 1 does not
        # change when the spec grows a second channel
        one = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, noise_count=1, seed=32), 40.0)
        two = sample_path(LevyPathSpec(rate=5.0, mark_sigma=0.2, noise_count=2, seed=32), 40.0)
        assert [ev for ev in two.events if ev.channel == 1] == list(one.events)
