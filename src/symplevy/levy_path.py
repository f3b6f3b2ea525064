"""Compound Poisson noise paths with exact interval increments.

A path is a finite record of jump events (time, channel, mark) sampled
once from the distributions a LevyPathSpec describes: exponential
waiting times with rate
``rate`` per channel and independent normal marks N(0, mark_sigma^2).
Every query (increments over an interval, events inside a window,
increments on a grid) reads that fixed realization, so one realization
can be evaluated on any time grid without re-sampling.

Increments use the half-open convention: ``increment(path, r, t0, t1)``
sums marks with ``t0 < time <= t1``, so a jump sitting exactly on a grid
node belongs to the step that ends there, and partitions of an interval
add up exactly.

Reproducibility: channel ``r`` draws from a Philox counter-based
generator keyed by ``(seed, r)``, waiting times first and then marks.
The keying is part of the on-disk contract; golden tests depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csv import fmt, write_csv
from .errors import DomainError, InvalidSpecError

__all__ = [
    "LevyPathSpec",
    "JumpEvent",
    "LevyPath",
    "sample_path",
    "increment",
    "jumps_in",
    "grid_increments",
    "write_path_csv",
    "read_path_csv",
]

_MASK64 = (1 << 64) - 1

# Largest expected event count (rate * horizon) per channel that
# sample_path accepts; beyond it the first block of waiting times alone
# would not fit in memory.
MAX_EXPECTED_EVENTS = 1e7

PATH_CSV_HEADER = "time,channel,mark"


def _require_finite_number(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidSpecError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidSpecError(f"{name} must be finite, got {value!r}")


def _positive_horizon(horizon):
    real = isinstance(horizon, (int, float)) and not isinstance(horizon, bool)
    return real and math.isfinite(horizon) and horizon > 0


@dataclass(frozen=True)
class LevyPathSpec:
    """Distribution parameters for one compound Poisson realization.

    Parameters
    ----------
    rate : float
        Expected jumps per unit time per channel (>= 0; 0 means no jumps).
    mark_sigma : float
        Standard deviation of the normal mark distribution (>= 0).
    noise_count : int
        Number of independent noise channels, indexed 1..noise_count.
    seed : int
        Reproducibility seed; equal specs always produce equal paths.
    """

    rate: float
    mark_sigma: float
    noise_count: int = 1
    seed: int = 0

    def __post_init__(self):
        _require_finite_number("rate", self.rate)
        _require_finite_number("mark_sigma", self.mark_sigma)
        if self.rate < 0:
            raise InvalidSpecError(f"rate must be >= 0, got {self.rate}")
        if self.mark_sigma < 0:
            raise InvalidSpecError(f"mark_sigma must be >= 0, got {self.mark_sigma}")
        if type(self.noise_count) is not int or self.noise_count < 1:
            raise InvalidSpecError(f"noise_count must be an integer >= 1, got {self.noise_count!r}")
        if type(self.seed) is not int:
            raise InvalidSpecError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class JumpEvent:
    """One jump: instant, channel index (1-based), and mark size."""

    time: float
    channel: int
    mark: float


@dataclass(frozen=True)
class LevyPath:
    """A fixed compound Poisson realization on (0, horizon].

    Events are sorted by time, ties broken by channel index. Construct
    via sample_path for fresh realizations or read_path_csv for stored
    ones; direct construction validates the same invariants.
    """

    spec: LevyPathSpec
    horizon: float
    events: tuple[JumpEvent, ...]
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _by_channel: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _positive_horizon(self.horizon):
            raise InvalidSpecError(f"horizon must be a finite positive number, got {self.horizon!r}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        m = self.spec.noise_count
        previous = (0.0, 0)
        for ev in events:
            if not (math.isfinite(ev.time) and 0.0 < ev.time <= self.horizon):
                raise DomainError(f"event time {ev.time!r} outside (0, {self.horizon}]")
            if not (isinstance(ev.channel, int) and 1 <= ev.channel <= m):
                raise DomainError(f"event channel {ev.channel!r} outside 1..{m}")
            if not math.isfinite(ev.mark):
                raise DomainError(f"event mark {ev.mark!r} is not finite")
            if (ev.time, ev.channel) < previous:
                raise DomainError("events must be sorted by time, ties by channel")
            previous = (ev.time, ev.channel)
        times = np.array([ev.time for ev in events], dtype=float)
        by_channel = {}
        for r in range(1, m + 1):
            sel = [ev for ev in events if ev.channel == r]
            by_channel[r] = (
                np.array([ev.time for ev in sel], dtype=float),
                np.array([ev.mark for ev in sel], dtype=float),
            )
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_by_channel", by_channel)

    def __len__(self):
        return len(self.events)


def _channel_generator(seed, channel):
    # Philox is counter based, so keying by (seed, channel) yields
    # independent streams without any cross-channel coordination.
    key = np.array([seed & _MASK64, channel & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _arrival_times(rng, rate, horizon):
    if rate == 0.0:
        return np.empty(0)
    # Draw waiting times in deterministic-size blocks until the running
    # sum passes the horizon; the block policy is fixed so the stream
    # consumption, and therefore the path, depends only on (spec, horizon).
    expected = rate * horizon
    block = int(math.ceil(expected + 8.0 * math.sqrt(expected + 1.0) + 16.0))
    waits = rng.exponential(1.0 / rate, size=block)
    arrivals = np.cumsum(waits)
    while arrivals[-1] <= horizon:
        waits = rng.exponential(1.0 / rate, size=block)
        arrivals = np.append(arrivals, arrivals[-1] + np.cumsum(waits))
    return arrivals[arrivals <= horizon]


def sample_path(spec, horizon):
    """Sample one compound Poisson realization on (0, horizon].

    For each channel independently, inter-arrival times are i.i.d.
    exponential with mean 1/rate and marks are i.i.d. N(0, mark_sigma^2).
    The result is a pure function of (spec, horizon). A rate*horizon
    above MAX_EXPECTED_EVENTS raises InvalidSpecError before any draw.
    """
    if not isinstance(spec, LevyPathSpec):
        raise InvalidSpecError(f"spec must be a LevyPathSpec, got {type(spec).__name__}")
    if not _positive_horizon(horizon):
        raise DomainError(f"horizon must be a finite positive number, got {horizon!r}")
    horizon = float(horizon)
    if spec.rate * horizon > MAX_EXPECTED_EVENTS:
        raise InvalidSpecError(
            f"rate*horizon = {spec.rate * horizon:g} expected events exceeds the limit "
            f"MAX_EXPECTED_EVENTS = {MAX_EXPECTED_EVENTS:g}"
        )
    events = []
    for channel in range(1, spec.noise_count + 1):
        rng = _channel_generator(spec.seed, channel)
        times = _arrival_times(rng, spec.rate, horizon)
        marks = rng.normal(0.0, spec.mark_sigma, size=times.size)
        events.extend(
            JumpEvent(float(t), channel, float(x)) for t, x in zip(times, marks)
        )
    events.sort(key=lambda ev: (ev.time, ev.channel))
    return LevyPath(spec=spec, horizon=horizon, events=tuple(events))


def _check_interval(path, t0, t1):
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"interval endpoints must be finite, got ({t0!r}, {t1!r})")
    if not (0.0 <= t0 <= t1 <= path.horizon):
        raise DomainError(
            f"interval ({t0}, {t1}] must satisfy 0 <= t0 <= t1 <= horizon={path.horizon}"
        )


def increment(path, channel, t0, t1):
    """Sum of channel marks with time in the half-open interval (t0, t1].

    The sum is evaluated with compensated summation over the stored
    marks, so nested grids telescope to the coarse increments up to one
    rounding of the final result.
    """
    if channel not in path._by_channel:
        raise DomainError(f"channel {channel!r} outside 1..{path.spec.noise_count}")
    _check_interval(path, t0, t1)
    times, marks = path._by_channel[channel]
    i0 = int(np.searchsorted(times, t0, side="right"))
    i1 = int(np.searchsorted(times, t1, side="right"))
    if i1 <= i0:
        return 0.0
    return math.fsum(marks[i0:i1])


def jumps_in(path, t0, t1):
    """All events of any channel with time in (t0, t1], in time order."""
    _check_interval(path, t0, t1)
    i0 = int(np.searchsorted(path._times, t0, side="right"))
    i1 = int(np.searchsorted(path._times, t1, side="right"))
    return list(path.events[i0:i1])


def grid_increments(path, channel, grid):
    """Per-step increments of one channel over a strictly increasing grid.

    Element j equals increment(path, channel, grid[j], grid[j+1]); one
    search places every node among the event times.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid must be a 1-D sequence of at least two times")
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid times must be finite")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    if grid[0] < 0 or grid[-1] > path.horizon:
        raise DomainError(f"grid must lie within [0, horizon={path.horizon}]")
    if channel not in path._by_channel:
        raise DomainError(f"channel {channel!r} outside 1..{path.spec.noise_count}")
    times, marks = path._by_channel[channel]
    ends = np.searchsorted(times, grid, side="right")
    out = np.zeros(grid.size - 1)
    for j in np.flatnonzero(ends[1:] > ends[:-1]):
        out[j] = math.fsum(marks[ends[j] : ends[j + 1]])
    return out


def write_path_csv(path, file_path):
    """Write the event list as CSV with header ``time,channel,mark``."""
    lines = [f"{fmt(ev.time)},{ev.channel},{fmt(ev.mark)}" for ev in path.events]
    write_csv(file_path, PATH_CSV_HEADER, lines)


def read_path_csv(file_path, spec, horizon):
    """Read an event CSV written by write_path_csv back into a LevyPath.

    The file stores only events; spec and horizon describe where the
    realization came from and bound the validation.
    """
    with open(file_path, "r", newline="") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != PATH_CSV_HEADER:
        raise DomainError(f"expected header {PATH_CSV_HEADER!r} in {file_path}")
    events = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise DomainError(f"malformed event row {line!r}")
        events.append(JumpEvent(float(parts[0]), int(parts[1]), float(parts[2])))
    return LevyPath(spec=spec, horizon=float(horizon), events=tuple(events))
