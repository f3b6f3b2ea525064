"""Compound Poisson noise paths with exact interval increments.

A path is a finite record of jump events (time, channel, mark) sampled
once from the distributions a LevyPathSpec describes: exponential
waiting times with rate ``rate`` per channel and independent normal
marks N(0, mark_sigma^2), kept as three arrays; the JumpEvent objects of
``LevyPath.events`` are built only when a caller asks for them. Every
query (increments over an interval, events inside a window, increments
on a grid) reads those arrays, so one realization can be evaluated on
any time grid without re-sampling.

Increments use the half-open convention: ``increment(path, r, t0, t1)``
sums marks with ``t0 < time <= t1``, so a jump sitting exactly on a grid
node belongs to the step that ends there, and partitions of an interval
add up exactly.

Reproducibility: channel ``r`` draws from a Philox counter-based
generator keyed by ``(seed, r)``, waiting times first and then marks.
The keying is part of the on-disk contract; golden tests depend on it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._csv import fmt_rows, write_csv
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


@dataclass(frozen=True, init=False, eq=False)
class LevyPath:
    """A fixed compound Poisson realization on (0, horizon].

    Stored as three read-only arrays: event ``times``, 1-based
    ``channels`` and ``marks``, sorted by time with ties broken by
    channel. ``events`` is the JumpEvent tuple, built on first access.
    """

    spec: LevyPathSpec
    horizon: float
    times: np.ndarray
    channels: np.ndarray
    marks: np.ndarray

    def __init__(self, spec, horizon, events):
        events = tuple(events)
        times = np.array([ev.time for ev in events], dtype=float)
        channels = np.array([ev.channel for ev in events], dtype=object)
        marks = np.array([ev.mark for ev in events], dtype=float)
        self._store(spec, horizon, times, channels, marks)

    @classmethod
    def _from_columns(cls, spec, horizon, times, channels, marks):
        path = cls.__new__(cls)
        path._store(spec, horizon, times, channels, marks)
        return path

    def _store(self, spec, horizon, times, channels, marks):
        """Validate the columns and keep them; every way of building a path ends here.

        Events are checked in sequence order, each for its time, channel,
        mark and order after the previous event, and the first failure
        raises. An object channel column (from JumpEvents) must hold
        Python ints, not bool or float.
        """
        if not _positive_horizon(horizon):
            raise InvalidSpecError(f"horizon must be a finite positive number, got {horizon!r}")
        m = spec.noise_count
        if channels.dtype == object:
            channel_ok = np.array([type(c) is int and 1 <= c <= m for c in channels], dtype=bool)
        else:
            channel_ok = (channels >= 1) & (channels <= m)
        ranks = np.where(channel_ok, channels, 0)
        in_order = np.ones(times.size, dtype=bool)
        ties = times[1:] == times[:-1]
        in_order[1:] = (times[1:] > times[:-1]) | (ties & (ranks[1:] >= ranks[:-1]))
        time_ok = np.isfinite(times) & (times > 0.0) & (times <= horizon)
        ok = [time_ok, channel_ok, np.isfinite(marks), in_order]
        rows, checks = np.nonzero(~np.column_stack(ok))
        if rows.size:
            i = rows[0]
            raise DomainError((
                f"event time {float(times[i])!r} outside (0, {horizon}]",
                f"event channel {channels.tolist()[i]!r} outside 1..{m}",
                f"event mark {float(marks[i])!r} is not finite",
                "events must be sorted by time, ties by channel",
            )[checks[0]])
        channels = channels.astype(np.int64, copy=False)
        for column in (times, channels, marks):
            column.flags.writeable = False
        vars(self).update(spec=spec, horizon=horizon, times=times, channels=channels, marks=marks)

    @cached_property
    def events(self):
        columns = self.times.tolist(), self.channels.tolist(), self.marks.tolist()
        return tuple(map(JumpEvent, *columns))

    def __len__(self):
        return self.times.size


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
    columns = []
    for channel in range(1, spec.noise_count + 1):
        rng = _channel_generator(spec.seed, channel)
        times = _arrival_times(rng, spec.rate, horizon)
        marks = rng.normal(0.0, spec.mark_sigma, size=times.size)
        columns.append((times, np.full(times.size, channel, dtype=np.int64), marks))
    if len(columns) > 1:  # one channel's own columns are in time order already
        times, channels, marks = (np.concatenate(column) for column in zip(*columns))
        order = np.lexsort((channels, times))
        columns = [(times[order], channels[order], marks[order])]
    return LevyPath._from_columns(spec, horizon, *columns[0])


def _window(path, t0, t1):
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"interval endpoints must be finite, got ({t0!r}, {t1!r})")
    if not (0.0 <= t0 <= t1 <= path.horizon):
        raise DomainError(
            f"interval ({t0}, {t1}] must satisfy 0 <= t0 <= t1 <= horizon={path.horizon}"
        )
    return slice(*np.searchsorted(path.times, (t0, t1), side="right"))


def _check_channel(path, channel):
    # an integer, not a bool or a float such as 1.0, that names a channel
    m = path.spec.noise_count
    integral = isinstance(channel, (int, np.integer)) and not isinstance(channel, bool)
    if not (integral and 1 <= channel <= m):
        raise DomainError(f"channel {channel!r} outside 1..{m}")


def increment(path, channel, t0, t1):
    """Sum of channel marks with time in the half-open interval (t0, t1].

    The sum is evaluated with compensated summation over the stored
    marks, so nested grids telescope to the coarse increments up to one
    rounding of the final result.
    """
    _check_channel(path, channel)
    window = _window(path, t0, t1)
    return _fsum(path.marks[window][path.channels[window] == channel], channel, t0, t1)


def _fsum(marks, channel, t0, t1):
    """math.fsum of channel marks in (t0, t1]; DomainError where it is beyond the float range."""
    try:
        return math.fsum(marks)
    except OverflowError:
        message = f"channel {channel} marks in ({t0:g}, {t1:g}] sum beyond the float range"
        raise DomainError(message) from None


def jumps_in(path, t0, t1):
    """All events of any channel with time in (t0, t1], in time order."""
    return list(path.events[_window(path, t0, t1)])


def grid_increments(path, channel, grid):
    """Per-step increments of one channel over a strictly increasing grid.

    Element j equals increment(path, channel, grid[j], grid[j+1]); one
    search places every node among the event times, a step holding one
    event takes its mark and only a step holding several sums them.
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
    _check_channel(path, channel)
    own = path.channels == channel
    marks = path.marks[own]
    ends = np.searchsorted(path.times[own], grid, side="right")
    counts = np.diff(ends)
    out = np.zeros(grid.size - 1)
    single = counts == 1
    out[single] = marks[ends[:-1][single]] + 0.0  # as fsum: -0.0 sums to 0.0
    for j in np.flatnonzero(counts > 1):
        out[j] = _fsum(marks[ends[j] : ends[j + 1]], channel, grid[j], grid[j + 1])
    return out


def write_path_csv(path, file_path):
    """Write the event list as CSV with header ``time,channel,mark``."""
    rows = np.column_stack([path.times, path.channels, path.marks])
    write_csv(file_path, PATH_CSV_HEADER, fmt_rows(rows))


def read_path_csv(file_path, spec, horizon):
    """Read an event CSV written by write_path_csv back into a LevyPath.

    The file stores only events; spec and horizon describe where the
    realization came from and bound the validation.
    """
    with open(file_path, "r", newline="") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != PATH_CSV_HEADER:
        raise DomainError(f"expected header {PATH_CSV_HEADER!r} in {file_path}")
    times, channels, marks = [], [], []
    for line in lines[1:]:
        try:
            t, channel, mark = line.split(",")
            times.append(float(t))
            channels.append(int(channel))
            marks.append(float(mark))
        except ValueError:
            raise DomainError(f"malformed event row {line!r}") from None
    columns = np.array(times, dtype=float), np.array(channels), np.array(marks, dtype=float)
    return LevyPath._from_columns(spec, float(horizon), *columns)
