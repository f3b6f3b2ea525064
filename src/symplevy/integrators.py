"""One-step schemes and whole-trajectory drivers.

Two one-step maps act on a HamiltonianSystem state:

* ``symplectic_euler_step``: semi-implicit Euler, implicit in P and
  explicit in Q. The momentum equation is solved by fixed-point
  iteration started at the current P; each iterate costs one sweep of
  coefficient evaluations, and the step is symplectic for any (dt, dL).
  A separable system's sigma_r ignore P, so its first sweep is the
  solution and the only one.
* ``explicit_euler_step``: both updates evaluated at the current state;
  cheap, not symplectic, used as the comparison scheme.

Both maps run in one lane kernel that steps (B, n) state arrays, one
state per row, each at its own dt and increments; one state is B = 1.
An explicit step is the first fixed-point sweep of the symplectic one,
so the kernel sweeps every row once and, unless the system is
separable, sweeps on with the leading rows that are symplectic. The
public steps, every step of both drivers and the Jacobians of
``analysis`` call it (``_step_lanes`` says when rows are bit exact).

Two drivers build trajectories on noise realizations, and one pass,
``_step_record``, steps the drift ticks and jumps of both as lanes:

* ``integrate_fixed_grid``: uniform grid with the final step truncated
  to land on T, each step fed the raw path increment over it (jumps
  linearized). A record holds a lane per scheme (``orbit`` and
  ``hamiltonian`` run both), each ending as its scheme's run alone.
* ``integrate_pathwise_batch``: jump-adapted stepping of several paths
  at once, one lane per path (``integrate_pathwise``: one path), each at
  its own step. Between jumps it substeps the drift ODE with the
  symplectic Euler map (``converge --scheme explicit``: explicit Euler);
  at each jump time it applies the Marcus jump flow to that instant's
  marks (the system's exact map of a channel where it has one) and
  records both the pre-jump and the post-jump state. Lanes waiting at a
  jump share one flow, whatever their jump index (_phases).

Divergence means a state component beyond DIVERGENCE_LIMIT in magnitude.
The pass checks for it once per window of steps (ticks and jumps), at the
window's end: a window in which a step stalls, numpy records a
floating-point event, an evaluator raises or warns, or a state is out of
range or not finite runs again one checked step at a time (a jump flow's
runs below its cap share the window's recorder the first time, their own
in the rerun); steps are pure functions of their states, so the rerun
ends where a check after each would. A noisy window while a lane after
the first steps reruns every lane alone, in lane order.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ._csv import fmt_rows, write_csv
from ._noise import Recording
from .errors import DivergenceError, DomainError, InvalidSpecError, NonConvergenceError
from .hamiltonian import PhaseState
from .levy_path import grid_increments
from .marcus import _JUMP_TOL, DEFAULT_SUBSTEPS, _flow_error, _flow_raw

__all__ = [
    "Trajectory",
    "symplectic_euler_step",
    "explicit_euler_step",
    "integrate_fixed_grid",
    "integrate_pathwise",
    "integrate_pathwise_batch",
    "write_trajectory_csv",
    "DIVERGENCE_LIMIT",
]

# States with any component beyond this magnitude abort the driver; the
# model equations have global solutions but the explicit scheme can blow
# up numerically.
DIVERGENCE_LIMIT = 1e12

# Most steps one grid may hold; a longer grid is refused before its
# nodes are allocated.
MAX_GRID_STEPS = 1e7

_SCHEMES = ("symplectic", "explicit")

# ndarray.max without its Python-level wrapper, and the least entry that is not NaN
# (NaN if all are), for the kernel's residual checks: (array, axis) -> the reduction
_max, _fmin = np.maximum.reduce, np.fmin.reduce

# The symplectic step's momentum solve stops at an update of max-norm <= _IMPLICIT_TOL,
# and stalls after _IMPLICIT_MAX_ITERS sweeps
_IMPLICIT_TOL = 1e-12
_IMPLICIT_MAX_ITERS = 50


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states produced by one integrator run.

    times is non-decreasing; consecutive equal times appear only where a
    jump-adapted run records the pre-jump and post-jump states of one
    jump instant, otherwise times increase strictly. Rows of ps and qs
    are the momentum and position vectors.
    """

    times: np.ndarray
    ps: np.ndarray
    qs: np.ndarray
    scheme_tag: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ps = np.atleast_2d(np.asarray(self.ps, dtype=float))
        qs = np.atleast_2d(np.asarray(self.qs, dtype=float))
        if times.ndim != 1 or times.size == 0:
            raise DomainError("times must be a non-empty 1-D sequence")
        if ps.shape != qs.shape or ps.shape[0] != times.size:
            raise DomainError("ps and qs must be (len(times), n) arrays of equal shape")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(ps)) and np.all(np.isfinite(qs))):
            raise DomainError("trajectory entries must be finite")
        if np.any(np.diff(times) < 0):
            raise DomainError("times must be non-decreasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "qs", qs)

    def __len__(self):
        return self.times.size

    @property
    def n(self):
        return self.ps.shape[1]

    def state(self, i):
        return PhaseState(self.ps[i], self.qs[i])

    @property
    def states(self):
        return [self.state(i) for i in range(len(self))]

    def final_state(self):
        return self.state(len(self) - 1)


def _step_lanes(system, s, p0, q0, dt, dl, channels=None, checked=True):
    """One step of (B, n) lanes, the first s symplectic and the rest explicit: (p, q, stalled).

    dt is a (B, 1) array of steps and dl a (B, m) array of increments, or
    None for a pure drift; channels lists the r with a nonzero increment
    on some lane (found from dl when None). A channel's term is skipped
    only when its increment is zero on every lane, so one lane, lanes
    sharing one dl and lanes with nonzero increments each get the
    single-state map bit for bit. Every lane takes the first fixed-point
    sweep of the momentum solve from p0, the explicit Euler momentum; the
    symplectic lanes sweep on, each until an update (the residual at the
    previous iterate, read as a float if one entry) of max-norm <=
    _IMPLICIT_TOL, as alone. On a separable system they stop after the
    first: a further sweep would return its bits, which settles a finite
    row at residual 0 and leaves any other row moving at residual NaN.
    The explicit rows' q reads a copy of p0 under the symplectic rows'
    p. stalled is None, or the ascending indices and last residuals of
    the lanes still moving after _IMPLICIT_MAX_ITERS sweeps. Unless
    checked, a separable system's rows are not scanned for that NaN: a
    caller that tests the states it returns against DIVERGENCE_LIMIT
    (an unchecked window of _step_record) sees a non-finite row there.
    """
    sigma, gamma = system.sigma, system.gamma
    tol, max_iters = _IMPLICIT_TOL, _IMPLICIT_MAX_ITERS
    if channels is None:
        channels = [] if dl is None else [r for r in range(1, system.m + 1) if dl[:, r - 1].any()]
    terms = [(r, dl[:, r - 1 : r]) for r in channels] if channels else []
    p = p0 - sigma[0](p0, q0) * dt
    for r, d in terms:
        p = p - sigma[r](p0, q0) * d
    at, stalled = p0, None
    if s and system.separable:  # a second sweep would repeat p's bits and settle at residual 0
        if checked:
            finite = np.isfinite(p[:s])
            if np.count_nonzero(finite) < finite.size:  # as the loop, which never settles a NaN
                bad = np.flatnonzero(~finite.all(axis=1))
                stalled = bad, np.full(bad.size, np.nan)
    elif s:
        x, pa, qa, dta, live = p, p0, q0, dt, terms  # the lanes still iterating, rows `left` of p
        if s < len(p):
            x, pa, qa, dta, live = p[:s], p0[:s], q0[:s], dt[:s], [(r, d[:s]) for r, d in terms]
        left = slice(s)
        diff = np.abs(x - pa)
        for sweep in range(1, max_iters + 1):
            if (diff.item() if diff.size == 1 else _max(diff, None)) <= tol:  # NaN never settles
                break
            if len(x) > 1:
                top = diff[:, 0] if diff.shape[1] == 1 else _max(diff, 1)  # each lane's max
                if _fmin(top) <= tol:  # some lane settled (fmin skips NaN, as NaN <= tol is False)
                    done = top <= tol
                    rows, keep = np.arange(s)[left], ~done
                    p[rows[done]] = x[done]
                    left, x, pa, qa, dta = rows[keep], x[keep], pa[keep], qa[keep], dta[keep]
                    diff, live = diff[keep], [(r, d[keep]) for r, d in live]
            if sweep < max_iters:
                rhs = pa - sigma[0](x, qa) * dta
                for r, d in live:
                    rhs = rhs - sigma[r](x, qa) * d
                diff, x = np.abs(rhs - x), rhs
        else:
            stalled = (np.arange(s)[left], _max(diff, 1))
        if s == len(p) and isinstance(left, slice):
            p = x  # no lane settled early, so x holds every row
        else:
            p[left] = x
    if s:
        at = p
        if s < len(p):  # the explicit rows' q steps from p0
            at = p0.copy()
            at[:s] = p[:s]
    q = q0 + gamma[0](at, q0) * dt
    for r, d in terms:
        q = q + gamma[r](at, q0) * d
    return p, q, stalled


def _one_step(system, scheme, p, q, dt, dL):
    """`scheme` from (L, n) lanes in B equal groups: (p, q, stalled) as from _step_lanes.

    Group b is consecutive lanes stepping at dt[b] with increments
    dL[b]; dt is (B,) and dL (B, m). An argument outside the domain
    (a negative or non-finite dt, a non-finite dL, either not numbers)
    raises DomainError with the first bad group's value.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    for name, value in (("dt", np.asarray(dt)), ("dL", np.asarray(dL))):
        if value.dtype.kind not in "iuf":  # a boolean, a string, ...
            kind = ", not a boolean" if value.dtype == bool else ""
            raise DomainError(f"{name} must be a number{kind}, got {value[0].tolist()!r}")
    steps = np.asarray(dt, dtype=float)
    bad = np.flatnonzero(~(steps >= 0) | (steps == np.inf))
    if bad.size:
        raise DomainError(f"dt must be {'>= 0' if dt[bad[0]] < 0 else 'finite'}, got {dt[bad[0]]}")
    dL = np.asarray(dL, dtype=float)
    if dL.shape[1:] != (system.m,):
        raise DomainError(f"dL must have length m={system.m}, got shape {dL.shape[1:]}")
    bad = np.flatnonzero(~np.isfinite(dL).all(axis=1))
    if bad.size:
        raise DomainError(f"dL must be finite, got {dL[bad[0]]}")
    group = len(p) // len(steps)
    implicit = len(p) if scheme == "symplectic" else 0
    return _step_lanes(system, implicit, p, q, np.repeat(steps, group)[:, None],
                       np.repeat(dL, group, axis=0))


def _single_step(system, scheme, state, dt, dL):
    """One state's step, the B = 1 case of _one_step; a stall raises."""
    p, q = state.p[None], state.q[None]
    dL = np.atleast_1d(np.asarray(dL))
    p, q, stalled = _one_step(system, scheme, p, q, [dt], dL[None])
    if stalled is not None:
        raise _stalled(float(stalled[1][0]))
    return PhaseState(p[0], q[0])


def symplectic_euler_step(system, state, dt, dL):
    """Semi-implicit Euler step: P implicit at (P1, Q0), then Q explicit.

    Solves P1 = P0 - sigma_0(P1,Q0) dt - sum_r sigma_r(P1,Q0) dL_r by
    fixed-point iteration to 1e-12 in the max norm (at most 50 sweeps;
    one for a separable system, whose sigma_r ignore P), then sets
    Q1 = Q0 + gamma_0(P1,Q0) dt + sum_r gamma_r(P1,Q0) dL_r.
    """
    return _single_step(system, "symplectic", state, dt, dL)


def explicit_euler_step(system, state, dt, dL):
    """Explicit Euler step: both updates evaluated at (P0, Q0)."""
    return _single_step(system, "explicit", state, dt, dL)


def _segment_grids(starts, ends, dts, opening):
    """The drift nodes of every segment [starts[s], ends[s]] at step dts[s], lane by lane.

    Returns (times, ticks, offsets): segment s owns ticks[s] + 1
    consecutive rows of the flat times, its start and then ticks[s]
    nodes, and lane b, whose segments start at segment opening[b], owns
    rows offsets[b]:offsets[b + 1]. The nodes are start + k * dt for
    k = 1 .. ceil(span / dt) - 1 and then the end; a last such node that
    rounding puts at or past the end is dropped, and an empty segment has
    no nodes. A segment over MAX_GRID_STEPS steps raises
    InvalidSpecError, for the first such segment, and then so does a lane
    whose drift ticks and jumps (one between consecutive segments) exceed
    it, for the first such lane, before any row is allocated.
    """
    span = ends - starts
    with np.errstate(over="ignore"):  # an infinite count is refused below
        steps = span / dts
    over = np.flatnonzero(steps > MAX_GRID_STEPS)
    if over.size:
        raise InvalidSpecError(
            f"(T - t0) / dt = {float(steps[over[0]]):g} steps exceeds the limit "
            f"MAX_GRID_STEPS = {MAX_GRID_STEPS:g}"
        )
    nominal = np.maximum(1.0, np.ceil(steps - 1e-12))
    overshot = starts + dts * (nominal - 1.0) >= ends
    ticks = np.where(span > 0.0, nominal - overshot, 0.0).astype(np.int64)
    counts = ticks + 1
    rows = np.add.reduceat(counts, opening)  # a lane's steps are its rows but its first
    over = np.flatnonzero(rows - 1 > MAX_GRID_STEPS)
    if over.size:
        raise InvalidSpecError(
            f"path {over[0]} takes {rows[over[0]] - 1} steps (drift ticks and jumps), over the "
            f"limit MAX_GRID_STEPS = {MAX_GRID_STEPS:g}"
        )
    last = np.cumsum(counts) - 1
    lead = last - ticks
    times = np.arange(last[-1] + 1, dtype=float)
    times -= np.repeat(lead, counts)
    times *= np.repeat(dts, counts)
    times += np.repeat(starts, counts)
    times[last] = ends
    times[lead] = starts
    return times, ticks, np.concatenate([[0], np.cumsum(rows)])


def _step_size(dt):
    """A driver's step as a float; InvalidSpecError unless a finite positive real, not a bool."""
    real = isinstance(dt, (int, float)) and not isinstance(dt, bool)
    if not (real and math.isfinite(dt) and dt > 0):
        raise InvalidSpecError(f"dt must be a finite positive number, got {dt!r}")
    return float(dt)


def _validate_run(system, initial, t0, T, path):
    if not isinstance(initial, PhaseState):
        raise DomainError(f"initial must be a PhaseState, got {type(initial).__name__}")
    if initial.n != system.n:
        raise DomainError(f"initial state has n={initial.n}, system has n={system.n}")
    if isinstance(t0, (bool, np.bool_)) or isinstance(T, (bool, np.bool_)):
        raise DomainError(f"t0 and T must be numbers, not booleans; got t0={t0!r}, T={T!r}")
    if not (math.isfinite(t0) and math.isfinite(T)):
        raise DomainError("t0 and T must be finite")
    if T < t0:
        raise DomainError(f"T={T} must be >= t0={t0}")
    if path is None:
        raise DomainError("path is required; use a zero-rate spec for noise-free runs")
    if path.spec.noise_count != system.m:
        raise DomainError(
            f"path has {path.spec.noise_count} channels, system expects {system.m}"
        )
    if t0 < 0 or T > path.horizon:
        raise DomainError(f"[t0, T]=[{t0}, {T}] must lie within [0, horizon={path.horizon}]")


# A window of the stepping pass holds whole blocks of this many steps, up to its square in states
_CHECK_BLOCK = 64


def _lanes_in_range(p, q):
    # NaN comparisons are False, so non-finite states fail this test too
    in_range = (np.abs(p) <= DIVERGENCE_LIMIT).all(axis=1)
    return in_range & (np.abs(q) <= DIVERGENCE_LIMIT).all(axis=1)


def _stalled(residual):
    return NonConvergenceError(
        f"implicit momentum solve stalled at residual {residual:.3e} after "
        f"{_IMPLICIT_MAX_ITERS} iterations",
        residual=residual,
    )


def integrate_fixed_grid(system, scheme, initial, t0, T, path, dt):
    """Run a one-step scheme on a uniform grid with raw path increments.

    The grid has ceil((T-t0)/dt) steps, the last truncated so that
    times[-1] == T exactly. Each step receives the path increment over
    its half-open interval; jumps inside a step are applied as part of
    that linearized increment rather than through the jump flow. It runs
    as the one-scheme case of ``_fixed_grid_lanes``.
    """
    (run,) = _fixed_grid_lanes(system, (scheme,), initial, t0, T, path, dt)
    if isinstance(run, Exception):
        raise run
    return run


class _Noisy(Exception):
    """A window warned or raised while a lane after the first stepped; no one can name the lane."""


def _fixed_grid_lanes(system, schemes, initial, t0, T, path, dt):
    """Yield each scheme's fixed-grid Trajectory, or the error its run alone raises, in order."""
    dt = _step_size(dt)
    for scheme in schemes:
        if scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    _validate_run(system, initial, t0, T, path)
    times = _segment_grids(np.array([float(t0)]), np.array([float(T)]), np.array([dt]),
                           np.array([0]))[0]
    dls = np.zeros((times.size, system.m))  # row j + 1: the increment of step j
    if times.size > 1:
        for r in range(1, system.m + 1):
            dls[1:, r - 1] = grid_increments(path, r, times)
    yield from _grid_runs(system, schemes, initial, times, dls)


def _grid_runs(system, schemes, initial, times, dls):
    """Yield each scheme's run on the grid from `initial`, or its error.

    The schemes, symplectic first, run as the lanes of one record. If a
    window warns or raises while a later scheme still steps (see
    _step_record), nothing has been issued yet, and each scheme runs
    alone from t0 instead, yielded before the next starts, so every
    warning and error comes where the runs alone put it.
    """
    lanes = len(schemes)
    rec = _Record(np.tile(times, lanes), times.size * np.arange(lanes + 1), system.n, schemes,
                  schemes.count("symplectic"), "step {step} (t={t:g})", np.tile(dls, (lanes, 1)))
    rec.ps[rec.lo], rec.qs[rec.lo] = initial.p, initial.q
    try:
        failures = _step_record(system, rec, rec.lo, np.full((lanes, 1), times.size - 1),
                                np.zeros(lanes, int), None, alone=True)
    except _Noisy:
        for scheme in schemes:
            yield from _grid_runs(system, (scheme,), initial, times, dls)
        return
    for b in range(lanes):
        yield failures[b] if b in failures else rec.trajectory(b)


def integrate_pathwise(system, initial, t0, T, path, dt):
    """Jump-adapted run of one path: ``integrate_pathwise_batch`` on [path]."""
    return integrate_pathwise_batch(system, initial, t0, T, [path], dt)[0]


def _check_lane_shapes(system, p, q):
    for name, evaluators in (("sigma", system.sigma), ("gamma", system.gamma)):
        for r, evaluate in enumerate(evaluators):
            shape = np.shape(evaluate(p, q))
            if shape != p.shape:
                raise DomainError(
                    f"{name}[{r}] maps lane arrays of shape {p.shape} to shape {shape}; "
                    "coefficient evaluators must map (B, n) arrays to (B, n)"
                )
    for r, jump_map in enumerate(system.jump_maps or (), 1):
        shapes = [np.shape(x) for x in jump_map(p, q, np.zeros((len(p), 1)))]
        if shapes != [p.shape] * 2:
            raise DomainError(f"jump_maps[{r - 1}] maps lane arrays of shape {p.shape} to shapes "
                              f"{shapes}; jump maps must map (B, n) arrays to two (B, n)")


def _lane_jumps(system, paths, t0, T):
    """Every lane's jump instants in (t0, T], lane by lane, in time order.

    Returns the lane and time of each instant and its (m,) mark vector:
    the marks of that instant's events, summed per channel in event
    order. A path with more events in (t0, T] than MAX_GRID_STEPS raises
    InvalidSpecError, for the first such path, before any per-jump array.
    """
    spans = [slice(*np.searchsorted(path.times, (t0, T), side="right")) for path in paths]
    for b, s in enumerate(spans):
        if s.stop - s.start > MAX_GRID_STEPS:
            raise InvalidSpecError(f"path {b} has {s.stop - s.start} events in (t0, T], over the "
                                   f"limit MAX_GRID_STEPS = {MAX_GRID_STEPS:g}")
    pieces = [(path.times[s], path.channels[s], path.marks[s]) for path, s in zip(paths, spans)]
    lane = np.repeat(np.arange(len(paths)), [len(times) for times, _, _ in pieces])
    times, channels, flat_marks = (np.concatenate(column) for column in zip(*pieces))
    new = np.ones(times.size, dtype=bool)
    new[1:] = (times[1:] != times[:-1]) | (lane[1:] != lane[:-1])
    marks = np.zeros((np.count_nonzero(new), system.m))
    np.add.at(marks, (np.cumsum(new) - 1, channels - 1), flat_marks)
    return lane[new], times[new], marks


class _Record:
    """Every lane's rows in one flat array; lane b owns rows lo[b]:hi[b].

    The step into row r is times[r] - times[r - 1] and, unless dls is None, dls[r];
    lanes below `implicit` are symplectic, the others explicit. The
    failure constructors build the error a lane raises at a global row of
    segment k, as that lane's run alone raises it, a stall's message led
    by `stall_at`; lane b's trajectories carry tags[b].
    """

    def __init__(self, times, offsets, n, tags, implicit, stall_at="drift substep at t={t:g}",
                 dls=None):
        self.times, self.tags, self.implicit, self.stall_at = times, tags, implicit, stall_at
        self.dls = dls
        self.lo, self.hi = offsets[:-1], offsets[1:]
        self.ps, self.qs = np.empty((times.size, n)), np.empty((times.size, n))

    def trajectory(self, lane, end=None):
        lo = self.lo[lane]
        hi = self.hi[lane] if end is None else end
        return Trajectory(self.times[lo:hi], self.ps[lo:hi], self.qs[lo:hi], self.tags[lane])

    def diverged(self, lane, row, k):
        step, t = int(row - self.lo[lane]) - 1 - k, float(self.times[row])  # after k jumps
        message = f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at step {step} (t={t:g})"
        return DivergenceError(message, step=step, time=t, partial=self.trajectory(lane, row))

    def stalled(self, lane, row, k, residual):
        inner, step = _stalled(float(residual)), int(row - self.lo[lane]) - 1 - k
        at = self.stall_at.format(step=step, t=self.times[row - 1])
        err = NonConvergenceError(f"{at}: {inner}", residual=inner.residual, step=step)
        err.__cause__ = inner
        return err

    def flow_failed(self, lane, row, substep):
        tau = float(self.times[row])
        err = DivergenceError(f"jump flow diverged at t={tau:g} (substep {substep})", step=substep,
                              time=tau, partial=self.trajectory(lane, row))
        err.__cause__ = _flow_error(substep)
        return err


def _lane_record(system, paths, t0, T, dts):
    """The record of every lane, plus per-lane jump counts, ticks and marks.

    Lane b's segment k drifts at step dts[b] from its (k-1)-th jump (or
    t0) to its k-th jump (or T), so the segment's last row is the
    pre-jump state and the next segment's first row the post-jump state,
    at the same time. ticks[b, k] and marks[b, k] are lane b's drift
    ticks in segment k and its marks at jump k, zero past the lane's
    last segment.
    """
    lane, jump_times, jump_marks = _lane_jumps(system, paths, t0, T)
    jumps = np.bincount(lane, minlength=len(paths))
    segments = jumps + 1
    opening = np.cumsum(segments) - segments  # each lane's first segment
    k = np.arange(lane.size) - (np.cumsum(jumps) - jumps)[lane]  # each jump's index in its lane
    starts = np.full(segments.sum(), t0)
    ends = np.full(segments.sum(), T)
    ends[opening[lane] + k] = jump_times
    starts[opening[lane] + k + 1] = jump_times
    segment_lane = np.repeat(np.arange(len(paths)), segments)
    times, segment_ticks, offsets = _segment_grids(starts, ends, dts[segment_lane], opening)
    rec = _Record(times, offsets, system.n, ("pathwise",) * len(paths), len(paths))
    ticks = np.zeros((len(paths), jumps.max() + 1), dtype=np.int64)
    ticks[segment_lane, np.arange(segment_lane.size) - opening[segment_lane]] = segment_ticks
    marks = np.zeros((len(paths), max(jumps.max(), 1), system.m))
    marks[lane, k] = jump_marks
    return rec, jumps, ticks, marks


def _phases(ticks, jumps):
    """A pass as phases of drift entries, each stepping every lane with ticks left in its segment.

    A lane at its next jump waits. A phase ends where lanes finish a segment
    and the waiting lanes then hold half of all lanes' ticks left or more,
    or where none drifts; its flow applies every waiting lane's jump.
    Returns (drift, jumped, lanes): lane b's ticks in phase i, its jumps
    before phase i (row P: all), and per phase a row of lanes by ticks,
    most first, and a row with the lanes that then jump first.
    """
    B, K = ticks.shape
    if (ticks == ticks[0]).all() and (jumps == jumps[0]).all():  # a phase per segment
        return (ticks.T, np.minimum.outer(np.arange(K + 1), jumps),
                np.broadcast_to(np.arange(B), (2 * K, B)))
    left = ticks[:, 0].astype(np.min_scalar_type(ticks.max()))  # small keys sort fastest
    after = ticks[:, 1:].sum(axis=1)  # each lane's ticks past its segment: what it holds waiting
    jumped, total, behind = np.zeros(B, np.min_scalar_type(K)), int(ticks.sum()), np.arange(B)[::-1]
    drift, counts, lanes, acc = [], [jumped.copy()], [], np.add.accumulate
    while total or (jumped < jumps).any():
        order = np.argsort(left, kind="stable")
        ends = left[order]  # where each lane finishes its segment
        over = 2 * acc(after[order]) >= total - acc(ends, dtype=int) - ends * behind
        over[:-1] &= ends[:-1] != ends[1:]  # all lanes that finish at a point wait there
        step = np.minimum(left, ends[over.argmax()])
        total -= int(np.add.reduce(step))
        left -= step
        waiting = (left == 0) & (jumped < jumps)
        jumped[waiting] += 1
        left[waiting] = ticks[waiting, jumped[waiting]]
        after[waiting] -= left[waiting]
        row = order[::-1].astype(np.min_scalar_type(B))
        lanes += [row, np.concatenate([row[waiting[row]], row[~waiting[row]]])]
        drift.append(step), counts.append(jumped.copy())
    return np.stack(drift), np.stack(counts), np.stack(lanes)


def _step_record(system, rec, start, ticks, jumps, marks, alone):
    """Step each lane b from row start[b]: ticks[b, k] drift ticks of segment k, then jump k.

    Lane b applies jump k, the flow of marks[b, k], for k < jumps[b], each
    state into the row after the one it steps from. The pass is laid out
    once by _phases, as entries: each phase's drift ticks, then its flow;
    an entry steps the first count lanes of its row of `lanes`. Each window
    of entries runs unchecked under one Recording: its steps do only their
    arithmetic (no finite scan of a separable momentum), and the rows it
    wrote are tested against DIVERGENCE_LIMIT once, at its end. A window
    that was noisy, stalled or failed that test runs again checked, each
    step scanned and tested. Returns the failed lanes' errors by lane; a
    failed lane leaves the pass, with every lane above the lowest one unless
    `alone`. A noisy window while a lane after the first steps raises _Noisy.
    """
    live, failures = np.arange(len(start)), {}
    drift, jumped, lanes = _phases(ticks, jumps)  # held all run
    most = np.stack([drift.max(axis=1), (jumped[1:] != jumped[:-1]).any(axis=1)], 1).ravel()
    begin = np.cumsum(most, dtype=int) - most  # the first entry of each row of lanes
    col = np.repeat(np.arange(most.size), most)  # each entry's row of lanes
    shift = np.arange(col.size) - begin[col] + 1 - col % 2  # its row past its phase's first row
    opens = np.flatnonzero(np.diff(col)) + 1  # the entries that open a row, after the first

    def entries():
        """The states of the entries before each entry, and whether it goes on from the last."""
        t, jump = (drift, jumped) if live.size == len(start) else (drift[:, live], jumped[:, live])
        jumping = np.count_nonzero(jump[1:] != jump[:-1], axis=1)
        gone = np.cumsum(np.bincount((begin[::2, None] + t).ravel(), minlength=col.size + 1))
        gone = np.concatenate([[0], gone])  # lanes past their ticks in a row, before each entry
        count = np.where(col % 2, jumping[col // 2], live.size - gone[1:-1] + gone[begin[col]])
        same = lanes[1:] == lanes[:-1]  # rows of `lanes` that list the same lanes first
        np.logical_and.accumulate(same, axis=1, out=same)
        lead = count > 0  # from the previous entry's states: its lanes lead that entry's
        lead[opens] &= ((col[opens] - 1 == col[opens - 1]) & (count[opens] <= count[opens - 1])
                        & same[col[opens] - 1, count[opens] - 1])
        return np.concatenate([[0], np.cumsum(count)]), lead

    cum, lead = entries()
    first = np.zeros(jumped.shape, np.min_scalar_type(-len(rec.times)))  # each phase's first row
    np.cumsum(drift, axis=0, out=first[1:])  # after earlier ticks and jumps
    first += jumped
    first += start
    e0 = 0  # the entries before it are in the record
    while e0 < col.size and live.size:
        # lay out the window from e0: the whole blocks that hold _CHECK_BLOCK**2 states, or one
        e1 = np.searchsorted(cum, cum[e0] + _CHECK_BLOCK**2, side="right") - 1
        e1 = min(e0 + max(_CHECK_BLOCK, (e1 - e0) // _CHECK_BLOCK * _CHECK_BLOCK), col.size)
        bounds, counts = cum[e0 : e1 + 1] - cum[e0], np.diff(cum[e0 : e1 + 1])
        targets = np.repeat(col[e0:e1], counts)  # each state's row of lanes, then its place there
        targets = first[(targets + 1) // 2,
                        lanes[targets, np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)]]
        targets = targets + np.repeat(shift[e0:e1], counts)
        dts = (rec.times[targets] - rec.times[targets - 1])[:, None]
        channels = [[]] * len(counts)  # each entry's channels with an increment; none: a pure drift
        if rec.dls is not None:
            dls = rec.dls[targets]
            on = np.logical_or.reduceat(dls != 0, bounds[:-1]).tolist()
            channels = [[r for r, o in enumerate(row, 1) if o] for row in on]
        follow = [False] + lead[e0 + 1 : e1].tolist()  # a layout starts from the record
        cols, counts, bounds = col[e0:e1].tolist(), counts.tolist(), bounds.tolist()
        implicit = int(np.count_nonzero(live < rec.implicit))

        def run(checked):
            """Run the window: a stall or failed check if checked, else whether any step went wrong."""
            out_p, out_q, done, stop = [], [], 0, None

            def flush(upto):  # the states of entries done..upto-1 into the record
                nonlocal done
                rows, done = targets[bounds[done] : bounds[upto]], upto
                if rows.size:
                    rec.ps[rows], rec.qs[rows] = np.concatenate(out_p), np.concatenate(out_q)
                    out_p.clear(), out_q.clear()

            for j in range(len(counts)):
                c, a, b = counts[j], bounds[j], bounds[j + 1]
                if follow[j]:
                    if c < len(p):
                        p, q = p[:c], q[:c]
                elif c:
                    flush(j)
                    p, q = rec.ps[targets[a:b] - 1], rec.qs[targets[a:b] - 1]
                else:
                    continue
                if cols[j] % 2:
                    lane = lanes[cols[j], :c]
                    p, q, bad = _flow_raw(system, p, q, marks[lane, jumped[cols[j] // 2, lane]],
                                          DEFAULT_SUBSTEPS, _JUMP_TOL, not checked)
                else:
                    dl = dls[a:b] if channels[j] else None
                    p, q, bad = _step_lanes(system, min(c, implicit), p, q, dts[a:b], dl,
                                            channels[j], checked)
                out_p.append(p), out_q.append(q)
                if bad is not None or checked and not _lanes_in_range(p, q).all():
                    stop = j, bad
                    break
            flush(stop[0] + 1 if stop else len(counts))
            if checked:
                return stop
            return stop is not None or not _lanes_in_range(rec.ps[targets], rec.qs[targets]).all()

        try:
            with Recording() as noise:
                failed = run(checked=False)
        except Exception:  # the rerun raises it, or an earlier failure
            failed = noise = True
        if noise and live[-1] > 0:
            raise _Noisy
        if noise or failed:
            failed = run(checked=True)
        if not failed:
            e0 = e1
            continue
        j, bad = failed
        lane, row = lanes[cols[j], : counts[j]], targets[bounds[j] : bounds[j + 1]]
        k = jumped[cols[j] // 2, lane]  # each lane's jumps before the entry's phase
        for i in np.flatnonzero(~_lanes_in_range(rec.ps[row], rec.qs[row])):
            failures[lane[i]] = rec.diverged(lane[i], row[i], int(k[i]))
        if bad is not None and cols[j] % 2:  # a failed flow or a stall is the lane's error
            for i in np.flatnonzero(bad >= 0):
                failures[lane[i]] = rec.flow_failed(lane[i], row[i], int(bad[i]))
        elif bad is not None:
            for i, residual in zip(*bad):
                failures[lane[i]] = rec.stalled(lane[i], row[i], int(k[i]), residual)
        live = live[~np.isin(live, list(failures)) if alone else live < min(failures)]
        lanes = lanes[np.isin(lanes, live)].reshape(len(lanes), live.size)
        e0 += j + 1
        if live.size:
            cum, lead = entries()
    return failures


def _lane_dts(dt, lanes):
    """Each lane's step: dt, or the entries of a list with one per path."""
    if not isinstance(dt, (list, tuple)):
        return np.full(lanes, _step_size(dt))
    if len(dt) != lanes:
        raise DomainError(f"dt must be one number or a list of {lanes}, one per path")
    return np.array([_step_size(d) for d in dt])


def integrate_pathwise_batch(system, initial, t0, T, paths, dt):
    """Jump-adapted runs of several paths from one initial state, as lanes.

    Each path is one lane of (B, n) state arrays, so every coefficient
    evaluator is called with (B, n) arrays and must return (B, n), row b
    depending only on row b; a wrong shape raises DomainError. Each lane
    drifts with the symplectic Euler map on its own nodes up to its next
    jump time (the last substep truncated to end there) and waits; one
    jump-flow call applies the waiting jumps of many lanes, whatever their
    jump index, simultaneous events combined. Each trajectory records
    every substep state and, at each jump time, both the pre-jump and
    post-jump states, and equals the same path run alone bit for bit.

    A jump instant whose marks drive one channel r of a system with
    ``jump_maps`` takes ``jump_maps[r-1]`` (for Kubo, the exact rotation
    by beta*R). Every other jump takes its own number of RK4 substeps in
    the jump flow, by step doubling and at most DEFAULT_SUBSTEPS (see
    ``marcus``); its post-jump state is ``jump_flow`` at that count bit
    for bit.

    dt is one step for every path or a list with one per path; a list of
    another length raises DomainError, and a step that is not a finite
    positive number InvalidSpecError.

    Returns one Trajectory per path, in order. Invalid input (DomainError,
    or InvalidSpecError for a path with more events in (t0, T] than
    MAX_GRID_STEPS, a segment over that many steps or a path whose drift
    ticks and jumps exceed it) is refused before any lane runs. If lanes
    fail numerically, the error of the lowest-index failing lane is
    raised, exactly as that path raises it alone. Warnings come path by
    path, as from the paths run alone in order.
    """
    rec = _pathwise_record(system, initial, t0, T, paths, dt, "symplectic")
    return [rec.trajectory(b) for b in range(len(rec.lo))]


def _pathwise_record(system, initial, t0, T, paths, dt, scheme):
    """``integrate_pathwise_batch`` up to its filled _Record, with `scheme` drift on every lane.

    On _Noisy or a noisy shape check the paths run alone from t0 in order; the first failing raises.
    """
    paths = list(paths)
    if not paths:
        raise DomainError("paths must hold at least one path")
    for path in paths:
        _validate_run(system, initial, t0, T, path)
    dts = _lane_dts(dt, len(paths))
    p_start, q_start = np.tile(initial.p, (len(paths), 1)), np.tile(initial.q, (len(paths), 1))
    try:  # a batch's noise here sends its paths to run alone, each issuing its own check's
        with Recording() if len(paths) > 1 else nullcontext() as noise:
            _check_lane_shapes(system, p_start, q_start)
    except Exception:
        if noise is not None:  # a batch's check again, unrecorded: its noise, then its error
            _check_lane_shapes(system, p_start, q_start)
        raise
    rec, jumps, ticks, marks = _lane_record(system, paths, float(t0), float(T), dts)
    if scheme == "explicit":
        rec.implicit = 0  # explicit Euler drift on every lane
    rec.ps[rec.lo], rec.qs[rec.lo] = p_start, q_start
    try:
        if noise:
            raise _Noisy
        failures = _step_record(system, rec, rec.lo, ticks, jumps, marks, alone=False)
    except _Noisy:
        for b, path in enumerate(paths):
            one = _pathwise_record(system, initial, t0, T, [path], [dts[b]], scheme)
            rec.ps[rec.lo[b] : rec.hi[b]], rec.qs[rec.lo[b] : rec.hi[b]] = one.ps, one.qs
        return rec
    if failures:
        raise failures[min(failures)]
    return rec


def write_trajectory_csv(trajectory, file_path):
    """Write a trajectory as CSV with header ``t,p1..pn,q1..qn``."""
    n = trajectory.n
    header = ",".join(
        ["t"] + [f"p{i + 1}" for i in range(n)] + [f"q{i + 1}" for i in range(n)]
    )
    rows = np.column_stack([trajectory.times, trajectory.ps, trajectory.qs])
    write_csv(file_path, header, fmt_rows(rows))
