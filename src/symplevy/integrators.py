"""One-step schemes and whole-trajectory drivers.

Two one-step maps act on a HamiltonianSystem state:

* ``symplectic_euler_step``: semi-implicit Euler, implicit in P and
  explicit in Q. The momentum equation is solved by fixed-point
  iteration started at the current P; each iterate costs one sweep of
  coefficient evaluations, and the step is symplectic for any (dt, dL).
* ``explicit_euler_step``: both updates evaluated at the current state;
  cheap, not symplectic, used as the comparison scheme.

Two drivers build trajectories on one noise realization:

* ``integrate_fixed_grid``: uniform grid with the final step truncated
  to land on T, feeding each step the raw path increment over that step
  (jumps are linearized into the increments).
* ``integrate_pathwise``: jump-adapted stepping. Between jumps it
  substeps the drift ODE with the symplectic Euler map; at each jump
  time it applies the Marcus jump flow with that event's mark. Both the
  pre-jump state (the last drift substep) and the post-jump state are
  recorded at the jump time, so trajectory times repeat exactly there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import fmt, write_csv
from .errors import DivergenceError, DomainError, InvalidSpecError, NonConvergenceError
from .hamiltonian import PhaseState
from .levy_path import grid_increments, jumps_in
from .marcus import DEFAULT_SUBSTEPS, _flow_raw

__all__ = [
    "StepControls",
    "Trajectory",
    "symplectic_euler_step",
    "explicit_euler_step",
    "integrate_fixed_grid",
    "integrate_pathwise",
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


@dataclass(frozen=True)
class StepControls:
    """Numerical knobs shared by the steppers and drivers.

    dt is the nominal step; implicit_tol and implicit_max_iters bound
    the fixed-point solve inside the symplectic step; jump_substeps is
    forwarded to the Marcus jump flow.
    """

    dt: float
    implicit_tol: float = 1e-12
    implicit_max_iters: int = 50
    jump_substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise InvalidSpecError(f"dt must be a finite positive number, got {self.dt!r}")
        if not (math.isfinite(self.implicit_tol) and self.implicit_tol > 0):
            raise InvalidSpecError(f"implicit_tol must be positive, got {self.implicit_tol!r}")
        if not (isinstance(self.implicit_max_iters, int) and self.implicit_max_iters >= 1):
            raise InvalidSpecError(
                f"implicit_max_iters must be an integer >= 1, got {self.implicit_max_iters!r}"
            )
        if not (isinstance(self.jump_substeps, int) and self.jump_substeps >= 1):
            raise InvalidSpecError(
                f"jump_substeps must be an integer >= 1, got {self.jump_substeps!r}"
            )


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


def _check_dl(system, dL):
    dL = np.atleast_1d(np.asarray(dL, dtype=float))
    if dL.shape != (system.m,):
        raise DomainError(f"dL must have length m={system.m}, got shape {dL.shape}")
    return dL


def _symplectic_raw(system, p0, q0, dt, dL, tol, max_iters):
    # Fixed-point iteration for the implicit momentum equation, seeded
    # at p0. The update residual equals the equation residual at the
    # previous iterate, so convergence is declared when an update moves
    # by at most tol in the max norm.
    sigma0 = system.sigma[0]
    p = p0
    residual = math.inf
    for _ in range(max_iters):
        rhs = p0 - sigma0(p, q0) * dt
        for r in range(1, system.m + 1):
            if dL[r - 1] != 0.0:
                rhs = rhs - system.sigma[r](p, q0) * dL[r - 1]
        residual = float(np.abs(rhs - p).max())
        p = rhs
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(
            f"implicit momentum solve stalled at residual {residual:.3e} "
            f"after {max_iters} iterations",
            residual=residual,
        )
    q = q0 + system.gamma[0](p, q0) * dt
    for r in range(1, system.m + 1):
        if dL[r - 1] != 0.0:
            q = q + system.gamma[r](p, q0) * dL[r - 1]
    return p, q


def _explicit_raw(system, p0, q0, dt, dL):
    p = p0 - system.sigma[0](p0, q0) * dt
    q = q0 + system.gamma[0](p0, q0) * dt
    for r in range(1, system.m + 1):
        if dL[r - 1] != 0.0:
            p = p - system.sigma[r](p0, q0) * dL[r - 1]
            q = q + system.gamma[r](p0, q0) * dL[r - 1]
    return p, q


def symplectic_euler_step(system, state, dt, dL, controls):
    """Semi-implicit Euler step: P implicit at (P1, Q0), then Q explicit.

    Solves P1 = P0 - sigma_0(P1,Q0) dt - sum_r sigma_r(P1,Q0) dL_r by
    fixed-point iteration to controls.implicit_tol in the max norm, then
    sets Q1 = Q0 + gamma_0(P1,Q0) dt + sum_r gamma_r(P1,Q0) dL_r.
    """
    if dt < 0:
        raise DomainError(f"dt must be >= 0, got {dt}")
    dL = _check_dl(system, dL)
    p, q = _symplectic_raw(
        system, state.p, state.q, dt, dL, controls.implicit_tol, controls.implicit_max_iters
    )
    return PhaseState(p, q)


def explicit_euler_step(system, state, dt, dL, controls):
    """Explicit Euler step: both updates evaluated at (P0, Q0)."""
    if dt < 0:
        raise DomainError(f"dt must be >= 0, got {dt}")
    dL = _check_dl(system, dL)
    p, q = _explicit_raw(system, state.p, state.q, dt, dL)
    return PhaseState(p, q)


def _grid_times(t0, T, dt):
    span = T - t0
    if span == 0.0:
        return np.array([float(t0)])
    if span / dt > MAX_GRID_STEPS:
        raise InvalidSpecError(
            f"(T - t0) / dt = {span / dt:g} steps exceeds the limit MAX_GRID_STEPS = {MAX_GRID_STEPS:g}"
        )
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    times = t0 + dt * np.arange(n + 1, dtype=float)
    times[-1] = T
    if times[-1] <= times[-2]:
        # The nominal count overshot T by rounding; drop the empty step.
        times = np.delete(times, -2)
    return times


def _validate_run(system, initial, t0, T, path):
    if not isinstance(initial, PhaseState):
        raise DomainError(f"initial must be a PhaseState, got {type(initial).__name__}")
    if initial.n != system.n:
        raise DomainError(f"initial state has n={initial.n}, system has n={system.n}")
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


def _guard(p, q, step_index, t, times, ps, qs, scheme_tag):
    # NaN comparisons are False, so non-finite states fail this test too
    if np.abs(p).max() <= DIVERGENCE_LIMIT and np.abs(q).max() <= DIVERGENCE_LIMIT:
        return
    partial = Trajectory(np.array(times), np.array(ps), np.array(qs), scheme_tag)
    raise DivergenceError(
        f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at step {step_index} (t={t:g})",
        step=step_index,
        time=t,
        partial=partial,
    )


def integrate_fixed_grid(system, scheme, initial, t0, T, path, controls):
    """Run a one-step scheme on a uniform grid with raw path increments.

    The grid has ceil((T-t0)/dt) steps, the last truncated so that
    times[-1] == T exactly. Each step receives the path increment over
    its half-open interval; jumps inside a step are applied as part of
    that linearized increment rather than through the jump flow.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    _validate_run(system, initial, t0, T, path)
    times = _grid_times(float(t0), float(T), controls.dt)
    n_steps = times.size - 1
    dls = np.zeros((system.m, max(n_steps, 1)))
    if n_steps > 0:
        for r in range(1, system.m + 1):
            dls[r - 1] = grid_increments(path, r, times)
    p, q = initial.p, initial.q
    ps = [p]
    qs = [q]
    for j in range(n_steps):
        dtj = times[j + 1] - times[j]
        try:
            if scheme == "symplectic":
                p, q = _symplectic_raw(
                    system, p, q, dtj, dls[:, j], controls.implicit_tol, controls.implicit_max_iters
                )
            else:
                p, q = _explicit_raw(system, p, q, dtj, dls[:, j])
        except NonConvergenceError as err:
            raise NonConvergenceError(
                f"step {j} (t={times[j]:g}): {err}", residual=err.residual, step=j
            ) from err
        _guard(p, q, j, times[j + 1], times[: j + 1], ps, qs, scheme)
        ps.append(p)
        qs.append(q)
    return Trajectory(times, np.array(ps), np.array(qs), scheme)


def integrate_pathwise(system, initial, t0, T, path, controls):
    """Jump-adapted run: drift substeps between jumps, jump flow at jumps.

    Between consecutive jump times the drift ODE is advanced with the
    symplectic Euler map using step controls.dt (final substep truncated
    to the interval end). At each jump time the Marcus jump flow is
    applied with that event's mark; simultaneous events are combined
    into one flow. The output records every substep state and, at each
    jump time, both the pre-jump and post-jump states.
    """
    _validate_run(system, initial, t0, T, path)
    t0 = float(t0)
    T = float(T)
    dt = controls.dt
    zero_dl = np.zeros(system.m)
    times = [t0]
    ps = [initial.p]
    qs = [initial.q]
    p, q = initial.p, initial.q
    step_count = 0

    def drift_to(t_start, t_end):
        nonlocal p, q, step_count
        if t_end - t_start <= 0.0:
            return
        # Same node construction as the fixed-grid driver so that runs
        # without jumps agree with it bit for bit.
        nodes = _grid_times(t_start, t_end, dt)
        for j in range(nodes.size - 1):
            t_next = nodes[j + 1]
            dtj = t_next - nodes[j]
            try:
                p, q = _symplectic_raw(
                    system, p, q, dtj, zero_dl, controls.implicit_tol, controls.implicit_max_iters
                )
            except NonConvergenceError as err:
                raise NonConvergenceError(
                    f"drift substep at t={times[-1]:g}: {err}",
                    residual=err.residual,
                    step=step_count,
                ) from err
            _guard(p, q, step_count, t_next, times, ps, qs, "pathwise")
            times.append(t_next)
            ps.append(p)
            qs.append(q)
            step_count += 1

    events = jumps_in(path, t0, T) if T > t0 else []
    i = 0
    while i < len(events):
        tau = events[i].time
        marks = np.zeros(system.m)
        while i < len(events) and events[i].time == tau:
            marks[events[i].channel - 1] += events[i].mark
            i += 1
        drift_to(times[-1], tau)
        try:
            p, q = _flow_raw(system, p, q, marks, controls.jump_substeps)
        except DivergenceError as err:
            raise DivergenceError(
                f"jump flow diverged at t={tau:g} (substep {err.step})",
                step=err.step,
                time=tau,
                partial=Trajectory(np.array(times), np.array(ps), np.array(qs), "pathwise"),
            ) from err
        _guard(p, q, step_count, tau, times, ps, qs, "pathwise")
        times.append(tau)
        ps.append(p)
        qs.append(q)
    drift_to(times[-1], T)
    return Trajectory(np.array(times), np.array(ps), np.array(qs), "pathwise")


def write_trajectory_csv(trajectory, file_path):
    """Write a trajectory as CSV with header ``t,p1..pn,q1..qn``."""
    n = trajectory.n
    header = ",".join(
        ["t"] + [f"p{i + 1}" for i in range(n)] + [f"q{i + 1}" for i in range(n)]
    )
    rows = []
    for j in range(len(trajectory)):
        row = [fmt(trajectory.times[j])]
        row.extend(fmt(x) for x in trajectory.ps[j])
        row.extend(fmt(x) for x in trajectory.qs[j])
        rows.append(row)
    write_csv(file_path, header, rows)
