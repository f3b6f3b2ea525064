"""Error norms, order fits, energy series, and symplecticity checks.

The mean-square error of a batch of phase-space differences is the
square root of the mean squared Euclidean norm. Convergence order is
the slope of an ordinary least-squares line through (log dt, log error).
Symplecticity of a one-step map is measured through the defect
``J^T Jc J - Jc`` of its finite-difference Jacobian, reported in the
spectral norm.

Both run on lanes: ``_jacobian_lanes`` steps the perturbed copies of B
states in one kernel call and returns (B, 2n, 2n) Jacobians, with the
lowest failing state's error instead of raising it, and
``_defect_lanes`` takes the defects of a (B, 2n, 2n) stack in one
batched SVD. ``one_step_jacobian`` and ``symplectic_defect`` are their
B = 1 cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import fmt, write_csv
from .errors import DomainError
from .hamiltonian import _hamiltonian_lanes
from .integrators import _one_step, _stalled

__all__ = [
    "OrderFit",
    "ms_error",
    "estimate_order",
    "reference_residual",
    "hamiltonian_series",
    "one_step_jacobian",
    "symplectic_defect",
    "write_order_fit_csv",
]

FD_STEP = 1e-6


@dataclass(frozen=True)
class OrderFit:
    """Least-squares fit of log(error) against log(dt).

    residual is the largest absolute deviation of the data from the
    fitted line, in log space.
    """

    dts: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    residual: float

    def __post_init__(self):
        dts = np.asarray(self.dts, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        if dts.ndim != 1 or dts.size < 3 or errors.shape != dts.shape:
            raise DomainError("dts and errors must be 1-D of equal length >= 3")
        if not (np.all(dts > 0) and np.all(errors > 0)):
            raise DomainError("dts and errors must be positive")
        object.__setattr__(self, "dts", dts)
        object.__setattr__(self, "errors", errors)


def ms_error(differences):
    """Root mean squared Euclidean norm over a batch of difference vectors."""
    diffs = np.atleast_2d(np.asarray(differences, dtype=float))
    if diffs.size == 0:
        raise DomainError("differences must be non-empty")
    if not np.all(np.isfinite(diffs)):
        raise DomainError("differences must be finite")
    return float(np.sqrt(np.mean(np.sum(diffs * diffs, axis=-1))))


def estimate_order(dts, errors):
    """Fit log(error) = slope*log(dt) + intercept by ordinary least squares."""
    dts, errors = np.asarray(dts, dtype=float), np.asarray(errors, dtype=float)
    if dts.ndim != 1 or dts.size < 3:
        raise DomainError("need at least 3 step sizes")
    if errors.shape != dts.shape:
        raise DomainError("dts and errors must have equal length")
    if not (np.all(dts > 0) and np.all(errors > 0)):
        raise DomainError("dts and errors must be positive for a log-log fit")
    if np.unique(dts).size < 2:
        raise DomainError("need at least 2 distinct step sizes for a fit")
    log_dt, log_err = np.log(dts), np.log(errors)
    slope, intercept = np.polyfit(log_dt, log_err, 1)
    residual = float(np.max(np.abs(log_err - (slope * log_dt + intercept))))
    return OrderFit(dts, errors, float(slope), float(intercept), residual)


def reference_residual(fit, slope=0.5):
    """Max log deviation from the best line of a prescribed slope.

    The intercept is chosen to minimize the same max-deviation metric,
    so the result measures how far the data departs from an exact
    power law of the given order.
    """
    log_dt = np.log(fit.dts)
    log_err = np.log(fit.errors)
    centered = log_err - slope * log_dt
    intercept = 0.5 * (np.max(centered) + np.min(centered))
    return float(np.max(np.abs(centered - intercept)))


def hamiltonian_series(system, trajectory, r=None):
    """Energy along a trajectory as an (N, 2) array of (time, value)."""
    values = _hamiltonian_lanes(system, r, trajectory.ps, trajectory.qs)
    return np.column_stack([trajectory.times, values])


def _jacobian_lanes(system, scheme, p, q, dt, dl, step=FD_STEP):
    """Central finite-difference Jacobians of one step from each of B states.

    p and q are (B, n), dt is (B,) and dl (B, m). The 2·2n perturbed
    copies of every state take one step together, as lanes of one
    kernel call, so each Jacobian is that of the state alone, bit for bit
    wherever the kernel's lanes are (see ``integrators._step_lanes``).
    Returns (jacobians, failure). failure is None, or (b, error) for the
    lowest-index state b whose step fails, with the error
    one_step_jacobian raises for b alone: the stall of its lowest stalled
    copy, else non-finite entries. jacobians is (b, 2n, 2n), of the
    states before the failing one, or (B, 2n, 2n) of all of them.
    """
    x0 = np.hstack([p, q])
    states, dim = x0.shape
    copies = 2 * dim
    # copies 2k and 2k + 1 of a state move its coordinate k by +step and -step
    x = np.repeat(x0[:, None, :], copies, axis=1)
    k = np.arange(dim)
    x[:, 2 * k, k] += step
    x[:, 2 * k + 1, k] -= step
    x = x.reshape(-1, dim)
    n = dim // 2
    p1, q1, stalled = _one_step(system, scheme, x[:, :n], x[:, n:], dt, dl)
    out = np.hstack([p1, q1]).reshape(states, copies, dim)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    first = bad[0] if bad.size else states
    failure = None
    if stalled is not None and stalled[0][0] // copies <= first:
        first = stalled[0][0] // copies
        failure = (first, _stalled(float(stalled[1][0])))
    elif bad.size:
        failure = (first, DomainError("phase-space entries must be finite"))
    # only finite states are differenced
    out = out[:first]
    return ((out[:, 0::2] - out[:, 1::2]) / (2.0 * step)).swapaxes(1, 2), failure


def one_step_jacobian(system, scheme, state, dt, dL, step=FD_STEP):
    """Central finite-difference Jacobian of one step of a scheme.

    Coordinates are ordered (p_1..p_n, q_1..q_n); column k differentiates
    with respect to the k-th coordinate of the input state. This is the
    B = 1 case of the lane Jacobians.
    """
    x0 = state.as_vector()
    n = x0.size // 2
    dL = np.atleast_1d(np.asarray(dL))
    jac, failure = _jacobian_lanes(system, scheme, x0[None, :n], x0[None, n:], [dt], dL[None], step)
    if failure is not None:
        raise failure[1]
    return jac[0]


def _defect_lanes(jacobians):
    """Spectral norms of J^T Jc J - Jc over a (B, 2n, 2n) stack, as (B,)."""
    n = jacobians.shape[-1] // 2
    eye = np.eye(n)
    jc = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    defect = np.swapaxes(jacobians, -1, -2) @ jc @ jacobians - jc
    return np.linalg.svd(defect, compute_uv=False).max(-1)


def symplectic_defect(jacobian):
    """Spectral norm of J^T Jc J - Jc where Jc = ((0, I), (-I, 0))."""
    jac = np.asarray(jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise DomainError("jacobian must be a square matrix")
    dim = jac.shape[0]
    if dim % 2 != 0 or dim == 0:
        raise DomainError(f"jacobian dimension must be even and positive, got {dim}")
    return float(_defect_lanes(jac[None])[0])


def write_order_fit_csv(fit, file_path):
    """CSV with per-dt rows and a trailing slope,intercept,residual line."""
    lines = [
        ",".join([fmt(dt), fmt(err), fmt(math.log(dt)), fmt(math.log(err))])
        for dt, err in zip(fit.dts, fit.errors)
    ]
    trailer = "slope,intercept,residual\n" + ",".join(
        [fmt(fit.slope), fmt(fit.intercept), fmt(fit.residual)]
    )
    write_csv(file_path, "dt,ms_error,log_dt,log_error", lines, trailer=trailer)
