"""Jump mappings: unit-time flow of the mark-scaled Hamiltonian field.

A jump with marks R_1..R_m moves the state along the auxiliary ODE

    d xi_P / ds = - sum_r sigma_r(xi) R_r
    d xi_Q / ds = + sum_r gamma_r(xi) R_r

from s = 0 to s = 1, which applies the jump through the system's own
geometry instead of adding the raw increment. Simultaneous marks on
several channels are combined into the single summed field above rather
than applied one channel at a time; the two differ when the channel
fields do not commute.

The flow is integrated with the classical 4th-order Runge-Kutta method
using a fixed number of equal substeps (default 16). Accuracy scales as
(total angle)^5 / substeps^4 on rotation-like fields, so the default is
far below the integrators' own error for realistic mark sizes; raise
``substeps`` when feeding unusually large marks.

Internally the flow runs on lanes: (B, n) states with one mark vector
per lane, so the jump-adapted driver applies the k-th jump of many
paths in one call; ``jump_flow`` is the one-lane case.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, DomainError
from .hamiltonian import PhaseState, _kubo_rotation

__all__ = ["jump_flow", "kubo_jump_closed_form"]

DEFAULT_SUBSTEPS = 16


def _make_field(system, channels, marks):
    # marks is (B, m); every lane drives exactly the given channels
    if len(channels) == 1:
        # single-channel fast path; this is the almost-sure case since
        # simultaneous jumps on distinct channels have probability zero
        r = channels[0]
        R = marks[:, r - 1 : r]
        neg = -R
        sig = system.sigma[r]
        gam = system.gamma[r]

        def field(p, q):
            return neg * sig(p, q), R * gam(p, q)

        return field

    terms = [(system.sigma[r], system.gamma[r], marks[:, r - 1 : r]) for r in channels]

    def field(p, q):
        fp = np.zeros(p.shape)
        fq = np.zeros(p.shape)
        for sig, gam, R in terms:
            fp -= sig(p, q) * R
            fq += gam(p, q) * R
        return fp, fq

    return field


def _rk4(system, p, q, marks, channels, substeps):
    if not channels:
        return p, q, None
    field = _make_field(system, channels, marks)
    failed = None
    h = 1.0 / substeps
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(substeps):
        kp1, kq1 = field(p, q)
        kp2, kq2 = field(p + half * kp1, q + half * kq1)
        kp3, kq3 = field(p + half * kp2, q + half * kq2)
        kp4, kq4 = field(p + h * kp3, q + h * kq3)
        p = p + sixth * (kp1 + 2.0 * (kp2 + kp3) + kp4)
        q = q + sixth * (kq1 + 2.0 * (kq2 + kq3) + kq4)
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            if failed is None:
                failed = np.full(len(p), -1)
            bad = ~(np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1))
            failed[bad & (failed < 0)] = k
            if (failed >= 0).all():
                break
    return p, q, failed


def _flow_raw(system, p, q, marks, substeps):
    """Jump flow of B lanes: (B, n) states, (B, m) marks, one row each.

    Each lane's result equals its own run alone bit for bit: lanes are
    grouped by which channels their marks drive, and a lane with no
    nonzero mark is returned unchanged. Returns (p, q, failed), where
    failed is None or, per lane, the first substep that produced a
    non-finite state (-1 for lanes that stayed finite).
    """
    active = marks != 0.0
    if (active == active[0]).all():
        return _rk4(system, p, q, marks, (np.flatnonzero(active[0]) + 1).tolist(), substeps)
    p = p.copy()
    q = q.copy()
    failed = np.full(len(p), -1)
    for pattern in np.unique(active, axis=0):
        lanes = np.flatnonzero((active == pattern).all(axis=1))
        channels = (np.flatnonzero(pattern) + 1).tolist()
        p[lanes], q[lanes], bad = _rk4(system, p[lanes], q[lanes], marks[lanes], channels, substeps)
        if bad is not None:
            failed[lanes] = bad
    return p, q, (failed if (failed >= 0).any() else None)


def _flow_error(substep):
    return DivergenceError(
        f"jump flow produced a non-finite state at substep {substep}", step=substep
    )


def jump_flow(system, state, marks, substeps=DEFAULT_SUBSTEPS):
    """Apply one jump: integrate the mark-scaled field over unit time.

    Parameters
    ----------
    system : HamiltonianSystem
    state : PhaseState
        Pre-jump state xi(0).
    marks : array_like
        One mark per channel, length m (marks[r-1] drives channel r).
    substeps : int
        Number of equal Runge-Kutta steps across s in [0, 1].

    Returns
    -------
    PhaseState
        xi(1), the post-jump state.
    """
    if not (type(substeps) is int and substeps >= 1):
        raise DomainError(f"substeps must be an integer >= 1, got {substeps!r}")
    marks = np.atleast_1d(np.asarray(marks, dtype=float))
    if marks.shape != (system.m,):
        raise DomainError(f"marks must have length m={system.m}, got shape {marks.shape}")
    if not np.all(np.isfinite(marks)):
        raise DomainError("marks must be finite")
    p, q, failed = _flow_raw(system, state.p[None], state.q[None], marks[None], substeps)
    if failed is not None:
        raise _flow_error(int(failed[0]))
    return PhaseState(p[0], q[0])


def kubo_jump_closed_form(params, state, mark):
    """Exact Kubo jump map: rotation by beta*mark.

    Serves as the oracle for jump_flow on the Kubo system, where the
    jump field is the rotation generator scaled by beta.
    """
    return PhaseState(*_kubo_rotation(params, state.p, state.q, 0.0, mark))
