"""Jump mappings: unit-time flow of the mark-scaled Hamiltonian field.

A jump with marks R_1..R_m moves the state along the auxiliary ODE

    d xi_P / ds = - sum_r sigma_r(xi) R_r
    d xi_Q / ds = + sum_r gamma_r(xi) R_r

from s = 0 to s = 1, which applies the jump through the system's own
geometry instead of adding the raw increment. Simultaneous marks on
several channels are combined into the single summed field above rather
than applied one channel at a time; the two differ when the channel
fields do not commute.

A system may give that flow exactly for each channel alone
(``HamiltonianSystem.jump_maps``; the Kubo system's is the rotation by
beta*R, exactly symplectic). The jump-adapted driver applies
``jump_maps[r-1]`` to every jump instant whose marks drive channel r
alone, in one call for all such lanes, and fails a lane whose result is
not finite as a flow that failed at substep 0. Instants that drive
several channels, every jump of a system without maps, and ``jump_flow``
at any count take the Runge-Kutta flow below.

The flow is integrated with the classical 4th-order Runge-Kutta method
in equal substeps. Accuracy scales as (total angle)^5 / substeps^4 on
rotation-like fields. ``jump_flow`` takes a fixed number of substeps
(default 16); raise ``substeps`` when feeding unusually large marks.
The jump-adapted driver gives each jump its own count by step doubling:
it runs N = 1 and 2 substeps, then 4, ..., and keeps the first 2N
result whose estimated error |y_N - y_2N| / 15 (max norm) is at most
``_JUMP_TOL`` = 1e-9 times max(1, |y_2N|) (Richardson's error estimate
for a 4th-order method; Hairer, Norsett and Wanner, Solving ODEs I,
II.4). It tries 2N only while 4N < the cap ``DEFAULT_SUBSTEPS`` = 16
(so 2N = 2 and 4): the runs up to 2N take 4N - 1 substeps, so a
larger 2N would save little where it is met and cost much where it is
not. A jump that meets the tolerance at none of them, whose estimate
was not finite, or whose runs below the cap warn, raise or meet a
floating-point event takes exactly the cap, the fixed-count map, so
each jump warns and fails as ``jump_flow`` at its count. Only the cap
run checks each substep for a non-finite state, to name the first.
In an unchecked window of the driver's pass, which runs again checked
on any noise, the runs below the cap leave their noise to the pass's
recorder. At the default model a jump takes 2 or 4 substeps, not 16.

One call serves many lanes: every try runs every lane from their shared
first stage, and two masks over the call's lanes hold each outcome,
still trying or met; an accepted lane's row is written in place, and
the lanes that never met the tolerance take the cap together. Noise in
a call of several lanes (it may come from a lane already met) names no
lane, so each lane still trying then starts over alone.

Internally the flow runs on lanes: (B, n) states with one mark vector
per lane, so the jump-adapted driver applies the waiting jumps of many
paths in one call, whichever jump of its path each is; ``jump_flow`` is
the one-lane case.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ._noise import Recording
from .errors import DivergenceError, DomainError
from .hamiltonian import PhaseState, kubo_system

__all__ = ["jump_flow", "kubo_jump_closed_form", "DEFAULT_SUBSTEPS"]

DEFAULT_SUBSTEPS = 16
# the step-doubling tolerance of the jump-adapted driver's jumps
_JUMP_TOL = 1e-9

# ndarray.all and .max without their Python-level wrappers: (array, axis) -> the same results
_all, _max = np.logical_and.reduce, np.maximum.reduce


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


def _rk4(field, p, q, substeps, first=None, checked=True):
    """`substeps` equal RK4 steps of `field` over unit time: (p, q, failed).

    first, if given, is field(p, q). failed is None or, if checked, per
    lane the first substep that produced a non-finite state (-1 for lanes
    that stayed finite); an unchecked run carries such a state to the end.
    """
    failed = None
    h = 1.0 / substeps
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(substeps):
        kp1, kq1 = field(p, q) if k or first is None else first
        kp2, kq2 = field(p + half * kp1, q + half * kq1)
        kp3, kq3 = field(p + half * kp2, q + half * kq2)
        kp4, kq4 = field(p + h * kp3, q + h * kq3)
        p = p + sixth * (kp1 + 2.0 * (kp2 + kp3) + kp4)
        q = q + sixth * (kq1 + 2.0 * (kq2 + kq3) + kq4)
        if checked and not (_all(np.isfinite(p), None) and _all(np.isfinite(q), None)):
            if failed is None:
                failed = np.full(len(p), -1)
            bad = ~(np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1))
            failed[bad & (failed < 0)] = k
            if (failed >= 0).all():
                break
    return p, q, failed


def _flow(system, p, q, marks, channels, substeps, tol, watched=False):
    """The flow of lanes that drive the same channels: (p, q, failed) as from _rk4.

    With tol None every lane takes `substeps` substeps. With a tol, lanes
    of one channel of a system with jump maps take that channel's map;
    otherwise each lane takes the first 2N = 2, 4, ... with 4N <
    `substeps` whose step-doubling estimate meets tol (see the module
    docstring), and the others exactly `substeps`. Every try runs every lane from the shared
    first stage; two masks keep the outcomes: `met`, the lanes whose rows
    of out_p, out_q hold an accepted try, and `trying`, the lanes still
    doubling. The runs below the cap go unchecked and issue no noise (see
    _noise.Recording). A lane whose estimate is not finite stops trying,
    and the lanes that never met tol take the cap, whose run is checked
    and as noisy as jump_flow's. Noise in a call of several lanes names
    none of them, so then each lane still trying starts over alone.
    If `watched`, the caller records this call's noise and runs it again
    unwatched on any, so the runs below the cap share its recorder.
    """
    if not channels:
        return p, q, None
    if tol is not None and system.jump_maps is not None and len(channels) == 1:
        r = channels[0]  # the channel's exact map; a non-finite lane fails as at substep 0
        p, q = system.jump_maps[r - 1](p, q, marks[:, r - 1 : r])
        if _all(np.isfinite(p), None) and _all(np.isfinite(q), None):
            return p, q, None
        return p, q, np.where(_all(np.isfinite(p), 1) & _all(np.isfinite(q), 1), -1, 0)
    field = _make_field(system, channels, marks)
    if tol is None:
        return _rk4(field, p, q, substeps)
    n, met, trying = 1, np.False_, np.True_  # one flag for every lane until a lane misses tol
    try:
        with nullcontext([]) if watched else Recording() as noise:
            while 4 * n < substeps and trying.any():
                if n == 1:
                    first = field(p, q)
                    coarse_p, coarse_q, _ = _rk4(field, p, q, 1, first, checked=False)
                n *= 2
                fine_p, fine_q, _ = _rk4(field, p, q, n, first, checked=False)
                if noise:
                    break
                with np.errstate(all="ignore"):  # a non-finite estimate ends its lane's tries
                    err = _max(np.maximum(np.abs(coarse_p - fine_p), np.abs(coarse_q - fine_q)), 1)
                    size = _max(np.maximum(np.abs(fine_p), np.abs(fine_q)), 1)
                    ok = trying & (err / 15.0 <= tol * np.maximum(size, 1.0))
                if n == 2:
                    if _all(ok):  # every lane met tol at 2 substeps, clean: no bookkeeping
                        return fine_p, fine_q, None
                    out_p, out_q = fine_p, fine_q  # the rows of the lanes that met tol
                else:
                    out_p[ok], out_q[ok] = fine_p[ok], fine_q[ok]
                met, trying = met | ok, trying & ~ok & np.isfinite(err)
                coarse_p, coarse_q = fine_p, fine_q
        noisy = bool(noise)
    except Exception:  # an evaluator raised below the cap; the cap run raises it, or not
        noisy = True
    if met is np.False_:  # no try got as far as its estimate
        out_p, out_q, met = np.empty_like(p), np.empty_like(q), np.zeros(len(p), bool)
    failed, cap = np.full(len(p), -1), ~met
    if noisy and len(p) > 1:
        for b in np.flatnonzero(cap & trying):
            alone = slice(b, b + 1)
            out_p[alone], out_q[alone], bad = _flow(system, p[alone], q[alone], marks[alone],
                                                    channels, substeps, tol, watched)
            failed[alone] = -1 if bad is None else bad
        cap &= ~trying
    if cap.any():
        field = _make_field(system, channels, marks[cap])
        out_p[cap], out_q[cap], bad = _rk4(field, p[cap], q[cap], substeps)
        if bad is not None:
            failed[cap] = bad
    return out_p, out_q, (failed if (failed >= 0).any() else None)


def _flow_raw(system, p, q, marks, substeps, tol=None, watched=False):
    """Jump flow of B lanes: (B, n) states, (B, m) marks, one row each.

    Each lane takes `substeps` substeps, or with a tol its own
    step-doubling count capped at `substeps` (see _flow, also for
    `watched`). Each lane's result equals its own run alone bit for bit:
    lanes are grouped by which channels their marks drive, and a lane with
    no nonzero mark is returned unchanged. Returns (p, q, failed), where
    failed is None or, per lane, the first substep that produced a
    non-finite state (-1 for lanes that stayed finite).
    """
    if marks.shape[1] == 1 and _all(marks, None):  # one channel, driven on every lane
        return _flow(system, p, q, marks, [1], substeps, tol, watched)
    active = marks != 0.0
    p = p.copy()
    q = q.copy()
    failed = np.full(len(p), -1)
    for pattern in np.unique(active, axis=0):
        lanes = np.flatnonzero((active == pattern).all(axis=1))
        channels = (np.flatnonzero(pattern) + 1).tolist()
        p[lanes], q[lanes], bad = _flow(system, p[lanes], q[lanes], marks[lanes], channels,
                                        substeps, tol, watched)
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

    The one-state case of ``kubo_system(params).jump_maps[0]``, which the
    jump-adapted driver applies to Kubo jumps; the oracle for jump_flow on
    the Kubo system, where the jump field is the rotation generator scaled
    by beta.
    """
    mark = np.asarray(mark, dtype=float).reshape(1, 1)
    p, q = kubo_system(params).jump_maps[0](state.p[None], state.q[None], mark)
    return PhaseState(p[0], q[0])
