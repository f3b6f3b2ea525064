"""Hamiltonian system descriptions and the Kubo oscillator oracle.

A system in this package is the separable-coefficient form

    dP = -sigma_0(P,Q) dt - sum_r sigma_r(P,Q) (jump increments)
    dQ = +gamma_0(P,Q) dt + sum_r gamma_r(P,Q) (jump increments)

where sigma_r = dH_r/dQ and gamma_r = dH_r/dP for Hamiltonians H_r,
r = 0..m (r = 0 is the drift, r = 1..m the noise channels). Systems are
built from caller-supplied pure evaluators; a finite-difference check
(gradient_defect) guards the gradient identities.

The Kubo oscillator (n = 1) is the package's exactly solvable instance:
its solution is a rotation by angle alpha*t + beta*L(t), which makes it
the oracle behind most tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSpecError

__all__ = [
    "PhaseState",
    "HamiltonianSystem",
    "KuboParams",
    "kubo_system",
    "kubo_exact",
    "hamiltonian_value",
    "gradient_defect",
]


@dataclass(frozen=True)
class PhaseState:
    """Momentum/position pair; both are length-n float vectors."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float, copy=True).reshape(-1)
        q = np.array(self.q, dtype=float, copy=True).reshape(-1)
        if p.size < 1 or p.size != q.size:
            raise DomainError(f"p and q must have equal length >= 1, got {p.size} and {q.size}")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise DomainError("phase-space entries must be finite")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self):
        return self.p.size

    def as_vector(self):
        """Concatenated (p, q) vector of length 2n."""
        return np.concatenate([self.p, self.q])

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 2 != 0:
            raise DomainError("vector must be 1-D with even length")
        n = vec.size // 2
        return cls(vec[:n], vec[n:])


@dataclass(frozen=True)
class HamiltonianSystem:
    """Coefficient evaluators sigma_r, gamma_r and Hamiltonians H_r, r = 0..m.

    Every evaluator takes lanes: p and q are (B, n) arrays, one state per
    row, and a single state is B = 1. Row b of a result may depend only
    on row b of p and q, as in elementwise numpy expressions such as
    ``lambda p, q: alpha * q``; a wrong result shape raises DomainError.

    Parameters
    ----------
    n : int
        Degrees of freedom.
    m : int
        Noise channel count (entries 1..m of the evaluator tuples).
    sigma, gamma : tuple of callables
        Each maps (B, n) to (B, n); sigma[r] must be dH_r/dQ and
        gamma[r] must be dH_r/dP.
    hamiltonians : tuple of callables
        Each maps (B, n) to (B,).
    monitored : callable or None
        Optional invariant, (B, n) to (B,), reported by the analysis
        module when no index is given (the Kubo system monitors
        (P^2+Q^2)/2).
    jump_maps : tuple of callables or None
        Optional exact jump maps, one per channel: jump_maps[r-1] maps
        (p, q, R), with (B, n) lanes and a (B, 1) mark column R, to the
        (p, q) lanes at time 1 of the flow of channel r's field scaled by
        R. The jump-adapted drivers apply it to every jump instant whose
        marks drive channel r alone; instants that drive several channels,
        and every jump of a system without maps, take the RK4 flow (see
        ``marcus``). The Kubo system's map is the rotation by beta*R.
    separable : bool
        True declares that every sigma_r, r = 0..m, depends on Q alone
        (H_r = T_r(P) + V_r(Q)), so the symplectic Euler momentum is
        explicit and the kernel skips the fixed-point solve. A false
        declaration yields the explicit-momentum map, not symplectic
        Euler. Default False; the Kubo system declares True.
    """

    n: int
    m: int
    sigma: tuple
    gamma: tuple
    hamiltonians: tuple
    monitored: object = None
    jump_maps: object = None
    separable: bool = False

    def __post_init__(self):
        if not (type(self.n) is int and self.n >= 1):
            raise InvalidSpecError(f"n must be an integer >= 1, got {self.n!r}")
        if not (type(self.m) is int and self.m >= 0):
            raise InvalidSpecError(f"m must be an integer >= 0, got {self.m!r}")
        for name, evaluators in (("sigma", self.sigma), ("gamma", self.gamma), ("hamiltonians", self.hamiltonians)):
            if len(evaluators) != self.m + 1:
                raise InvalidSpecError(f"{name} must have m+1 = {self.m + 1} entries, got {len(evaluators)}")
            if not all(callable(f) for f in evaluators):
                raise InvalidSpecError(f"{name} entries must be callable")
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "hamiltonians", tuple(self.hamiltonians))
        if self.monitored is not None and not callable(self.monitored):
            raise InvalidSpecError("monitored must be callable or None")
        if self.jump_maps is not None:
            if not isinstance(self.jump_maps, (tuple, list)):
                raise InvalidSpecError(f"jump_maps must be None or a tuple, got {self.jump_maps!r}")
            if len(self.jump_maps) != self.m:
                raise InvalidSpecError(
                    f"jump_maps must have m = {self.m} entries, got {len(self.jump_maps)}")
            if not all(callable(f) for f in self.jump_maps):
                raise InvalidSpecError("jump_maps entries must be callable")
            object.__setattr__(self, "jump_maps", tuple(self.jump_maps))
        if type(self.separable) is not bool:
            raise InvalidSpecError(f"separable must be True or False, got {self.separable!r}")


@dataclass(frozen=True)
class KuboParams:
    """Kubo oscillator constants: drift rate alpha, noise coupling beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise InvalidSpecError(f"{name} must be a finite real, got {value!r}")


def kubo_system(params):
    """The Kubo oscillator as a HamiltonianSystem (n = 1, m = 1).

    Coefficients: sigma_0 = alpha*Q, gamma_0 = alpha*P, sigma_1 = beta*Q,
    gamma_1 = beta*P, from H_0 = alpha*(P^2+Q^2)/2 and
    H_1 = beta*(P^2+Q^2)/2. The monitored invariant is (P^2+Q^2)/2, the
    jump map is the exact rotation by beta*R, and the system is separable:
    sigma_0 and sigma_1 ignore P, so a symplectic step takes one sweep.
    """
    alpha = float(params.alpha)
    beta = float(params.beta)

    def radius2(p, q):
        # float_power is C pow, which rounds like float(x) ** 2; x * x and
        # x ** 2 differ from it in the last bit on some doubles
        return np.float_power(p[:, 0], 2.0) + np.float_power(q[:, 0], 2.0)

    return HamiltonianSystem(
        n=1,
        m=1,
        sigma=(lambda p, q: alpha * q, lambda p, q: beta * q),
        gamma=(lambda p, q: alpha * p, lambda p, q: beta * p),
        hamiltonians=(lambda p, q: 0.5 * alpha * radius2(p, q),
                      lambda p, q: 0.5 * beta * radius2(p, q)),
        monitored=lambda p, q: 0.5 * radius2(p, q),
        jump_maps=(lambda p, q, R: _kubo_rotation(params, p, q, 0.0, R),),
        separable=True,
    )


def _kubo_rotation(params, p, q, t, L_t):
    """(p, q) rotated by alpha*t + beta*L_t; t and L_t may be (B, 1) columns for (B, n) lanes."""
    theta = params.alpha * t + params.beta * L_t
    c, s = np.cos(theta), np.sin(theta)
    return p * c - q * s, p * s + q * c


def kubo_exact(params, initial, t, L_t):
    """Exact Kubo solution: rotate the initial state by alpha*t + beta*L(t).

    Returns PhaseState(p*cos(theta) - q*sin(theta), p*sin(theta) + q*cos(theta)).
    The rotation preserves p^2 + q^2 exactly, which is what makes this
    the oracle for energy and convergence tests.
    """
    return PhaseState(*_kubo_rotation(params, initial.p, initial.q, t, L_t))


def _hamiltonian_lanes(system, r, p, q):
    """H_r, or the monitored invariant for r = None, at each row of (B, n) lanes, as (B,)."""
    if r is None:
        if system.monitored is None:
            raise DomainError("system registers no monitored invariant")
        evaluate = system.monitored
    elif isinstance(r, int) and not isinstance(r, bool) and 0 <= r <= system.m:
        evaluate = system.hamiltonians[r]
    else:
        raise DomainError(f"Hamiltonian index {r!r} outside 0..{system.m}")
    values = np.asarray(evaluate(p, q), dtype=float)
    if values.shape != (len(p),):
        raise DomainError(f"Hamiltonian evaluators must map (B, n) lanes to (B,), got "
                          f"shape {values.shape} from lanes of shape {p.shape}")
    return values


def hamiltonian_value(system, r, state):
    """Evaluate H_r at a state; r = None selects the monitored invariant."""
    return float(_hamiltonian_lanes(system, r, state.p[None], state.q[None])[0])


def gradient_defect(system, state, step=1e-5):
    """Worst relative mismatch between coefficients and H_r gradients.

    Central finite differences of H_r with the given step are compared
    against sigma_r (the Q-gradient) and gamma_r (the P-gradient) for
    every r; the relative scale is max(1, |coefficient|) so states with
    vanishing gradients do not inflate the measure.
    """
    p = np.asarray(state.p, dtype=float)[None]
    q = np.asarray(state.q, dtype=float)[None]
    worst = 0.0
    for r in range(system.m + 1):
        sig = np.asarray(system.sigma[r](p, q), dtype=float)[0]
        gam = np.asarray(system.gamma[r](p, q), dtype=float)[0]
        for i in range(system.n):
            d = np.zeros((1, system.n))
            d[0, i] = step
            h = _hamiltonian_lanes(
                system, r, np.concatenate([p, p, p + d, p - d]), np.concatenate([q + d, q - d, q, q])
            )
            fd_q = (h[0] - h[1]) / (2.0 * step)
            fd_p = (h[2] - h[3]) / (2.0 * step)
            worst = max(worst, abs(fd_q - sig[i]) / max(1.0, abs(sig[i])))
            worst = max(worst, abs(fd_p - gam[i]) / max(1.0, abs(gam[i])))
    return worst
