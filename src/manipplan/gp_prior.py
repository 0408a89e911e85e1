"""Constant-velocity Gaussian-process trajectory prior.

The trajectory is a sample from the white-noise-on-acceleration LTV-SDE:
the Markov state is ``x = [theta; theta_dot]``, the transition over ``dt``
is ``Phi(dt) = [[I, dt I], [0, I]]`` and the accumulated process noise is

    Q(dt) = [[dt^3/3 Qc, dt^2/2 Qc],
             [dt^2/2 Qc, dt    Qc]].

Because the process is Markov, the state at any time between two support
states is a linear blend ``x_tau = Lambda x_i + Psi x_j`` of its
neighbours, which lets cost factors attach to interpolated states and
back-propagate their gradients to the optimized ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrajectoryState",
    "GpPriorParams",
    "SupportTrajectory",
    "GpPriorError",
    "transition",
    "process_noise",
    "process_noise_inv",
    "whitened_transition",
    "gp_prior_error",
    "interpolation_matrices",
    "interpolate",
    "init_trajectory",
]


@dataclass(frozen=True)
class TrajectoryState:
    """Joint positions and velocities at one time, the GP Markov state."""

    position: np.ndarray
    velocity: np.ndarray
    time: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float).reshape(-1)
        vel = np.asarray(self.velocity, dtype=float).reshape(-1)
        if pos.shape != vel.shape:
            raise ValueError(f"position/velocity length mismatch: {pos.shape} vs {vel.shape}")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ValueError("trajectory state contains non-finite values")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @property
    def n(self) -> int:
        return self.position.shape[0]

    def as_vector(self) -> np.ndarray:
        """Stacked ``[theta; theta_dot]`` of length 2n."""
        return np.concatenate([self.position, self.velocity])

    @classmethod
    def from_vector(cls, x: np.ndarray, time: float) -> "TrajectoryState":
        n = x.shape[0] // 2
        return cls(position=x[:n], velocity=x[n:], time=time)


@dataclass(frozen=True)
class GpPriorParams:
    """Power-spectral density ``Qc`` (n x n, symmetric positive definite)."""

    qc: np.ndarray

    def __post_init__(self) -> None:
        qc = np.asarray(self.qc, dtype=float)
        if qc.ndim != 2 or qc.shape[0] != qc.shape[1]:
            raise ValueError(f"Qc must be square, got {qc.shape}")
        if np.abs(qc - qc.T).max() > 1e-12:
            raise ValueError("Qc must be symmetric")
        try:
            np.linalg.cholesky(qc)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Qc must be positive definite") from exc
        object.__setattr__(self, "qc", qc)

    @classmethod
    def isotropic(cls, n: int, scale: float) -> "GpPriorParams":
        return cls(qc=scale * np.eye(n))

    @property
    def n(self) -> int:
        return self.qc.shape[0]

    @property
    def state_dim(self) -> int:
        return 2 * self.qc.shape[0]


class GpPriorError(NamedTuple):
    residual: np.ndarray  # Phi(dt) x_i - x_j, length 2n
    jac_i: np.ndarray  # Phi(dt)
    jac_j: np.ndarray  # -I
    info_sqrt: np.ndarray  # W with W^T W = Q(dt)^-1


def transition(dt: float, n: int) -> np.ndarray:
    """State transition ``Phi(dt)`` of the constant-velocity model."""
    phi = np.eye(2 * n)
    phi[:n, n:] = dt * np.eye(n)
    return phi


def process_noise(dt: float, params: GpPriorParams) -> np.ndarray:
    """Accumulated process-noise covariance ``Q(dt)``; positive definite for dt > 0."""
    qc = params.qc
    n = params.n
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = (dt**3 / 3.0) * qc
    out[:n, n:] = (dt**2 / 2.0) * qc
    out[n:, :n] = out[:n, n:]
    out[n:, n:] = dt * qc
    return out


def process_noise_inv(dt: float, params: GpPriorParams) -> np.ndarray:
    """Closed-form ``Q(dt)^-1`` (block inverse of the dt-polynomial kernel)."""
    qc_inv = np.linalg.inv(params.qc)
    n = params.n
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = (12.0 / dt**3) * qc_inv
    out[:n, n:] = (-6.0 / dt**2) * qc_inv
    out[n:, :n] = out[:n, n:]
    out[n:, n:] = (4.0 / dt) * qc_inv
    return out


def whitened_transition(dt: float, params: GpPriorParams) -> tuple[np.ndarray, np.ndarray]:
    """``Phi(dt)`` and the whitening ``W = L^-1`` of ``Q(dt) = L L^T``, so
    that ``W^T W = Q(dt)^-1``."""
    if dt <= 0.0:
        raise ValueError(f"states out of order: dt = {dt}")
    chol = np.linalg.cholesky(process_noise(dt, params))
    return transition(dt, params.n), np.linalg.solve(chol, np.eye(params.state_dim))


def gp_prior_error(x_i: TrajectoryState, x_j: TrajectoryState, params: GpPriorParams) -> GpPriorError:
    """Prior residual between consecutive support states.

    The residual ``Phi(dt) x_i - x_j`` vanishes exactly on constant
    velocity motion; ``info_sqrt`` whitens it by the square root of
    ``Q(dt)^-1`` so the squared norm is the Mahalanobis distance.
    """
    phi, info_sqrt = whitened_transition(x_j.time - x_i.time, params)
    residual = phi @ x_i.as_vector() - x_j.as_vector()
    return GpPriorError(residual=residual, jac_i=phi, jac_j=-np.eye(params.state_dim), info_sqrt=info_sqrt)


def interpolation_matrices(
    t_i: float, t_j: float, tau: float, params: GpPriorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Blend matrices ``(Lambda, Psi)`` with ``x_tau = Lambda x_i + Psi x_j``.

    ``Psi = Q(tau-t_i) Phi(t_j-tau)^T Q(t_j-t_i)^-1`` and ``Lambda =
    Phi(tau-t_i) - Psi Phi(t_j-t_i)``; at ``tau = t_i`` they reduce to
    ``(I, 0)`` and at ``tau = t_j`` to ``(0, I)``.
    """
    dt = t_j - t_i
    if dt <= 0.0:
        raise ValueError(f"states out of order: dt = {dt}")
    if not t_i <= tau <= t_j:
        raise ValueError(f"interpolation time {tau} outside segment [{t_i}, {t_j}]")
    n = params.n
    q_tau = process_noise(tau - t_i, params)
    psi = q_tau @ transition(t_j - tau, n).T @ process_noise_inv(dt, params)
    lam = transition(tau - t_i, n) - psi @ transition(dt, n)
    return lam, psi


def interpolate(
    x_i: TrajectoryState, x_j: TrajectoryState, tau: float, params: GpPriorParams
) -> tuple[TrajectoryState, np.ndarray, np.ndarray]:
    """Posterior mean state at ``tau`` given the two bracketing support states.

    Also returns ``(Lambda, Psi)`` so factor Jacobians evaluated at the
    interpolated state can be chained back onto both neighbours.
    """
    lam, psi = interpolation_matrices(x_i.time, x_j.time, tau, params)
    x_tau = lam @ x_i.as_vector() + psi @ x_j.as_vector()
    return TrajectoryState.from_vector(x_tau, tau), lam, psi


@dataclass(frozen=True)
class SupportTrajectory:
    """Support states at uniformly spaced knot times.

    ``n_interp`` records how many interpolated evaluation points per
    segment the planning problem uses (0 = costs on support states only).
    """

    states: tuple[TrajectoryState, ...]
    n_interp: int = 0

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if len(states) < 2:
            raise ValueError("trajectory needs at least two support states")
        if self.n_interp < 0:
            raise ValueError("n_interp cannot be negative")
        times = np.array([s.time for s in states])
        steps = np.diff(times)
        if np.any(steps <= 0.0):
            raise ValueError("support times must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("support times must be uniformly spaced")

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def n(self) -> int:
        return self.states[0].n

    @property
    def dt(self) -> float:
        return self.states[1].time - self.states[0].time

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def as_vector(self) -> np.ndarray:
        """All states stacked into one flat decision vector."""
        return np.concatenate([s.as_vector() for s in self.states])

    def with_vector(self, x: np.ndarray) -> "SupportTrajectory":
        """Same knot times and n_interp, states replaced from a flat vector."""
        dim = 2 * self.n
        states = tuple(
            TrajectoryState.from_vector(x[k * dim : (k + 1) * dim], s.time)
            for k, s in enumerate(self.states)
        )
        return replace(self, states=states)


def init_trajectory(start, horizon: float, num_states: int, n_interp: int = 0) -> SupportTrajectory:
    """Stationary prior trajectory: every support state at the start
    configuration with zero velocity, knots uniform on [0, horizon]."""
    start = np.asarray(start, dtype=float)
    if num_states < 2:
        raise ValueError("need at least two support states")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    times = np.linspace(0.0, horizon, num_states)
    zero = np.zeros_like(start)
    states = tuple(TrajectoryState(position=start.copy(), velocity=zero.copy(), time=float(t)) for t in times)
    return SupportTrajectory(states=states, n_interp=n_interp)
