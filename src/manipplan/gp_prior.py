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

Both are Kronecker products of 2x2 kernels, ``Phi~ ⊗ I_n`` and ``Q~ ⊗ Qc``
(Barfoot, Tong & Särkkä, RSS 2014), so ``Qc`` cancels from the blends,
``Lambda = Lambda~ ⊗ I_n`` and ``Psi = Psi~ ⊗ I_n``, and with ``Qc = qc I_n``
the whitening is ``W~ ⊗ I_n/√qc``: a trajectory is one (N, 2n) array
whose rows the kernels act on as (2, n) position and velocity halves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrajectoryState",
    "SupportTrajectory",
    "GpPriorError",
    "transition",
    "segment_kernels",
    "blend_kernels",
    "blend",
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

    def as_vector(self) -> np.ndarray:
        """Stacked ``[theta; theta_dot]`` of length 2n."""
        return np.concatenate([self.position, self.velocity])


class GpPriorError(NamedTuple):
    residual: np.ndarray  # Phi(dt) x_i - x_j, length 2n
    jac_i: np.ndarray  # Phi(dt)
    jac_j: np.ndarray  # -I
    info_sqrt: np.ndarray  # W with W^T W = Q(dt)^-1


def transition(dt: float, n: int) -> np.ndarray:
    """State transition ``Phi(dt)`` of the constant-velocity model."""
    return np.kron([[1.0, dt], [0.0, 1.0]], np.eye(n))


def _kernels(*entries: np.ndarray) -> np.ndarray:
    """2x2 kernels (..., 2, 2) from their four row-major entries (...)."""
    entries = np.broadcast_arrays(*entries)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def segment_kernels(dt) -> tuple[np.ndarray, np.ndarray]:
    """Kernels ``Phi~`` and ``W~`` (..., 2, 2) over ``dt`` (...), ``W~``
    the inverse Cholesky factor of ``Q~(dt)``."""
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0.0):
        raise ValueError(f"states out of order: dt = {dt}")
    root = np.sqrt(dt)
    return _kernels(1.0, dt, 0.0, 1.0), _kernels(np.sqrt(3.0) / (dt * root), 0.0, -3.0 / (dt * root), 2.0 / root)


def blend_kernels(t_i, t_j, tau) -> tuple[np.ndarray, np.ndarray]:
    """Kernels ``(Lambda~, Psi~)`` (..., 2, 2) of the blends at ``t_i <=
    tau <= t_j`` (...): ``Psi = Q(a) Phi(b)^T Q(T)^-1`` and ``Lambda =
    Phi(a) - Psi Phi(T)`` in closed form in the offsets ``a = tau - t_i``,
    ``b = t_j - tau`` and ``T = t_j - t_i``; exactly ``(I, 0)`` at ``t_i``
    and ``(0, I)`` at ``t_j``."""
    t_i, t_j, tau = (np.asarray(v, dtype=float) for v in (t_i, t_j, tau))
    if not np.all(t_i < t_j):
        raise ValueError(f"states out of order: dt = {t_j - t_i}")
    if not np.all((t_i <= tau) & (tau <= t_j)):
        raise ValueError(f"interpolation time {tau} outside segment [{t_i}, {t_j}]")
    a, b, span = tau - t_i, t_j - tau, t_j - t_i
    span2, span3 = span * span, span * span * span
    lam = _kernels(b * b * (b + 3.0 * a) / span3, a * b * b / span2, -6.0 * a * b / span3, b * (b - 2.0 * a) / span2)
    psi = _kernels(a * a * (a + 3.0 * b) / span3, -a * a * b / span2, 6.0 * a * b / span3, a * (a - 2.0 * b) / span2)
    return lam, psi


def blend(weights: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """A kernel row (..., S) applied to the (..., S, n) position and velocity
    halves of one state or two, added left to right elementwise, so a stack
    gives the same bits as each of its entries."""
    out = weights[..., 0, None] * halves[..., 0, :]
    for s in range(1, weights.shape[-1]):
        out = out + weights[..., s, None] * halves[..., s, :]
    return out


def whitened_transition(dt: float, n: int, qc: float) -> tuple[np.ndarray, np.ndarray]:
    """``Phi(dt)`` and the whitening ``W = W~ ⊗ I_n/√qc``, so that ``W^T W = Q(dt)^-1``."""
    return transition(dt, n), np.kron(segment_kernels(dt)[1], np.eye(n) / np.sqrt(qc))


def gp_prior_error(x_i: TrajectoryState, x_j: TrajectoryState, qc: float) -> GpPriorError:
    """Prior residual between consecutive support states.

    The residual ``Phi(dt) x_i - x_j`` vanishes exactly on constant
    velocity motion; ``info_sqrt`` whitens it by the square root of
    ``Q(dt)^-1`` so the squared norm is the Mahalanobis distance.
    """
    n = len(x_i.position)
    phi, info_sqrt = whitened_transition(x_j.time - x_i.time, n, qc)
    residual = phi @ x_i.as_vector() - x_j.as_vector()
    return GpPriorError(residual=residual, jac_i=phi, jac_j=-np.eye(2 * n), info_sqrt=info_sqrt)


def interpolation_matrices(t_i: float, t_j: float, tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Blend matrices ``(Lambda, Psi)`` with ``x_tau = Lambda x_i + Psi x_j``:
    the Kronecker products of :func:`blend_kernels` with ``I_n``."""
    lam, psi = blend_kernels(t_i, t_j, tau)
    eye = np.eye(n)
    return np.kron(lam, eye), np.kron(psi, eye)


def interpolate(
    x_i: TrajectoryState, x_j: TrajectoryState, tau: float
) -> tuple[TrajectoryState, np.ndarray, np.ndarray]:
    """Posterior mean state at ``tau`` given the two bracketing support states.

    Also returns ``(Lambda, Psi)`` so factor Jacobians evaluated at the
    interpolated state can be chained back onto both neighbours.
    """
    lam, psi = blend_kernels(x_i.time, x_j.time, tau)
    halves = np.stack([x_i.position, x_i.velocity, x_j.position, x_j.velocity])
    position, velocity = blend(np.concatenate([lam, psi], axis=-1), halves)
    return TrajectoryState(position, velocity, tau), *interpolation_matrices(x_i.time, x_j.time, tau, len(x_i.position))


@dataclass(frozen=True)
class SupportTrajectory:
    """Support states ``x`` (N, 2n), rows ``[theta; theta_dot]``, at
    uniformly spaced knot ``times`` (N,), both kept as read-only copies.
    ``n_interp`` records how many interpolated evaluation points per
    segment the planning problem uses (0 = costs on support states only).
    """

    times: np.ndarray
    x: np.ndarray
    n_interp: int = 0

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        x = np.array(self.x, dtype=float)
        shapes_ok = times.ndim == 1 and len(times) >= 2 and x.ndim == 2 and len(x) == len(times)
        if not (shapes_ok and x.size and x.shape[1] % 2 == 0):
            raise ValueError(f"need (N,) times and (N, 2n) states, N >= 2, n >= 1; got {times.shape}, {x.shape}")
        if self.n_interp < 0:
            raise ValueError("n_interp cannot be negative")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(x))):
            raise ValueError("trajectory contains non-finite values")
        steps = np.diff(times)
        if np.any(steps <= 0.0):
            raise ValueError("support times must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("support times must be uniformly spaced")
        times.flags.writeable = x.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "x", x)

    @property
    def num_states(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1] // 2

    @property
    def states(self) -> tuple[TrajectoryState, ...]:
        """The support states as :class:`TrajectoryState` views, built on each access."""
        return tuple(TrajectoryState(row[: self.n], row[self.n :], float(t)) for t, row in zip(self.times, self.x))

    def with_vector(self, x: np.ndarray) -> "SupportTrajectory":
        """Same knot times and n_interp, states replaced from a flat vector."""
        return replace(self, x=np.reshape(x, self.x.shape))


def init_trajectory(start, horizon: float, num_states: int, n_interp: int = 0) -> SupportTrajectory:
    """Stationary prior trajectory: every support state at the start
    configuration with zero velocity, knots uniform on [0, horizon]."""
    start = np.asarray(start, dtype=float).reshape(-1)
    x = np.tile(np.concatenate([start, np.zeros_like(start)]), (num_states, 1))
    return SupportTrajectory(times=np.linspace(0.0, horizon, num_states), x=x, n_interp=n_interp)
