"""Manipulability measure and the singularity-avoidance cost.

The measure is ``lambda = sqrt(det(J J^T))``, the product of the singular
values of the task Jacobian; it is proportional to the volume of the
velocity ellipsoid traced by unit joint rates.  The avoidance cost is the
log-ratio ``ln(lambda_max / lambda)`` whose Jacobian, conveniently, drops
the leading ``lambda`` factor of the raw gradient and therefore stays
well scaled across the orders of magnitude lambda spans on a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .kinematics import JacobianSet, KinematicChain, geometric_jacobian, jacobian_partials

__all__ = [
    "SIGMA_MIN",
    "LAMBDA_FLOOR",
    "SingularityCostParams",
    "Classification",
    "ManipulabilityGradient",
    "SingularityCost",
    "manipulability",
    "manipulability_gradient",
    "singularity_cost",
    "singularity_cost_value",
    "classify_configuration",
    "likelihood",
    "estimate_lambda_max",
]

# Singular values are clamped at SIGMA_MIN inside (J J^T)^-1 and lambda at
# LAMBDA_FLOOR inside the log, so cost and gradient stay finite at (and
# can pull away from) exact singularities.
SIGMA_MIN = 1e-6
LAMBDA_FLOOR = 1e-9


class Classification(Enum):
    NEARLY_SINGULAR = "S"
    NOT_NEARLY_SINGULAR = "S_bar"


@dataclass(frozen=True)
class SingularityCostParams:
    """Parameters of the log-ratio avoidance cost.

    ``sigma_sbar`` is the variance of the scalar residual (a covariance,
    not a standard deviation).
    """

    lambda_max: float
    sigma_sbar: float

    def __post_init__(self) -> None:
        if self.sigma_sbar <= 0.0:
            raise ValueError("sigma_sbar must be positive")
        if not LAMBDA_FLOOR < self.near_singular_threshold < self.lambda_max:
            raise ValueError("lambda_max must be finite and exceed 100 * LAMBDA_FLOOR")

    @property
    def near_singular_threshold(self) -> float:
        """1% of ``lambda_max``: the diagnostic classifier's, never the optimization's."""
        return 0.01 * self.lambda_max


class ManipulabilityGradient(NamedTuple):
    values: np.ndarray  # d lambda / d theta, length n
    degenerate: bool  # True when singular values were clamped


class SingularityCost(NamedTuple):
    h: float
    gradient: np.ndarray  # d h / d theta, length n
    degenerate: bool


def _checked(J) -> np.ndarray:
    """``J`` as an m x n Jacobian, or a (..., m, n) stack of them, with m <= n and finite entries."""
    J = np.asarray(J, dtype=float)
    if J.ndim < 2:
        raise ValueError(f"Jacobian must be a matrix, got shape {J.shape}")
    m, n = J.shape[-2:]
    if m > n:
        raise ValueError(f"task dimension {m} exceeds joint count {n}; JJ^T would be rank deficient by construction")
    if not np.all(np.isfinite(J)):
        raise ValueError("Jacobian contains non-finite values")
    return J


def manipulability(J):
    """Yoshikawa measure ``sqrt(det(J J^T))`` of an m x n Jacobian, m <= n;
    an array of measures for a (..., m, n) stack.

    Computed as the product of singular values (never through the
    determinant of the Gram matrix, which underflows near singularities).
    Returns 0 for rank-deficient ``J``.
    """
    J = _checked(J)
    lam = np.prod(np.linalg.svd(J, compute_uv=False), axis=-1)
    return float(lam) if J.ndim == 2 else lam


def _gram_lambda(jset: JacobianSet):
    """The λ half of :func:`_gram_terms`: ``(lam, degenerate, svd)``, the
    measure and the degeneracy flag from the SVD ``svd = (U, s, V^T)`` of
    ``jset.jacobian``, which :func:`_gram_traces` continues from."""
    u, s, vh = np.linalg.svd(jset.jacobian, full_matrices=False)
    return np.prod(s, axis=-1), s[..., -1] < SIGMA_MIN, (u, s, vh)


def _gram_traces(jset: JacobianSet, svd) -> np.ndarray:
    """The trace half of :func:`_gram_terms`, from the SVD that
    :func:`_gram_lambda` took of ``jset.jacobian``."""
    u, s, vh = svd
    weights = (u * (s / np.maximum(s, SIGMA_MIN) ** 2)[..., None, :]) @ vh
    return 2.0 * jset.contract(weights)


def _gram_terms(chain: KinematicChain, q, task_dim: int):
    """SVD-side quantities shared by the gradient and the log cost.

    Returns ``(lam, traces, degenerate)`` where ``traces[k]`` is
    ``Tr((JJ^T)^-1 (dJ_k J^T + J dJ_k^T)) = 2 <W, dJ_k>`` with singular
    values clamped at ``SIGMA_MIN`` inside the inverse: ``W = (JJ^T)^-1 J
    = U diag(s / max(s, SIGMA_MIN)^2) V^T`` from the SVD ``J = U S V^T``,
    contracted with the Jacobian derivatives in O(n); arrays over a (K, n)
    stack ``q``.
    """
    jset = jacobian_partials(chain, q, task_dim)
    lam, degenerate, svd = _gram_lambda(jset)
    traces = _gram_traces(jset, svd)
    if lam.ndim == 0:
        return float(lam), traces, bool(degenerate)
    return lam, traces, degenerate


def manipulability_gradient(chain: KinematicChain, q, task_dim: int = 6) -> ManipulabilityGradient:
    """Analytic gradient of the manipulability measure.

    Per joint j: ``(lambda/2) Tr((JJ^T)^-1 (dJ_j J^T + J dJ_j^T))``, with
    the Jacobian derivatives of :func:`jacobian_partials` contracted in
    O(n).  Near a singularity the clamped inverse keeps the value finite
    and the result is flagged degenerate.  Takes a (K, n) stack like
    :func:`singularity_cost`.
    """
    lam, traces, degenerate = _gram_terms(chain, q, task_dim)
    return ManipulabilityGradient(values=0.5 * np.expand_dims(lam, -1) * traces, degenerate=degenerate)


def _log_ratio(lam, params: SingularityCostParams):
    """``ln(lambda_max / lambda)`` with ``lambda`` clamped at the floor: a
    float for one measure, an array for an array of them."""
    h = np.log(params.lambda_max / np.maximum(lam, LAMBDA_FLOOR))
    return float(h) if np.ndim(h) == 0 else h


def singularity_cost(chain: KinematicChain, q, params: SingularityCostParams, task_dim: int = 6) -> SingularityCost:
    """Log-ratio avoidance cost ``h = ln(lambda_max / lambda)`` and its gradient.

    The gradient is ``-(1/2) Tr((JJ^T)^-1 (dJ_j J^T + J dJ_j^T))``: the
    ``lambda`` of the raw manipulability gradient cancels against the
    ``1/lambda`` of the log, so it is never multiplied in.  ``lambda`` is
    clamped at ``LAMBDA_FLOOR`` inside the log.  Of a (K, n) stack ``q``,
    every field is an array over the stack.
    """
    lam, traces, degenerate = _gram_terms(chain, q, task_dim)
    return SingularityCost(h=_log_ratio(lam, params), gradient=-0.5 * traces, degenerate=degenerate)


def singularity_cost_value(
    chain: KinematicChain,
    q,
    params: SingularityCostParams,
    task_dim: int = 6,
):
    """The cost of :func:`singularity_cost` without its gradient (skips
    the Jacobian joint derivatives): a float for one configuration, a (K,)
    array for a (K, n) stack.  ``lambda`` comes from the same SVD call as
    in :func:`singularity_cost`, so the two costs agree bit for bit."""
    s = np.linalg.svd(_checked(geometric_jacobian(chain, q, task_dim)), full_matrices=False)[1]
    return _log_ratio(np.prod(s, axis=-1), params)


def classify_configuration(lam: float, params: SingularityCostParams) -> Classification:
    """Diagnostic label: nearly singular iff lambda is strictly below the threshold."""
    if lam < 0.0:
        raise ValueError("manipulability cannot be negative")
    if lam < params.near_singular_threshold:
        return Classification.NEARLY_SINGULAR
    return Classification.NOT_NEARLY_SINGULAR


def likelihood(h: float, sigma_sbar: float) -> float:
    """Gaussian-shaped likelihood ``exp(-h^2 / (2 sigma))`` of not being nearly singular."""
    if sigma_sbar <= 0.0:
        raise ValueError("sigma_sbar must be positive")
    return math.exp(-0.5 * h * h / sigma_sbar)


# Configurations per batched Jacobian in estimate_lambda_max.
LAMBDA_MAX_CHUNK = 10_000


def estimate_lambda_max(
    chain: KinematicChain,
    task_dim: int = 6,
    num_samples: int = 100_000,
    seed: int = 0,
    joint_range: tuple[float, float] = (-math.pi, math.pi),
) -> float:
    """Estimate the robot's manipulability ceiling by uniform sampling.

    Draws ``num_samples`` configurations uniformly in ``joint_range`` and
    returns the largest measure seen.  Model files cache the result so
    planning runs never pay for it.
    """
    lo, hi = joint_range
    samples = np.random.default_rng(seed).uniform(lo, hi, (num_samples, chain.n))
    best = 0.0
    for start in range(0, num_samples, LAMBDA_MAX_CHUNK):
        chunk = samples[start : start + LAMBDA_MAX_CHUNK]
        best = max(best, float(manipulability(geometric_jacobian(chain, chunk, task_dim)).max()))
    return best
