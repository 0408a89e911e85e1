"""Factor graph over trajectory states and its nonlinear least-squares solver.

Every factor produces a whitened residual (premultiplied by the square
root of its inverse covariance) plus Jacobians with respect to the one or
two consecutive support states it touches, so the MAP problem is the
standard sum of squared residuals.  Besides the start and GP priors there
is one cost factor type, :class:`ConfigurationFactor`: a residual of a
joint configuration taken at a knot or at a GP-interpolated state between
two knots, whose Jacobian is chained through the interpolation blend
matrices so gradient information from extra states reaches the decision
variables.

Because no factor spans more than two consecutive states, ``J^T J`` is
block tridiagonal (the exactly sparse GP structure).  The solver
accumulates it straight into banded storage and runs Gauss-Newton or
Levenberg-Marquardt on the banded Cholesky factorization, at a cost
linear in the number of states.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from . import gp_prior as gp
from .collision import CollisionParams, collision_residual
from .kinematics import KinematicChain, point_jacobian
from .manipulability import SingularityCostParams, singularity_cost, singularity_cost_value

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "FactorKind",
    "Factor",
    "StartPriorFactor",
    "GpPriorFactor",
    "ConfigurationFactor",
    "gp_blend",
    "interpolated_blends",
    "FactorGraph",
    "SolverMethod",
    "SolverSettings",
    "OptimizeReport",
    "total_cost",
    "linearize",
    "optimize",
    "build_graph",
    "ChainSingularityCost",
    "goal_position_cost",
]

# (q, with_jacobian) -> (r, dr_dq); see ConfigurationFactor.
ConfigCost = Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]]


class FactorKind(Enum):
    START_PRIOR = "start_prior"
    GP_PRIOR = "gp_prior"
    SINGULARITY = "singularity"
    INTERP_SINGULARITY = "interpolated_singularity"
    COLLISION = "collision"
    INTERP_COLLISION = "interpolated_collision"
    GOAL_POSITION = "goal_position"


class Factor:
    """Whitened residual over one or two support states.

    Subclasses set ``kind``, ``states`` (connected support-state indices),
    ``dim`` (residual length), and implement :meth:`evaluate` returning
    the whitened residual and one whitened Jacobian per connected state.
    """

    kind: FactorKind
    states: tuple[int, ...]
    dim: int

    def evaluate(
        self, trajectory: gp.SupportTrajectory, with_jacobians: bool = True
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
        """Whitened residual and Jacobians; pass ``with_jacobians=False``
        to skip derivative work when only the cost is needed."""
        raise NotImplementedError


def _weight(sigma: float) -> float:
    if sigma <= 0.0:
        raise ValueError("covariance must be positive")
    return 1.0 / math.sqrt(sigma)


def _position_row_block(jac_q: np.ndarray) -> np.ndarray:
    """Embed a d x n joint-space Jacobian into the d x 2n state layout
    (zeros against the velocity half)."""
    d, n = jac_q.shape
    out = np.zeros((d, 2 * n))
    out[:, :n] = jac_q
    return out


@dataclass
class StartPriorFactor(Factor):
    """Pins the first state (position and velocity) with a tight prior."""

    state: int
    prior: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        self.kind = FactorKind.START_PRIOR
        self.states = (self.state,)
        self.prior = np.asarray(self.prior, dtype=float)
        self.dim = self.prior.shape[0]
        self._w = _weight(self.sigma)

    def evaluate(self, trajectory, with_jacobians=True):
        x = trajectory.states[self.state].as_vector()
        r = self._w * (x - self.prior)
        return r, ((self._w * np.eye(self.dim),) if with_jacobians else None)


@dataclass
class GpPriorFactor(Factor):
    """Constant-velocity GP prior between consecutive support states."""

    i: int
    j: int
    dt: float
    params: gp.GpPriorParams

    def __post_init__(self) -> None:
        self.kind = FactorKind.GP_PRIOR
        self.states = (self.i, self.j)
        self.dim = self.params.state_dim
        self._phi, self._info_sqrt = gp.whitened_transition(self.dt, self.params)
        self._jac_i = self._info_sqrt @ self._phi
        self._jac_j = -self._info_sqrt

    def evaluate(self, trajectory, with_jacobians=True):
        x_i = trajectory.states[self.i].as_vector()
        x_j = trajectory.states[self.j].as_vector()
        r = self._info_sqrt @ (self._phi @ x_i - x_j)
        return r, ((self._jac_i, self._jac_j) if with_jacobians else None)


@dataclass
class ConfigurationFactor(Factor):
    """A cost of one joint configuration: the position of knot ``i``, or,
    with ``blend = (j, Lambda, Psi)``, the position of the GP-interpolated
    state ``Lambda x_i + Psi x_j``.

    ``cost(q, with_jacobian)`` returns the unwhitened residual ``r`` and
    its ``dim x n`` joint-space Jacobian (ignored when ``with_jacobian`` is
    false).  The Jacobian is chained through the blend matrices, so the
    gradient of an interpolated cost lands on both bracketing knots.
    """

    kind: FactorKind
    i: int
    cost: ConfigCost
    dim: int
    sigma: float
    blend: tuple[int, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.states = (self.i,) if self.blend is None else (self.i, self.blend[0])
        self._w = _weight(self.sigma)

    def evaluate(self, trajectory, with_jacobians=True):
        x_i = trajectory.states[self.i]
        if self.blend is None:
            q = x_i.position
        else:
            j, lam, psi = self.blend
            q = (lam @ x_i.as_vector() + psi @ trajectory.states[j].as_vector())[: x_i.n]
        r, jac_q = self.cost(q, with_jacobians)
        if not with_jacobians:
            return self._w * r, None
        block = _position_row_block(jac_q)
        if self.blend is None:
            return self._w * r, (self._w * block,)
        return self._w * r, (self._w * (block @ lam), self._w * (block @ psi))


def gp_blend(j: int, t_i: float, t_j: float, tau: float, gp_params: gp.GpPriorParams):
    """The ``blend`` of a :class:`ConfigurationFactor` at time ``tau``
    strictly inside the segment ``[t_i, t_j]`` that ends at knot ``j``."""
    if not t_i < tau < t_j:
        raise ValueError(f"interpolated factor needs t_i < tau < t_j, got {t_i}, {tau}, {t_j}")
    lam, psi = gp.interpolation_matrices(t_i, t_j, tau, gp_params)
    return j, lam, psi


def interpolated_blends(times: np.ndarray, n_interp: int, gp_params: gp.GpPriorParams):
    """``(i, tau, blend)`` of ``n_interp`` GP-interpolated states spaced
    uniformly strictly inside each segment ``[times[i], times[i+1]]``, in
    time order."""
    return [
        (i, tau, gp_blend(i + 1, float(times[i]), float(times[i + 1]), tau, gp_params))
        for i in range(len(times) - 1)
        for tau in (times[i] + (times[i + 1] - times[i]) * k / (n_interp + 1) for k in range(1, n_interp + 1))
    ]


@dataclass(frozen=True)
class FactorGraph:
    """The MAP problem: factors over ``num_states`` states of size ``state_dim``."""

    factors: tuple[Factor, ...]
    num_states: int
    state_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        for factor in self.factors:
            for s in factor.states:
                if not 0 <= s < self.num_states:
                    raise ValueError(f"factor {factor.kind} references state {s} of {self.num_states}")
            # The banded normal equations rely on this layout.
            if factor.states[1:] not in ((), (factor.states[0] + 1,)):
                raise ValueError(f"factor {factor.kind} must touch one state or two consecutive ones, got {factor.states}")

    @property
    def residual_dim(self) -> int:
        return sum(f.dim for f in self.factors)


def total_cost(graph: FactorGraph, trajectory: gp.SupportTrajectory) -> float:
    """Half the squared norm of all whitened residuals (the MAP negative log)."""
    cost = 0.0
    for factor in graph.factors:
        r, _ = factor.evaluate(trajectory, with_jacobians=False)
        cost += 0.5 * float(r @ r)
    return cost


@lru_cache(maxsize=None)
def _lower_triangle(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Band rows ``a - b`` and columns ``b`` of the lower triangle of a
    ``size x size`` block."""
    rows, cols = np.tril_indices(size)
    return rows - cols, cols


def linearize(graph: FactorGraph, trajectory: gp.SupportTrajectory):
    """Accumulate the Gauss-Newton normal equations factor by factor.

    Returns ``(band, gradient, cost)``: ``J^T J`` in LAPACK lower banded
    storage (``band[a - b, b] = (J^T J)[a, b]``), ``J^T r`` and half the
    squared residual norm.  Every factor touches one state or two
    consecutive ones, so ``J^T J`` is block tridiagonal and its lower
    half-bandwidth is ``2 * state_dim - 1``.
    """
    dim = graph.state_dim
    band = np.zeros((2 * dim, graph.num_states * dim))
    gradient = np.zeros(graph.num_states * dim)
    cost = 0.0
    for factor in graph.factors:
        r, jacs = factor.evaluate(trajectory)
        jac = jacs[0] if len(jacs) == 1 else np.hstack(jacs)
        start = factor.states[0] * dim
        offsets, cols = _lower_triangle(jac.shape[1])
        band[offsets, start + cols] += (jac.T @ jac)[offsets + cols, cols]
        gradient[start : start + jac.shape[1]] += jac.T @ r
        cost += 0.5 * float(r @ r)
    return band, gradient, cost


class SolverMethod(Enum):
    GAUSS_NEWTON = "gauss_newton"
    LEVENBERG_MARQUARDT = "levenberg_marquardt"


@dataclass(frozen=True)
class SolverSettings:
    method: SolverMethod = SolverMethod.LEVENBERG_MARQUARDT
    max_iterations: int = 100
    rel_cost_tol: float = 1e-6
    abs_grad_tol: float = 1e-8
    lm_init_damping: float = 1e-4

    def __post_init__(self) -> None:
        if self.rel_cost_tol <= 0.0 or self.abs_grad_tol <= 0.0 or self.lm_init_damping <= 0.0:
            raise ValueError("solver tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @classmethod
    def from_dict(cls, spec: dict) -> "SolverSettings":
        """Settings from a scenario's "solver" object; absent keys keep the defaults."""
        casts = {
            "method": SolverMethod,
            "max_iterations": int,
            "rel_cost_tol": float,
            "abs_grad_tol": float,
            "lm_init_damping": float,
        }
        return cls(**{key: cast(spec[key]) for key, cast in casts.items() if key in spec})


@dataclass
class OptimizeReport:
    iterations: int
    converged: bool
    cost_trace: list[float]
    final_cost: float
    wall_time_s: float
    grad_inf_norm: float
    method: str
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "cost_trace": self.cost_trace,
            "final_cost": self.final_cost,
            "wall_time_s": self.wall_time_s,
            "grad_inf_norm": self.grad_inf_norm,
            "method": self.method,
            "message": self.message,
        }


def _solve_normal(band: np.ndarray, damping: np.ndarray | None, g: np.ndarray) -> np.ndarray | None:
    """Solve ``(A + diag(damping)) x = -g`` for ``A`` in lower banded
    storage by banded Cholesky; ``None`` when the matrix is not positive
    definite."""
    if damping is not None:
        band = band.copy()
        band[0] += damping
    try:
        chol = cholesky_banded(band, lower=True)
    except np.linalg.LinAlgError:
        return None
    return cho_solve_banded((chol, True), -g)


def _damping_scale(diag: np.ndarray) -> np.ndarray:
    """Marquardt diagonal scaling, clamped so unobserved directions
    (zero curvature) still get regularized."""
    top = diag.max() if diag.size else 1.0
    floor = max(1e-10 * top, 1e-12)
    return np.maximum(diag, floor)


# Cost-decrease convergence looks at the total relative decrease over this
# many accepted steps, so a single cautious damped step cannot end a solve
# that is still grinding down a long valley.
CONVERGENCE_WINDOW = 5


def _converged(trace: list[float], grad_inf: float, settings: SolverSettings) -> bool:
    if grad_inf < settings.abs_grad_tol:
        return True
    if len(trace) <= CONVERGENCE_WINDOW:
        return False
    window = (trace[-1 - CONVERGENCE_WINDOW] - trace[-1]) / max(trace[-1 - CONVERGENCE_WINDOW], 1e-300)
    return window < settings.rel_cost_tol and grad_inf < 10.0 * settings.abs_grad_tol


def optimize(
    graph: FactorGraph,
    init: gp.SupportTrajectory,
    settings: SolverSettings | None = None,
) -> tuple[gp.SupportTrajectory, OptimizeReport]:
    """Solve the MAP problem from an initial trajectory.

    Levenberg-Marquardt (default) only ever accepts cost-decreasing
    steps, so the reported ``cost_trace`` is non-increasing; Gauss-Newton
    takes the plain normal-equation step each iteration.  The result is a
    local optimum; no global claim is made.
    """
    settings = settings or SolverSettings()
    t_start = time.perf_counter()
    trajectory = init
    if graph.num_states != init.num_states or graph.state_dim != 2 * init.n:
        raise ValueError(
            f"graph expects {graph.num_states} states of dim {graph.state_dim}, "
            f"trajectory has {init.num_states} states of dim {2 * init.n}"
        )
    band, gradient, cost = linearize(graph, trajectory)
    if not math.isfinite(cost):
        raise ValueError("initial trajectory has non-finite cost")
    trace = [cost]
    converged = False
    message = "max iterations reached"
    iterations = 0

    if settings.method is SolverMethod.GAUSS_NEWTON:
        while iterations < settings.max_iterations:
            iterations += 1
            grad_inf = float(np.abs(gradient).max())
            if grad_inf < settings.abs_grad_tol:
                converged = True
                message = "gradient tolerance"
                break
            delta = _solve_normal(band, None, gradient)
            if delta is None:
                message = "normal equations not positive definite"
                break
            trajectory = trajectory.with_vector(trajectory.as_vector() + delta)
            band, gradient, cost = linearize(graph, trajectory)
            trace.append(cost)
            if _converged(trace, float(np.abs(gradient).max()), settings):
                converged = True
                message = "cost decrease below tolerance"
                break
    else:
        # Marquardt (relative) damping: mu is dimensionless against diag(A).
        mu = settings.lm_init_damping
        nu = 2.0
        while iterations < settings.max_iterations:
            iterations += 1
            grad_inf = float(np.abs(gradient).max())
            if grad_inf < settings.abs_grad_tol:
                converged = True
                message = "gradient tolerance"
                break
            scale = _damping_scale(band[0])
            delta = _solve_normal(band, mu * scale, gradient)
            rho = 0.0
            if delta is not None:
                candidate = trajectory.with_vector(trajectory.as_vector() + delta)
                new_cost = total_cost(graph, candidate)
                predicted = 0.5 * float(delta @ (mu * scale * delta - gradient))
                if math.isfinite(new_cost) and new_cost < cost and predicted > 0.0:
                    rho = (cost - new_cost) / predicted
            if rho > 0.0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                trajectory = candidate
                cost = new_cost
                trace.append(cost)
                band, gradient, _ = linearize(graph, trajectory)
                if _converged(trace, float(np.abs(gradient).max()), settings):
                    converged = True
                    message = "cost decrease below tolerance"
                    break
            else:
                # A failed factorization is a rejected step: more damping
                # makes the system positive definite.
                mu *= nu
                nu *= 2.0
                if mu > 1e20:
                    # No decreasing step exists anymore: the cost decrease is
                    # zero, which satisfies the cost tolerance by definition.
                    # Stiff factors (1e8-scale weights) can leave a gradient
                    # plateau above the tolerance that no step removes.
                    converged = True
                    message = "damping exhausted (no decreasing step found)"
                    break

    grad_inf = float(np.abs(gradient).max())
    report = OptimizeReport(
        iterations=iterations,
        converged=converged,
        cost_trace=trace,
        final_cost=cost,
        wall_time_s=time.perf_counter() - t_start,
        grad_inf_norm=grad_inf,
        method=settings.method.value,
        message=message,
    )
    return trajectory, report


class ChainSingularityCost:
    """The chain's log-manipulability cost as a one-entry configuration cost.

    Without the Jacobian only ``h`` is computed, skipping the Jacobian
    derivative work.
    """

    def __init__(self, chain: KinematicChain, params: SingularityCostParams, task_dim: int):
        self.chain = chain
        self.params = params
        self.task_dim = task_dim

    def __call__(self, q: np.ndarray, with_jacobian: bool = True):
        if not with_jacobian:
            return np.array([singularity_cost_value(self.chain, q, self.params, self.task_dim)]), None
        out = singularity_cost(self.chain, q, self.params, self.task_dim)
        return np.array([out[0]]), np.asarray(out[1], dtype=float)[None, :]


def goal_position_cost(chain: KinematicChain, goal) -> ConfigCost:
    """End-effector position minus ``goal``, a three-entry configuration cost."""
    goal = np.asarray(goal, dtype=float).reshape(3)
    tool = np.zeros(3)

    def cost(q: np.ndarray, with_jacobian: bool = True):
        p, jac_q = point_jacobian(chain, q, chain.n - 1, tool)
        return p - goal, jac_q

    return cost


def build_graph(scenario: "Scenario", trajectory: gp.SupportTrajectory) -> FactorGraph:
    """Wire a scenario into factors over the given support trajectory.

    Layout: a tight prior on state 0, a GP prior per segment, the goal
    position on the final state, and (when enabled / present) singularity
    and collision costs on every support state plus ``n_interp``
    interpolated evaluation points per segment.
    """
    chain = scenario.load_chain()
    n = chain.n
    gp_params = gp.GpPriorParams.isotropic(n, scenario.qc_scale)
    num = trajectory.num_states
    times = trajectory.times

    factors: list[Factor] = [
        StartPriorFactor(state=0, prior=trajectory.states[0].as_vector(), sigma=scenario.sigma_start)
    ]
    for i in range(num - 1):
        factors.append(GpPriorFactor(i=i, j=i + 1, dt=float(times[i + 1] - times[i]), params=gp_params))
    blends = interpolated_blends(times, scenario.n_interp, gp_params)

    def add_cost(knot_kind, interp_kind, cost, dim, sigma):
        factors.extend(ConfigurationFactor(knot_kind, s, cost, dim, sigma) for s in range(num))
        factors.extend(ConfigurationFactor(interp_kind, i, cost, dim, sigma, blend) for i, _, blend in blends)

    if scenario.enable_singularity_factors:
        cost_params = SingularityCostParams(
            lambda_max=scenario.resolve_lambda_max(chain),
            sigma_sbar=scenario.sigma_sbar,
        )
        add_cost(
            FactorKind.SINGULARITY,
            FactorKind.INTERP_SINGULARITY,
            ChainSingularityCost(chain, cost_params, scenario.task_dim),
            1,
            scenario.sigma_sbar,
        )

    if scenario.obstacles:
        grid = scenario.build_sdf()
        col_params = CollisionParams(epsilon=scenario.epsilon, sigma_obs=scenario.sigma_obs)

        def collision(q, with_jacobian):
            return collision_residual(chain, q, grid, col_params, with_jacobian)

        add_cost(
            FactorKind.COLLISION,
            FactorKind.INTERP_COLLISION,
            collision,
            len(chain.body_spheres),
            col_params.sigma_obs,
        )

    factors.append(
        ConfigurationFactor(
            FactorKind.GOAL_POSITION, num - 1, goal_position_cost(chain, scenario.goal_position), 3, scenario.sigma_goal
        )
    )
    return FactorGraph(factors=tuple(factors), num_states=num, state_dim=2 * n)
