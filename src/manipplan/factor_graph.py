"""Factor graph over trajectory states and its nonlinear least-squares solver.

Every factor is a stack of K blocks of the same shape.  Each block is a
whitened residual (premultiplied by the square root of its inverse
covariance) over one state or two consecutive states, with its Jacobian
with respect to them, so the MAP problem is the standard sum of squared
residuals.  Besides the start prior and the GP prior over all segments
there is one cost factor type, :class:`ConfigurationFactor`: a residual
of K joint configurations taken at knots or at GP-interpolated states
between two knots, whose Jacobian is chained through the interpolation
blend matrices so gradient information from extra states reaches the
decision variables.  Each factor's cost runs once over all its
configurations.

Because no block spans more than two consecutive states, ``J^T J`` is
block tridiagonal (the exactly sparse GP structure).  The solver
accumulates it straight into banded storage and runs Gauss-Newton or
Levenberg-Marquardt on the banded Cholesky factorization, at a cost
linear in the number of states.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from . import gp_prior as gp
from .collision import CollisionParams, collision_residual
from .kinematics import KinematicChain, point_jacobian, point_position
from .manipulability import SingularityCostParams, singularity_cost, singularity_cost_value

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "FactorKind",
    "Factor",
    "StartPriorFactor",
    "GpPriorFactor",
    "ConfigurationFactor",
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

# (q (K, n), with_jacobian) -> (r (K, d), dr_dq (K, d, n)); see ConfigurationFactor.
ConfigCost = Callable[..., tuple[np.ndarray, np.ndarray | None]]


class FactorKind(Enum):
    START_PRIOR = "start_prior"
    GP_PRIOR = "gp_prior"
    SINGULARITY = "singularity"
    INTERP_SINGULARITY = "interpolated_singularity"
    COLLISION = "collision"
    INTERP_COLLISION = "interpolated_collision"
    GOAL_POSITION = "goal_position"


class Factor:
    """K whitened residual blocks, each over one state or two consecutive ones.

    Subclasses set ``kind``, ``states`` (a (K, width) array of consecutive
    support-state indices, width 1 or 2), ``dim`` (residual length per
    block), and implement :meth:`evaluate`.
    """

    kind: FactorKind
    states: np.ndarray
    dim: int

    def evaluate(self, x: np.ndarray, with_jacobians: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Whitened residuals (K, dim) and Jacobians (K, dim, width * 2n)
        at the (N, 2n) support states ``x``; pass ``with_jacobians=False``
        to skip derivative work when only the cost is needed."""
        raise NotImplementedError


def _weight(sigma: float) -> float:
    if sigma <= 0.0:
        raise ValueError("covariance must be positive")
    return 1.0 / math.sqrt(sigma)


@dataclass
class StartPriorFactor(Factor):
    """Pins the first state (position and velocity) with a tight prior."""

    state: int
    prior: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        self.kind = FactorKind.START_PRIOR
        self.states = np.array([[self.state]])
        self.prior = np.asarray(self.prior, dtype=float)
        self.dim = self.prior.shape[0]
        self._w = _weight(self.sigma)

    def evaluate(self, x, with_jacobians=True):
        r = self._w * (x[self.states[0]] - self.prior)
        return r, (self._w * np.eye(self.dim)[None] if with_jacobians else None)


@dataclass
class GpPriorFactor(Factor):
    """Constant-velocity GP prior ``W (Phi x_i - x_j)`` over every segment
    between support states at ``times``, linear with Jacobian ``[W~ Phi~, -W~] ⊗ Lc^-1``."""

    times: np.ndarray
    params: gp.GpPriorParams

    def __post_init__(self) -> None:
        self.kind = FactorKind.GP_PRIOR
        self.states = np.arange(len(self.times) - 1)[:, None] + np.arange(2)
        self.dim = self.params.state_dim
        phi, w = gp.segment_kernels(np.diff(self.times))
        self._kernel = np.concatenate([w @ phi, -w], axis=-1)
        self._whitening = self.params.whitening
        self._jac = np.kron(self._kernel, self._whitening)

    def evaluate(self, x, with_jacobians=True):
        halves = x[self.states].reshape(len(self.states), 1, 4, -1)
        r = gp.blend(self._kernel, halves) @ self._whitening.T
        return r.reshape(len(self.states), -1), (self._jac if with_jacobians else None)


@dataclass
class ConfigurationFactor(Factor):
    """A cost of K joint configurations: the positions of the knots
    ``knots``, or, with the (K, 2, 2) blend kernels ``blend = (Lambda~,
    Psi~)``, of the GP-interpolated states after them.

    ``cost(q, with_jacobian=...)`` maps the (K, n) configurations to the
    unwhitened residuals (K, dim) and their joint-space Jacobians
    (K, dim, n), the latter ignored when ``with_jacobian`` is false.  A
    configuration is ``sum_s c_s h_s`` over its states' halves ``h = (q_i,
    q_dot_i[, q_j, q_dot_j])``, ``c = (1, 0)`` at a knot and the kernels'
    position row otherwise, so its Jacobian is ``[c_s J]``.
    """

    kind: FactorKind
    knots: np.ndarray
    cost: ConfigCost
    dim: int
    sigma: float
    blend: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.knots = np.asarray(self.knots, dtype=int).reshape(-1)
        blend = [np.eye(2)[None]] if self.blend is None else self.blend
        self._coef = np.concatenate([kernel[:, 0] for kernel in blend], axis=-1)
        self.states = self.knots[:, None] + np.arange(self._coef.shape[-1] // 2)
        self._w = _weight(self.sigma)

    def evaluate(self, x, with_jacobians=True):
        halves = x[self.states].reshape(len(self.knots), -1, x.shape[1] // 2)
        r, jac_q = self.cost(gp.blend(self._coef, halves), with_jacobian=with_jacobians)
        if not with_jacobians:
            return self._w * r, None
        jac = self._coef[:, None, :, None] * jac_q[:, :, None, :]
        return self._w * r, self._w * jac.reshape(jac.shape[:2] + (-1,))


def interpolated_blends(times: np.ndarray, n_interp: int):
    """``n_interp`` GP-interpolated states spaced uniformly strictly inside
    each segment ``[times[i], times[i+1]]``, in time order, as arrays:
    their segments ``i`` (M,), times (M,) and blend kernels ``Lambda~``,
    ``Psi~`` (M, 2, 2) with ``x_tau = (Lambda~ ⊗ I) x_i + (Psi~ ⊗ I) x_{i+1}``."""
    segments = np.repeat(np.arange(len(times) - 1), n_interp)
    steps = np.tile(np.arange(1, n_interp + 1), len(times) - 1)
    t_i, t_j = times[segments], times[segments + 1]
    taus = t_i + (t_j - t_i) * steps / (n_interp + 1)
    if not np.all((t_i < taus) & (taus < t_j)):
        raise ValueError("interpolated states need t_i < tau < t_j")
    return (segments, taus, *gp.blend_kernels(t_i, t_j, taus))


def _block_groups(first: np.ndarray):
    """How linearize sums a factor's blocks per first state ``first`` (K,).

    Returns ``(gather, at, below)``: ``gather`` (G, r) lists the blocks on
    each distinct state in their order, padded with K (a zero block), or is
    ``None`` when the states are distinct and in order; ``at`` and
    ``below`` are the distinct states and the states after them, as slices
    when contiguous.
    """
    order = np.argsort(first, kind="stable")
    at, starts, counts = np.unique(first[order], return_index=True, return_counts=True)
    run = np.repeat(np.arange(at.size), counts)  # the distinct state of each sorted block
    gather = np.full((at.size, counts.max(initial=1)), first.size)
    gather[run, np.arange(first.size) - starts[run]] = order
    if gather.shape[1] == 1 and np.array_equal(order, np.arange(first.size)):
        gather = None
    if at.size and at[-1] - at[0] == at.size - 1:
        return gather, slice(at[0], at[-1] + 1), slice(at[0] + 1, at[-1] + 2)
    return gather, at, at + 1


def _sum_runs(blocks: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Blocks (K, ...) summed along each row of ``gather``, in row order;
    index K is a zero block."""
    return np.concatenate([blocks, np.zeros_like(blocks[:1])])[gather].sum(axis=1)


@dataclass(frozen=True)
class FactorGraph:
    """The MAP problem: factors over ``num_states`` states of size ``state_dim``."""

    factors: tuple[Factor, ...]
    num_states: int
    state_dim: int
    # Per factor, how linearize sums its blocks per first state: see _block_groups.
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        groups = []
        for factor in self.factors:
            states = np.asarray(factor.states)
            if states.ndim != 2 or states.shape[1] not in (1, 2) or np.any(np.diff(states, axis=1) != 1):
                raise ValueError(f"factor {factor.kind} must reference one state or two consecutive ones per block")
            if not np.all((0 <= states) & (states < self.num_states)):
                raise ValueError(f"factor {factor.kind} references a state outside 0..{self.num_states - 1}")
            groups.append(_block_groups(states[:, 0]))
        object.__setattr__(self, "_groups", tuple(groups))

    @property
    def residual_dim(self) -> int:
        return sum(f.dim * len(f.states) for f in self.factors)


def _cost(residuals) -> float:
    """Half the squared norm of residual blocks (K, dim), added up one
    block at a time in factor and block order."""
    halves = [0.5 * (r[:, None, :] @ r[:, :, None]).ravel() for r in residuals]
    # cumsum adds sequentially, unlike the pairwise np.sum.
    return float(np.cumsum(np.concatenate([[0.0], *halves]))[-1])


def total_cost(graph: FactorGraph, trajectory: gp.SupportTrajectory) -> float:
    """Half the squared norm of all whitened residuals (the MAP negative log)."""
    return _cost([factor.evaluate(trajectory.x, with_jacobians=False)[0] for factor in graph.factors])


@lru_cache(maxsize=None)
def _band_layout(num_states: int, dim: int) -> np.ndarray:
    """Where each entry of the LAPACK lower band of a block tridiagonal
    matrix sits in its blocks, stored per state ``s`` as a (2 dim, dim)
    column block (the diagonal block, then the block below it) followed by
    one zero: ``band[r, s dim + j]`` is entry ``(j + r, j)`` of block ``s``,
    or the zero where ``j + r`` leaves it."""
    r, j = np.arange(2 * dim)[:, None], np.arange(dim)
    inside = np.where(j + r < 2 * dim, (j + r) * dim + j, -1)
    layout = np.arange(num_states)[:, None, None] * (2 * dim * dim) + inside
    layout[:, inside < 0] = num_states * 2 * dim * dim
    return layout.transpose(1, 0, 2).reshape(2 * dim, num_states * dim)


def linearize(graph: FactorGraph, trajectory: gp.SupportTrajectory):
    """Accumulate the Gauss-Newton normal equations factor by factor.

    Returns ``(band, gradient, cost)``: ``J^T J`` in LAPACK lower banded
    storage (``band[a - b, b] = (J^T J)[a, b]``), ``J^T r`` and half the
    squared residual norm.  Every block touches one state or two
    consecutive ones, so ``J^T J`` is block tridiagonal and its lower
    half-bandwidth is ``2 * state_dim - 1``.  A factor's blocks on one
    first state are summed in their order, then added to the diagonal
    blocks, the blocks below them and the gradient of the states they
    touch; one gather then lays the blocks out as the band.
    """
    dim, num = graph.state_dim, graph.num_states
    store = np.zeros(num * 2 * dim * dim + 1)
    # Column block s: the diagonal block (s, s) over the block (s + 1, s),
    # so diag = blocks[:, :dim] (N, 2n, 2n) and lower = blocks[:-1, dim:].
    blocks = store[:-1].reshape(num, 2 * dim, dim)
    gradient = np.zeros((num, dim))
    residuals = []
    for factor, (gather, at, below) in zip(graph.factors, graph._groups):
        r, jac = factor.evaluate(trajectory.x)
        jac_t = jac.swapaxes(1, 2)
        normal, jac_r = jac_t @ jac, (jac_t @ r[..., None])[..., 0]
        if gather is not None:
            normal, jac_r = _sum_runs(normal, gather), _sum_runs(jac_r, gather)
        blocks[at, : normal.shape[1]] += normal[..., :dim]
        gradient[at] += jac_r[:, :dim]
        if normal.shape[1] > dim:
            blocks[below, :dim] += normal[:, dim:, dim:]
            gradient[below] += jac_r[:, dim:]
        residuals.append(r)
    return store[_band_layout(num, dim)], gradient.reshape(-1), _cost(residuals)


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
        if not all(0.0 < value < math.inf for value in (self.rel_cost_tol, self.abs_grad_tol, self.lm_init_damping)):
            raise ValueError("solver tolerances must be positive and finite")
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
        return asdict(self)


def _solve_normal(band: np.ndarray, damping: np.ndarray | None, g: np.ndarray) -> np.ndarray | None:
    """Solve ``(A + diag(damping)) x = -g`` for ``A`` in lower banded
    storage by banded Cholesky; ``None`` when the matrix is not finite or
    not positive definite, or the step is not finite."""
    if damping is not None:
        band = band.copy()
        band[0] += damping
    if not np.all(np.isfinite(band)):
        return None
    try:
        chol = cholesky_banded(band, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    step = cho_solve_banded((chol, True), -g, check_finite=False)
    return step if np.all(np.isfinite(step)) else None


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
    if not math.isfinite(total_cost(graph, trajectory)):
        raise ValueError("initial trajectory has non-finite cost")
    band, gradient, cost = linearize(graph, trajectory)
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
                message = "no finite step: normal equations not finite or not positive definite"
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
                # The candidate's linearization carries its cost; an accepted
                # step keeps it, so every candidate is evaluated once.
                candidate = trajectory.with_vector(trajectory.as_vector() + delta)
                new_band, new_gradient, new_cost = linearize(graph, candidate)
                predicted = 0.5 * float(delta @ (mu * scale * delta - gradient))
                if math.isfinite(new_cost) and new_cost < cost and predicted > 0.0:
                    rho = (cost - new_cost) / predicted
            if rho > 0.0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                trajectory, band, gradient, cost = candidate, new_band, new_gradient, new_cost
                trace.append(cost)
                if _converged(trace, float(np.abs(gradient).max()), settings):
                    converged = True
                    message = "cost decrease below tolerance"
                    break
            else:
                # A failed factorization or a non-finite step is a rejected
                # step: more damping makes the system positive definite.
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


@dataclass(frozen=True)
class ChainSingularityCost:
    """The chain's log-manipulability cost as a one-entry configuration cost.

    Without the Jacobian only ``h`` is computed, skipping the Jacobian
    derivative work.
    """

    chain: KinematicChain
    params: SingularityCostParams
    task_dim: int

    def __call__(self, q: np.ndarray, with_jacobian: bool = True):
        if not with_jacobian:
            return singularity_cost_value(self.chain, q, self.params, self.task_dim)[:, None], None
        out = singularity_cost(self.chain, q, self.params, self.task_dim)
        return out.h[:, None], out.gradient[:, None, :]


def goal_position_cost(chain: KinematicChain, goal) -> ConfigCost:
    """End-effector position minus ``goal``, a three-entry configuration cost."""
    goal = np.asarray(goal, dtype=float).reshape(3)
    tool = np.zeros(3)

    def cost(q: np.ndarray, with_jacobian: bool = True):
        if not with_jacobian:
            return point_position(chain, q, chain.n - 1, tool) - goal, None
        p, jac_q = point_jacobian(chain, q, chain.n - 1, tool)
        return p - goal, jac_q

    return cost


def build_graph(scenario: "Scenario", trajectory: gp.SupportTrajectory) -> FactorGraph:
    """Wire a scenario into factors over the given support trajectory.

    Layout: a tight prior on state 0, the GP prior over all segments, and
    (when enabled / present) singularity and collision costs on all
    support states and on all ``n_interp`` interpolated evaluation points
    per segment (one factor each), then the goal position on the final
    state.
    """
    chain = scenario.load_chain()
    n = chain.n
    gp_params = gp.GpPriorParams.isotropic(n, scenario.qc_scale)
    num = trajectory.num_states
    times = trajectory.times

    factors: list[Factor] = [
        StartPriorFactor(state=0, prior=trajectory.x[0], sigma=scenario.sigma_start),
        GpPriorFactor(times=times, params=gp_params),
    ]
    segments, _, lam, psi = interpolated_blends(times, scenario.n_interp)

    def add_cost(knot_kind, interp_kind, cost, dim, sigma):
        factors.append(ConfigurationFactor(knot_kind, np.arange(num), cost, dim, sigma))
        if segments.size:
            factors.append(ConfigurationFactor(interp_kind, segments, cost, dim, sigma, (lam, psi)))

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
        col_params = CollisionParams(epsilon=scenario.epsilon, sigma_obs=scenario.sigma_obs)
        add_cost(
            FactorKind.COLLISION,
            FactorKind.INTERP_COLLISION,
            partial(collision_residual, chain, grid=scenario.build_sdf(), params=col_params),
            len(chain.body_spheres),
            col_params.sigma_obs,
        )

    factors.append(
        ConfigurationFactor(
            FactorKind.GOAL_POSITION, num - 1, goal_position_cost(chain, scenario.goal_position), 3, scenario.sigma_goal
        )
    )
    return FactorGraph(factors=tuple(factors), num_states=num, state_dim=2 * n)
