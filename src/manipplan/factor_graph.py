"""Factor graph over trajectory states and its nonlinear least-squares solver.

Every factor is a stack of K blocks of the same shape, whose first
states are consecutive.  Each block is a whitened residual
(premultiplied by the square root of its inverse covariance) over one
state or two consecutive states, with its Jacobian with respect to them,
so the MAP problem is the standard sum of squared residuals.  Besides the
start prior and the GP prior over all segments there is one cost factor
type, :class:`ConfigurationFactor`: a residual of joint configurations,
one block per knot, or one per segment stacking its P GP-interpolated
states, whose Jacobian is chained through the interpolation blend
matrices so gradient information from extra states reaches the decision
variables.  A graph stacks every configuration its cost factors use once
(the knots, then the interpolated states of every segment), runs forward
kinematics once over that stack, and each cost once over its rows.

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
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.linalg import solveh_banded

from . import gp_prior as gp
from .collision import CollisionParams, WorkspaceSdf, collision_residual
from .kinematics import KinematicChain, _as_config, _fk_matrices, point_jacobian
from .manipulability import SingularityCostParams, singularity_cost

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
    "ChainCollisionCost",
    "ChainGoalCost",
]

# q (K, n) -> (r (K, d), dr_dq (K, d, n)); see ConfigurationFactor.  A cost
# with a ``chain`` attribute is called as cost(q, frames) with the frames
# (K, n+1, 4, 4) of q from that chain's forward kinematics.
ConfigCost = Callable[..., tuple[np.ndarray, np.ndarray]]


class FactorKind(Enum):
    START_PRIOR = "start_prior"
    GP_PRIOR = "gp_prior"
    SINGULARITY = "singularity"
    INTERP_SINGULARITY = "interpolated_singularity"
    COLLISION = "collision"
    INTERP_COLLISION = "interpolated_collision"
    GOAL_POSITION = "goal_position"


class Factor:
    """K whitened residual blocks, each over one state or two consecutive
    ones, block k starting at state ``s0 + k``.

    Subclasses set ``kind``, ``states`` (a (K, width) array of consecutive
    support-state indices, width 1 or 2, on consecutive rows), ``dim``
    (residual length per block), and implement :meth:`evaluate`.
    """

    kind: FactorKind
    states: np.ndarray
    dim: int

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whitened residuals (K, dim) and Jacobians (K, dim, width * 2n)
        at the (N, 2n) support states ``x``."""
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

    def evaluate(self, x):
        r = self._w * (x[self.states[0]] - self.prior)
        return r, self._w * np.eye(self.dim)[None]


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

    def evaluate(self, x):
        halves = x[self.states].reshape(len(self.states), 1, 4, -1)
        r = gp.blend(self._kernel, halves) @ self._whitening.T
        return r.reshape(len(self.states), -1), self._jac


@dataclass
class ConfigurationFactor(Factor):
    """A cost of joint configurations: the positions of the K knots
    ``knots``, or, with the (K, P, 2, 2) blend kernels ``blend = (Lambda~,
    Psi~)``, of the P GP-interpolated states of the segment after each.

    ``cost(q)`` maps (M, n) configurations to the unwhitened residuals
    (M, d) and their joint-space Jacobians (M, d, n); see ``ConfigCost``.
    A block stacks the residuals of its P configurations (one at a knot),
    so its length ``dim`` is P d.  A configuration is ``sum_s c_s h_s``
    over its states' halves ``h = (q_i, q_dot_i[, q_j, q_dot_j])``, ``c =
    (1, 0)`` at a knot (the knot's position itself) and the kernels'
    position row otherwise, so its Jacobian is ``[c_s J]``.  A graph
    evaluates all its configuration factors from one stack (see
    :meth:`FactorGraph.evaluate`); :meth:`evaluate` is that step over this
    factor alone.
    """

    kind: FactorKind
    knots: np.ndarray
    cost: ConfigCost
    dim: int
    sigma: float
    blend: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.knots = np.asarray(self.knots, dtype=int).reshape(-1)
        blend = [np.eye(2)[None, None]] if self.blend is None else self.blend
        self._coef = np.concatenate([kernel[..., 0, :] for kernel in blend], axis=-1)  # (K, P, 2 width)
        self.states = self.knots[:, None] + np.arange(self._coef.shape[-1] // 2)
        self._w = _weight(self.sigma)

    def evaluate(self, x):
        return _ConfigurationStack((self,)).evaluate(x)[0]

    def _whiten(self, r: np.ndarray, jac_q: np.ndarray):
        """Whitened blocks from the cost's residuals (K P, d) and Jacobians
        (K P, d, n) at this factor's configurations, in block order."""
        num, n = len(self.knots), jac_q.shape[-1]
        jac_q = jac_q.reshape((num, -1) + jac_q.shape[1:-1] + (1, n))  # (K, P, d, 1, n)
        jac = self._coef[..., None, :, None] * jac_q  # (K, P, d, 2 width, n)
        return self._w * r.reshape(num, -1), self._w * jac.reshape(num, -1, 2 * self.states.shape[1] * n)


def _distinct(arrays) -> np.ndarray:
    """The distinct entries of integer arrays, sorted.  (``np.unique``
    would do, but its first call in a process maps about 0.25 MiB more.)"""
    return np.array(sorted({int(i) for array in arrays for i in array}), dtype=int)


def _index(rows: np.ndarray) -> slice | np.ndarray:
    """Sorted ``rows`` as a slice when they are consecutive, which indexes
    without a copy."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _ConfigurationStack:
    """Configuration factors evaluated from one stack of configurations.

    The stack holds every configuration the factors use once: the knots of
    the knot factors in state order, then, for each distinct interpolation
    (the same first states and blend kernels), its P configurations per
    segment in segment order.  So singularity and collision factors over
    the same states share rows, and the goal's knot is a knot row.  An
    evaluation checks the stack with ``_as_config`` and runs
    ``_fk_matrices`` over it once when a cost has a ``chain`` (all such
    costs must share it), calls each distinct cost once over the rows its
    factors use, and lets each factor whiten its own rows.  The layout is
    fixed here, at construction.
    """

    def __init__(self, factors) -> None:
        self.factors = tuple(factors)
        knots = _distinct(f.knots for f in self.factors if f.blend is None)
        self.knots = _index(knots)
        self.interpolations: list[tuple[np.ndarray, np.ndarray]] = []  # (states, blend coefficients)
        placements: dict[tuple, np.ndarray] = {}
        rows = []  # per factor: its configurations' rows of the stack
        for factor in self.factors:
            if factor.blend is None:
                rows.append(np.searchsorted(knots, factor.knots))
                continue
            key = (factor._coef.shape, factor.states.tobytes(), factor._coef.tobytes())
            if key not in placements:
                start = len(knots) + sum(len(r) for r in placements.values())
                placements[key] = start + np.arange(len(factor.knots) * factor._coef.shape[1])
                self.interpolations.append((factor.states, factor._coef))
            rows.append(placements[key])
        members: dict[int, list[int]] = {}
        for i, factor in enumerate(self.factors):
            members.setdefault(id(factor.cost), []).append(i)
        # Per distinct cost: (cost, its rows of the stack, whether it takes frames);
        # per factor: (its cost's position, its rows of that cost's output).
        self.costs: list[tuple[ConfigCost, slice | np.ndarray, bool]] = []
        self.picks: list[tuple[int, slice | np.ndarray]] = [None] * len(self.factors)
        for group in members.values():
            cost = self.factors[group[0]].cost
            used = _distinct(rows[i] for i in group)
            for i in group:
                self.picks[i] = (len(self.costs), _index(np.searchsorted(used, rows[i])))
            self.costs.append((cost, _index(used), hasattr(cost, "chain")))
        chains = {id(cost.chain): cost.chain for cost, _, framed in self.costs if framed}
        if len(chains) > 1:
            raise ValueError("the configuration costs of one graph must share one kinematic chain")
        self.chain = next(iter(chains.values()), None)

    def evaluate(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each factor's whitened residuals and Jacobians at the (N, 2n)
        states ``x``, in factor order."""
        n = x.shape[1] // 2
        q = np.concatenate(
            [x[self.knots, :n]]
            + [gp.blend(coef, x[states].reshape(len(states), 1, -1, n)).reshape(-1, n) for states, coef in self.interpolations]
        )
        frames = None
        if self.chain is not None:
            q = _as_config(self.chain, q, stack=True)
            frames = _fk_matrices(self.chain, q)
        outputs = [cost(q[rows], frames[rows]) if framed else cost(q[rows]) for cost, rows, framed in self.costs]
        return [
            factor._whiten(*(part[pick] for part in outputs[at]))
            for factor, (at, pick) in zip(self.factors, self.picks)
        ]


def interpolated_blends(times: np.ndarray, n_interp: int):
    """``n_interp`` GP-interpolated states spaced uniformly strictly inside
    each segment ``[times[i], times[i+1]]``, in time order, as arrays per
    segment: their times (N-1, n_interp) and blend kernels ``Lambda~``,
    ``Psi~`` (N-1, n_interp, 2, 2) with ``x_tau = (Lambda~ ⊗ I) x_i +
    (Psi~ ⊗ I) x_{i+1}``."""
    t_i, t_j = times[:-1, None], times[1:, None]
    taus = t_i + (t_j - t_i) * np.arange(1, n_interp + 1) / (n_interp + 1)
    if not np.all((t_i < taus) & (taus < t_j)):
        raise ValueError("interpolated states need t_i < tau < t_j")
    return (taus, *gp.blend_kernels(t_i, t_j, taus))


@dataclass(frozen=True)
class FactorGraph:
    """The MAP problem: factors over ``num_states`` states of size ``state_dim``."""

    factors: tuple[Factor, ...]
    num_states: int
    state_dim: int
    _configurations: _ConfigurationStack = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        for factor in self.factors:
            states = np.asarray(factor.states)
            if (
                states.ndim != 2
                or not len(states)
                or states.shape[1] not in (1, 2)
                or np.any(np.diff(states, axis=1) != 1)
                or np.any(np.diff(states, axis=0) != 1)
            ):
                raise ValueError(
                    f"factor {factor.kind} must reference one state or two consecutive ones per block, "
                    "with consecutive first states"
                )
            if not np.all((0 <= states) & (states < self.num_states)):
                raise ValueError(f"factor {factor.kind} references a state outside 0..{self.num_states - 1}")
        configurations = [f for f in self.factors if isinstance(f, ConfigurationFactor)]
        object.__setattr__(self, "_configurations", _ConfigurationStack(configurations))

    def evaluate(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every factor's whitened residuals and Jacobians (see
        :meth:`Factor.evaluate`) at the (N, 2n) states ``x``, in factor
        order; the configuration factors share one stacked evaluation."""
        configured = iter(self._configurations.evaluate(x))
        return [next(configured) if isinstance(f, ConfigurationFactor) else f.evaluate(x) for f in self.factors]

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
    """Half the squared norm of all whitened residuals (the MAP negative
    log): the cost that :func:`linearize` returns."""
    return _cost([r for r, _ in graph.evaluate(trajectory.x)])


def linearize(graph: FactorGraph, trajectory: gp.SupportTrajectory):
    """Accumulate the Gauss-Newton normal equations factor by factor, from
    one :meth:`FactorGraph.evaluate` (one forward-kinematics pass).

    Returns ``(band, gradient, cost)``: ``J^T J`` in LAPACK lower banded
    storage (``band[a - b, b] = (J^T J)[a, b]``), ``J^T r`` and half the
    squared residual norm.  When the cost is not finite it returns
    ``(None, None, cost)`` before forming any ``J^T J``, whose products
    with infinite residuals would be NaN; a ``J^T J`` that overflows is
    returned non-finite, for the solve to reject.  Every block touches one
    state or two consecutive ones, and a factor's blocks start at
    consecutive states, so ``J^T J`` is block tridiagonal (lower
    half-bandwidth ``2 * state_dim - 1``) and each factor adds to two runs
    of its diagonal blocks, the blocks below them and the gradient.  Column
    ``j`` of state ``s``'s column block is then column ``s dim + j`` of the
    band, shifted up by ``j``: one slice copy per column lays out the band.
    """
    evaluated = graph.evaluate(trajectory.x)
    cost = _cost([r for r, _ in evaluated])
    if not math.isfinite(cost):
        return None, None, cost
    dim, num = graph.state_dim, graph.num_states
    # Column block s: the diagonal block (s, s) over the block (s + 1, s),
    # so diag = blocks[:, :dim] (N, 2n, 2n) and lower = blocks[:-1, dim:].
    blocks = np.zeros((num, 2 * dim, dim))
    gradient = np.zeros((num, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for factor, (r, jac) in zip(graph.factors, evaluated):
            jac_t = jac.swapaxes(1, 2)
            normal, jac_r = jac_t @ jac, (jac_t @ r[..., None])[..., 0]
            first = factor.states[0, 0]
            at, below = slice(first, first + len(r)), slice(first + 1, first + 1 + len(r))
            blocks[at, : normal.shape[1]] += normal[..., :dim]
            gradient[at] += jac_r[:, :dim]
            if normal.shape[1] > dim:
                blocks[below, :dim] += normal[:, dim:, dim:]
                gradient[below] += jac_r[:, dim:]
    band = np.zeros((2 * dim, num, dim))
    for j in range(dim):
        band[: 2 * dim - j, :, j] = blocks[:, j:, j].T
    return band.reshape(2 * dim, num * dim), gradient.reshape(-1), cost


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
    storage by banded Cholesky (LAPACK ``pbsv``); ``None`` when the matrix
    is not finite or not positive definite, or the step is not finite."""
    if damping is not None:
        band = band.copy()
        band[0] += damping
    if not np.all(np.isfinite(band)):
        return None
    try:
        step = solveh_banded(band, -g, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
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


def _stop_after_step(trace: list[float], grad_inf: float, settings: SolverSettings) -> str:
    """The stop after an accepted step, or ``""`` to go on."""
    if grad_inf < settings.abs_grad_tol:
        return "gradient tolerance"
    if len(trace) <= CONVERGENCE_WINDOW:
        return ""
    window = (trace[-1 - CONVERGENCE_WINDOW] - trace[-1]) / max(trace[-1 - CONVERGENCE_WINDOW], 1e-300)
    if window < settings.rel_cost_tol and grad_inf < 10.0 * settings.abs_grad_tol:
        return "cost decrease below tolerance"
    return ""


def optimize(
    graph: FactorGraph,
    init: gp.SupportTrajectory,
    settings: SolverSettings | None = None,
) -> tuple[gp.SupportTrajectory, OptimizeReport]:
    """Solve the MAP problem from an initial trajectory.

    Both methods run one loop, which solves the normal equations at the
    current linearization and linearizes the candidate once; an accepted
    step keeps that linearization.  Gauss-Newton solves them undamped and
    takes every step whose cost is finite, and stops at the first step
    without one.  Levenberg-Marquardt (default) adds Marquardt damping
    ``mu diag(A)`` and only accepts cost-decreasing steps, so the reported
    ``cost_trace`` is non-increasing; a rejected step raises ``mu`` until
    the damping runs out.  The result is a local optimum; no global claim
    is made.
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
    if band is None:
        raise ValueError("initial trajectory has non-finite cost")
    trace = [cost]
    converged = False
    message = "max iterations reached"
    iterations = 0
    lm = settings.method is SolverMethod.LEVENBERG_MARQUARDT
    # Marquardt (relative) damping: mu is dimensionless against diag(A).
    mu, nu = settings.lm_init_damping, 2.0

    while iterations < settings.max_iterations:
        iterations += 1
        if float(np.abs(gradient).max()) < settings.abs_grad_tol:
            converged, message = True, "gradient tolerance"
            break
        damping = mu * _damping_scale(band[0]) if lm else None
        delta = _solve_normal(band, damping, gradient)
        if delta is not None:
            candidate = trajectory.with_vector(trajectory.as_vector() + delta)
            new_band, new_gradient, new_cost = linearize(graph, candidate)
        accepted = delta is not None and new_band is not None
        if lm and accepted:
            # The gain ratio of the actual to the predicted decrease.
            predicted = 0.5 * float(delta @ (damping * delta - gradient))
            rho = (cost - new_cost) / predicted if new_cost < cost and predicted > 0.0 else 0.0
            accepted = rho > 0.0
        if accepted:
            if lm:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
            trajectory, band, gradient, cost = candidate, new_band, new_gradient, new_cost
            trace.append(cost)
            stop = _stop_after_step(trace, float(np.abs(gradient).max()), settings)
            if stop:
                converged, message = True, stop
                break
        elif not lm:
            if delta is None:
                message = "no finite step: normal equations not finite or not positive definite"
            else:
                message = "no finite step: the cost after the step is not finite"
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
                converged, message = True, "damping exhausted (no decreasing step found)"
                break

    report = OptimizeReport(
        iterations=iterations,
        converged=converged,
        cost_trace=trace,
        final_cost=cost,
        wall_time_s=time.perf_counter() - t_start,
        grad_inf_norm=float(np.abs(gradient).max()),
        method=settings.method.value,
        message=message,
    )
    return trajectory, report


@dataclass(frozen=True)
class ChainSingularityCost:
    """The chain's log-manipulability cost ``h`` as a one-entry
    configuration cost, with its gradient as the Jacobian row."""

    chain: KinematicChain
    params: SingularityCostParams
    task_dim: int

    def __call__(self, q: np.ndarray, frames: np.ndarray | None = None):
        out = singularity_cost(self.chain, q, self.params, self.task_dim, frames)
        return out.h[:, None], out.gradient[:, None, :]


@dataclass(frozen=True)
class ChainCollisionCost:
    """The hinge collision residuals of the chain's body spheres in
    ``sdf``, one entry per sphere."""

    chain: KinematicChain
    sdf: WorkspaceSdf
    params: CollisionParams

    def __call__(self, q: np.ndarray, frames: np.ndarray | None = None):
        return collision_residual(self.chain, q, self.sdf, self.params, frames)


@dataclass(frozen=True)
class ChainGoalCost:
    """End-effector position minus ``goal``, a three-entry configuration cost."""

    chain: KinematicChain
    goal: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=float).reshape(3))

    def __call__(self, q: np.ndarray, frames: np.ndarray | None = None):
        p, jac_q = point_jacobian(self.chain, q, self.chain.n - 1, np.zeros(3), frames)
        return p - self.goal, jac_q


def build_graph(scenario: "Scenario", trajectory: gp.SupportTrajectory) -> FactorGraph:
    """Wire a scenario into factors over the given support trajectory.

    Layout: a tight prior on state 0, the GP prior over all segments, and
    (when enabled / present) singularity and collision costs on all
    support states and on all ``n_interp`` interpolated evaluation points
    per segment (one factor each, an interpolated one with one block per
    segment), then the goal position on the final state.
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
    _, lam, psi = interpolated_blends(times, scenario.n_interp)

    def add_cost(knot_kind, interp_kind, cost, dim, sigma):
        factors.append(ConfigurationFactor(knot_kind, np.arange(num), cost, dim, sigma))
        if scenario.n_interp:
            factors.append(
                ConfigurationFactor(interp_kind, np.arange(num - 1), cost, scenario.n_interp * dim, sigma, (lam, psi))
            )

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
            ChainCollisionCost(chain, scenario.build_sdf(), col_params),
            len(chain.body_spheres),
            col_params.sigma_obs,
        )

    factors.append(
        ConfigurationFactor(
            FactorKind.GOAL_POSITION, num - 1, ChainGoalCost(chain, scenario.goal_position), 3, scenario.sigma_goal
        )
    )
    return FactorGraph(factors=tuple(factors), num_states=num, state_dim=2 * n)
