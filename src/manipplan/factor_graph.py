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

An evaluation has two phases: a *score* forms every residual and keeps the
intermediates the Jacobians need (frames, singular value decompositions,
the collision pairs inside the margin); the Jacobians are formed from them
later, and only when the solver asks for them.

Because no block spans more than two consecutive states, ``J^T J`` is
block tridiagonal (the exactly sparse GP structure).  The solver
accumulates it straight into banded storage and runs Levenberg-Marquardt
on the banded Cholesky factorization, at a cost linear in the number of
states.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import gp_prior as gp
from .collision import WorkspaceSdf, _collision_terms

# point_jacobian and singularity_cost are re-exported, not called: perfbench's
# tracer tests wrap them under this module's name.
from .kinematics import (  # noqa: F401
    JacobianSet,
    KinematicChain,
    _as_config,
    _check_task_dim,
    _end_effector_jacobian,
    _fk_matrices,
    point_jacobian,
)
from .manipulability import SingularityCostParams, _gram_lambda, _gram_traces, _log_ratio, singularity_cost  # noqa: F401

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
    "SolverSettings",
    "OptimizeReport",
    "Scored",
    "total_cost",
    "linearize",
    "optimize",
    "build_graph",
    "ChainSingularityCost",
    "ChainCollisionCost",
    "ChainGoalCost",
]

# q (K, n) -> (r (K, d), dr_dq (K, d, n)); see ConfigurationFactor.  A cost
# with a ``chain`` attribute is scored in two phases instead, as
# cost.score(q, frames, jacobians) with the frames (K, n+1, 4, 4) of q from
# that chain's forward kinematics and their end-effector Jacobians (K, 6, n):
# it returns r and a function that forms dr_dq from the same evaluation.
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
    (residual length per block), and implement :meth:`evaluate`.  A factor
    whose Jacobians do not depend on the states sets ``constant_jacobian``
    to them, and :meth:`evaluate` returns that array.
    """

    kind: FactorKind
    states: np.ndarray
    dim: int
    constant_jacobian: np.ndarray | None = None

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
        self.constant_jacobian = self._w * np.eye(self.dim)[None]

    def evaluate(self, x):
        r = self._w * (x[self.states[0]] - self.prior)
        return r, self.constant_jacobian


@dataclass
class GpPriorFactor(Factor):
    """Constant-velocity GP prior ``W (Phi x_i - x_j)``, ``Qc = qc I_n``, over every segment
    between support states at ``times``, linear with Jacobian ``[W~ Phi~, -W~] ⊗ I_n/√qc``."""

    times: np.ndarray
    n: int
    qc: float

    def __post_init__(self) -> None:
        self.kind = FactorKind.GP_PRIOR
        self.states = np.arange(len(self.times) - 1)[:, None] + np.arange(2)
        self.dim = 2 * self.n
        phi, w = gp.segment_kernels(np.diff(self.times))
        self._kernel = np.concatenate([w @ phi, -w], axis=-1)
        self._w = _weight(self.qc)
        self.constant_jacobian = np.kron(self._kernel, self._w * np.eye(self.n))

    def evaluate(self, x):
        halves = x[self.states].reshape(len(self.states), 1, 4, -1)
        r = gp.blend(self._kernel, halves) * self._w
        return r.reshape(len(self.states), -1), self.constant_jacobian


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
    :meth:`FactorGraph.score`); :meth:`evaluate` is that step over this
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
        residuals, jacobians = _ConfigurationStack((self,)).score(x)
        return residuals[0], jacobians()[0]

    def _whiten_residuals(self, r: np.ndarray) -> np.ndarray:
        """Whitened blocks from the cost's residuals (K P, d) at this
        factor's configurations, in block order."""
        return self._w * r.reshape(len(self.knots), -1)

    def _whiten_jacobians(self, jac_q: np.ndarray) -> np.ndarray:
        """Whitened block Jacobians from the cost's Jacobians (K P, d, n)
        at this factor's configurations, in block order."""
        num, n = len(self.knots), jac_q.shape[-1]
        jac_q = jac_q.reshape((num, -1) + jac_q.shape[1:-1] + (1, n))  # (K, P, d, 1, n)
        jac = self._coef[..., None, :, None] * jac_q  # (K, P, d, 2 width, n)
        return self._w * jac.reshape(num, -1, 2 * self.states.shape[1] * n)


def _formed(r: np.ndarray, jac: np.ndarray):
    """A one-phase cost's output in the form of a score: its residuals and
    a function that returns its Jacobians, formed already."""
    return r, lambda: jac


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
    the same states share rows, and the goal's knot is a knot row.  A score
    checks the stack with ``_as_config`` and, when a cost has a ``chain``
    (all such costs must share it), runs ``_fk_matrices`` over it once and
    forms its end-effector Jacobians once; it scores each distinct cost
    once over the rows its factors use, and lets each factor whiten its own
    rows.  The Jacobians are formed later, on request, from that same
    score.  The layout is fixed here, at construction.
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

    def score(self, x: np.ndarray) -> tuple[list[np.ndarray], Callable[[], list[np.ndarray]]]:
        """Each factor's whitened residuals at the (N, 2n) states ``x``, in
        factor order, and a function that forms their whitened Jacobians
        from the same evaluation."""
        n = x.shape[1] // 2
        q = np.concatenate(
            [x[self.knots, :n]]
            + [gp.blend(coef, x[states].reshape(len(states), 1, -1, n)).reshape(-1, n) for states, coef in self.interpolations]
        )
        frames = jacobians = None
        if self.chain is not None:
            q = _as_config(self.chain, q, stack=True)
            frames = _fk_matrices(self.chain, q)
            jacobians = _end_effector_jacobian(frames)
        scored = [
            cost.score(q[rows], frames[rows], jacobians[rows]) if framed else _formed(*cost(q[rows]))
            for cost, rows, framed in self.costs
        ]
        # C order fixes how linearize's J^T r rounds, whatever order a cost returns.
        residuals = [
            np.ascontiguousarray(factor._whiten_residuals(scored[at][0][pick]))
            for factor, (at, pick) in zip(self.factors, self.picks)
        ]

        def whitened_jacobians() -> list[np.ndarray]:
            formed = [jacobian() for _, jacobian in scored]
            return [factor._whiten_jacobians(formed[at][pick]) for factor, (at, pick) in zip(self.factors, self.picks)]

        return residuals, whitened_jacobians


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
    """The MAP problem: factors over ``num_states`` states of size ``state_dim``.

    At construction the graph fixes what every :func:`linearize` call
    shares: the stack of its configuration factors, the ``J^T J`` block
    sums of its leading run of factors with constant Jacobians (see
    :func:`_add_normal`), and the gather that lays the blocks out as a band.
    """

    factors: tuple[Factor, ...]
    num_states: int
    state_dim: int
    _configurations: _ConfigurationStack = field(init=False, repr=False, compare=False)
    # How many leading factors have constant Jacobians, and their J^T J
    # blocks as linearize's flat accumulator (see _add_normal).
    _constant_count: int = field(init=False, repr=False, compare=False)
    _constant_normal: np.ndarray = field(init=False, repr=False, compare=False)
    # Indices into that accumulator of every band entry (see linearize).
    _band_index: np.ndarray = field(init=False, repr=False, compare=False)

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
        dim, num = self.state_dim, self.num_states
        count = 0
        while count < len(self.factors) and self.factors[count].constant_jacobian is not None:
            count += 1
        normal = np.zeros(num * 2 * dim * dim + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for factor in self.factors[:count]:
                _add_normal(normal, factor, factor.constant_jacobian, dim)
        # Band entry (i, s dim + j) is J^T J's (s dim + i + j, s dim + j):
        # block entry (s, i + j, j) while i + j < 2 dim, else a zero.
        i, s, j = np.ogrid[: 2 * dim, :num, :dim]
        index = np.where(i + j < 2 * dim, (s * 2 * dim + i + j) * dim + j, normal.size - 1)
        object.__setattr__(self, "_constant_count", count)
        object.__setattr__(self, "_constant_normal", normal)
        object.__setattr__(self, "_band_index", index.reshape(2 * dim, num * dim))

    def score(self, x: np.ndarray) -> "Scored":
        """Every factor's whitened residuals (see :meth:`Factor.evaluate`)
        at the (N, 2n) states ``x``, in factor order, whose ``jacobians()``
        forms their Jacobians from the same evaluation: the configuration
        factors share one stacked score, and the other factors' Jacobians
        are constant, formed with their residuals."""
        stacked_residuals, stacked_jacobians = self._configurations.score(x)
        stacked = iter(stacked_residuals)
        others = [None if isinstance(f, ConfigurationFactor) else f.evaluate(x) for f in self.factors]
        residuals = [next(stacked) if other is None else other[0] for other in others]

        def jacobians() -> list[np.ndarray]:
            formed = iter(stacked_jacobians())
            return [next(formed) if other is None else other[1] for other in others]

        return Scored(residuals, _cost(residuals), jacobians)

    @property
    def residual_dim(self) -> int:
        return sum(f.dim * len(f.states) for f in self.factors)


class Scored(NamedTuple):
    """The residual half of one evaluation of a graph (see
    :meth:`FactorGraph.score`): every factor's whitened residuals in factor
    order, their cost (half the squared norm), and ``jacobians()``, which
    forms every factor's whitened Jacobians from the same evaluation."""

    residuals: list[np.ndarray]
    cost: float
    jacobians: Callable[[], list[np.ndarray]]


def _cost(residuals) -> float:
    """Half the squared norm of residual blocks (K, dim), added up one
    block at a time in factor and block order."""
    halves = [0.5 * (r[:, None, :] @ r[:, :, None]).ravel() for r in residuals]
    # cumsum adds sequentially, unlike the pairwise np.sum.
    return float(np.cumsum(np.concatenate([[0.0], *halves]))[-1])


def total_cost(graph: FactorGraph, trajectory: gp.SupportTrajectory) -> float:
    """Half the squared norm of all whitened residuals (the MAP negative
    log): the cost that :func:`linearize` returns, scored without any
    Jacobian."""
    return graph.score(trajectory.x).cost


def _add_normal(normal: np.ndarray, factor: Factor, jac: np.ndarray, dim: int) -> None:
    """Add a factor's ``J^T J`` to the flat accumulator ``normal``: the
    column blocks (N, 2 dim, dim) of ``J^T J``, column block s holding the
    diagonal block (s, s) over the block (s + 1, s), then one zero for the
    band's entries outside them.  A factor adds to two runs of diagonal
    blocks and the blocks below them, since its blocks start at consecutive
    states."""
    blocks = normal[:-1].reshape(-1, 2 * dim, dim)
    product = jac.swapaxes(1, 2) @ jac
    first = factor.states[0, 0]
    blocks[first : first + len(product), : product.shape[1]] += product[..., :dim]
    if product.shape[1] > dim:
        blocks[first + 1 : first + 1 + len(product), :dim] += product[:, dim:, dim:]


def linearize(graph: FactorGraph, trajectory: gp.SupportTrajectory | np.ndarray, scored: Scored | None = None):
    """Accumulate the Gauss-Newton normal equations factor by factor, from
    one evaluation of the graph (one forward-kinematics pass): ``scored``,
    the :meth:`FactorGraph.score` of ``trajectory`` when the caller has it
    (``trajectory`` may then be its (N, 2n) states alone), else a new score.

    Returns ``(band, gradient, cost)``: ``J^T J`` in LAPACK lower banded
    storage (``band[a - b, b] = (J^T J)[a, b]``), ``J^T r`` and half the
    squared residual norm.  When the cost is not finite it returns
    ``(None, None, cost)`` before forming any ``J^T J``, whose products
    with infinite residuals would be NaN; a ``J^T J`` that overflows is
    returned non-finite, which ends :func:`optimize`.  Every block touches
    one state or two consecutive ones, and a factor's blocks start at
    consecutive states, so ``J^T J`` is block tridiagonal (lower
    half-bandwidth ``2 * state_dim - 1``) and each factor adds to two runs
    of its diagonal blocks, the blocks below them and the gradient (see
    :func:`_add_normal`).  The sum starts from the graph's blocks of its
    leading factors with constant Jacobians, added in the same order at
    construction, and one gather lays the blocks out as the band.
    """
    scored = graph.score(trajectory.x) if scored is None else scored
    cost = scored.cost
    if not math.isfinite(cost):
        return None, None, cost
    dim = graph.state_dim
    normal = graph._constant_normal.copy()
    gradient = np.zeros((graph.num_states, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (factor, r, jac) in enumerate(zip(graph.factors, scored.residuals, scored.jacobians())):
            jac_r = (jac.swapaxes(1, 2) @ r[..., None])[..., 0]
            first = factor.states[0, 0]
            gradient[first : first + len(r)] += jac_r[:, :dim]
            if jac_r.shape[1] > dim:
                gradient[first + 1 : first + 1 + len(r)] += jac_r[:, dim:]
            if i >= graph._constant_count:
                _add_normal(normal, factor, jac, dim)
    return normal[graph._band_index], gradient.reshape(-1), cost


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 100
    rel_cost_tol: float = 1e-6
    abs_grad_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not all(0.0 < value < math.inf for value in (self.rel_cost_tol, self.abs_grad_tol)):
            raise ValueError("solver tolerances must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @classmethod
    def from_dict(cls, spec: dict) -> "SolverSettings":
        """Settings from a scenario's "solver" object; absent keys keep the
        defaults, and ``method`` (only ever "levenberg_marquardt") is ignored."""
        casts = {"max_iterations": int, "rel_cost_tol": float, "abs_grad_tol": float}
        return cls(**{key: cast(spec[key]) for key, cast in casts.items() if key in spec})


@dataclass
class OptimizeReport:
    iterations: int
    converged: bool
    cost_trace: list[float]
    final_cost: float
    wall_time_s: float
    grad_inf_norm: float
    message: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


# LAPACK's banded Cholesky solve, the routine scipy.linalg.solveh_banded wraps.
(_pbsv,) = get_lapack_funcs(("pbsv",), dtype=np.float64)


def _solve_normal(band: np.ndarray, damping: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Solve ``(A + diag(damping)) x = -g`` for ``A`` in lower banded
    storage by banded Cholesky (LAPACK ``pbsv``); ``None`` when the matrix
    is not finite or not positive definite, or the step is not finite."""
    # A Fortran-ordered copy, which pbsv factors in place.
    band = np.array(band, order="F")
    band[0] += damping
    if not np.all(np.isfinite(band)):
        return None
    _, step, info = _pbsv(band, -g, lower=1, overwrite_ab=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pbsv")
    return step if info == 0 and np.all(np.isfinite(step)) else None


def _damping_scale(diag: np.ndarray) -> np.ndarray:
    """Marquardt diagonal scaling, clamped so unobserved directions
    (zero curvature) still get regularized."""
    top = diag.max() if diag.size else 1.0
    floor = max(1e-10 * top, 1e-12)
    return np.maximum(diag, floor)


# Marquardt's damping mu at the start of a solve, relative to diag(A).
LM_INIT_DAMPING = 1e-4

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
    """Solve the MAP problem from an initial trajectory by
    Levenberg-Marquardt.

    Each iteration solves the normal equations at the current
    linearization with Marquardt damping ``mu diag(A)`` (``mu`` starts at
    :data:`LM_INIT_DAMPING`) and scores the candidate by its residuals
    alone.  A candidate is accepted only when its cost decreases, so the
    reported ``cost_trace`` is non-increasing, and only an accepted
    candidate is linearized, from that same score (Madsen, Nielsen &
    Tingleff 2004, Alg. 3.16): a solve makes one :func:`linearize` call per
    accepted step, plus one at the start.  A rejected step (a failed
    factorization, a non-finite step or cost, or no decrease) raises ``mu``
    until the damping runs out.  A linearization whose ``J^T J`` is not
    finite, which no damping repairs, ends the solve unconverged.  The
    result is a local optimum; no global claim is made.
    """
    settings = settings or SolverSettings()
    t_start = time.perf_counter()
    if graph.num_states != init.num_states or graph.state_dim != 2 * init.n:
        raise ValueError(
            f"graph expects {graph.num_states} states of dim {graph.state_dim}, "
            f"trajectory has {init.num_states} states of dim {2 * init.n}"
        )
    # The states (N, 2n) of the current trajectory; the candidates are
    # scored as arrays, and only the solution is returned as a trajectory.
    x = init.x
    band, gradient, cost = linearize(graph, init)
    if band is None:
        raise ValueError("initial trajectory has non-finite cost")
    trace = [cost]
    converged = False
    message = "max iterations reached"
    iterations = 0
    # Marquardt (relative) damping: mu is dimensionless against diag(A).
    mu, nu = LM_INIT_DAMPING, 2.0

    while iterations < settings.max_iterations:
        iterations += 1
        if float(np.abs(gradient).max()) < settings.abs_grad_tol:
            converged, message = True, "gradient tolerance"
            break
        damping = mu * _damping_scale(band[0])
        delta = _solve_normal(band, damping, gradient)
        if delta is None and not np.all(np.isfinite(band)):
            # No damping makes a non-finite band finite.
            message = "no finite step: normal equations not finite or not positive definite"
            break
        rho = 0.0
        if delta is not None:
            candidate = x + delta.reshape(x.shape)
            scored = graph.score(candidate)
            new_cost = scored.cost
            # A non-finite cost fails this test too.
            if new_cost < cost:
                # The gain ratio of the actual to the predicted decrease.
                predicted = 0.5 * float(delta @ (damping * delta - gradient))
                rho = (cost - new_cost) / predicted if predicted > 0.0 else 0.0
        if rho > 0.0:
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x = candidate
            band, gradient, cost = linearize(graph, candidate, scored)
            trace.append(cost)
            stop = _stop_after_step(trace, float(np.abs(gradient).max()), settings)
            if stop:
                converged, message = True, stop
                break
        else:
            # A failed factorization, a non-finite step or no decrease is a
            # rejected step: more damping makes the system positive definite
            # and the step shorter.
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
        message=message,
    )
    return init.with_vector(x), report


@dataclass(frozen=True)
class ChainSingularityCost:
    """The chain's log-manipulability cost ``h`` as a one-entry
    configuration cost, with its gradient as the Jacobian row: the two
    halves of :func:`manipplan.manipulability.singularity_cost`."""

    chain: KinematicChain
    params: SingularityCostParams
    task_dim: int

    def __post_init__(self) -> None:
        _check_task_dim(self.task_dim)

    def score(self, q: np.ndarray, frames: np.ndarray, jacobians: np.ndarray):
        jset = JacobianSet(jacobian=jacobians[..., : self.task_dim, :], _full=jacobians)
        lam, _, svd = _gram_lambda(jset)
        return _log_ratio(lam, self.params)[:, None], lambda: (-0.5 * _gram_traces(jset, svd))[:, None, :]


@dataclass(frozen=True)
class ChainCollisionCost:
    """The hinge collision residuals of the chain's body spheres in
    ``sdf`` with margin ``epsilon``, one entry per sphere (see
    :func:`manipplan.collision.collision_residual`)."""

    chain: KinematicChain
    sdf: WorkspaceSdf
    epsilon: float

    def score(self, q: np.ndarray, frames: np.ndarray, jacobians: np.ndarray):
        return _collision_terms(self.chain, q, self.sdf, self.epsilon, frames)


@dataclass(frozen=True)
class ChainGoalCost:
    """End-effector position minus ``goal``, a three-entry configuration
    cost, whose Jacobian is the linear part of the end-effector Jacobian."""

    chain: KinematicChain
    goal: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=float).reshape(3))

    def score(self, q: np.ndarray, frames: np.ndarray, jacobians: np.ndarray):
        return frames[:, -1, :3, 3] - self.goal, lambda: np.ascontiguousarray(jacobians[:, :3, :])


# Covariances of the start prior (per state entry) and of the goal-position
# residual (per axis): tight enough to act as constraints.
SIGMA_GOAL = SIGMA_START = 1e-8


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
    num = trajectory.num_states
    times = trajectory.times

    factors: list[Factor] = [
        StartPriorFactor(state=0, prior=trajectory.x[0], sigma=SIGMA_START),
        GpPriorFactor(times=times, n=n, qc=scenario.qc_scale),
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
        add_cost(
            FactorKind.COLLISION,
            FactorKind.INTERP_COLLISION,
            ChainCollisionCost(chain, scenario.build_sdf(), scenario.epsilon),
            len(chain.body_spheres),
            scenario.sigma_obs,
        )

    factors.append(
        ConfigurationFactor(
            FactorKind.GOAL_POSITION, num - 1, ChainGoalCost(chain, scenario.goal_position), 3, SIGMA_GOAL
        )
    )
    return FactorGraph(factors=tuple(factors), num_states=num, state_dim=2 * n)
