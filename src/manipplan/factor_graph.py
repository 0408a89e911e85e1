"""Factor graph over trajectory states and its nonlinear least-squares solver.

Every factor is a stack of K blocks of the same shape, whose first
states are consecutive.  Each block is a whitened residual
(premultiplied by the square root of its inverse covariance) over one
state or two consecutive states, with its Jacobian with respect to them,
so the MAP problem is the standard sum of squared residuals.  Besides the
GP prior over all segments, whose Jacobian is constant, there is one
cost factor type, :class:`ConfigurationFactor`: a residual of joint
configurations, one block per knot, or one per segment stacking its P
GP-interpolated states, whose Jacobian is chained through the
interpolation blend coefficients (``c ⊗ J``) so gradient information
from extra states reaches the decision variables.  A graph stacks every
configuration its cost factors use once (the knots, then the
interpolated states of every segment), runs forward kinematics once over
that stack, and each cost once over its rows.  One blend of each run of
segments gives both the interpolated states and the GP prior's residuals.

An evaluation has two phases.  A *score* forms the cost: each distinct
configuration cost's squared residuals per stacked row, weighted by the
summed squared weights of the factors that read the row, plus the GP
prior's whitened residuals.  It keeps the intermediates the Jacobians
need (frames, the QR factors of the task Jacobians, the collision pairs
inside the margin).  The *Jacobian half* runs later, and only when the
solver asks for it: one weighted Gram ``sum w^2 J^T J`` and one
``sum w^2 J^T r`` per stacked configuration, over all its costs.  No
factor's whitened Jacobian is formed on the solver's path.

Because no block spans more than two consecutive states, ``J^T J`` is
block tridiagonal (the exactly sparse GP structure).  The solver adds
each knot's Gram to the position corner of its diagonal block, spreads
each interpolated configuration's over the two states it blends with the
products ``c c^T`` of its blend coefficients, starts from the GP
prior's constant ``J^T J`` summed at construction, and runs
Levenberg-Marquardt on the banded Cholesky factorization, at a cost
linear in the number of states.  State 0 is the start, data rather than
a decision variable: the solver moves states 1..N-1 only.
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
    (residual length per block), and implement :meth:`evaluate`.  A graph
    takes two subclasses: :class:`GpPriorFactor`, whose Jacobian does not
    depend on the states, and :class:`ConfigurationFactor`.
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
    position row otherwise, so its Jacobian is ``[c_s J]``.
    :meth:`evaluate` forms this factor's whitened blocks alone, the
    definition a graph's stacked score and Jacobian half reproduce without
    forming them (see :meth:`FactorGraph.score`).
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
        num, n = len(self.knots), x.shape[1] // 2
        if self.blend is None:
            q = x[self.knots, :n]
        else:
            q = gp.blend(self._coef, x[self.states].reshape(num, 1, -1, n)).reshape(-1, n)
        chain = getattr(self.cost, "chain", None)
        ((r, jacobian),) = _score_costs(q, chain, [(self.cost, slice(None), chain is not None)])
        jac_q = jacobian()
        jac_q = jac_q.reshape((num, -1) + jac_q.shape[1:-1] + (1, n))  # (K, P, d, 1, n)
        jac = self._coef[..., None, :, None] * jac_q  # (K, P, d, 2 width, n)
        r = np.ascontiguousarray(self._w * r.reshape(num, -1))
        return r, self._w * jac.reshape(num, -1, 2 * self.states.shape[1] * n)


def _formed(r: np.ndarray, jac: np.ndarray):
    """A one-phase cost's output in the form of a score: its residuals and
    a function that returns its Jacobians, formed already."""
    return r, lambda: jac


def _score_costs(q: np.ndarray, chain: KinematicChain | None, costs):
    """Each cost ``(cost, rows, framed)`` scored over its rows of the
    configurations ``q``: its residuals and a function that forms their
    Jacobians.  The costs that take frames (``framed``) read one
    forward-kinematics pass of ``chain`` over all of ``q``."""
    frames = jacobians = None
    if chain is not None:
        q = _as_config(chain, q, stack=True)
        frames = _fk_matrices(chain, q)
        jacobians = _end_effector_jacobian(frames)
    return [
        cost.score(q[rows], frames[rows], jacobians[rows]) if framed else _formed(*cost(q[rows]))
        for cost, rows, framed in costs
    ]


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


class _Interpolation(NamedTuple):
    """The P configurations per segment that interpolation factors share:
    the segments' (K, 2) states, the blend coefficients (K, P, 4) of the
    halves ``(q_i, q_dot_i, q_j, q_dot_j)``, their rows of the stack, and,
    for :func:`linearize`, the coefficients transposed (K, 4, P) and the
    products ``c_a c_b`` (K, 12, P) of the half pairs ``(a, b)`` that
    ``J^T J``'s lower blocks hold (see :func:`_add_normal`): ``a`` = 0-3
    with ``b`` = 0, 1, then ``a``, ``b`` = 2, 3."""

    states: np.ndarray
    coef: np.ndarray
    rows: slice
    coef_t: np.ndarray
    outer: np.ndarray


class _ConfigurationStack:
    """Configuration factors evaluated from one stack of configurations.

    The stack holds every configuration the factors use once: the knots of
    the knot factors in state order, then, for each distinct interpolation
    (the same first states and blend kernels), its P configurations per
    segment in segment order.  So singularity and collision factors over
    the same states share rows, and the goal's knot is a knot row.  The
    graph forms the stack from its states (see :meth:`FactorGraph.score`),
    blending the interpolated rows together with the GP priors' residuals.
    A score checks the stack with ``_as_config`` and, when a cost has a ``chain``
    (all such costs must share it), runs ``_fk_matrices`` over it once and
    forms its end-effector Jacobians once; it scores each distinct cost
    once over the rows its factors use.  Each of those rows carries the
    summed squared weights of the factors that read it, so the factors'
    whitened blocks are never formed: the score weighs each row's squared
    residuals, and the Jacobian half forms each row's weighted Gram.  The
    layout, the weights and the blend products are fixed here, at
    construction.
    """

    def __init__(self, factors) -> None:
        factors = tuple(factors)
        knots = _distinct(f.knots for f in factors if f.blend is None)
        self.knots = _index(knots)  # the knot rows' states; they lead the stack
        self.interpolations: list[_Interpolation] = []
        placements: dict[tuple, np.ndarray] = {}
        rows = []  # per factor: its configurations' rows of the stack
        for factor in factors:
            if factor.blend is None:
                rows.append(np.searchsorted(knots, factor.knots))
                continue
            key = (factor._coef.shape, factor.states.tobytes(), factor._coef.tobytes())
            if key not in placements:
                start = len(knots) + sum(len(r) for r in placements.values())
                placements[key] = start + np.arange(len(factor.knots) * factor._coef.shape[1])
                coef_t = np.ascontiguousarray(factor._coef.swapaxes(1, 2))
                outer = coef_t[:, :, None, :] * coef_t[:, None, :, :]  # (K, 4, 4, P)
                outer = np.concatenate([outer[:, :, :2], outer[:, 2:, 2:]], axis=1).reshape(len(coef_t), 12, -1)
                self.interpolations.append(
                    _Interpolation(factor.states, factor._coef, _index(placements[key]), coef_t, outer)
                )
            rows.append(placements[key])
        self.knot_rows = len(knots)
        self.size = len(knots) + sum(len(r) for r in placements.values())
        members: dict[int, list[int]] = {}
        for i, factor in enumerate(factors):
            members.setdefault(id(factor.cost), []).append(i)
        # Per distinct cost: (cost, its rows of the stack, whether it takes frames),
        # and each of those rows' summed squared weights, as a (rows, 1) column.
        self.costs: list[tuple[ConfigCost, slice | np.ndarray, bool]] = []
        self.weights: list[np.ndarray] = []
        for group in members.values():
            cost = factors[group[0]].cost
            used = _distinct(rows[i] for i in group)
            weights = np.zeros(len(used))
            for i in group:
                np.add.at(weights, np.searchsorted(used, rows[i]), factors[i]._w ** 2)
            self.costs.append((cost, _index(used), hasattr(cost, "chain")))
            self.weights.append(weights[:, None])
        chains = {id(cost.chain): cost.chain for cost, _, framed in self.costs if framed}
        if len(chains) > 1:
            raise ValueError("the configuration costs of one graph must share one kinematic chain")
        self.chain = next(iter(chains.values()), None)

    def score(self, q: np.ndarray) -> tuple[float, Callable[[], tuple[np.ndarray, np.ndarray]]]:
        """Half the weighted squared residuals of every cost at the stacked
        configurations ``q`` (M, n), and a function that forms, from the
        same evaluation, each stacked configuration's weighted Gram ``sum
        w^2 J^T J`` (M, n, n) and ``sum w^2 J^T r`` (M, n) over all its
        costs."""
        n = q.shape[1]
        scored = _score_costs(q, self.chain, self.costs)
        # C order fixes how the products below round, whatever order a cost returns.
        residuals = [np.ascontiguousarray(r) for r, _ in scored]
        weighted = [weights * r for weights, r in zip(self.weights, residuals)]
        cost = 0.5 * sum(float(np.vdot(w_r, r)) for w_r, r in zip(weighted, residuals))

        def normal() -> tuple[np.ndarray, np.ndarray]:
            gram, jac_r = np.zeros((self.size, n, n)), np.zeros((self.size, n))
            for (_, rows, _), weights, w_r, (_, jacobian) in zip(self.costs, self.weights, weighted, scored):
                jac = jacobian()
                jac_t = jac.swapaxes(1, 2)
                gram[rows] += weights[..., None] * (jac_t @ jac)
                jac_r[rows] += (jac_t @ w_r[..., None])[..., 0]
            return gram, jac_r

        return cost, normal


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

    At construction the graph fixes what every :meth:`score` and
    :func:`linearize` call shares: the stack of its configuration factors,
    the segment blends that feed it and the GP priors, the GP priors'
    constant ``J^T J`` block sums, wherever they sit (see
    :func:`_add_normal`), and the gather that lays the blocks out as a
    band.  Every factor is a :class:`GpPriorFactor` or a
    :class:`ConfigurationFactor`.
    """

    factors: tuple[Factor, ...]
    num_states: int
    state_dim: int
    _configurations: _ConfigurationStack = field(init=False, repr=False, compare=False)
    # Per distinct run of segments, its (K, 2) states and the kernel rows
    # (K, R, 4) over their halves of every interpolation and GP prior on it,
    # stacked: a score gathers each run once and blends it once.
    _blends: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False, compare=False)
    # Where a score reads each interpolation's configurations, and each GP
    # prior's residuals, from those blends: the blend's index and its rows.
    _interpolation_rows: tuple[tuple[int, slice], ...] = field(init=False, repr=False, compare=False)
    _prior_rows: tuple[tuple[int, slice], ...] = field(init=False, repr=False, compare=False)
    # The GP priors, in factor order, and the sum of their J^T J blocks as
    # linearize's flat accumulator (see _add_normal).
    _priors: tuple[GpPriorFactor, ...] = field(init=False, repr=False, compare=False)
    _prior_normal: np.ndarray = field(init=False, repr=False, compare=False)
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
            if not isinstance(factor, (GpPriorFactor, ConfigurationFactor)):
                raise ValueError(f"factor {factor.kind} must be a GpPriorFactor or a ConfigurationFactor")
        configurations = [f for f in self.factors if isinstance(f, ConfigurationFactor)]
        priors = tuple(f for f in self.factors if isinstance(f, GpPriorFactor))
        stack = _ConfigurationStack(configurations)
        runs: dict[bytes, tuple[np.ndarray, list[np.ndarray]]] = {}

        def place(states: np.ndarray, kernels: np.ndarray) -> tuple[int, slice]:
            run = runs.setdefault(states.tobytes(), (states, []))
            start = sum(k.shape[1] for k in run[1])
            run[1].append(kernels)
            return list(runs).index(states.tobytes()), slice(start, start + kernels.shape[1])

        interpolation_rows = tuple(place(i.states, i.coef) for i in stack.interpolations)
        prior_rows = tuple(place(f.states, f._kernel) for f in priors)
        blends = tuple((states, np.concatenate(kernels, axis=1)) for states, kernels in runs.values())
        object.__setattr__(self, "_configurations", stack)
        object.__setattr__(self, "_blends", blends)
        object.__setattr__(self, "_interpolation_rows", interpolation_rows)
        object.__setattr__(self, "_prior_rows", prior_rows)
        dim, num = self.state_dim, self.num_states
        n = dim // 2
        normal = np.zeros(num * 2 * dim * dim + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for prior in priors:
                _add_normal(normal, prior, n)
        # Band entry (i, s dim + j) is J^T J's (s dim + i + j, s dim + j):
        # half block (s, a, b) entry (u, v) for i + j = a n + u and j = b n + v
        # while i + j < 2 dim, else a zero.
        i, s, j = np.ogrid[: 2 * dim, :num, :dim]
        (a, u), (b, v) = divmod(i + j, n), divmod(j, n)
        index = np.where(i + j < 2 * dim, (((s * 4 + a) * 2 + b) * n + u) * n + v, normal.size - 1)
        object.__setattr__(self, "_priors", priors)
        object.__setattr__(self, "_prior_normal", normal)
        object.__setattr__(self, "_band_index", index.reshape(2 * dim, num * dim))

    def score(self, x: np.ndarray) -> "Scored":
        """The cost at the (N, 2n) states ``x``, half the squared norm of
        every factor's whitened residuals (see :meth:`Factor.evaluate`),
        with what :func:`linearize` needs from the same evaluation: the GP
        priors' residuals, and the stacked configurations' Jacobian half
        (see :class:`_ConfigurationStack`).

        Each run of segments is gathered once and blended once, with the
        interpolations' position rows and the GP priors' kernel rows
        stacked: the interpolated configurations and the GP priors'
        residuals come from that one blend, with the bits of
        :meth:`ConfigurationFactor.evaluate` and :meth:`GpPriorFactor.evaluate`
        (a blend is elementwise per kernel row)."""
        n = x.shape[1] // 2
        stack = self._configurations
        blended = [gp.blend(kernels, x[states].reshape(len(states), 1, 4, n)) for states, kernels in self._blends]
        q = np.concatenate(
            [x[stack.knots, :n]] + [blended[run][:, rows].reshape(-1, n) for run, rows in self._interpolation_rows]
        )
        residuals = [
            (blended[run][:, rows] * prior._w).reshape(len(prior.states), -1)
            for prior, (run, rows) in zip(self._priors, self._prior_rows)
        ]
        configuration_cost, normal = stack.score(q)
        cost = 0.5 * sum(float(np.vdot(r, r)) for r in residuals) + configuration_cost
        return Scored(cost, residuals, normal)

    @property
    def residual_dim(self) -> int:
        return sum(f.dim * len(f.states) for f in self.factors)


class Scored(NamedTuple):
    """The residual half of one evaluation of a graph (see
    :meth:`FactorGraph.score`): its cost (half the squared norm of every
    whitened residual), the whitened residuals of its GP priors in factor
    order, and ``normal()``, which forms the stacked configurations'
    weighted Grams ``sum w^2 J^T J`` (M, n, n) and ``sum w^2 J^T r`` (M, n)
    from the same evaluation."""

    cost: float
    residuals: list[np.ndarray]
    normal: Callable[[], tuple[np.ndarray, np.ndarray]]


def total_cost(graph: FactorGraph, trajectory: gp.SupportTrajectory) -> float:
    """Half the squared norm of all whitened residuals (the MAP negative
    log): the cost that :func:`linearize` returns, scored without any
    Jacobian."""
    return graph.score(trajectory.x).cost


def _add_normal(normal: np.ndarray, prior: GpPriorFactor, n: int) -> None:
    """Add a GP prior's constant ``J^T J`` to the flat accumulator
    ``normal``: the column blocks of ``J^T J`` as (N, 4, 2, n, n) half
    blocks, then one zero for the band's entries outside them.  Half block
    (s, a, b) is the n x n block of ``J^T J`` whose rows are half a of
    states s and s + 1 (their positions and velocities, in that order) and
    whose columns are half b of state s: column block s holds the diagonal
    block (s, s) over the block (s + 1, s).  A prior's blocks span
    consecutive segments, so it adds to two runs of diagonal blocks and
    the blocks below the first run."""
    halves = normal[:-1].reshape(-1, 4, 2, n, n)
    jac = prior.constant_jacobian
    product = (jac.swapaxes(1, 2) @ jac).reshape(len(jac), 4, n, 4, n).swapaxes(2, 3)
    first = prior.states[0, 0]
    halves[first : first + len(product)] += product[:, :, :2]
    halves[first + 1 : first + 1 + len(product), :2] += product[:, 2:, 2:]


def linearize(graph: FactorGraph, trajectory: gp.SupportTrajectory | np.ndarray, scored: Scored | None = None):
    """Accumulate the Gauss-Newton normal equations from one evaluation of
    the graph (one forward-kinematics pass): ``scored``, the
    :meth:`FactorGraph.score` of ``trajectory`` when the caller has it
    (``trajectory`` may then be its (N, 2n) states alone), else a new score.

    Returns ``(band, gradient, cost)``: ``J^T J`` in LAPACK lower banded
    storage (``band[a - b, b] = (J^T J)[a, b]``), ``J^T r`` and half the
    squared residual norm.  When the cost is not finite it returns
    ``(None, None, cost)`` before forming any ``J^T J``, whose products
    with infinite residuals would be NaN; a ``J^T J`` that overflows is
    returned non-finite, which ends :func:`optimize`.  Every block touches
    one state or two consecutive ones, so ``J^T J`` is block tridiagonal
    (lower half-bandwidth ``2 * state_dim - 1``).  The sum starts from the
    GP priors' constant ``J^T J`` blocks, summed at construction, and adds
    the score's weighted Grams: a knot's to the position corner of its
    diagonal block, and an interpolated configuration's to the two states
    it blends, as ``(c c^T) ⊗ G`` for its blend coefficients ``c``, with
    one batched matmul per interpolation.  One gather lays the blocks out
    as the band.
    """
    scored = graph.score(trajectory.x) if scored is None else scored
    cost = scored.cost
    if not math.isfinite(cost):
        return None, None, cost
    dim, num = graph.state_dim, graph.num_states
    n = dim // 2
    normal = graph._prior_normal.copy()
    halves = normal[:-1].reshape(num, 4, 2, n, n)  # see _add_normal
    gradient = np.zeros((num, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for prior, r in zip(graph._priors, scored.residuals):
            jac_r = (prior.constant_jacobian.swapaxes(1, 2) @ r[..., None])[..., 0]
            first = prior.states[0, 0]
            gradient[first : first + len(r)] += jac_r[:, :dim]
            gradient[first + 1 : first + 1 + len(r)] += jac_r[:, dim:]
        gram, jac_r = scored.normal()
        stack = graph._configurations
        halves[stack.knots, 0, 0] += gram[: stack.knot_rows]
        gradient[stack.knots, :n] += jac_r[: stack.knot_rows]
        for interpolation in stack.interpolations:
            segments, per_segment = interpolation.coef.shape[:2]
            first, rows = interpolation.states[0, 0], interpolation.rows
            # Each lower half pair's c_a c_b G summed over a segment's configurations.
            spread = interpolation.outer @ gram[rows].reshape(segments, per_segment, n * n)
            halves[first : first + segments] += spread[:, :8].reshape(segments, 4, 2, n, n)
            halves[first + 1 : first + 1 + segments, :2] += spread[:, 8:].reshape(segments, 2, 2, n, n)
            pulled = interpolation.coef_t @ jac_r[rows].reshape(segments, per_segment, n)
            gradient[first : first + segments] += pulled[:, :2].reshape(segments, dim)
            gradient[first + 1 : first + 1 + segments] += pulled[:, 2:].reshape(segments, dim)
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
    """Solve ``(A + diag(damping)) x = -g`` for a finite ``A`` in lower
    banded storage by banded Cholesky (LAPACK ``pbsv``); ``None`` when the
    damped diagonal is not finite, the matrix is not positive definite, or
    the step is not finite.  :func:`optimize` checks ``A`` once per
    linearization."""
    # A Fortran-ordered copy, which pbsv factors in place.
    band = np.array(band, order="F")
    band[0] += damping
    if not np.all(np.isfinite(band[0])):
        return None
    _, step, info = _pbsv(band, -g, lower=1, overwrite_ab=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pbsv")
    return step if info == 0 and np.all(np.isfinite(step)) else None


def _summary(band: np.ndarray, gradient: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """What :func:`optimize` reads of a linearization's decision band and
    gradient besides themselves, taken once per linearization: ``‖g‖∞``,
    the Marquardt scale of the band's diagonal, and whether every band
    entry is finite."""
    return float(np.abs(gradient).max()), _damping_scale(band[0]), bool(np.all(np.isfinite(band)))


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
    Levenberg-Marquardt over states 1..N-1; state 0, the start, is
    returned exactly as given.

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
    # The decision variables are states 1..N-1: in lower band storage the
    # columns from state_dim on reference rows from state_dim on only, so
    # the band and the gradient from there on are their normal equations.
    x, dim = init.x, graph.state_dim
    band, gradient, cost = linearize(graph, init)
    if band is None:
        raise ValueError("initial trajectory has non-finite cost")
    band, gradient = band[:, dim:], gradient[dim:]
    grad_inf, scale, finite = _summary(band, gradient)
    trace = [cost]
    converged = False
    message = "max iterations reached"
    iterations = 0
    # Marquardt (relative) damping: mu is dimensionless against diag(A).
    mu, nu = LM_INIT_DAMPING, 2.0

    while iterations < settings.max_iterations:
        iterations += 1
        if grad_inf < settings.abs_grad_tol:
            converged, message = True, "gradient tolerance"
            break
        if not finite:
            # No damping makes a non-finite band finite.
            message = "no finite step: normal equations not finite or not positive definite"
            break
        damping = mu * scale
        delta = _solve_normal(band, damping, gradient)
        rho = 0.0
        if delta is not None:
            candidate = x.copy()
            candidate[1:] += delta.reshape(-1, dim)
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
            band, gradient = band[:, dim:], gradient[dim:]
            grad_inf, scale, finite = _summary(band, gradient)
            trace.append(cost)
            stop = _stop_after_step(trace, grad_inf, settings)
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
        grad_inf_norm=grad_inf,
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
        lam, _, qr = _gram_lambda(jset.jacobian)
        return _log_ratio(lam, self.params)[:, None], lambda: (-0.5 * _gram_traces(jset, qr))[:, None, :]


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


# Covariance of the goal-position residual (per axis): tight enough to act
# as a constraint.
SIGMA_GOAL = 1e-8


def build_graph(scenario: "Scenario", trajectory: gp.SupportTrajectory) -> FactorGraph:
    """Wire a scenario into factors over the given support trajectory.

    Layout: the GP prior over all segments, and (when enabled / present)
    singularity and collision costs on all support states and on all
    ``n_interp`` interpolated evaluation points per segment (one factor
    each, an interpolated one with one block per segment), then the goal
    position on the final state.  State 0 is the trajectory's start, which
    :func:`optimize` holds; knot 0's cost blocks add a constant.
    """
    chain = scenario.load_chain()
    n = chain.n
    num = trajectory.num_states
    times = trajectory.times

    factors: list[Factor] = [GpPriorFactor(times=times, n=n, qc=scenario.qc_scale)]
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
