"""Declarative planning scenarios, experiment runners, and data export.

A scenario JSON file names the robot model, the start configuration and
goal position, the covariances and GP spectral density, the obstacles,
and the solver settings.  The runners reproduce the experiment designs:
a single planning run, a prior/baseline/singularity-aware comparison with
normalized manipulability profiles, and a sweep over the number of
interpolated cost states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import factor_graph as fg
from . import gp_prior as gp
from .collision import BoxObstacle, WorkspaceSdf, build_workspace_sdf, sphere_clearances
from .kinematics import KinematicChain, _as_config, _check_task_dim, _fk_matrices, _is_builtin, geometric_jacobian, load_chain
from .manipulability import _checked, estimate_lambda_max

__all__ = [
    "GOAL_TOLERANCE",
    "BoxObstacle",
    "Scenario",
    "LambdaStats",
    "RunResult",
    "ComparisonResult",
    "SweepResult",
    "load_scenario",
    "scenario_from_dict",
    "builtin_scenario_path",
    "run_scenario",
    "run_comparison",
    "run_interp_sweep",
]

# A converged run must place the end-effector this close to the goal (m).
GOAL_TOLERANCE = 1e-3

# Dense lambda-profile sampling used for reports and sweep statistics,
# independent of the number of interpolated cost states.
PROFILE_POINTS_PER_SEGMENT = 10


@dataclass
class Scenario:
    """One planning problem; see ``data/scenario.schema.json`` for the file format."""

    robot: str
    start_config: np.ndarray
    goal_position: np.ndarray
    name: str = "scenario"
    horizon: float = 5.0
    num_support: int = 10
    n_interp: int = 0
    sigma_sbar: float = 1e-4
    sigma_obs: float = 1e-3
    qc_scale: float = 1e3
    epsilon: float = 0.1
    obstacles: tuple[BoxObstacle, ...] = ()
    lambda_max: float | None = None
    solver: fg.SolverSettings = field(default_factory=fg.SolverSettings)
    enable_singularity_factors: bool = True
    task_dim: int = 6
    _chain: KinematicChain | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.start_config = np.asarray(self.start_config, dtype=float).reshape(-1)
        self.goal_position = np.asarray(self.goal_position, dtype=float).reshape(3)
        self.obstacles = tuple(self.obstacles)
        if not (np.all(np.isfinite(self.start_config)) and np.all(np.isfinite(self.goal_position))):
            raise ValueError("start_config and goal_position must be finite")
        for value, label in (
            (self.horizon, "horizon"),
            (self.sigma_sbar, "sigma_sbar"),
            (self.sigma_obs, "sigma_obs"),
            (self.qc_scale, "qc_scale"),
        ):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{label} must be positive and finite")
        if self.lambda_max is not None and not 0.0 < self.lambda_max < math.inf:
            raise ValueError("lambda_max must be positive and finite")
        if self.num_support < 2:
            raise ValueError("num_support must be at least 2")
        if self.n_interp < 0:
            raise ValueError("n_interp cannot be negative")
        _check_task_dim(self.task_dim)
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be non-negative and finite")

    def load_chain(self) -> KinematicChain:
        if self._chain is None:
            chain = load_chain(self.robot)
            if self.start_config.shape != (chain.n,):
                raise ValueError(
                    f"start_config has {self.start_config.shape[0]} entries, robot has {chain.n} joints"
                )
            base = chain.base_pose.position
            if float(np.linalg.norm(self.goal_position - base)) > 2.0:
                raise ValueError("goal_position lies more than 2 m from the robot base")
            if self.obstacles and not chain.body_spheres:
                raise ValueError(f"obstacles need body spheres, and robot {chain.name!r} has none")
            self._chain = chain
        return self._chain

    def build_sdf(self) -> WorkspaceSdf | None:
        """The exact signed distance of the obstacles; None without any."""
        return build_workspace_sdf(self.obstacles) if self.obstacles else None

    def resolve_lambda_max(self, chain: KinematicChain | None = None) -> float:
        """Scenario override, else the model-file cache for the scenario's
        task dimension, else a fresh estimate."""
        if self.lambda_max is not None:
            return self.lambda_max
        chain = chain or self.load_chain()
        cached = chain.lambda_max.get(self.task_dim)
        return estimate_lambda_max(chain, task_dim=self.task_dim) if cached is None else cached


def _schema() -> dict:
    text = resources.files("manipplan").joinpath("data", "scenario.schema.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def _validator():
    """The scenario schema's validator, with the schema itself checked
    against its metaschema once per process."""
    schema = _schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(data: dict) -> None:
    """Raise what ``jsonschema.validate`` raises for an invalid scenario:
    the best match among the validation errors."""
    error = best_match(_validator().iter_errors(data))
    if error is not None:
        raise error


# Scenario file key -> cast, for the keys that map one to one onto a
# Scenario field.  A key the file leaves out keeps the dataclass default.
_SCENARIO_CASTS = {
    "name": str,
    "horizon": float,
    "num_support": int,
    "n_interp": int,
    "sigma_sbar": float,
    "sigma_obs": float,
    "qc_scale": float,
    "epsilon": float,
    "lambda_max": lambda value: value,
    "enable_singularity_factors": bool,
    "task_dim": int,
}


def _obstacle(index: int, box: dict) -> BoxObstacle:
    """Obstacle ``index`` of a scenario file; an invalid box is named by its index."""
    try:
        return BoxObstacle(center=box["center"], half_extents=box["half_extents"])
    except ValueError as exc:
        raise ValueError(f"obstacles[{index}]: {exc}") from exc


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build a validated scenario from parsed JSON.

    ``robot`` is a built-in model name (no suffix, one path component) or
    a path; a relative path is resolved against ``base_dir`` (the scenario
    file's directory) alone.
    """
    _validate(data)
    robot = str(data["robot"])
    if not _is_builtin(robot) and not Path(robot).is_absolute() and base_dir is not None:
        robot = str(base_dir / robot)
    fields = {key: cast(data[key]) for key, cast in _SCENARIO_CASTS.items() if key in data}
    if "obstacles" in data:
        fields["obstacles"] = tuple(_obstacle(i, box) for i, box in enumerate(data["obstacles"]))
    if "solver" in data:
        fields["solver"] = fg.SolverSettings.from_dict(data["solver"])
    return Scenario(
        robot=robot,
        start_config=np.array(data["start_config"], dtype=float),
        goal_position=np.array(data["goal_position"], dtype=float),
        **fields,
    )


def builtin_scenario_path(name: str) -> Path:
    path = Path(str(resources.files("manipplan").joinpath("data", "scenarios", f"{name}.json")))
    if not path.is_file():
        raise FileNotFoundError(f"no built-in scenario named {name!r}")
    return path


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a JSON file path or a built-in scenario name
    (no suffix, one path component, whatever the current directory holds)."""
    path = builtin_scenario_path(str(source)) if _is_builtin(source) else Path(source)
    data = json.loads(path.read_text())
    return scenario_from_dict(data, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Trajectory evaluation and export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaStats:
    mean: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict:
        return {"mean": self.mean, "min": self.minimum, "max": self.maximum}


def _sampled_states(trajectory: gp.SupportTrajectory, per_segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Times (S,) and stacked ``[q; q_dot]`` states (S, 2n) of the support
    states plus ``per_segment`` GP-interpolated states per segment, in time
    order.  The interpolated states are the factor graph's blends."""
    knots, times = trajectory.x, trajectory.times
    taus, lam, psi = fg.interpolated_blends(times, per_segment)
    halves = knots[np.arange(len(knots) - 1)[:, None] + np.arange(2)].reshape(-1, 1, 1, 4, trajectory.n)
    inner = gp.blend(np.concatenate([lam, psi], axis=-1), halves).reshape(taus.shape + knots.shape[1:])

    def in_time_order(at_knots, between):
        """Each segment's first knot, then its interpolated rows; the last knot."""
        segments = np.concatenate([at_knots[:-1, None], between], axis=1)
        return np.concatenate([segments.reshape((-1,) + at_knots.shape[1:]), at_knots[-1:]])

    states = in_time_order(knots, inner)
    if not np.all(np.isfinite(states)):
        raise ValueError("trajectory state contains non-finite values")
    return in_time_order(times, taus), states


@dataclass
class EvaluatedProfile:
    """Per-sample diagnostics along a trajectory."""

    times: np.ndarray
    positions: np.ndarray  # (rows, n)
    velocities: np.ndarray  # (rows, n)
    lambdas: np.ndarray
    sigma_mins: np.ndarray  # smallest task-velocity axis, a high-lambda blind spot
    ee_positions: np.ndarray  # (rows, 3)
    clearances: np.ndarray | None  # (rows, num_spheres) when obstacles exist

    @property
    def stats(self) -> LambdaStats:
        return LambdaStats(
            mean=float(self.lambdas.mean()),
            minimum=float(self.lambdas.min()),
            maximum=float(self.lambdas.max()),
        )

    @property
    def min_clearance(self) -> float | None:
        if self.clearances is None:
            return None
        return float(self.clearances.min())


def _evaluate_states(
    chain: KinematicChain,
    task_dim: int,
    times: np.ndarray,
    states: np.ndarray,
    sdf: WorkspaceSdf | None,
) -> EvaluatedProfile:
    positions = states[:, : chain.n]
    # One forward-kinematics pass gives the Jacobians, end-effector and spheres.
    frames = _fk_matrices(chain, _as_config(chain, positions, stack=True))
    jacobians = geometric_jacobian(chain, positions, task_dim, frames)
    singular_values = np.linalg.svd(_checked(jacobians), full_matrices=False)[1]
    return EvaluatedProfile(
        times=times,
        positions=positions,
        velocities=states[:, chain.n :],
        lambdas=np.prod(singular_values, axis=-1),
        sigma_mins=singular_values[:, -1],
        ee_positions=frames[:, -1, :3, 3],
        clearances=None if sdf is None else sphere_clearances(chain, positions, sdf, frames),
    )


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write (rows,) and (rows, c) arrays side by side, one line per row,
    at full round-trip precision so consumers can recompute exactly.

    The fields are float ``repr`` strings and plain column names, which
    hold no comma, quote or line break, so joining them with commas writes
    the bytes of ``csv.writer`` with ``lineterminator="\\n"``."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunResult:
    scenario_name: str
    trajectory: gp.SupportTrajectory
    report: fg.OptimizeReport | None  # None for the unoptimized prior
    factor_profile: EvaluatedProfile  # support + interpolated cost states
    dense_profile: EvaluatedProfile  # fixed dense grid used for statistics
    goal_error: float
    collision_free: bool | None

    @property
    def stats(self) -> LambdaStats:
        return self.dense_profile.stats

    @property
    def converged(self) -> bool:
        return self.report is None or self.report.converged

    @property
    def success(self) -> bool:
        ok = self.converged and self.goal_error <= GOAL_TOLERANCE
        if self.collision_free is not None:
            ok = ok and self.collision_free
        return ok

    def report_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "convergence": None if self.report is None else self.report.as_dict(),
            "goal_error_m": self.goal_error,
            "goal_reached": bool(self.goal_error <= GOAL_TOLERANCE),
            "collision_free": self.collision_free,
            "min_clearance_m": self.dense_profile.min_clearance,
            "lambda": self.stats.as_dict(),
            "success": self.success,
        }


def _finalize_run(
    scenario: Scenario,
    trajectory: gp.SupportTrajectory,
    report: fg.OptimizeReport | None,
    out_dir: Path | None,
) -> RunResult:
    chain, sdf = scenario.load_chain(), scenario.build_sdf()
    factor_profile, dense_profile = (
        _evaluate_states(chain, scenario.task_dim, *_sampled_states(trajectory, per_segment), sdf)
        for per_segment in (scenario.n_interp, PROFILE_POINTS_PER_SEGMENT)
    )
    goal_error = float(np.linalg.norm(dense_profile.ee_positions[-1] - scenario.goal_position))
    collision_free = None
    if sdf is not None:
        collision_free = bool(dense_profile.clearances.min() >= 0.0 and factor_profile.clearances.min() >= 0.0)
    result = RunResult(
        scenario_name=scenario.name,
        trajectory=trajectory,
        report=report,
        factor_profile=factor_profile,
        dense_profile=dense_profile,
        goal_error=goal_error,
        collision_free=collision_free,
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        n = chain.n
        header = ["time"] + [f"q{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)] + ["lambda"]
        columns = [factor_profile.times, factor_profile.positions, factor_profile.velocities, factor_profile.lambdas]
        _write_csv(out_dir / "trajectory.csv", header, columns)
        header = ["time", "lambda", "sigma_min", "ee_x", "ee_y", "ee_z"]
        columns = [dense_profile.times, dense_profile.lambdas, dense_profile.sigma_mins, dense_profile.ee_positions]
        if sdf is not None:
            header += [f"clearance_{i}" for i in range(len(chain.body_spheres))]
            columns.append(dense_profile.clearances)
        _write_csv(out_dir / "lambda_profile.csv", header, columns)
        (out_dir / "report.json").write_text(json.dumps(result.report_dict(), indent=2, sort_keys=True) + "\n")
    return result


def _execute(scenario: Scenario, out_dir: Path | None, optimize: bool) -> RunResult:
    trajectory = gp.init_trajectory(
        scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp
    )
    report = None
    if optimize:
        graph = fg.build_graph(scenario, trajectory)
        trajectory, report = fg.optimize(graph, trajectory, scenario.solver)
    return _finalize_run(scenario, trajectory, report, out_dir)


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> RunResult:
    """Plan one scenario and export ``trajectory.csv``, ``lambda_profile.csv``
    and ``report.json`` into ``out_dir`` (when given)."""
    out = Path(out_dir) if out_dir is not None else None
    return _execute(scenario, out, optimize=True)


@dataclass
class ComparisonResult:
    prior: RunResult
    baseline: RunResult
    aware: RunResult
    normalization: float  # max lambda observed across the three runs

    def report_dict(self) -> dict:
        return {
            "normalization": self.normalization,
            "prior": self.prior.report_dict(),
            "baseline": self.baseline.report_dict(),
            "singularity_aware": self.aware.report_dict(),
        }


def run_comparison(scenario: Scenario, out_dir: str | Path | None = None) -> ComparisonResult:
    """Run the prior (no optimization), the baseline (no singularity
    factors), and the singularity-aware planner on one scenario.

    Exports per-run artifacts plus ``comparison.csv`` with the aligned
    manipulability profiles normalized to the maximum observed value.
    """
    out = Path(out_dir) if out_dir is not None else None
    prior = _execute(scenario, None if out is None else out / "prior", optimize=False)
    baseline_scenario = replace(scenario, enable_singularity_factors=False)
    baseline = _execute(baseline_scenario, None if out is None else out / "baseline", optimize=True)
    aware_scenario = replace(scenario, enable_singularity_factors=True)
    aware = _execute(aware_scenario, None if out is None else out / "aware", optimize=True)

    normalization = max(run.dense_profile.lambdas.max() for run in (prior, baseline, aware))
    result = ComparisonResult(prior=prior, baseline=baseline, aware=aware, normalization=normalization)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        kinds = ("prior", "baseline", "aware")
        header = ["time"] + [f"lambda_{kind}" for kind in kinds] + [f"norm_lambda_{kind}" for kind in kinds]
        lambdas = [run.dense_profile.lambdas for run in (prior, baseline, aware)]
        columns = [prior.dense_profile.times, *lambdas, *(lam / normalization for lam in lambdas)]
        _write_csv(out / "comparison.csv", header, columns)
        (out / "comparison_report.json").write_text(json.dumps(result.report_dict(), indent=2, sort_keys=True) + "\n")
    return result


@dataclass
class SweepResult:
    counts: list[int]
    runs: list[RunResult]
    prior: RunResult

    def report_dict(self) -> dict:
        return {
            "prior": self.prior.report_dict(),
            "runs": [
                {"n_interp": c, **run.report_dict()} for c, run in zip(self.counts, self.runs)
            ],
        }


def run_interp_sweep(
    scenario: Scenario, interp_counts, out_dir: str | Path | None = None
) -> SweepResult:
    """Re-plan the scenario for each interpolated-state count and report
    the manipulability statistics per count (plus the prior's)."""
    counts = [int(c) for c in interp_counts]
    if not counts:
        raise ValueError("interp_counts must not be empty")
    out = Path(out_dir) if out_dir is not None else None
    prior = _execute(scenario, None, optimize=False)
    runs = []
    for count in counts:
        sub = None if out is None else out / f"interp_{count}"
        runs.append(_execute(replace(scenario, n_interp=count), sub, optimize=True))
    result = SweepResult(counts=counts, runs=runs, prior=prior)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        header = ["n_interp", "lambda_mean", "lambda_min", "final_cost", "converged", "iterations"]
        rows = [
            [count, run.stats.mean, run.stats.minimum, run.report.final_cost, run.report.converged, run.report.iterations]
            for count, run in zip(counts, runs)
        ]
        _write_csv(out / "sweep.csv", header, [np.array(rows, dtype=float)])
        (out / "sweep_report.json").write_text(json.dumps(result.report_dict(), indent=2, sort_keys=True) + "\n")
    return result
