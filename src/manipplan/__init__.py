"""manipplan: singularity-avoiding trajectory optimization for serial
manipulators, solved as MAP inference over a Gaussian-process trajectory
prior on a factor graph."""

from .collision import BoxObstacle, WorkspaceSdf, build_workspace_sdf, hinge_cost, sdf_query
from .factor_graph import (
    FactorGraph,
    FactorKind,
    OptimizeReport,
    SolverSettings,
    build_graph,
    optimize,
    total_cost,
)
from .gp_prior import (
    SupportTrajectory,
    TrajectoryState,
    gp_prior_error,
    init_trajectory,
    interpolate,
)
from .kinematics import (
    DhLink,
    KinematicChain,
    Pose,
    forward_kinematics,
    geometric_jacobian,
    jacobian_partials,
    load_chain,
)
from .manipulability import (
    SingularityCostParams,
    classify_configuration,
    likelihood,
    manipulability,
    manipulability_gradient,
    singularity_cost,
)
from .scenario import (
    Scenario,
    load_scenario,
    run_comparison,
    run_interp_sweep,
    run_scenario,
)

__version__ = "0.1.0"
