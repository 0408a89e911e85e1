"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The UR-10 experiment scenarios are reconstructions, so the quantitative
checks are property- and ordering-based at the tolerances pinned here.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from manipplan import factor_graph as fg
from manipplan import gp_prior as gp
from manipplan.kinematics import geometric_jacobian, load_chain
from manipplan.manipulability import manipulability, manipulability_gradient, singularity_cost
from manipplan.scenario import load_scenario, run_comparison, run_interp_sweep, run_scenario

from .oracles import dense_gp_conditional_mean, dense_linearization, manipulability_fd, planar_arm

SWEEP_COUNTS = (0, 2, 4, 8)


def report(number, description, ok):
    print(f"[acceptance] criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def ur10_chain():
    return load_chain("ur10")


@pytest.fixture(scope="module")
def random_ur10_configs(ur10_chain):
    """100 seeded configurations with manipulability above 0.01."""
    rng = np.random.default_rng(7)
    configs = []
    while len(configs) < 100:
        q = rng.uniform(-np.pi, np.pi, 6)
        if manipulability(geometric_jacobian(ur10_chain, q, 6)) > 0.01:
            configs.append(q)
    return configs


@pytest.fixture(scope="module")
def unconstrained_comparison():
    start = time.perf_counter()
    result = run_comparison(load_scenario("ur10_unconstrained"))
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def table_comparison():
    return run_comparison(load_scenario("ur10_table"))


def max_second_difference(trajectory):
    positions = np.array([s.position for s in trajectory.states])
    return float(np.abs(np.diff(positions, n=2, axis=0)).max())


def test_criterion_1_gradient_matches_finite_differences(ur10_chain, random_ur10_configs):
    start = time.perf_counter()
    worst = 0.0
    for q in random_ur10_configs:
        grad = manipulability_gradient(ur10_chain, q, 6).values
        fd = manipulability_fd(ur10_chain, q, 6, step=1e-6)
        worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        f"analytic manipulability gradient vs central differences: max rel err {worst:.3g} < 1e-4, {elapsed:.2f}s < 5s",
        worst < 1e-4 and elapsed < 5.0,
    )


def test_criterion_2_log_cost_cancellation_identity(ur10_chain, random_ur10_configs):
    from manipplan.manipulability import SingularityCostParams

    params = SingularityCostParams(lambda_max=ur10_chain.lambda_max[6], sigma_sbar=1e-4)
    worst = 0.0
    for q in random_ur10_configs:
        lam = manipulability(geometric_jacobian(ur10_chain, q, 6))
        cost = singularity_cost(ur10_chain, q, params, 6)
        grad = manipulability_gradient(ur10_chain, q, 6).values
        expected = -grad / lam
        worst = max(worst, np.abs(cost.gradient - expected).max() / np.abs(expected).max())
    report(2, f"log-cost Jacobian equals -grad(lambda)/lambda: max rel err {worst:.3g} < 1e-10", worst < 1e-10)


def test_criterion_3_planar_analytic_oracle():
    chain = planar_arm([1.0, 1.0])
    worst = 0.0
    for q2 in np.linspace(0.001, np.pi - 0.001, 100):
        lam = manipulability(geometric_jacobian(chain, [0.7, q2], task_dim=2))
        worst = max(worst, abs(lam - abs(math.sin(q2))))

    def sine_cost(q):
        theta = q[:, 0]
        lam = np.abs(np.sin(theta))
        h = np.log(1.0 / np.maximum(lam, 1e-9))
        grad = -np.cos(theta) / np.where(lam > 1e-9, np.sin(theta), np.inf)
        return h[:, None], grad[:, None, None]

    trajectory = gp.SupportTrajectory(times=[0.0, 1.0], x=[[0.3, 0.0], [0.3, 0.0]])
    graph = fg.FactorGraph(
        factors=(
            fg.ConfigurationFactor(fg.FactorKind.SINGULARITY, [0, 1], sine_cost, 1, 1e-2),
        ),
        num_states=2,
        state_dim=2,
    )
    solution, rep = fg.optimize(
        graph, trajectory, fg.SolverSettings(max_iterations=200, rel_cost_tol=1e-30, abs_grad_tol=1e-30)
    )
    map_error = abs(solution.states[0].position[0] - math.pi / 2)
    report(
        3,
        f"2R oracle lambda=|sin q2| (max err {worst:.2g} < 1e-9) and 1-joint MAP at pi/2 (err {map_error:.2g} < 1e-6)",
        worst < 1e-9 and map_error < 1e-6 and rep.converged,
    )


def test_criterion_4_gp_interpolation_matches_dense_conditioning():
    rng = np.random.default_rng(11)
    qc = np.array([[1.2, 0.2], [0.2, 0.8]])
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    values = rng.standard_normal((5, 4))
    worst_dense = 0.0
    for tau, left in ((0.37, 0), (1.2, 1), (2.5, 2), (3.7, 3)):
        expected = dense_gp_conditional_mean(times, values, tau, qc, initial_cov=np.eye(4))
        x_i = gp.TrajectoryState(values[left, :2], values[left, 2:], times[left])
        x_j = gp.TrajectoryState(values[left + 1, :2], values[left + 1, 2:], times[left + 1])
        x_tau, _, _ = gp.interpolate(x_i, x_j, tau)
        worst_dense = max(worst_dense, np.abs(x_tau.as_vector() - expected).max())

    x_i = gp.TrajectoryState(values[0, :2], values[0, 2:], 0.0)
    x_j = gp.TrajectoryState(values[1, :2], values[1, 2:], 1.0)
    left_err = np.abs(gp.interpolate(x_i, x_j, 0.0)[0].as_vector() - x_i.as_vector()).max()
    right_err = np.abs(gp.interpolate(x_i, x_j, 1.0)[0].as_vector() - x_j.as_vector()).max()
    knot_err = max(left_err, right_err)
    report(
        4,
        f"GP interpolation: dense-kernel agreement {worst_dense:.2g} < 1e-8, knot exactness {knot_err:.2g} < 1e-12",
        worst_dense < 1e-8 and knot_err < 1e-12,
    )


def test_criterion_5_solver_sanity(unconstrained_comparison, table_comparison):
    trajectory = gp.init_trajectory(np.zeros(2), 3.0, 4)
    goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
    factors = [fg.StartPriorFactor(state=0, prior=trajectory.states[0].as_vector(), sigma=1e-6)]
    factors.append(fg.GpPriorFactor(times=trajectory.times, n=2, qc=2.0))
    factors.append(fg.StartPriorFactor(state=3, prior=goal_state, sigma=1e-6))
    graph = fg.FactorGraph(factors=tuple(factors), num_states=4, state_dim=4)
    jac, res = dense_linearization(graph, trajectory)
    closed_form = trajectory.x.ravel() + np.linalg.solve(jac.T @ jac, -(jac.T @ res))
    # One undamped step: the normal equations solved with zero damping.
    band, gradient, _ = fg.linearize(graph, trajectory)
    step = fg._solve_normal(band, np.zeros(len(gradient)), gradient)
    linear_err = float(np.abs(trajectory.x.ravel() + step - closed_form).max())

    def monotone(run):
        trace = run.report.cost_trace
        return all(a >= b for a, b in zip(trace, trace[1:]))

    runs = [
        unconstrained_comparison[0].baseline,
        unconstrained_comparison[0].aware,
        table_comparison.baseline,
        table_comparison.aware,
    ]
    all_monotone = all(monotone(run) for run in runs)
    report(
        5,
        f"one undamped step solves linear graphs (err {linear_err:.2g} < 1e-10); LM accepted-cost traces monotone on both scenarios",
        linear_err < 1e-10 and all_monotone,
    )


def test_criterion_6_unconstrained_ordering(unconstrained_comparison):
    result, elapsed = unconstrained_comparison
    aware, baseline, prior = result.aware, result.baseline, result.prior
    prior_lambda = prior.stats.maximum
    ok = (
        aware.report.converged
        and baseline.report.converged
        and aware.stats.mean > baseline.stats.mean
        and aware.stats.minimum > prior_lambda
        and elapsed < 10.0
    )
    report(
        6,
        "unconstrained: aware mean lambda {:.4f} > baseline {:.4f}; aware min {:.6f} > prior {:.6f}; {:.1f}s < 10s".format(
            aware.stats.mean, baseline.stats.mean, aware.stats.minimum, prior_lambda, elapsed
        ),
        ok,
    )


def test_criterion_7_obstacle_feasibility_and_ordering(table_comparison):
    aware, baseline = table_comparison.aware, table_comparison.baseline

    def clear_everywhere(run):
        return (
            run.factor_profile.clearances.min() >= 0.0
            and run.dense_profile.clearances.min() >= 0.0
        )

    ok = (
        aware.report.converged
        and baseline.report.converged
        and clear_everywhere(aware)
        and clear_everywhere(baseline)
        and aware.goal_error <= 1e-3
        and baseline.goal_error <= 1e-3
        and aware.stats.mean > baseline.stats.mean
    )
    report(
        7,
        "obstacle: collision-free (aware min clearance {:+.4f}, baseline {:+.4f}), goals ({:.1e}, {:.1e}) <= 1e-3 m, aware mean {:.4f} > baseline {:.4f}".format(
            aware.dense_profile.min_clearance,
            baseline.dense_profile.min_clearance,
            aware.goal_error,
            baseline.goal_error,
            aware.stats.mean,
            baseline.stats.mean,
        ),
        ok,
    )


def test_criterion_8_interpolation_sweeps():
    unconstrained = run_interp_sweep(load_scenario("ur10_unconstrained"), SWEEP_COUNTS)
    means = [run.stats.mean for run in unconstrained.runs]
    non_decreasing = all(means[i + 1] >= 0.98 * means[i] for i in range(len(means) - 1))

    table = run_interp_sweep(load_scenario("ur10_table"), SWEEP_COUNTS)
    table_means = [run.stats.mean for run in table.runs]
    above_prior = all(m > table.prior.stats.mean for m in table_means)
    converged = all(r.report.converged for r in unconstrained.runs + table.runs)
    report(
        8,
        "sweep 0->8: unconstrained means {} non-decreasing (2% slack); obstacle means {} all above prior {:.4f}".format(
            [round(m, 4) for m in means], [round(m, 4) for m in table_means], table.prior.stats.mean
        ),
        non_decreasing and above_prior and converged,
    )


def test_criterion_9_smoothness(unconstrained_comparison, table_comparison):
    runs = {
        "unconstrained aware": unconstrained_comparison[0].aware,
        "unconstrained baseline": unconstrained_comparison[0].baseline,
        "table aware": table_comparison.aware,
        "table baseline": table_comparison.baseline,
    }
    seconds = {label: max_second_difference(run.trajectory) for label, run in runs.items()}
    ok = all(run.report.converged for run in runs.values()) and all(v < 0.5 for v in seconds.values())
    report(
        9,
        "max joint second difference across support states {} all < 0.5 rad".format(
            {k: round(v, 3) for k, v in seconds.items()}
        ),
        ok,
    )


def test_criterion_10_determinism(tmp_path):
    scenario = load_scenario("ur10_unconstrained")
    run_scenario(scenario, tmp_path / "first")
    run_scenario(load_scenario("ur10_unconstrained"), tmp_path / "second")
    names = ("trajectory.csv", "lambda_profile.csv")
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in names
    )
    report(10, "two plans of the same scenario produce byte-identical CSV artifacts", identical)
