import gc
import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from manipplan import factor_graph as fg
from manipplan import gp_prior as gp
from manipplan import collision, kinematics
from manipplan.collision import collision_residual
from manipplan.kinematics import forward_kinematics, point_jacobian
from manipplan.manipulability import SingularityCostParams, singularity_cost
from manipplan.scenario import BoxObstacle, Scenario, load_scenario

from .oracles import (
    contract_six_rows,
    dense_linearization,
    field_distances_broadcast,
    linearize_per_factor,
    planar_arm,
)

LAMBDA_FLOOR = 1e-9


def sine_cost(q):
    """Toy 1-joint log cost with lambda(theta) = |sin theta|, lambda_max = 1,
    over a (K, 1) stack of configurations."""
    theta = q[:, 0]
    lam = np.abs(np.sin(theta))
    h = np.log(1.0 / np.maximum(lam, LAMBDA_FLOOR))
    grad = -np.cos(theta) / np.where(lam > LAMBDA_FLOOR, np.sin(theta), np.inf)
    return h[:, None], grad[:, None, None]


def singularity_factor(state, cost, sigma):
    return fg.ConfigurationFactor(fg.FactorKind.SINGULARITY, [state], cost, 1, sigma)


def goal_factor(state, chain, goal, sigma):
    return fg.ConfigurationFactor(fg.FactorKind.GOAL_POSITION, [state], fg.ChainGoalCost(chain, goal), 3, sigma)


def single_state_graph(factors, n):
    # The trajectory container always carries two knots, so toy graphs
    # over "one" state declare both and leave the second unreferenced
    # (zero curvature there is absorbed by the clamped LM damping).
    return fg.FactorGraph(factors=tuple(factors), num_states=2, state_dim=2 * n)


def undamped_step(graph, trajectory):
    """The undamped (Gauss-Newton) step at ``trajectory``: the normal
    equations from ``linearize``, solved by ``_solve_normal`` with zero
    damping."""
    band, gradient, _ = fg.linearize(graph, trajectory)
    return fg._solve_normal(band, np.zeros(len(gradient)), gradient)


def one_state_trajectory(q, extra_time=1.0):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    zero = np.zeros_like(q)
    return gp.SupportTrajectory(times=[0.0, extra_time], x=[np.concatenate([q, zero])] * 2)


class TestFactorResiduals:
    def test_singularity_residual_zero_at_lambda_max(self, planar2r):
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        factor = singularity_factor(0, cost_fn, 1e-4)
        traj = one_state_trajectory([0.4, np.pi / 2])
        r, jac = factor.evaluate(traj.x)
        assert abs(r[0, 0]) < 1e-10
        assert jac.shape == (1, 1, 4)

    def test_goal_residual_zero_at_goal(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        goal = forward_kinematics(ur10, q)[-1].position
        factor = goal_factor(0, ur10, goal, 1e-8)
        r, _ = factor.evaluate(one_state_trajectory(q).x)
        np.testing.assert_allclose(r, np.zeros((1, 3)), atol=1e-9)

    def test_interpolated_singularity_midpoint_identity(self, planar2r):
        # Two identical stationary states: the midpoint cost equals the
        # plain per-state cost, and each state receives exactly half of the
        # position-block Jacobian (midpoint blend weights are 1/2).
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        q = np.array([0.3, 0.9])
        traj = gp.SupportTrajectory(times=[0.0, 2.0], x=[np.concatenate([q, np.zeros(2)])] * 2)
        plain = singularity_factor(0, cost_fn, 1e-4)
        taus, lam, psi = fg.interpolated_blends(traj.times, 1)
        assert taus.tolist() == [[1.0]] and lam.shape == psi.shape == (1, 1, 2, 2)
        interp = fg.ConfigurationFactor(fg.FactorKind.INTERP_SINGULARITY, [0], cost_fn, 1, 1e-4, (lam, psi))
        r_plain, jac_plain = plain.evaluate(traj.x)
        r_interp, jac_interp = interp.evaluate(traj.x)
        jac_i, jac_j = jac_interp[0, :, :4], jac_interp[0, :, 4:]
        assert r_interp[0, 0] == pytest.approx(r_plain[0, 0], rel=1e-12)
        np.testing.assert_allclose(jac_i[0, :2], 0.5 * jac_plain[0, 0, :2], rtol=1e-12)
        np.testing.assert_allclose(jac_j[0, :2], 0.5 * jac_plain[0, 0, :2], rtol=1e-12)

    def test_residual_function_returns_whitened_values(self, planar2r):
        factor = fg.StartPriorFactor(state=0, prior=np.zeros(4), sigma=1e-4)
        traj = one_state_trajectory([0.2, -0.1])
        r, jac = factor.evaluate(traj.x)
        np.testing.assert_allclose(r[0], 100.0 * traj.states[0].as_vector(), rtol=1e-12)
        np.testing.assert_allclose(jac[0], 100.0 * np.eye(4), rtol=1e-12)

    def test_interpolated_factor_requires_interior_tau(self):
        # A one-ulp segment: its midpoint rounds onto the first knot.
        with pytest.raises(ValueError):
            fg.interpolated_blends(np.array([1.0, np.nextafter(1.0, 2.0)]), 1)


class TestTotalCost:
    def test_stationary_prior_graph_costs_nothing(self):
        traj = gp.init_trajectory([0.3, -0.7], horizon=5.0, num_states=6)
        graph = fg.FactorGraph(factors=(fg.GpPriorFactor(times=traj.times, n=2, qc=1e3),), num_states=6, state_dim=4)
        assert fg.total_cost(graph, traj) == 0.0

    def test_adding_factors_never_decreases_cost(self, planar2r):
        traj = one_state_trajectory([0.5, 0.5])
        goal = goal_factor(0, planar2r, [1.0, 1.0, 0.0], 1e-2)
        prior = fg.StartPriorFactor(state=0, prior=np.ones(4), sigma=1e-2)
        g1 = single_state_graph([goal], 2)
        g2 = single_state_graph([goal, prior], 2)
        assert fg.total_cost(g2, traj) >= fg.total_cost(g1, traj)

    def test_one_joint_cost_surface_matches_brute_force(self):
        # Independent oracle: the whitened cost formula evaluated directly.
        sigma = 1e-2
        prior_theta = 0.4
        prior_sigma = 0.5
        factor = singularity_factor(0, sine_cost, sigma)
        prior = fg.StartPriorFactor(
            state=0, prior=np.array([prior_theta, 0.0]), sigma=prior_sigma
        )
        graph = single_state_graph([factor, prior], 1)
        for theta in np.linspace(0.05, 3.1, 40):
            traj = one_state_trajectory([theta])
            h = math.log(1.0 / abs(math.sin(theta)))
            expected = 0.5 * h * h / sigma + 0.5 * (theta - prior_theta) ** 2 / prior_sigma
            assert fg.total_cost(graph, traj) == pytest.approx(expected, rel=1e-12)


class TestOptimize:
    def linear_graph(self):
        traj = gp.init_trajectory(np.zeros(2), 3.0, 4)
        goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
        factors = [fg.StartPriorFactor(state=0, prior=traj.states[0].as_vector(), sigma=1e-6)]
        factors.append(fg.GpPriorFactor(times=traj.times, n=2, qc=2.0))
        factors.append(fg.StartPriorFactor(state=3, prior=goal_state, sigma=1e-6))
        return fg.FactorGraph(factors=tuple(factors), num_states=4, state_dim=4), traj

    def test_gauss_newton_solves_linear_graph_in_one_step(self):
        graph, traj = self.linear_graph()
        jac, res = dense_linearization(graph, traj)
        closed_form = traj.x.ravel() + np.linalg.solve(jac.T @ jac, -(jac.T @ res))
        assert np.abs(traj.x.ravel() + undamped_step(graph, traj) - closed_form).max() < 1e-10

    def test_one_joint_sine_map_converges_to_right_angle(self):
        factor = singularity_factor(0, sine_cost, 1e-2)
        factor2 = singularity_factor(1, sine_cost, 1e-2)
        graph = fg.FactorGraph(factors=(factor, factor2), num_states=2, state_dim=2)
        traj = one_state_trajectory([0.3])
        settings = fg.SolverSettings(max_iterations=200, rel_cost_tol=1e-30, abs_grad_tol=1e-30)
        solution, report = fg.optimize(graph, traj, settings)
        assert abs(solution.states[0].position[0] - math.pi / 2) < 1e-6
        assert report.converged

    def test_two_joint_toy_matches_grid_search(self, planar2r):
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-2)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        factors = (
            singularity_factor(0, cost_fn, 1e-2),
            goal_factor(0, planar2r, [1.2, 0.8, 0.0], 1e-2),
        )
        graph = single_state_graph(factors, 2)
        init = one_state_trajectory([0.4, 0.7])
        solution, report = fg.optimize(
            graph, init, fg.SolverSettings(max_iterations=300, rel_cost_tol=1e-14, abs_grad_tol=1e-10)
        )
        solver_cost = fg.total_cost(graph, solution)

        thetas = np.linspace(-np.pi, np.pi, 100)
        grid = np.empty((100, 100))
        for a, t1 in enumerate(thetas):
            for b, t2 in enumerate(thetas):
                grid[a, b] = fg.total_cost(graph, one_state_trajectory([t1, t2]))
        best = np.unravel_index(np.argmin(grid), grid.shape)
        grid_min = grid[best]
        # Within grid resolution: the solver must beat the grid, and the
        # grid minimum can only overshoot by its own one-cell variation.
        neighbor_span = max(
            abs(grid[best] - grid[min(best[0] + 1, 99), best[1]]),
            abs(grid[best] - grid[max(best[0] - 1, 0), best[1]]),
            abs(grid[best] - grid[best[0], min(best[1] + 1, 99)]),
            abs(grid[best] - grid[best[0], max(best[1] - 1, 0)]),
        )
        assert solver_cost <= grid_min + 1e-12
        assert grid_min - solver_cost <= neighbor_span

    def test_non_finite_initial_cost_rejected(self):
        def exploding(q):
            return np.full((len(q), 1), np.inf), np.zeros((len(q), 1, 1))

        graph = fg.FactorGraph(
            factors=(singularity_factor(0, exploding, 1.0),),
            num_states=2,
            state_dim=2,
        )
        with pytest.raises(ValueError):
            fg.optimize(graph, one_state_trajectory([0.1]), fg.SolverSettings())

    def test_max_iterations_reported_as_not_converged(self, planar2r):
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        factors = (
            singularity_factor(0, cost_fn, 1e-4),
            goal_factor(0, planar2r, [1.0, 1.0, 0.0], 1e-8),
        )
        graph = single_state_graph(factors, 2)
        solution, report = fg.optimize(
            graph,
            one_state_trajectory([0.4, 0.7]),
            fg.SolverSettings(max_iterations=2, rel_cost_tol=1e-30, abs_grad_tol=1e-30),
        )
        assert not report.converged
        assert report.iterations == 2

    def test_lm_trace_monotone_and_deterministic(self, planar2r):
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        factors = (
            singularity_factor(0, cost_fn, 1e-4),
            goal_factor(0, planar2r, [1.0, 1.0, 0.0], 1e-8),
            fg.StartPriorFactor(state=1, prior=np.array([0.0, 0.9, 0.0, 0.0]), sigma=1e2),
        )
        graph = fg.FactorGraph(factors=factors, num_states=2, state_dim=4)
        init = one_state_trajectory([0.4, 0.7])
        settings = fg.SolverSettings(max_iterations=150)
        sol_a, rep_a = fg.optimize(graph, init, settings)
        sol_b, rep_b = fg.optimize(graph, init, settings)
        assert rep_a.cost_trace == rep_b.cost_trace
        np.testing.assert_array_equal(sol_a.x.ravel(), sol_b.x.ravel())
        assert all(a >= b for a, b in zip(rep_a.cost_trace, rep_a.cost_trace[1:]))

    @pytest.mark.parametrize("problem", ["planar2r_analytic", "ur10_table", "steep"])
    def test_lm_linearizes_only_accepted_candidates(self, monkeypatch, problem):
        if problem == "steep":
            # J^T J is infinite, so no step is ever solved.
            def steep(q):
                return np.ones((len(q), 1)), np.full((len(q), 1, 1), 1e200)

            priors = [fg.StartPriorFactor(state=s, prior=[0.1, 0.0], sigma=1.0) for s in (0, 1)]
            graph = fg.FactorGraph(factors=(singularity_factor(0, steep, 1.0), *priors), num_states=2, state_dim=2)
            init, settings = one_state_trajectory([0.1]), fg.SolverSettings(max_iterations=150)
        else:
            scenario = load_scenario(problem)
            init = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
            graph, settings = fg.build_graph(scenario, init), scenario.solver
        calls = {"linearize": [], "total_cost": [], "_solve_normal": []}
        for name, seen in calls.items():

            def counted(*args, original=getattr(fg, name), seen=seen):
                seen.append(original(*args))
                return seen[-1]

            monkeypatch.setattr(fg, name, counted)
        scores, contractions = [], []

        def score(graph, x, original=fg.FactorGraph.score):
            scores.append(original(graph, x))
            return scores[-1]

        def contract(jset, weights, original=kinematics.JacobianSet.contract):
            contractions.append(weights.shape)
            return original(jset, weights)

        monkeypatch.setattr(fg.FactorGraph, "score", score)
        monkeypatch.setattr(kinematics.JacobianSet, "contract", contract)
        _, report = fg.optimize(graph, init, settings)
        accepted = len(report.cost_trace) - 1
        solved = sum(step is not None for step in calls["_solve_normal"])
        # Each solved step scores its candidate once; the start is scored once.
        assert len(scores) == solved + 1 and len(calls["total_cost"]) == 0
        # Only the start and the accepted candidates are linearized, each from
        # its own score, and only they contract the singularity Jacobians.
        assert len(calls["linearize"]) == accepted + 1
        assert len(contractions) == (0 if problem == "steep" else accepted + 1)
        assert report.cost_trace == [cost for _, _, cost in calls["linearize"]]
        if problem == "steep":
            assert solved == 0 and accepted == 0
        else:
            # Rejected candidates exist, so the counts tell the contract apart.
            assert 0 < accepted < solved

    def test_a_gradient_stop_after_a_step_is_reported_as_one(self):
        # ur10_table's baseline stops after an accepted step whose gradient
        # (1.58 in the infinity norm) is under its abs_grad_tol of 2.
        scenario = replace(load_scenario("ur10_table"), enable_singularity_factors=False)
        init = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
        _, report = fg.optimize(fg.build_graph(scenario, init), init, scenario.solver)
        assert report.converged and report.grad_inf_norm < scenario.solver.abs_grad_tol
        assert report.message == "gradient tolerance"

    def test_gradient_small_at_convergence(self):
        graph, traj = self.linear_graph()
        settings = fg.SolverSettings(max_iterations=50)
        _, report = fg.optimize(graph, traj, settings)
        assert report.converged
        assert report.grad_inf_norm < 10.0 * settings.abs_grad_tol

    def test_large_banded_solve_matches_dense_oracle(self):
        # 150 states of dim 4 = 600 variables, solved in one undamped step.
        num = 150
        traj = gp.init_trajectory(np.zeros(2), float(num - 1), num)
        goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
        factors = [fg.StartPriorFactor(state=0, prior=traj.states[0].as_vector(), sigma=1e-6)]
        factors.append(fg.GpPriorFactor(times=traj.times, n=2, qc=2.0))
        factors.append(fg.StartPriorFactor(state=num - 1, prior=goal_state, sigma=1e-6))
        graph = fg.FactorGraph(factors=tuple(factors), num_states=num, state_dim=4)
        jac, res = dense_linearization(graph, traj)
        closed_form = traj.x.ravel() + np.linalg.solve(jac.T @ jac, -(jac.T @ res))
        assert np.abs(traj.x.ravel() + undamped_step(graph, traj) - closed_form).max() < 1e-8

    @pytest.mark.parametrize("n_interp", [1, 3])
    def test_linearize_band_matches_dense_oracle(self, n_interp):
        scenario = Scenario(
            robot="ur10",
            start_config=np.array([0.3, -1.2, 1.1, 0.4, 0.2, 0.1]),
            goal_position=np.array([0.5, 0.5, 0.5]),
            num_support=4,
            n_interp=n_interp,
            # The box swallows the lower arm, so collision rows are active.
            obstacles=(BoxObstacle(center=[-0.1, 0.0, 0.3], half_extents=[0.2, 0.2, 0.2]),),
        )
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=n_interp)
        traj = traj.with_vector(traj.x.ravel() + 0.05 * np.sin(np.arange(traj.x.size)))
        graph = fg.build_graph(scenario, traj)
        band, gradient, cost = fg.linearize(graph, traj)
        jac, res = dense_linearization(graph, traj)
        (collision,) = [f for f in graph.factors if f.kind is fg.FactorKind.INTERP_COLLISION]
        assert np.all(np.count_nonzero(collision.evaluate(traj.x)[0], axis=1))
        normal = jac.T @ jac
        size = normal.shape[0]
        assert band.shape == (2 * graph.state_dim, size)
        for offset in range(band.shape[0]):
            np.testing.assert_allclose(band[offset, : size - offset], np.diag(normal, -offset), rtol=1e-12, atol=1e-6)
        assert np.all(np.tril(normal, -band.shape[0]) == 0.0)
        np.testing.assert_allclose(gradient, jac.T @ res, rtol=1e-12, atol=1e-6)
        assert cost == pytest.approx(0.5 * res @ res, rel=1e-12)
        assert cost == fg.total_cost(graph, traj)

    @pytest.mark.parametrize(
        "states", [[[0, 2]], [[1, 0]], [[0, 1, 2]], [0, 1], [[2], [0]], [[0], [0]], [[0], [2]], np.zeros((0, 1))]
    )
    def test_graph_rejects_blocks_over_other_than_consecutive_states(self, states):
        factor = fg.StartPriorFactor(state=0, prior=np.zeros(2), sigma=1.0)
        factor.states = np.array(states)
        with pytest.raises(ValueError, match="consecutive"):
            fg.FactorGraph(factors=(factor,), num_states=3, state_dim=2)

    def test_non_finite_normal_equations_reject_the_step(self):
        def steep(q):
            # A finite residual whose Jacobian squares to infinity in J^T J.
            return np.ones((len(q), 1)), np.full((len(q), 1, 1), 1e200)

        init = one_state_trajectory([0.1])
        # Priors at the initial states make the rest of J^T J positive definite.
        priors = [fg.StartPriorFactor(state=s, prior=[0.1, 0.0], sigma=1.0) for s in (0, 1)]
        graph = fg.FactorGraph(factors=(singularity_factor(0, steep, 1.0), *priors), num_states=2, state_dim=2)
        solution, report = fg.optimize(graph, init)
        np.testing.assert_array_equal(solution.x.ravel(), init.x.ravel())
        assert report.cost_trace == [0.5]
        # No damping makes the system finite: the solve ends at once.
        assert not report.converged and report.iterations == 1
        assert report.message == "no finite step: normal equations not finite or not positive definite"

    def test_non_finite_candidate_cost_rejects_the_step(self):
        # A wall: no cost below q = 0.5 and an infinite one beyond it, while
        # the priors pull both states to q = 1.  The full step crosses the
        # wall; its linearization must stop at the cost, before J^T r forms
        # 0 * inf (a RuntimeWarning, an error under -W error).
        def wall(q):
            return np.where(q < 0.5, 0.0, np.inf), np.zeros(q.shape + (1,))

        init = one_state_trajectory([0.1])
        priors = [fg.StartPriorFactor(state=s, prior=[1.0, 0.0], sigma=1.0) for s in (0, 1)]
        graph = fg.FactorGraph(
            factors=(fg.ConfigurationFactor(fg.FactorKind.SINGULARITY, [0, 1], wall, 1, 1.0), *priors),
            num_states=2,
            state_dim=2,
        )
        solution, report = fg.optimize(graph, init)
        assert math.isfinite(report.final_cost)
        assert report.final_cost == fg.total_cost(graph, solution) == report.cost_trace[-1]
        # Damped steps stop short of the wall and still descend.
        assert np.all(solution.x[:, 0] < 0.5) and np.all(solution.x[:, 0] > 0.1)
        assert report.final_cost < report.cost_trace[0]

    @pytest.mark.parametrize("damped", [False, True])
    def test_banded_solve_matches_dense_solve(self, damped):
        scenario = load_scenario("ur10_unconstrained")
        init = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
        graph = fg.build_graph(scenario, init)
        band, gradient, _ = fg.linearize(graph, init)
        jac, res = dense_linearization(graph, init)
        # The undamped system, and LM's first damped one.
        damping = (fg.LM_INIT_DAMPING if damped else 0.0) * fg._damping_scale(band[0])
        normal = jac.T @ jac + np.diag(damping)
        expected = np.linalg.solve(normal, -(jac.T @ res))
        step = fg._solve_normal(band, damping, gradient)
        # Both solves are backward stable, so each is within about cond * eps
        # of the exact step, relative to its size.  The start and goal priors
        # (sigma 1e-8) put eigenvalues near 1e8, the softest direction sits
        # near 1e-2, so cond is 8e9 damped and 2e10 undamped and the bound
        # 2e-6 to 5e-6; the two steps agree to about 4e-12.
        cond = np.linalg.cond(normal)
        assert 1e9 < cond < 1e11
        assert np.abs(step - expected).max() <= cond * np.finfo(float).eps * np.abs(expected).max()
        # A negative diagonal entry makes the band indefinite: no step.
        indefinite = band.copy()
        indefinite[0, 7] = -indefinite[0, 7]
        assert fg._solve_normal(indefinite, damping, gradient) is None

    def test_finite_normal_equations_with_an_infinite_step_give_no_step(self):
        assert fg._solve_normal(np.array([[1e-300]]), np.zeros(1), np.array([1e10])) is None
        assert fg._solve_normal(np.array([[1e-300]]), np.array([1.0]), np.array([1e10])) == pytest.approx([-1e10])

    @pytest.mark.parametrize("call", ["linearize", "total_cost"])
    @pytest.mark.parametrize("n_interp", [0, 1])
    def test_forward_kinematics_passes_do_not_grow_with_the_knots(self, monkeypatch, call, n_interp):
        # The singularity, collision and goal costs over all knots and all
        # interpolated states read one pass over N + (N - 1) P configurations.
        scenario = Scenario(
            robot="ur10",
            start_config=np.array([0.3, -1.2, 1.1, 0.4, 0.2, 0.1]),
            goal_position=np.array([0.5, 0.5, 0.5]),
            n_interp=n_interp,
            obstacles=(BoxObstacle(center=[-0.1, 0.0, 0.3], half_extents=[0.2, 0.2, 0.2]),),
        )
        for knots in (4, 16):
            traj = gp.init_trajectory(scenario.start_config, scenario.horizon, knots, n_interp=n_interp)
            graph = fg.build_graph(replace(scenario, num_support=knots), traj)
            calls = []

            def counted(chain, q, fk=kinematics._fk_matrices):
                calls.append(q.shape)
                return fk(chain, q)

            monkeypatch.setattr(kinematics, "_fk_matrices", counted)
            monkeypatch.setattr(fg, "_fk_matrices", counted)
            getattr(fg, call)(graph, traj)
            monkeypatch.undo()
            assert calls == [(knots + (knots - 1) * n_interp, 6)]

    def test_the_goal_reads_the_shared_end_effector_jacobian(self, monkeypatch):
        scenario = load_scenario("ur10_table")
        init = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
        graph = fg.build_graph(scenario, init)
        points = []

        def counted(frames, at, links, original=kinematics._point_jacobians):
            points.append(at.shape[:-1])
            return original(frames, at, links)

        monkeypatch.setattr(kinematics, "_point_jacobians", counted)
        monkeypatch.setattr(collision, "_point_jacobians", counted)
        scored = graph.score(init.x)
        # The end effector of every stacked configuration: 16 knots, 15 x 2
        # interpolated states.
        assert points == [(46, 1)]
        fg.linearize(graph, init, scored)
        # Then only the active body spheres; the goal adds no point.
        assert len(points) == 2 and points[1][1:] == (1,)

    @staticmethod
    def digests(*arrays):
        """Shape and SHA-256 of each array's bytes."""
        return [(np.shape(a), hashlib.sha256(np.asarray(a).tobytes()).hexdigest()) for a in arrays]

    @staticmethod
    def perturbed_graph(name, singularity):
        """A shipped scenario's graph, its initial trajectory and 5 seeded perturbations of it."""
        scenario = replace(load_scenario(name), enable_singularity_factors=singularity)
        init = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
        rng = np.random.default_rng(7)
        trajectories = [init] + [
            init.with_vector(init.x.ravel() + rng.normal(0.0, 0.05, init.x.size)) for _ in range(5)
        ]
        return fg.build_graph(scenario, init), trajectories

    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("singularity", [True, False])
    def test_total_cost_is_the_linearized_cost(self, name, singularity):
        graph, trajectories = self.perturbed_graph(name, singularity)
        for traj in trajectories:
            assert fg.total_cost(graph, traj) == fg.linearize(graph, traj)[2]

    @staticmethod
    def immediate_graph(graph):
        """``graph`` with each chain cost replaced by a one-phase cost that
        calls the public function composing its two halves, the way every
        candidate was evaluated before scoring and linearizing were split."""

        def immediate(cost):
            if isinstance(cost, fg.ChainSingularityCost):

                def evaluate(q):
                    out = singularity_cost(cost.chain, q, cost.params, cost.task_dim)
                    return out.h[:, None], out.gradient[:, None, :]

            elif isinstance(cost, fg.ChainCollisionCost):

                def evaluate(q):
                    return collision_residual(cost.chain, q, cost.sdf, cost.epsilon)

            else:

                def evaluate(q):
                    p, jac = point_jacobian(cost.chain, q, cost.chain.n - 1, np.zeros(3))
                    return p - cost.goal, jac

            return evaluate

        made = {}
        factors = [
            replace(f, cost=made.setdefault(id(f.cost), immediate(f.cost)))
            if isinstance(f, fg.ConfigurationFactor)
            else f
            for f in graph.factors
        ]
        return fg.FactorGraph(factors=tuple(factors), num_states=graph.num_states, state_dim=graph.state_dim)

    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("singularity", [True, False])
    def test_two_phase_linearization_hashes_like_an_immediate_one(self, name, singularity):
        graph, trajectories = self.perturbed_graph(name, singularity)
        reference = self.immediate_graph(graph)
        for traj, rejected in zip(trajectories, trajectories[::-1]):
            scored = graph.score(traj.x)
            # Another candidate is scored between the score and the linearization.
            graph.score(rejected.x)
            two_phase = self.digests(*fg.linearize(graph, traj, scored), *scored.residuals, *scored.jacobians())
            alone = reference.score(traj.x)
            immediate = self.digests(*fg.linearize(reference, traj), *alone.residuals, *alone.jacobians())
            assert two_phase == immediate

    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("singularity", [True, False])
    def test_linearization_equals_the_reference_formulas_bit_for_bit(self, monkeypatch, name, singularity):
        # The reference scores with the broadcast box field and the six-row
        # contraction, and assembles J^T J factor by factor from zero.
        graph, trajectories = self.perturbed_graph(name, singularity)
        # The start prior and the GP prior lead, with constant Jacobians.
        assert graph._constant_count == 2
        for traj in trajectories:
            band, gradient, cost = fg.linearize(graph, traj)
            with monkeypatch.context() as patched:
                patched.setattr(kinematics.JacobianSet, "contract", contract_six_rows)
                patched.setattr(collision, "_field_distances", field_distances_broadcast)
                expected = linearize_per_factor(graph, graph.score(traj.x))
            assert self.digests(band, gradient, cost) == self.digests(*expected)

    @pytest.mark.parametrize("order", ["priors_first", "configuration_first"])
    def test_constant_factors_after_a_configuration_factor_keep_their_order(self, order):
        # Criterion 5's linear graph, with a planar arm's singularity factor
        # before its goal prior at state 3: only a leading run of constant
        # Jacobians is summed at construction.
        init = gp.init_trajectory([0.3, -0.4], 3.0, 4)
        goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
        cost = fg.ChainSingularityCost(planar_arm([1.0, 1.0]), SingularityCostParams(2.0, 1e-2), 2)
        configuration = fg.ConfigurationFactor(fg.FactorKind.SINGULARITY, np.arange(4), cost, 1, 1e-2)
        priors = [
            fg.StartPriorFactor(state=0, prior=init.x[0], sigma=1e-6),
            fg.GpPriorFactor(times=init.times, n=2, qc=2.0),
        ]
        leading = [*priors, configuration] if order == "priors_first" else [configuration, *priors]
        factors = (*leading, fg.StartPriorFactor(state=3, prior=goal_state, sigma=1e-6))
        graph = fg.FactorGraph(factors=factors, num_states=4, state_dim=4)
        assert graph._constant_count == (2 if order == "priors_first" else 0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            traj = init.with_vector(init.x.ravel() + rng.normal(0.0, 0.3, init.x.size))
            expected = linearize_per_factor(graph, graph.score(traj.x))
            assert self.digests(*fg.linearize(graph, traj)) == self.digests(*expected)

    @pytest.mark.parametrize("name", ["ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("damped", [False, True])
    def test_the_banded_solve_equals_solveh_banded_bit_for_bit(self, name, damped):
        graph, trajectories = self.perturbed_graph(name, True)
        for traj in trajectories:
            band, gradient, _ = fg.linearize(graph, traj)
            damping = (1e-3 if damped else 0.0) * fg._damping_scale(band[0])
            kept = band.copy()
            step = fg._solve_normal(band, damping, gradient)
            damped_band = band.copy()
            damped_band[0] += damping
            expected = solveh_banded(damped_band, -gradient, lower=True, check_finite=False)
            assert step.tobytes() == expected.tobytes()
            # The caller's band is left as it was.
            assert band.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n_interp", [0, 2])
    def test_fortran_ordered_residuals_linearize_like_c_ordered_ones(self, n_interp):
        # A cost whose residuals hold the same values in Fortran order: the
        # stack hands linearize C-ordered copies, so J^T r and the cost keep
        # their bits.
        mixing = np.random.default_rng(3).normal(size=(6, 22))

        def residuals(order):
            def cost(q):
                r = np.sin(q @ mixing)
                return np.asarray(r, order=order), np.cos(q @ mixing)[..., None] * mixing.T

            return cost

        init = gp.init_trajectory(np.linspace(0.3, -0.4, 6), 3.0, 8)
        traj = init.with_vector(init.x.ravel() + 0.1 * np.sin(np.arange(init.x.size)))
        linearized = []
        for order in ("C", "F"):
            cost = residuals(order)
            factors = [
                fg.StartPriorFactor(state=0, prior=traj.x[0], sigma=1e-4),
                fg.GpPriorFactor(times=traj.times, n=6, qc=1.0),
                fg.ConfigurationFactor(fg.FactorKind.SINGULARITY, np.arange(8), cost, 22, 0.1),
            ]
            if n_interp:
                blend = fg.interpolated_blends(traj.times, n_interp)[1:]
                kind = fg.FactorKind.INTERP_SINGULARITY
                factors.append(fg.ConfigurationFactor(kind, np.arange(7), cost, 22 * n_interp, 0.1, blend))
            graph = fg.FactorGraph(factors=tuple(factors), num_states=8, state_dim=12)
            assert all(r.flags.c_contiguous for r in graph.score(traj.x).residuals)
            linearized.append(self.digests(*fg.linearize(graph, traj)))
        assert linearized[0] == linearized[1]

    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("singularity", [True, False])
    def test_every_cost_and_factor_output_is_c_ordered(self, monkeypatch, name, singularity):
        # Equal values in another memory order can round differently: J^T r
        # from an F-ordered residual differs in its last bits.
        outputs = []
        for cls in (fg.ChainSingularityCost, fg.ChainCollisionCost, fg.ChainGoalCost):

            def score(cost, *args, original=cls.score):
                r, jacobian = original(cost, *args)
                outputs.append(r)
                return r, lambda: outputs.append(jacobian()) or outputs[-1]

            monkeypatch.setattr(cls, "score", score)
        graph, trajectories = self.perturbed_graph(name, singularity)
        for traj in trajectories[:2]:
            scored = graph.score(traj.x)
            outputs.extend(scored.residuals + scored.jacobians())
            outputs.extend(array for factor in graph.factors for array in factor.evaluate(traj.x))
            outputs.extend(fg.linearize(graph, traj)[:2])
        # Every configuration cost's residuals and Jacobians were recorded.
        costs = len({id(f.cost) for f in graph.factors if isinstance(f, fg.ConfigurationFactor)})
        assert sum(array.ndim == 3 for array in outputs) > 2 * costs
        assert all(array.flags.c_contiguous for array in outputs)

    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    @pytest.mark.parametrize("singularity", [True, False])
    def test_stacked_evaluation_equals_each_factor_alone(self, name, singularity):
        graph, trajectories = self.perturbed_graph(name, singularity)
        for traj in trajectories:
            scored = graph.score(traj.x)
            stacked = list(zip(scored.residuals, scored.jacobians()))
            assert len(stacked) == len(graph.factors)
            for factor, (r, jac) in zip(graph.factors, stacked):
                r_alone, jac_alone = factor.evaluate(traj.x)
                np.testing.assert_array_equal(r, r_alone, err_msg=str(factor.kind))
                np.testing.assert_array_equal(jac, jac_alone, err_msg=str(factor.kind))

    def test_a_cost_without_a_chain_shares_the_stack(self, monkeypatch):
        # sine_cost takes no frames; the goal cost of a one-link arm does.
        # Both read the same stack of 3 knots and 2 x 2 interpolated states.
        chain = planar_arm([1.0])
        traj = gp.SupportTrajectory(times=[0.0, 1.0, 2.0], x=[[0.3, 0.1], [0.7, 0.2], [1.2, 0.0]])
        _, lam, psi = fg.interpolated_blends(traj.times, 2)
        kind = fg.FactorKind
        graph = fg.FactorGraph(
            factors=(
                fg.StartPriorFactor(state=0, prior=traj.x[0], sigma=1e-4),
                fg.GpPriorFactor(times=traj.times, n=1, qc=1.0),
                fg.ConfigurationFactor(kind.SINGULARITY, [0, 1, 2], sine_cost, 1, 1e-2),
                fg.ConfigurationFactor(kind.INTERP_SINGULARITY, [0, 1], sine_cost, 2, 1e-2, (lam, psi)),
                fg.ConfigurationFactor(kind.GOAL_POSITION, [2], fg.ChainGoalCost(chain, [0.0, 1.0, 0.0]), 3, 1e-4),
            ),
            num_states=3,
            state_dim=2,
        )
        calls = []

        def counted(chain, q, fk=kinematics._fk_matrices):
            calls.append(q.shape)
            return fk(chain, q)

        monkeypatch.setattr(fg, "_fk_matrices", counted)
        scored = graph.score(traj.x)
        stacked = list(zip(scored.residuals, scored.jacobians()))
        assert calls == [(7, 1)]
        for factor, (r, jac) in zip(graph.factors, stacked):
            r_alone, jac_alone = factor.evaluate(traj.x)
            np.testing.assert_array_equal(r, r_alone)
            np.testing.assert_array_equal(jac, jac_alone)
        np.testing.assert_allclose(stacked[2][0].ravel(), -10.0 * np.log(np.sin(traj.x[:, 0])), rtol=1e-14)
        np.testing.assert_allclose(stacked[4][0][0], 100.0 * np.array([math.cos(1.2), math.sin(1.2) - 1.0, 0.0]))
        assert fg.total_cost(graph, traj) == fg.linearize(graph, traj)[2]
        _, report = fg.optimize(graph, traj)
        assert report.final_cost < report.cost_trace[0]

    def test_report_dict_has_interface_keys(self):
        graph, traj = self.linear_graph()
        _, report = fg.optimize(graph, traj, fg.SolverSettings())
        data = report.as_dict()
        for key in ("iterations", "converged", "cost_trace", "final_cost", "wall_time_s"):
            assert key in data


class TestBuildGraph:
    def scenario(self, **overrides):
        fields = dict(
            robot="planar2r",
            start_config=np.array([0.0, 0.3]),
            goal_position=np.array([1.0, 1.0, 0.0]),
            name="toy",
            horizon=1.0,
            num_support=11,
            n_interp=0,
            task_dim=2,
            lambda_max=1.0,
        )
        fields.update(overrides)
        return Scenario(**fields)

    def counts(self, graph):
        """Blocks per factor kind."""
        out = {}
        for factor in graph.factors:
            out[factor.kind] = out.get(factor.kind, 0) + len(factor.states)
        return out

    def rows(self, graph):
        """Residual rows per factor kind (one factor per kind)."""
        return {factor.kind: factor.dim * len(factor.states) for factor in graph.factors}

    def test_a_graph_is_freed_without_the_cycle_collector(self):
        # A reference cycle would keep each plan's graph, and the SDF
        # its collision cost holds, alive until a collection: peak memory
        # then grows with the plans run between collections.
        scenario = load_scenario("ur10_table")
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp)
        graph = fg.build_graph(scenario, traj)
        fg.linearize(graph, traj)
        refs = [weakref.ref(graph)] + [weakref.ref(f) for f in graph.factors]
        gc.disable()
        try:
            del graph
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_unobstructed_counting_rule(self):
        # 11 support states: 1 start prior + 10 GP priors + 11 singularity
        # blocks + 1 goal = 23, in one factor per kind.
        scenario = self.scenario()
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support)
        graph = fg.build_graph(scenario, traj)
        assert sum(self.counts(graph).values()) == 23
        assert len(graph.factors) == 4
        counts = self.counts(graph)
        assert counts[fg.FactorKind.START_PRIOR] == 1
        assert counts[fg.FactorKind.GP_PRIOR] == 10
        assert counts[fg.FactorKind.SINGULARITY] == 11
        assert counts[fg.FactorKind.GOAL_POSITION] == 1

    def test_interpolation_adds_per_segment_factors(self):
        scenario = self.scenario(n_interp=2)
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=2)
        graph = fg.build_graph(scenario, traj)
        counts = self.counts(graph)
        # One block per segment, stacking its 2 interpolated configurations.
        assert counts[fg.FactorKind.INTERP_SINGULARITY] == 10
        assert self.rows(graph)[fg.FactorKind.INTERP_SINGULARITY] == 20
        assert sum(counts.values()) == 33
        assert len(graph.factors) == 5

    def test_obstacle_doubles_per_state_cost_factors(self):
        # planar2r has no body spheres, so use the UR-10 for the collision
        # wiring; the count per state must mirror the singularity count.
        scenario = Scenario(
            robot="ur10",
            start_config=np.zeros(6) + 0.3,
            goal_position=np.array([0.5, 0.5, 0.5]),
            name="obstacle",
            num_support=11,
            n_interp=2,
            task_dim=6,
            obstacles=(BoxObstacle(center=[0.8, 0.0, 0.0], half_extents=[0.1, 0.1, 0.1]),),
        )
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=2)
        graph = fg.build_graph(scenario, traj)
        counts = self.counts(graph)
        assert counts[fg.FactorKind.COLLISION] == counts[fg.FactorKind.SINGULARITY] == 11
        assert counts[fg.FactorKind.INTERP_COLLISION] == counts[fg.FactorKind.INTERP_SINGULARITY] == 10
        rows, spheres = self.rows(graph), len(scenario.load_chain().body_spheres)
        assert rows[fg.FactorKind.INTERP_SINGULARITY] == 20
        assert rows[fg.FactorKind.COLLISION] == 11 * spheres
        assert rows[fg.FactorKind.INTERP_COLLISION] == 20 * spheres

    def test_disabling_singularity_factors_keeps_everything_else(self):
        scenario = self.scenario(n_interp=1)
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=1)
        with_s = fg.build_graph(scenario, traj)
        without = fg.build_graph(self.scenario(n_interp=1, enable_singularity_factors=False), traj)
        singular_kinds = {fg.FactorKind.SINGULARITY, fg.FactorKind.INTERP_SINGULARITY}
        kept = [f for f in with_s.factors if f.kind not in singular_kinds]
        assert [f.kind for f in kept] == [f.kind for f in without.factors]
        for a, b in zip(kept, without.factors):
            r_a, _ = a.evaluate(traj.x)
            r_b, _ = b.evaluate(traj.x)
            np.testing.assert_array_equal(r_a, r_b)

    def test_costs_of_two_chains_rejected(self, planar2r):
        # One stack gets one forward-kinematics pass, so one chain.
        goals = [fg.ChainGoalCost(chain, [1.0, 1.0, 0.0]) for chain in (planar2r, planar_arm([1.0, 1.0]))]
        factors = [fg.ConfigurationFactor(fg.FactorKind.GOAL_POSITION, [s], goals[s], 3, 1e-4) for s in (0, 1)]
        with pytest.raises(ValueError, match="one kinematic chain"):
            fg.FactorGraph(factors=tuple(factors), num_states=2, state_dim=4)

    def test_state_indices_validated(self):
        factor = fg.StartPriorFactor(state=5, prior=np.zeros(2), sigma=1.0)
        with pytest.raises(ValueError):
            fg.FactorGraph(factors=(factor,), num_states=2, state_dim=2)

    def test_solver_settings_validation(self):
        with pytest.raises(ValueError):
            fg.SolverSettings(rel_cost_tol=0.0)
        with pytest.raises(ValueError):
            fg.SolverSettings(max_iterations=0)
        settings = fg.SolverSettings.from_dict({"method": "levenberg_marquardt", "max_iterations": 7})
        assert settings == fg.SolverSettings(max_iterations=7)
