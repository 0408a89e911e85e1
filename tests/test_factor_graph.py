import math
from dataclasses import replace

import numpy as np
import pytest

from manipplan import factor_graph as fg
from manipplan import gp_prior as gp
from manipplan import kinematics
from manipplan.kinematics import forward_kinematics, planar_chain
from manipplan.manipulability import SingularityCostParams
from manipplan.scenario import BoxObstacle, Scenario

from .oracles import dense_linearization

LAMBDA_FLOOR = 1e-9


def sine_cost(q, with_jacobian=True):
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
    return fg.ConfigurationFactor(fg.FactorKind.GOAL_POSITION, [state], fg.goal_position_cost(chain, goal), 3, sigma)


def state_array(trajectory):
    """The (N, 2n) support states that Factor.evaluate takes."""
    return trajectory.as_vector().reshape(trajectory.num_states, -1)


def single_state_graph(factors, n):
    # The trajectory container always carries two knots, so toy graphs
    # over "one" state declare both and leave the second unreferenced
    # (zero curvature there is absorbed by the clamped LM damping).
    return fg.FactorGraph(factors=tuple(factors), num_states=2, state_dim=2 * n)


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
        r, jac = factor.evaluate(state_array(traj))
        assert abs(r[0, 0]) < 1e-10
        assert jac.shape == (1, 1, 4)

    def test_goal_residual_zero_at_goal(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        goal = forward_kinematics(ur10, q)[-1].position
        factor = goal_factor(0, ur10, goal, 1e-8)
        r, _ = factor.evaluate(state_array(one_state_trajectory(q)))
        np.testing.assert_allclose(r, np.zeros((1, 3)), atol=1e-9)

    def test_goal_value_path_computes_no_jacobian(self, ur10, rng, monkeypatch):
        q = rng.uniform(-np.pi, np.pi, (4, 6))
        cost = fg.goal_position_cost(ur10, [0.5, 0.2, 0.3])
        r_full, _ = cost(q)

        def no_jacobian(*args, **kwargs):
            raise AssertionError("point_jacobian called on the value-only path")

        monkeypatch.setattr(fg, "point_jacobian", no_jacobian)
        r, jac = cost(q, with_jacobian=False)
        assert jac is None
        np.testing.assert_array_equal(r, r_full)

    def test_interpolated_singularity_midpoint_identity(self, planar2r):
        # Two identical stationary states: the midpoint cost equals the
        # plain per-state cost, and each state receives exactly half of the
        # position-block Jacobian (midpoint blend weights are 1/2).
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        cost_fn = fg.ChainSingularityCost(planar2r, params, task_dim=2)
        q = np.array([0.3, 0.9])
        traj = gp.SupportTrajectory(times=[0.0, 2.0], x=[np.concatenate([q, np.zeros(2)])] * 2)
        plain = singularity_factor(0, cost_fn, 1e-4)
        segments, taus, lam, psi = fg.interpolated_blends(traj.times, 1)
        assert segments.tolist() == [0] and taus.tolist() == [1.0]
        interp = fg.ConfigurationFactor(fg.FactorKind.INTERP_SINGULARITY, segments, cost_fn, 1, 1e-4, (lam, psi))
        r_plain, jac_plain = plain.evaluate(state_array(traj))
        r_interp, jac_interp = interp.evaluate(state_array(traj))
        jac_i, jac_j = jac_interp[0, :, :4], jac_interp[0, :, 4:]
        assert r_interp[0, 0] == pytest.approx(r_plain[0, 0], rel=1e-12)
        np.testing.assert_allclose(jac_i[0, :2], 0.5 * jac_plain[0, 0, :2], rtol=1e-12)
        np.testing.assert_allclose(jac_j[0, :2], 0.5 * jac_plain[0, 0, :2], rtol=1e-12)

    def test_residual_function_returns_whitened_values(self, planar2r):
        factor = fg.StartPriorFactor(state=0, prior=np.zeros(4), sigma=1e-4)
        traj = one_state_trajectory([0.2, -0.1])
        r, jac = factor.evaluate(state_array(traj))
        np.testing.assert_allclose(r[0], 100.0 * traj.states[0].as_vector(), rtol=1e-12)
        np.testing.assert_allclose(jac[0], 100.0 * np.eye(4), rtol=1e-12)

    def test_interpolated_factor_requires_interior_tau(self):
        # A one-ulp segment: its midpoint rounds onto the first knot.
        with pytest.raises(ValueError):
            fg.interpolated_blends(np.array([1.0, np.nextafter(1.0, 2.0)]), 1)


class TestTotalCost:
    def test_stationary_prior_graph_costs_nothing(self):
        params = gp.GpPriorParams.isotropic(2, 1e3)
        traj = gp.init_trajectory([0.3, -0.7], horizon=5.0, num_states=6)
        graph = fg.FactorGraph(factors=(fg.GpPriorFactor(times=traj.times, params=params),), num_states=6, state_dim=4)
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
        params = gp.GpPriorParams.isotropic(2, 2.0)
        traj = gp.init_trajectory(np.zeros(2), 3.0, 4)
        goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
        factors = [fg.StartPriorFactor(state=0, prior=traj.states[0].as_vector(), sigma=1e-6)]
        factors.append(fg.GpPriorFactor(times=traj.times, params=params))
        factors.append(fg.StartPriorFactor(state=3, prior=goal_state, sigma=1e-6))
        return fg.FactorGraph(factors=tuple(factors), num_states=4, state_dim=4), traj

    def test_gauss_newton_solves_linear_graph_in_one_step(self):
        graph, traj = self.linear_graph()
        jac, res = dense_linearization(graph, traj)
        closed_form = traj.as_vector() + np.linalg.solve(jac.T @ jac, -(jac.T @ res))
        settings = fg.SolverSettings(method=fg.SolverMethod.GAUSS_NEWTON, max_iterations=1)
        solution, report = fg.optimize(graph, traj, settings)
        assert np.abs(solution.as_vector() - closed_form).max() < 1e-10
        assert len(report.cost_trace) == 2

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
        def exploding(q, with_jacobian=True):
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
        np.testing.assert_array_equal(sol_a.as_vector(), sol_b.as_vector())
        assert all(a >= b for a, b in zip(rep_a.cost_trace, rep_a.cost_trace[1:]))

    @pytest.mark.parametrize("problem", ["planar", "steep"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_lm_linearizes_each_candidate_once(self, monkeypatch, planar2r, problem):
        if problem == "planar":
            params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
            factors = (
                singularity_factor(0, fg.ChainSingularityCost(planar2r, params, task_dim=2), 1e-4),
                goal_factor(0, planar2r, [1.0, 1.0, 0.0], 1e-8),
                fg.StartPriorFactor(state=1, prior=np.array([0.0, 0.9, 0.0, 0.0]), sigma=1e2),
            )
            graph, init = fg.FactorGraph(factors=factors, num_states=2, state_dim=4), one_state_trajectory([0.4, 0.7])
        else:
            # J^T J is infinite, so no step is ever solved.
            def steep(q, with_jacobian=True):
                return np.ones((len(q), 1)), np.full((len(q), 1, 1), 1e200)

            priors = [fg.StartPriorFactor(state=s, prior=[0.1, 0.0], sigma=1.0) for s in (0, 1)]
            graph = fg.FactorGraph(factors=(singularity_factor(0, steep, 1.0), *priors), num_states=2, state_dim=2)
            init = one_state_trajectory([0.1])
        calls = {"linearize": [], "total_cost": [], "_solve_normal": []}
        for name, seen in calls.items():

            def counted(*args, original=getattr(fg, name), seen=seen):
                seen.append(original(*args))
                return seen[-1]

            monkeypatch.setattr(fg, name, counted)
        _, report = fg.optimize(graph, init, fg.SolverSettings(max_iterations=150))
        unsolved = sum(step is None for step in calls["_solve_normal"]) + (report.message == "gradient tolerance")
        assert len(calls["total_cost"]) == 1
        assert len(calls["linearize"]) == report.iterations + 1 - unsolved
        assert unsolved == (report.iterations if problem == "steep" else 0)
        # The accepted candidates' linearizations carry the reported costs.
        assert report.cost_trace[-1] == report.final_cost
        assert set(report.cost_trace) <= {cost for _, _, cost in calls["linearize"]}

    def test_gradient_small_at_convergence(self):
        graph, traj = self.linear_graph()
        settings = fg.SolverSettings(max_iterations=50)
        _, report = fg.optimize(graph, traj, settings)
        assert report.converged
        assert report.grad_inf_norm < 10.0 * settings.abs_grad_tol

    def test_gauss_newton_on_rank_deficient_graph_reports_not_converged(self):
        # Nothing references state 1, so J^T J is singular and the
        # undamped banded Cholesky fails: the solve ends without raising.
        factor = fg.StartPriorFactor(state=0, prior=np.ones(2), sigma=1.0)
        graph = single_state_graph([factor], 1)
        settings = fg.SolverSettings(method=fg.SolverMethod.GAUSS_NEWTON, max_iterations=5)
        solution, report = fg.optimize(graph, one_state_trajectory([0.2]), settings)
        assert not report.converged
        assert report.iterations == 1
        assert report.cost_trace == [fg.total_cost(graph, solution)]

    def test_large_banded_solve_matches_dense_oracle(self):
        # 150 states of dim 4 = 600 variables, solved in one GN step.
        num = 150
        params = gp.GpPriorParams.isotropic(2, 2.0)
        traj = gp.init_trajectory(np.zeros(2), float(num - 1), num)
        goal_state = np.concatenate([[1.0, -0.5], np.zeros(2)])
        factors = [fg.StartPriorFactor(state=0, prior=traj.states[0].as_vector(), sigma=1e-6)]
        factors.append(fg.GpPriorFactor(times=traj.times, params=params))
        factors.append(fg.StartPriorFactor(state=num - 1, prior=goal_state, sigma=1e-6))
        graph = fg.FactorGraph(factors=tuple(factors), num_states=num, state_dim=4)
        jac, res = dense_linearization(graph, traj)
        closed_form = traj.as_vector() + np.linalg.solve(jac.T @ jac, -(jac.T @ res))
        solution, _ = fg.optimize(
            graph, traj, fg.SolverSettings(method=fg.SolverMethod.GAUSS_NEWTON, max_iterations=1)
        )
        assert np.abs(solution.as_vector() - closed_form).max() < 1e-8

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
            sdf_cell_size=0.1,
        )
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=n_interp)
        traj = traj.with_vector(traj.as_vector() + 0.05 * np.sin(np.arange(traj.as_vector().size)))
        graph = fg.build_graph(scenario, traj)
        band, gradient, cost = fg.linearize(graph, traj)
        jac, res = dense_linearization(graph, traj)
        (collision,) = [f for f in graph.factors if f.kind is fg.FactorKind.INTERP_COLLISION]
        assert np.all(np.count_nonzero(collision.evaluate(state_array(traj))[0], axis=1))
        normal = jac.T @ jac
        size = normal.shape[0]
        assert band.shape == (2 * graph.state_dim, size)
        for offset in range(band.shape[0]):
            np.testing.assert_allclose(band[offset, : size - offset], np.diag(normal, -offset), rtol=1e-12, atol=1e-6)
        assert np.all(np.tril(normal, -band.shape[0]) == 0.0)
        np.testing.assert_allclose(gradient, jac.T @ res, rtol=1e-12, atol=1e-6)
        assert cost == pytest.approx(0.5 * res @ res, rel=1e-12)
        assert cost == fg.total_cost(graph, traj)

    def test_linearize_band_with_unsorted_repeated_states(self, planar2r):
        # Blocks in no particular order, several on the same first state.
        traj = gp.init_trajectory([0.3, 0.8], 4.0, 5)
        traj = traj.with_vector(traj.as_vector() + 0.1 * np.cos(np.arange(traj.as_vector().size)))
        cost = fg.goal_position_cost(planar2r, [1.0, 0.5, 0.0])
        knots = np.array([2, 0, 3, 2, 1, 0, 2])
        _, _, lam, psi = fg.interpolated_blends(traj.times[[0, 1]], len(knots))
        factors = (
            fg.ConfigurationFactor(fg.FactorKind.GOAL_POSITION, [3, 1, 3, 4, 0, 1], cost, 3, 1e-2),
            fg.ConfigurationFactor(fg.FactorKind.INTERP_COLLISION, knots, cost, 3, 1e-2, (lam, psi)),
            fg.GpPriorFactor(times=traj.times, params=gp.GpPriorParams.isotropic(2, 1.0)),
        )
        graph = fg.FactorGraph(factors=factors, num_states=5, state_dim=4)
        band, gradient, _ = fg.linearize(graph, traj)
        jac, res = dense_linearization(graph, traj)
        normal = jac.T @ jac
        size = normal.shape[0]
        for offset in range(band.shape[0]):
            np.testing.assert_allclose(band[offset, : size - offset], np.diag(normal, -offset), rtol=1e-12, atol=1e-12)
            assert np.all(band[offset, size - offset :] == 0.0)
        np.testing.assert_allclose(gradient, jac.T @ res, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("states", [[[0, 2]], [[1, 0]], [[0, 1, 2]], [0, 1]])
    def test_graph_rejects_blocks_over_other_than_consecutive_states(self, states):
        factor = fg.StartPriorFactor(state=0, prior=np.zeros(2), sigma=1.0)
        factor.states = np.array(states)
        with pytest.raises(ValueError, match="consecutive"):
            fg.FactorGraph(factors=(factor,), num_states=3, state_dim=2)

    @pytest.mark.parametrize("method", list(fg.SolverMethod))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_normal_equations_reject_the_step(self, method):
        def steep(q, with_jacobian=True):
            # A finite residual whose Jacobian squares to infinity in J^T J.
            return np.ones((len(q), 1)), np.full((len(q), 1, 1), 1e200)

        init = one_state_trajectory([0.1])
        # Priors at the initial states make the rest of J^T J positive definite.
        priors = [fg.StartPriorFactor(state=s, prior=[0.1, 0.0], sigma=1.0) for s in (0, 1)]
        graph = fg.FactorGraph(factors=(singularity_factor(0, steep, 1.0), *priors), num_states=2, state_dim=2)
        solution, report = fg.optimize(graph, init, fg.SolverSettings(method=method))
        np.testing.assert_array_equal(solution.as_vector(), init.as_vector())
        assert report.cost_trace == [0.5]
        if method is fg.SolverMethod.GAUSS_NEWTON:
            assert not report.converged and report.iterations == 1
        else:
            # Every step is rejected until the damping runs out.
            assert report.message.startswith("damping exhausted")

    def test_finite_normal_equations_with_an_infinite_step_give_no_step(self):
        assert fg._solve_normal(np.array([[1e-300]]), None, np.array([1e10])) is None
        assert fg._solve_normal(np.array([[1e-300]]), np.array([1.0]), np.array([1e10])) == pytest.approx([-1e10])

    @pytest.mark.parametrize("call", ["linearize", "total_cost"])
    def test_forward_kinematics_passes_do_not_grow_with_the_knots(self, monkeypatch, call):
        # One pass per configuration factor: singularity, collision and goal
        # costs over all knots, and over all interpolated states.
        scenario = Scenario(
            robot="ur10",
            start_config=np.array([0.3, -1.2, 1.1, 0.4, 0.2, 0.1]),
            goal_position=np.array([0.5, 0.5, 0.5]),
            n_interp=1,
            obstacles=(BoxObstacle(center=[-0.1, 0.0, 0.3], half_extents=[0.2, 0.2, 0.2]),),
            sdf_cell_size=0.1,
        )
        passes = []
        for knots in (4, 16):
            traj = gp.init_trajectory(scenario.start_config, scenario.horizon, knots, n_interp=1)
            graph = fg.build_graph(replace(scenario, num_support=knots), traj)
            calls = []

            def counted(chain, q, fk=kinematics._fk_matrices):
                calls.append(q.shape)
                return fk(chain, q)

            monkeypatch.setattr(kinematics, "_fk_matrices", counted)
            getattr(fg, call)(graph, traj)
            monkeypatch.undo()
            passes.append(calls)
        assert [len(calls) for calls in passes] == [5, 5]
        assert sorted(passes[1]) == [(1, 6), (15, 6), (15, 6), (16, 6), (16, 6)]

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
        assert counts[fg.FactorKind.INTERP_SINGULARITY] == 20
        assert sum(counts.values()) == 43
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
            sdf_cell_size=0.2,
            sdf_extent=2.4,
        )
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=2)
        graph = fg.build_graph(scenario, traj)
        counts = self.counts(graph)
        assert counts[fg.FactorKind.COLLISION] == counts[fg.FactorKind.SINGULARITY] == 11
        assert counts[fg.FactorKind.INTERP_COLLISION] == counts[fg.FactorKind.INTERP_SINGULARITY] == 20

    def test_disabling_singularity_factors_keeps_everything_else(self):
        scenario = self.scenario(n_interp=1)
        traj = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support, n_interp=1)
        with_s = fg.build_graph(scenario, traj)
        without = fg.build_graph(self.scenario(n_interp=1, enable_singularity_factors=False), traj)
        singular_kinds = {fg.FactorKind.SINGULARITY, fg.FactorKind.INTERP_SINGULARITY}
        kept = [f for f in with_s.factors if f.kind not in singular_kinds]
        assert [f.kind for f in kept] == [f.kind for f in without.factors]
        for a, b in zip(kept, without.factors):
            r_a, _ = a.evaluate(state_array(traj))
            r_b, _ = b.evaluate(state_array(traj))
            np.testing.assert_array_equal(r_a, r_b)

    def test_state_indices_validated(self):
        factor = fg.StartPriorFactor(state=5, prior=np.zeros(2), sigma=1.0)
        with pytest.raises(ValueError):
            fg.FactorGraph(factors=(factor,), num_states=2, state_dim=2)

    def test_solver_settings_validation(self):
        with pytest.raises(ValueError):
            fg.SolverSettings(rel_cost_tol=0.0)
        with pytest.raises(ValueError):
            fg.SolverSettings(max_iterations=0)
        settings = fg.SolverSettings.from_dict({"method": "gauss_newton", "max_iterations": 7})
        assert settings.method is fg.SolverMethod.GAUSS_NEWTON
        assert settings.max_iterations == 7
