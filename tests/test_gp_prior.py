import numpy as np
import pytest

from manipplan.gp_prior import (
    GpPriorParams,
    SupportTrajectory,
    TrajectoryState,
    gp_prior_error,
    init_trajectory,
    interpolate,
    interpolation_matrices,
    process_noise,
    process_noise_inv,
    transition,
    whitened_transition,
)
from manipplan.factor_graph import GpPriorFactor

from .oracles import dense_gp_conditional_mean, wnoa_covariance_quadrature

# Frozen closed form of the per-joint noise covariance at dt = 1, Qc = 1,
# cross-checked below against the quadrature oracle.
Q_UNIT = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])


def state(pos, vel, t):
    return TrajectoryState(position=np.atleast_1d(pos), velocity=np.atleast_1d(vel), time=t)


class TestPriorError:
    def test_constant_velocity_rollout_has_zero_residual(self):
        params = GpPriorParams.isotropic(2, 2.0)
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.1 + 0.5 * 0.3, -0.4 + 0.5 * 0.2], [0.3, 0.2], 1.5)
        err = gp_prior_error(x_i, x_j, params)
        np.testing.assert_allclose(err.residual, np.zeros(4), atol=1e-15)

    def test_stationary_pair_has_zero_residual(self):
        params = GpPriorParams.isotropic(3, 10.0)
        x_i = state([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 0.0)
        x_j = state([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 2.0)
        np.testing.assert_array_equal(gp_prior_error(x_i, x_j, params).residual, np.zeros(6))

    def test_unit_covariance_closed_form(self):
        params = GpPriorParams.isotropic(1, 1.0)
        np.testing.assert_allclose(process_noise(1.0, params), Q_UNIT, atol=1e-15)

    def test_covariance_matches_quadrature_oracle(self):
        qc = np.array([[2.0, 0.3], [0.3, 1.5]])
        params = GpPriorParams(qc=qc)
        for dt in (0.25, 1.0, 2.5):
            expected = wnoa_covariance_quadrature(dt, qc)
            np.testing.assert_allclose(process_noise(dt, params), expected, rtol=1e-9, atol=1e-12)

    def test_closed_form_inverse(self):
        params = GpPriorParams(qc=np.array([[2.0, 0.3], [0.3, 1.5]]))
        q = process_noise(0.7, params)
        np.testing.assert_allclose(process_noise_inv(0.7, params) @ q, np.eye(4), atol=1e-10)

    def test_info_sqrt_squares_to_inverse_covariance(self):
        params = GpPriorParams.isotropic(2, 5.0)
        err = gp_prior_error(state([0.0, 0.0], [0.0, 0.0], 0.0), state([1.0, 1.0], [0.0, 0.0], 0.5), params)
        q = process_noise(0.5, params)
        np.testing.assert_allclose(err.info_sqrt.T @ err.info_sqrt, np.linalg.inv(q), rtol=1e-9)

    def test_jacobians_are_transition_and_negative_identity(self):
        params = GpPriorParams.isotropic(2, 1.0)
        err = gp_prior_error(state([0.0, 0.0], [1.0, 0.0], 0.0), state([1.0, 0.0], [1.0, 0.0], 1.0), params)
        np.testing.assert_array_equal(err.jac_i, transition(1.0, 2))
        np.testing.assert_array_equal(err.jac_j, -np.eye(4))

    def test_factor_and_prior_error_share_the_whitening(self):
        params = GpPriorParams(qc=np.array([[2.0, 0.3], [0.3, 1.5]]))
        err = gp_prior_error(state([0.1, 0.2], [0.3, -0.4], 0.5), state([1.0, 0.0], [0.2, 0.1], 1.2), params)
        factor = GpPriorFactor(times=np.array([0.0, 0.7]), params=params)
        phi, info_sqrt = whitened_transition(0.7, params)
        np.testing.assert_array_equal(err.info_sqrt, info_sqrt)
        np.testing.assert_array_equal(err.jac_i, phi)
        np.testing.assert_array_equal(factor._info_sqrt, [info_sqrt])
        np.testing.assert_array_equal(factor._jac[0, :, :4], info_sqrt @ phi)
        np.testing.assert_allclose(info_sqrt.T @ info_sqrt, process_noise_inv(0.7, params), rtol=1e-9)
        with pytest.raises(ValueError, match="out of order"):
            GpPriorFactor(times=np.array([0.0, 0.0]), params=params)

    def test_out_of_order_states_rejected(self):
        params = GpPriorParams.isotropic(1, 1.0)
        with pytest.raises(ValueError):
            gp_prior_error(state(0.0, 0.0, 1.0), state(0.0, 0.0, 1.0), params)

    def test_positive_definite_for_all_positive_dt(self):
        params = GpPriorParams(qc=np.array([[2.0, 0.3], [0.3, 1.5]]))
        for dt in (1e-4, 0.01, 0.5, 3.0, 50.0):
            np.linalg.cholesky(process_noise(dt, params))  # raises if not PD

    def test_qc_validation(self):
        with pytest.raises(ValueError):
            GpPriorParams(qc=np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            GpPriorParams(qc=np.array([[0.0, 0.0], [0.0, 1.0]]))  # singular


class TestInterpolation:
    def test_exact_at_left_knot(self):
        params = GpPriorParams.isotropic(2, 1.5)
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.9, 0.5], [-0.1, 0.6], 2.5)
        x_tau, lam, psi = interpolate(x_i, x_j, 1.0, params)
        np.testing.assert_allclose(x_tau.as_vector(), x_i.as_vector(), atol=1e-12)
        np.testing.assert_allclose(lam, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(psi, np.zeros((4, 4)), atol=1e-12)

    def test_exact_at_right_knot(self):
        params = GpPriorParams.isotropic(2, 1.5)
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.9, 0.5], [-0.1, 0.6], 2.5)
        x_tau, _, _ = interpolate(x_i, x_j, 2.5, params)
        np.testing.assert_allclose(x_tau.as_vector(), x_j.as_vector(), atol=1e-12)

    def test_constant_velocity_midpoint(self):
        params = GpPriorParams.isotropic(1, 7.0)
        x_i = state(0.0, 1.0, 0.0)
        x_j = state(2.0, 1.0, 2.0)
        x_tau, _, _ = interpolate(x_i, x_j, 1.0, params)
        assert x_tau.position[0] == pytest.approx(1.0, abs=1e-12)
        assert x_tau.velocity[0] == pytest.approx(1.0, abs=1e-12)

    def test_collinear_states_reproduced(self):
        params = GpPriorParams.isotropic(2, 3.0)
        pos0 = np.array([0.2, -1.0])
        vel = np.array([0.5, 0.25])
        states = [state(pos0 + vel * t, vel, t) for t in (0.0, 1.0, 2.0)]
        x_tau, _, _ = interpolate(states[0], states[2], 1.0, params)
        np.testing.assert_allclose(x_tau.as_vector(), states[1].as_vector(), atol=1e-12)

    def test_matches_dense_kernel_conditioning(self, rng):
        # Oracle: condition the dense joint Gaussian of five support states
        # on their values; the sparse two-state blend must agree.
        qc = np.array([[1.2, 0.2], [0.2, 0.8]])
        params = GpPriorParams(qc=qc)
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = rng.standard_normal((5, 4))
        for tau, left in ((0.37, 0), (1.95, 1), (2.5, 2), (3.99, 3)):
            expected = dense_gp_conditional_mean(times, values, tau, qc, initial_cov=2.0 * np.eye(4))
            x_i = state(values[left, :2], values[left, 2:], times[left])
            x_j = state(values[left + 1, :2], values[left + 1, 2:], times[left + 1])
            x_tau, _, _ = interpolate(x_i, x_j, tau, params)
            np.testing.assert_allclose(x_tau.as_vector(), expected, atol=1e-8)

    def test_outside_segment_rejected(self):
        params = GpPriorParams.isotropic(1, 1.0)
        with pytest.raises(ValueError):
            interpolation_matrices(0.0, 1.0, 1.5, params)
        with pytest.raises(ValueError):
            interpolation_matrices(0.0, 1.0, -0.2, params)
        with pytest.raises(ValueError):
            interpolation_matrices(1.0, 1.0, 1.0, params)


class TestSupportTrajectory:
    def test_init_trajectory_is_stationary(self):
        traj = init_trajectory([0.5, -0.5], horizon=2.0, num_states=5)
        assert traj.num_states == 5
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 2.0, 5), atol=1e-15)
        for s in traj.states:
            np.testing.assert_array_equal(s.position, [0.5, -0.5])
            np.testing.assert_array_equal(s.velocity, [0.0, 0.0])

    def test_init_trajectory_has_zero_prior_cost(self):
        params = GpPriorParams.isotropic(2, 1e3)
        traj = init_trajectory([0.1, 0.2], horizon=5.0, num_states=10)
        for a, b in zip(traj.states, traj.states[1:]):
            np.testing.assert_array_equal(gp_prior_error(a, b, params).residual, np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            init_trajectory([0.0], horizon=1.0, num_states=1)
        with pytest.raises(ValueError):
            init_trajectory([0.0], horizon=-1.0, num_states=3)
        good = [state(0.0, 0.0, t) for t in (0.0, 1.0, 2.0)]
        with pytest.raises(ValueError):
            SupportTrajectory(states=(good[0], good[2], good[1]))
        with pytest.raises(ValueError):
            SupportTrajectory(states=tuple(state(0.0, 0.0, t) for t in (0.0, 1.0, 3.0)))

    def test_vector_roundtrip_keeps_times(self, rng):
        traj = init_trajectory([0.0, 0.0, 0.0], horizon=1.0, num_states=4, n_interp=3)
        x = rng.standard_normal(4 * 6)
        new = traj.with_vector(x)
        np.testing.assert_allclose(new.as_vector(), x, atol=0)
        np.testing.assert_array_equal(new.times, traj.times)
        assert new.n_interp == 3

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TrajectoryState(position=[0.0, 1.0], velocity=[0.0], time=0.0)
        with pytest.raises(ValueError):
            TrajectoryState(position=[np.inf], velocity=[0.0], time=0.0)
