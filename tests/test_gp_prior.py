import numpy as np
import pytest

from manipplan.gp_prior import (
    SupportTrajectory,
    TrajectoryState,
    blend,
    blend_kernels,
    gp_prior_error,
    init_trajectory,
    interpolate,
    interpolation_matrices,
    segment_kernels,
    transition,
    whitened_transition,
)
from manipplan.factor_graph import GpPriorFactor

from .oracles import (
    dense_blend_matrices,
    dense_gp_conditional_mean,
    wnoa_covariance,
    wnoa_covariance_inv,
    wnoa_covariance_quadrature,
    whitening_matrix,
)

# Frozen closed form of the per-joint noise covariance at dt = 1, Qc = 1,
# cross-checked below against the quadrature oracle.
Q_UNIT = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])


def state(pos, vel, t):
    return TrajectoryState(position=np.atleast_1d(pos), velocity=np.atleast_1d(vel), time=t)


class TestPriorError:
    def test_constant_velocity_rollout_has_zero_residual(self):
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.1 + 0.5 * 0.3, -0.4 + 0.5 * 0.2], [0.3, 0.2], 1.5)
        err = gp_prior_error(x_i, x_j, 2.0)
        np.testing.assert_allclose(err.residual, np.zeros(4), atol=1e-15)

    def test_stationary_pair_has_zero_residual(self):
        x_i = state([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 0.0)
        x_j = state([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 2.0)
        np.testing.assert_array_equal(gp_prior_error(x_i, x_j, 10.0).residual, np.zeros(6))

    def test_unit_covariance_closed_form(self):
        np.testing.assert_allclose(wnoa_covariance(1.0, np.eye(1)), Q_UNIT, atol=1e-15)

    def test_covariance_matches_quadrature_oracle(self):
        qc = np.array([[2.0, 0.3], [0.3, 1.5]])
        for dt in (0.25, 1.0, 2.5):
            expected = wnoa_covariance_quadrature(dt, qc)
            np.testing.assert_allclose(wnoa_covariance(dt, qc), expected, rtol=1e-9, atol=1e-12)

    def test_closed_form_inverse(self):
        qc = np.array([[2.0, 0.3], [0.3, 1.5]])
        q = wnoa_covariance(0.7, qc)
        np.testing.assert_allclose(wnoa_covariance_inv(0.7, qc) @ q, np.eye(4), atol=1e-10)

    def test_info_sqrt_squares_to_inverse_covariance(self):
        err = gp_prior_error(state([0.0, 0.0], [0.0, 0.0], 0.0), state([1.0, 1.0], [0.0, 0.0], 0.5), 5.0)
        q = wnoa_covariance(0.5, 5.0 * np.eye(2))
        np.testing.assert_allclose(err.info_sqrt.T @ err.info_sqrt, np.linalg.inv(q), rtol=1e-9)

    def test_jacobians_are_transition_and_negative_identity(self):
        err = gp_prior_error(state([0.0, 0.0], [1.0, 0.0], 0.0), state([1.0, 0.0], [1.0, 0.0], 1.0), 1.0)
        np.testing.assert_array_equal(err.jac_i, transition(1.0, 2))
        np.testing.assert_array_equal(err.jac_j, -np.eye(4))

    def test_factor_and_prior_error_share_the_whitening(self):
        qc = 1.5
        x_i, x_j = state([0.1, 0.2], [0.3, -0.4], 0.5), state([1.0, 0.0], [0.2, 0.1], 1.2)
        err = gp_prior_error(x_i, x_j, qc)
        factor = GpPriorFactor(times=np.array([0.0, 0.7]), n=2, qc=qc)
        phi, info_sqrt = whitened_transition(0.7, 2, qc)
        np.testing.assert_array_equal(err.info_sqrt, info_sqrt)
        np.testing.assert_array_equal(err.jac_i, phi)
        r, jac = factor.evaluate(np.array([x_i.as_vector(), x_j.as_vector()]))
        # The factor applies the 2x2 kernel W~ Phi~ where the dense product
        # rounds W and Phi separately: equal to a few ulps.
        np.testing.assert_array_equal(jac[0, :, 4:], -info_sqrt)
        np.testing.assert_allclose(jac[0, :, :4], info_sqrt @ phi, rtol=1e-13, atol=0)
        np.testing.assert_allclose(r[0], info_sqrt @ err.residual, rtol=1e-12, atol=0)
        np.testing.assert_allclose(info_sqrt.T @ info_sqrt, wnoa_covariance_inv(0.7, qc * np.eye(2)), rtol=1e-9)
        with pytest.raises(ValueError, match="out of order"):
            GpPriorFactor(times=np.array([0.0, 0.0]), n=2, qc=qc)
        with pytest.raises(ValueError, match="covariance must be positive"):
            GpPriorFactor(times=np.array([0.0, 0.7]), n=2, qc=0.0)

    @pytest.mark.parametrize("qc", [1e3, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0])
    @pytest.mark.parametrize("n", [2, 6])
    def test_factor_whitens_as_the_dense_cholesky_bit_for_bit(self, qc, n, rng):
        # The scalar whitening 1/sqrt(qc) gives the same bits as the n x n
        # block inv(cholesky(qc I_n)) applied to the kernel blend.
        times = np.linspace(0.0, 0.4, 5)
        x = rng.standard_normal((5, 2 * n))
        factor = GpPriorFactor(times=times, n=n, qc=qc)
        phi, w = segment_kernels(np.diff(times))
        kernel = np.concatenate([w @ phi, -w], axis=-1)
        whitening = whitening_matrix(qc, n)
        expected = blend(kernel, x[factor.states].reshape(4, 1, 4, n)) @ whitening.T
        r, jac = factor.evaluate(x)
        assert r.tobytes() == expected.reshape(4, 2 * n).tobytes()
        assert jac.tobytes() == np.kron(kernel, whitening).tobytes()

    def test_out_of_order_states_rejected(self):
        with pytest.raises(ValueError):
            gp_prior_error(state(0.0, 0.0, 1.0), state(0.0, 0.0, 1.0), 1.0)

    def test_positive_definite_for_all_positive_dt(self):
        qc = np.array([[2.0, 0.3], [0.3, 1.5]])
        for dt in (1e-4, 0.01, 0.5, 3.0, 50.0):
            np.linalg.cholesky(wnoa_covariance(dt, qc))  # raises if not PD


class TestInterpolation:
    def test_exact_at_left_knot(self):
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.9, 0.5], [-0.1, 0.6], 2.5)
        x_tau, lam, psi = interpolate(x_i, x_j, 1.0)
        np.testing.assert_allclose(x_tau.as_vector(), x_i.as_vector(), atol=1e-12)
        np.testing.assert_allclose(lam, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(psi, np.zeros((4, 4)), atol=1e-12)

    def test_exact_at_right_knot(self):
        x_i = state([0.1, -0.4], [0.3, 0.2], 1.0)
        x_j = state([0.9, 0.5], [-0.1, 0.6], 2.5)
        x_tau, _, _ = interpolate(x_i, x_j, 2.5)
        np.testing.assert_allclose(x_tau.as_vector(), x_j.as_vector(), atol=1e-12)

    def test_constant_velocity_midpoint(self):
        x_i = state(0.0, 1.0, 0.0)
        x_j = state(2.0, 1.0, 2.0)
        x_tau, _, _ = interpolate(x_i, x_j, 1.0)
        assert x_tau.position[0] == pytest.approx(1.0, abs=1e-12)
        assert x_tau.velocity[0] == pytest.approx(1.0, abs=1e-12)

    def test_collinear_states_reproduced(self):
        pos0 = np.array([0.2, -1.0])
        vel = np.array([0.5, 0.25])
        states = [state(pos0 + vel * t, vel, t) for t in (0.0, 1.0, 2.0)]
        x_tau, _, _ = interpolate(states[0], states[2], 1.0)
        np.testing.assert_allclose(x_tau.as_vector(), states[1].as_vector(), atol=1e-12)

    def test_matches_dense_kernel_conditioning(self, rng):
        # Oracle: condition the dense joint Gaussian of five support states
        # on their values; the sparse two-state blend must agree.
        qc = np.array([[1.2, 0.2], [0.2, 0.8]])
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = rng.standard_normal((5, 4))
        for tau, left in ((0.37, 0), (1.95, 1), (2.5, 2), (3.99, 3)):
            expected = dense_gp_conditional_mean(times, values, tau, qc, initial_cov=2.0 * np.eye(4))
            x_i = state(values[left, :2], values[left, 2:], times[left])
            x_j = state(values[left + 1, :2], values[left + 1, 2:], times[left + 1])
            x_tau, _, _ = interpolate(x_i, x_j, tau)
            np.testing.assert_allclose(x_tau.as_vector(), expected, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_kernels_match_the_dense_blend_formula(self, n, rng):
        # Qc cancels: the dense blends of any SPD Qc are the kernels ⊗ I_n.
        # Relative to the blend [Lambda Psi]: near t_j the dense Lambda is
        # a small difference of O(1) terms and carries their rounding.
        a = rng.standard_normal((n, n))
        qc = a @ a.T + np.diag(rng.uniform(0.1, 2.0, n))
        t_i = rng.uniform(-2.0, 2.0, 30)
        t_j = t_i + rng.uniform(0.05, 3.0, 30)
        taus = t_i + (t_j - t_i) * rng.uniform(0.0, 1.0, 30)
        lam, psi = blend_kernels(t_i, t_j, taus)
        for k in range(30):
            reference = np.hstack(dense_blend_matrices(t_i[k], t_j[k], taus[k], qc))
            kernels = np.hstack([np.kron(lam[k], np.eye(n)), np.kron(psi[k], np.eye(n))])
            assert np.abs(kernels - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_outside_segment_rejected(self):
        with pytest.raises(ValueError):
            interpolation_matrices(0.0, 1.0, 1.5, 1)
        with pytest.raises(ValueError):
            interpolation_matrices(0.0, 1.0, -0.2, 1)
        with pytest.raises(ValueError):
            interpolation_matrices(1.0, 1.0, 1.0, 1)


class TestSupportTrajectory:
    def test_init_trajectory_is_stationary(self):
        traj = init_trajectory([0.5, -0.5], horizon=2.0, num_states=5)
        assert traj.num_states == 5
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 2.0, 5), atol=1e-15)
        for s in traj.states:
            np.testing.assert_array_equal(s.position, [0.5, -0.5])
            np.testing.assert_array_equal(s.velocity, [0.0, 0.0])

    def test_init_trajectory_has_zero_prior_cost(self):
        traj = init_trajectory([0.1, 0.2], horizon=5.0, num_states=10)
        for a, b in zip(traj.states, traj.states[1:]):
            np.testing.assert_array_equal(gp_prior_error(a, b, 1e3).residual, np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            init_trajectory([0.0], horizon=1.0, num_states=1)
        with pytest.raises(ValueError):
            init_trajectory([0.0], horizon=-1.0, num_states=3)
        with pytest.raises(ValueError):
            SupportTrajectory(times=[0.0, 2.0, 1.0], x=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SupportTrajectory(times=[0.0, 1.0, 3.0], x=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SupportTrajectory(times=[0.0, 1.0], x=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_and_states_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SupportTrajectory(times=[0.0, 1.0, bad], x=np.zeros((3, 4)))
        traj = init_trajectory([0.1, 0.2], horizon=1.0, num_states=3)
        for index in (0, 3, 11):
            x = traj.x.ravel().copy()
            x[index] = bad
            with pytest.raises(ValueError, match="non-finite"):
                traj.with_vector(x)

    def test_vector_roundtrip_keeps_times(self, rng):
        traj = init_trajectory([0.0, 0.0, 0.0], horizon=1.0, num_states=4, n_interp=3)
        x = rng.standard_normal(4 * 6)
        new = traj.with_vector(x)
        np.testing.assert_allclose(new.x.ravel(), x, atol=0)
        np.testing.assert_array_equal(new.times, traj.times)
        assert new.n_interp == 3

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TrajectoryState(position=[0.0, 1.0], velocity=[0.0], time=0.0)
        with pytest.raises(ValueError):
            TrajectoryState(position=[np.inf], velocity=[0.0], time=0.0)
