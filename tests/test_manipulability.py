import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manipplan.kinematics import geometric_jacobian, load_chain
from manipplan.manipulability import (
    LAMBDA_FLOOR,
    SIGMA_MIN,
    Classification,
    SingularityCostParams,
    classify_configuration,
    estimate_lambda_max,
    likelihood,
    manipulability,
    manipulability_gradient,
    singularity_cost,
    singularity_cost_value,
)

from .oracles import lambda_max_loop, manipulability_fd, planar_arm, singularity_gradient_mp

# The module itself: the package attribute of the same name is the function.
manip_module = importlib.import_module("manipplan.manipulability")


def planar_xy_jacobian(chain, q):
    return geometric_jacobian(chain, q, task_dim=2)


class TestManipulabilityMeasure:
    def test_planar_right_angle_is_one(self, planar2r):
        # |det J| = l1 l2 |sin q2| for the two-link arm, worked by hand.
        for q1 in (0.0, 0.9, -2.3):
            lam = manipulability(planar_xy_jacobian(planar2r, [q1, np.pi / 2]))
            assert lam == pytest.approx(1.0, abs=1e-12)

    def test_fully_extended_arm_is_singular(self, planar2r):
        lam = manipulability(planar_xy_jacobian(planar2r, [0.4, 0.0]))
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_identity_jacobian(self):
        assert manipulability(np.eye(3)) == pytest.approx(1.0, abs=1e-15)

    def test_analytic_sine_oracle_across_elbow_range(self, planar2r):
        # lambda(q2) = |sin q2| for unit links; 100 samples over (0, pi).
        for q2 in np.linspace(0.01, np.pi - 0.01, 100):
            lam = manipulability(planar_xy_jacobian(planar2r, [0.3, q2]))
            assert lam == pytest.approx(abs(math.sin(q2)), abs=1e-9)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError):
            manipulability(np.ones((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            manipulability(np.array([[np.nan, 0.0]]))

    def test_nonnegative_and_zero_only_when_rank_deficient(self, rng):
        for _ in range(50):
            jac = rng.standard_normal((3, 5))
            assert manipulability(jac) > 0.0
        deficient = np.outer(rng.standard_normal(3), rng.standard_normal(5))
        assert manipulability(deficient) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self, ur10, rng):
        # The measure only sees the column space metric, so rotating the
        # task frame (R on the linear rows, R on the angular rows) keeps it.
        from scipy.spatial.transform import Rotation

        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 6)
            rot = Rotation.random(random_state=int(rng.integers(1 << 31))).as_matrix()
            jac3 = geometric_jacobian(ur10, q, task_dim=3)
            lam3 = manipulability(jac3)
            assert manipulability(rot @ jac3) == pytest.approx(lam3, rel=1e-9)
            jac6 = geometric_jacobian(ur10, q, task_dim=6)
            block = np.zeros((6, 6))
            block[:3, :3] = rot
            block[3:, 3:] = rot
            assert manipulability(block @ jac6) == pytest.approx(manipulability(jac6), rel=1e-9)


    def test_stack_equals_per_matrix_values_bit_for_bit(self, ur10, rng):
        jacs = geometric_jacobian(ur10, rng.uniform(-np.pi, np.pi, (200, 6)), task_dim=3)
        stacked = manipulability(jacs)
        assert stacked.shape == (200,)
        np.testing.assert_array_equal(stacked, [manipulability(jac) for jac in jacs])

    def test_stack_checked_once_for_shape_and_finiteness(self):
        with pytest.raises(ValueError, match="exceeds"):
            manipulability(np.ones((4, 3, 2)))
        jacs = np.ones((4, 2, 3))
        jacs[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            manipulability(jacs)


class TestEstimateLambdaMax:
    def test_reproduces_the_shipped_ur10_value(self):
        chain = load_chain("ur10")
        assert estimate_lambda_max(chain) == 0.35605122329376215 == chain.lambda_max[6]
        assert estimate_lambda_max(chain, task_dim=3) == 0.46615604255863863 == chain.lambda_max[3]

    @pytest.mark.parametrize("task_dim", [3, 6])
    def test_chunked_draw_equals_per_sample_loop(self, monkeypatch, ur10, task_dim):
        monkeypatch.setattr(manip_module, "LAMBDA_MAX_CHUNK", 700)  # three chunks and a partial one
        expected = lambda_max_loop(ur10, task_dim, 2500, 7, (-2.0, 2.5))
        assert estimate_lambda_max(ur10, task_dim, num_samples=2500, seed=7, joint_range=(-2.0, 2.5)) == expected

    def test_no_samples_gives_zero(self, ur10):
        assert estimate_lambda_max(ur10, num_samples=0) == 0.0


class TestManipulabilityGradient:
    def test_planar_stationary_at_right_angle(self, planar2r):
        grad = manipulability_gradient(planar2r, [0.2, np.pi / 2], task_dim=2)
        assert grad.values[1] == pytest.approx(0.0, abs=1e-10)
        assert not grad.degenerate

    def test_planar_analytic_derivative(self, planar2r):
        # d lambda / d q2 = cos q2 for unit links.
        grad = manipulability_gradient(planar2r, [1.1, np.pi / 4], task_dim=2)
        assert grad.values[1] == pytest.approx(math.cos(np.pi / 4), abs=1e-9)

    def test_matches_finite_differences_on_ur10(self, ur10, rng):
        checked = 0
        worst = 0.0
        while checked < 100:
            q = rng.uniform(-np.pi, np.pi, 6)
            lam = manipulability(geometric_jacobian(ur10, q, task_dim=6))
            if lam <= 0.01:
                continue
            checked += 1
            grad = manipulability_gradient(ur10, q, task_dim=6).values
            fd = manipulability_fd(ur10, q, 6, step=1e-6)
            worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
        assert worst < 1e-4

    def test_degenerate_flag_at_singularity(self, planar2r):
        grad = manipulability_gradient(planar2r, [0.0, 0.0], task_dim=2)
        assert grad.degenerate
        assert np.all(np.isfinite(grad.values))


class TestSingularityCost:
    def params(self, lambda_max=1.0, sigma=1e-4):
        return SingularityCostParams(lambda_max=lambda_max, sigma_sbar=sigma)

    def test_zero_cost_at_lambda_max(self, planar2r):
        cost = singularity_cost(planar2r, [0.5, np.pi / 2], self.params(), task_dim=2)
        assert cost.h == pytest.approx(0.0, abs=1e-12)

    def test_planar_log_derivative_is_negative_cotangent(self, planar2r):
        cost = singularity_cost(planar2r, [0.9, np.pi / 4], self.params(), task_dim=2)
        assert cost.gradient[1] == pytest.approx(-1.0, abs=1e-9)

    def test_cancellation_identity_on_ur10(self, ur10, rng):
        # The log-cost Jacobian equals -(1/lambda) * d lambda / dq without
        # ever multiplying by lambda; both paths must agree to 1e-10.
        params = SingularityCostParams(lambda_max=ur10.lambda_max[6], sigma_sbar=1e-4)
        checked = 0
        worst = 0.0
        while checked < 100:
            q = rng.uniform(-np.pi, np.pi, 6)
            lam = manipulability(geometric_jacobian(ur10, q, task_dim=6))
            if lam <= 1e-6:
                continue
            checked += 1
            cost = singularity_cost(ur10, q, params, task_dim=6)
            grad = manipulability_gradient(ur10, q, task_dim=6).values
            expected = -grad / lam
            worst = max(worst, np.abs(cost.gradient - expected).max() / np.abs(expected).max())
        assert worst < 1e-10

    @pytest.mark.parametrize("task_dim", [6, 3])
    def test_gradient_matches_high_precision_reference(self, ur10, rng, task_dim):
        # 30 configurations, the last 15 near the wrist and elbow
        # singularities, against the clamped trace formula in 60 digits.
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        for index in range(30):
            q = rng.uniform(-np.pi, np.pi, 6)
            if index >= 15:
                q[2:] = rng.uniform(0.0, 2e-3, 4)
            expected = singularity_gradient_mp(ur10, q, task_dim, SIGMA_MIN)
            gradient = singularity_cost(ur10, q, params, task_dim=task_dim).gradient
            assert np.abs(gradient - expected).max() <= 1e-7 * np.abs(expected).max()

    def test_clamped_at_singularity(self, planar2r):
        params = self.params()
        cost = singularity_cost(planar2r, [0.0, 0.0], params, task_dim=2)
        assert cost.degenerate
        assert cost.h == pytest.approx(math.log(1.0 / LAMBDA_FLOOR), rel=1e-9)
        assert np.all(np.isfinite(cost.gradient))

    @pytest.mark.parametrize("name, task_dim", [("ur10", 6), ("ur10", 3), ("ur10", 2), ("planar2r", 2)])
    def test_value_equals_full_cost_bit_for_bit(self, name, task_dim, rng):
        chain = load_chain("ur10") if name == "ur10" else planar_arm([1.0, 1.0])
        params = SingularityCostParams(lambda_max=4.0, sigma_sbar=1e-4)
        configs = rng.uniform(-np.pi, np.pi, (2000, chain.n))
        configs[:200, 1:] = rng.uniform(0.0, 2e-3, (200, chain.n - 1))  # near-singular rows
        configs[200] = 0.0  # the stretched-out arm
        np.testing.assert_array_equal(
            singularity_cost_value(chain, configs, params, task_dim), singularity_cost(chain, configs, params, task_dim).h
        )

    @pytest.mark.parametrize("name, task_dim", [("ur10", 6), ("ur10", 3), ("planar2r", 2)])
    def test_stack_equals_per_configuration_calls_bit_for_bit(self, name, task_dim, rng):
        chain = load_chain("ur10") if name == "ur10" else planar_arm([1.0, 1.0])
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        configs = rng.uniform(-np.pi, np.pi, (46, chain.n))
        configs[:10, 1:] = rng.uniform(0.0, 2e-3, (10, chain.n - 1))  # near-singular rows
        configs[10] = 0.0  # the stretched-out arm
        stacked = singularity_cost(chain, configs, params, task_dim)
        singles = [singularity_cost(chain, q, params, task_dim) for q in configs]
        assert all(type(c.h) is float and type(c.degenerate) is bool for c in singles)
        assert stacked.gradient.shape == (46, chain.n)
        np.testing.assert_array_equal(stacked.h, [c.h for c in singles])
        np.testing.assert_array_equal(stacked.gradient, [c.gradient for c in singles])
        np.testing.assert_array_equal(stacked.degenerate, [c.degenerate for c in singles])
        values = singularity_cost_value(chain, configs, params, task_dim)
        assert all(type(singularity_cost_value(chain, q, params, task_dim)) is float for q in configs[:3])
        np.testing.assert_array_equal(values, [singularity_cost_value(chain, q, params, task_dim) for q in configs])
        gradient = manipulability_gradient(chain, configs, task_dim)
        np.testing.assert_array_equal(gradient.values, [manipulability_gradient(chain, q, task_dim).values for q in configs])

    def test_params_ordering_enforced(self):
        # The near-singular threshold, 1% of lambda_max, must exceed LAMBDA_FLOOR.
        for lambda_max in (-1.0, 0.0, 50 * LAMBDA_FLOOR, math.inf, math.nan):
            with pytest.raises(ValueError, match="exceed 100 \\* LAMBDA_FLOOR"):
                SingularityCostParams(lambda_max=lambda_max, sigma_sbar=1e-4)
        with pytest.raises(ValueError):
            SingularityCostParams(lambda_max=1.0, sigma_sbar=0.0)

    def test_threshold_is_one_percent_of_lambda_max(self):
        assert SingularityCostParams(lambda_max=2.0, sigma_sbar=1e-4).near_singular_threshold == 0.02
        with pytest.raises(TypeError):
            SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4, near_singular_threshold=0.5)


class TestClassifier:
    def test_exact_singularity_is_nearly_singular(self):
        params = SingularityCostParams(lambda_max=2.0, sigma_sbar=1e-4)
        assert classify_configuration(0.0, params) is Classification.NEARLY_SINGULAR

    def test_boundary_goes_to_not_nearly_singular(self):
        # The comparison is strict, so the threshold itself is acceptable.
        params = SingularityCostParams(lambda_max=2.0, sigma_sbar=1e-4)
        assert classify_configuration(params.near_singular_threshold, params) is Classification.NOT_NEARLY_SINGULAR

    def test_lambda_max_not_nearly_singular(self):
        params = SingularityCostParams(lambda_max=2.0, sigma_sbar=1e-4)
        assert classify_configuration(2.0, params) is Classification.NOT_NEARLY_SINGULAR

    def test_negative_rejected(self):
        params = SingularityCostParams(lambda_max=2.0, sigma_sbar=1e-4)
        with pytest.raises(ValueError):
            classify_configuration(-0.1, params)


class TestLikelihood:
    def test_maximized_at_zero_cost(self):
        assert likelihood(0.0, 1e-4) == 1.0

    def test_unit_mahalanobis_point(self):
        sigma = 3e-3
        h = math.sqrt(2.0 * sigma)
        assert likelihood(h, sigma) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @given(
        h1=st.floats(min_value=0.0, max_value=50.0),
        h2=st.floats(min_value=0.0, max_value=50.0),
        sigma=st.floats(min_value=1e-6, max_value=1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_decreasing_in_magnitude(self, h1, h2, sigma):
        # Stay inside the exp-representable range; the true value is always
        # positive but underflows to 0.0 beyond exponent ~ -700.
        assume(0.5 * max(h1, h2) ** 2 / sigma < 700.0)
        lo, hi = sorted((h1, h2))
        assert 0.0 < likelihood(hi, sigma) <= likelihood(lo, sigma) <= 1.0
        assert likelihood(-hi, sigma) == likelihood(hi, sigma)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            likelihood(1.0, 0.0)
