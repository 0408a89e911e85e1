import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manipplan.kinematics import geometric_jacobian, jacobian_partials, load_chain
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

from .oracles import (
    gram_traces_empty_product,
    lambda_max_loop,
    manipulability_fd,
    manipulability_mp,
    planar_arm,
    singularity_gradient_mp,
    singularity_gradient_qr_mp,
)

# The module itself: the package attribute of the same name is the function.
manip_module = importlib.import_module("manipplan.manipulability")


# A configuration at which the UR-10's position (3-row) Jacobian is
# singular, found by minimizing its smallest singular value (lambda about
# 4e-18 there), and a wrist singularity of the full twist (joint 5 at zero).
UR10_POSITION_SINGULAR = [
    0.2901564873239588, 3.0996420952210917, -2.991168764453745, -0.48484382157791983, -2.5248033773426057e-17, 2.930871062822196
]
UR10_WRIST_SINGULAR = [0.3, -1.1, 1.4, 0.6, 0.0, -0.8]


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
        # singularities, against the formula in 60 digits with the same QR
        # clamp. Where no singular value is below SIGMA_MIN, neither the QR
        # clamp nor the SVD clamp acts, so the SVD-clamped trace formula in
        # 60 digits must agree as well.
        params = SingularityCostParams(lambda_max=1.0, sigma_sbar=1e-4)
        unclamped = 0
        for index in range(30):
            q = rng.uniform(-np.pi, np.pi, 6)
            if index >= 15:
                q[2:] = rng.uniform(0.0, 2e-3, 4)
            gradient = singularity_cost(ur10, q, params, task_dim=task_dim).gradient
            expected = singularity_gradient_qr_mp(ur10, q, task_dim, SIGMA_MIN)
            assert np.abs(gradient - expected).max() <= 1e-7 * np.abs(expected).max()
            if np.linalg.svd(geometric_jacobian(ur10, q, task_dim), compute_uv=False)[-1] >= SIGMA_MIN:
                unclamped += 1
                expected = singularity_gradient_mp(ur10, q, task_dim, SIGMA_MIN)
                assert np.abs(gradient - expected).max() <= 1e-7 * np.abs(expected).max()
        assert unclamped >= 15

    @pytest.mark.parametrize(
        "task_dim, singular, smallest", [(3, UR10_POSITION_SINGULAR, 1.7e-10), (6, UR10_WRIST_SINGULAR, 3e-16)]
    )
    def test_lambda_into_a_singularity_matches_high_precision_determinant(self, ur10, rng, task_dim, singular, smallest):
        # 33 configurations along a random line into a singular configuration,
        # lambda falling from about 1.7e-2 to `smallest`, against sqrt(det(J
        # J^T)) in 60 digits. The score's QR and the SVD of manipulability()
        # are held to the same bound: the change in lambda when every singular
        # value moves by 4 eps ||J|| (Weyl), which covers the rounding of J.
        singular, direction = np.array(singular), rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        slope = manipulability_mp(ur10, singular + 1e-6 * direction, task_dim) / 1e-6  # lambda grows linearly
        expected = []
        for step in np.geomspace(1.7e-2, smallest, 33) / slope:
            jacobian = geometric_jacobian(ur10, singular + step * direction, task_dim)
            expected.append(manipulability_mp(ur10, singular + step * direction, task_dim))
            s = np.linalg.svd(jacobian, compute_uv=False)
            bound = 4.0 * np.finfo(float).eps * s[0] * sum(np.prod(np.delete(s, i)) for i in range(task_dim))
            assert abs(manip_module._gram_lambda(jacobian)[0] - expected[-1]) <= bound
            assert abs(manipulability(jacobian) - expected[-1]) <= bound
        assert expected[0] > 1e-2 and expected[-1] == pytest.approx(smallest, rel=1e-3)

    def test_clamped_at_singularity(self, planar2r):
        params = self.params()
        cost = singularity_cost(planar2r, [0.0, 0.0], params, task_dim=2)
        assert cost.degenerate
        assert cost.h == pytest.approx(math.log(1.0 / LAMBDA_FLOOR), rel=1e-9)
        assert np.all(np.isfinite(cost.gradient))

    def test_task_dim_beyond_the_joint_count_rejected(self, planar2r):
        # A 3 x 2 Jacobian has a singular J J^T whatever the configuration.
        for cost in (singularity_cost, singularity_cost_value):
            with pytest.raises(ValueError, match="task dimension 3 exceeds joint count 2"):
                cost(planar2r, [0.3, 0.5], self.params(), task_dim=3)
        with pytest.raises(ValueError, match="task dimension 3 exceeds joint count 2"):
            manipulability_gradient(planar2r, [0.3, 0.5], task_dim=3)

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

    @pytest.mark.parametrize("name, task_dim", [("ur10", 6), ("ur10", 3), ("ur10", 2), ("planar2r", 2)])
    def test_traces_equal_the_back_substitution_with_the_empty_product(self, name, task_dim, rng):
        # Random, near-singular and singular rows (clamped diagonals), as a
        # stack and one configuration at a time.
        chain = load_chain("ur10") if name == "ur10" else planar_arm([1.0, 1.0])
        configs = rng.uniform(-np.pi, np.pi, (200, chain.n))
        configs[:20, 1:] = rng.uniform(0.0, 2e-3, (20, chain.n - 1))
        configs[20] = 0.0
        if name == "ur10":
            configs[21:23] = UR10_POSITION_SINGULAR, UR10_WRIST_SINGULAR
        for q in (configs, configs[0], configs[20]):
            jset = jacobian_partials(chain, q, task_dim)
            qr = manip_module._gram_lambda(jset.jacobian)[2]
            expected = gram_traces_empty_product(jset, qr)
            assert manip_module._gram_traces(jset, qr).tobytes() == expected.tobytes()

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
