import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipplan.kinematics import (
    BodySphere,
    DhLink,
    KinematicChain,
    ModelError,
    Pose,
    body_sphere_states,
    builtin_model_path,
    chain_from_dict,
    forward_kinematics,
    geometric_jacobian,
    jacobian_partials,
    load_chain,
    point_jacobian,
)
from manipplan.kinematics import TASK_DIMS, _as_config, _body_sphere_centers, _cross, _fk_matrices, _point_jacobians

from .oracles import (
    body_sphere_centers_einsum,
    body_sphere_centers_matmul,
    contract_six_rows,
    contract_zero_padded,
    cross_per_component,
    dh_matrix,
    dh_product,
    fk_matrices_loop,
    jacobian_fd,
    jacobian_partials_fd,
    jacobian_partials_loop,
    partials_from_contract,
    planar_arm,
    point_jacobian_loop,
    point_jacobians_masked,
)

# DH rows (a, alpha, d, theta_offset) of the shipped UR-10 model, used to
# drive the independent product oracle.
UR10_DH = [
    (0.0, np.pi / 2, 0.1273, 0.0),
    (-0.612, 0.0, 0.0, 0.0),
    (-0.5723, 0.0, 0.0, 0.0),
    (0.0, np.pi / 2, 0.163941, 0.0),
    (0.0, -np.pi / 2, 0.1157, 0.0),
    (0.0, 0.0, 0.0922, 0.0),
]

# Frozen output of the DH-product oracle at the zero configuration
# (computed once from dh_product and pinned here).
UR10_HOME_POSITION = np.array([-1.1843, -0.25614100000000006, 0.0116])


class TestForwardKinematics:
    def test_planar_fully_extended(self, planar2r):
        poses = forward_kinematics(planar2r, [0.0, 0.0])
        np.testing.assert_allclose(poses[-1].position, [2.0, 0.0, 0.0], atol=1e-15)

    def test_planar_base_rotated(self, planar2r):
        poses = forward_kinematics(planar2r, [np.pi / 2, 0.0])
        np.testing.assert_allclose(poses[-1].position, [0.0, 2.0, 0.0], atol=1e-15)

    def test_ur10_home_matches_frozen_oracle_value(self, ur10):
        poses = forward_kinematics(ur10, np.zeros(6))
        np.testing.assert_allclose(poses[-1].position, UR10_HOME_POSITION, atol=1e-12)

    def test_matches_product_oracle_on_random_configs(self, ur10, rng):
        for _ in range(25):
            q = rng.uniform(-np.pi, np.pi, 6)
            expected = dh_product(UR10_DH, q)
            pose = forward_kinematics(ur10, q)[-1]
            np.testing.assert_allclose(pose.position, expected[:3, 3], atol=1e-12)
            np.testing.assert_allclose(pose.rotation, expected[:3, :3], atol=1e-12)

    def test_returns_base_then_one_frame_per_link(self, ur10):
        poses = forward_kinematics(ur10, np.zeros(6))
        assert len(poses) == ur10.n + 1
        np.testing.assert_array_equal(poses[0].rotation, np.eye(3))
        np.testing.assert_array_equal(poses[0].position, np.zeros(3))

    def test_composition_equals_direct_product(self, ur10, rng):
        # Composing frame-by-frame must equal the one-shot matrix product
        # exactly: both sides perform the same left-to-right multiplies.
        q = rng.uniform(-np.pi, np.pi, 6)
        poses = forward_kinematics(ur10, q)
        direct = np.eye(4)
        for k, link in enumerate(ur10.links):
            direct = direct @ dh_matrix(q[k] + link.theta_offset, link.d, link.a, link.alpha)
            np.testing.assert_array_equal(poses[k + 1].as_matrix(), direct)

    def test_frames_stay_orthonormal(self, ur10, rng):
        for _ in range(20):
            q = rng.uniform(-2 * np.pi, 2 * np.pi, 6)
            for pose in forward_kinematics(ur10, q):
                r = pose.rotation
                assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
                assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self, ur10):
        with pytest.raises(ModelError):
            forward_kinematics(ur10, np.zeros(5))
        with pytest.raises(ModelError):
            forward_kinematics(ur10, [np.nan] * 6)


class TestGeometricJacobian:
    def test_planar_known_columns(self, planar2r):
        jac = geometric_jacobian(planar2r, [0.0, np.pi / 2], task_dim=3)
        np.testing.assert_allclose(jac, [[-1.0, -1.0], [1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_zero_joint_rates_map_to_zero(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        jac = geometric_jacobian(ur10, q, task_dim=6)
        np.testing.assert_array_equal(jac @ np.zeros(6), np.zeros(6))

    def test_matches_finite_differences_over_random_configs(self, ur10, rng):
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 6)
            jac = geometric_jacobian(ur10, q, task_dim=6)
            worst = max(worst, np.abs(jac - jacobian_fd(ur10, q, 6)).max())
        assert worst < 1e-5

    def test_task_dim_rows(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        full = geometric_jacobian(ur10, q, task_dim=6)
        np.testing.assert_array_equal(geometric_jacobian(ur10, q, task_dim=3), full[:3])
        np.testing.assert_array_equal(geometric_jacobian(ur10, q, task_dim=2), full[:2])
        with pytest.raises(ModelError):
            geometric_jacobian(ur10, q, task_dim=4)


class TestJacobianPartials:
    # The derivatives are read off JacobianSet.contract, the planner's path.
    def test_single_link_partial_norm_is_link_length(self):
        # One revolute joint: the position column rotates on a circle of
        # radius equal to the link length, so its derivative has that norm.
        length = 0.7
        chain = planar_arm([length])
        for q in (0.0, 0.4, 2.2):
            partials = partials_from_contract(jacobian_partials(chain, [q], task_dim=3))
            assert np.linalg.norm(partials[0]) == pytest.approx(length, abs=1e-12)

    def test_structural_zeros_of_angular_rows(self, ur10, rng):
        # The axis of joint j only turns with joints strictly upstream, so
        # the angular rows of column j have zero derivative w.r.t. any
        # joint k >= j; finite differences agree.
        q = rng.uniform(-np.pi, np.pi, 6)
        partials = partials_from_contract(jacobian_partials(ur10, q, task_dim=6))
        fd = jacobian_partials_fd(ur10, q, 6)
        for k in range(6):
            np.testing.assert_array_equal(partials[k][3:, : k + 1], np.zeros((3, k + 1)))
            assert np.abs(fd[k][3:, : k + 1]).max() < 1e-9

    def test_last_joint_cannot_change_ur10_jacobian(self, ur10, rng):
        # The UR-10 end-effector point lies on the final joint axis, so
        # rotating that joint moves nothing the Jacobian can see.
        q = rng.uniform(-np.pi, np.pi, 6)
        partials = partials_from_contract(jacobian_partials(ur10, q, task_dim=6))
        assert np.abs(partials[5]).max() < 1e-12

    def test_matches_finite_differences_over_random_configs(self, ur10, rng):
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 6)
            partials = partials_from_contract(jacobian_partials(ur10, q, task_dim=6))
            fd = jacobian_partials_fd(ur10, q, 6, step=1e-6)
            for analytic, numeric in zip(partials, fd):
                worst = max(worst, np.abs(analytic - numeric).max())
        assert worst < 1e-4

    def test_equals_loop_reference(self, ur10, planar2r, rng):
        # Within rounding: the contraction sums the terms in another order.
        for chain, task_dims in ((ur10, (6, 3, 2)), (planar2r, (3, 2))):
            for _ in range(20):
                q = rng.uniform(-np.pi, np.pi, chain.n)
                for task_dim in task_dims:
                    partials = partials_from_contract(jacobian_partials(chain, q, task_dim))
                    np.testing.assert_allclose(partials, jacobian_partials_loop(chain, q, task_dim), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("task_dim", [2, 3, 6])
    def test_contract_equals_the_six_row_formula_bit_for_bit(self, ur10, planar2r, task_dim, rng):
        # Random, right-angle and zero configurations (exact zeros in the
        # frames), against random weights, weights with zero columns and
        # zero weights.
        for chain in (ur10, planar2r):
            configs = rng.uniform(-np.pi, np.pi, (60, chain.n))
            configs[:20] = rng.integers(-2, 3, (20, chain.n)) * (np.pi / 2)
            configs[20] = 0.0
            jset = jacobian_partials(chain, configs, task_dim)
            random = rng.normal(size=jset.jacobian.shape)
            sparse = np.where(rng.uniform(size=random.shape) < 0.5, 0.0, random)
            for weights in (random, sparse, np.zeros_like(random)):
                expected = contract_six_rows(jset, weights)
                assert jset.contract(weights).tobytes() == expected.tobytes()
                assert jset.contract(weights).tobytes() == contract_zero_padded(jset, weights).tobytes()

    def test_jacobian_field_matches_geometric_jacobian(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        jset = jacobian_partials(ur10, q, task_dim=3)
        np.testing.assert_array_equal(jset.jacobian, geometric_jacobian(ur10, q, task_dim=3))


class TestPointJacobian:
    def test_matches_finite_differences(self, ur10, rng):
        offset = np.array([0.05, -0.02, 0.11])
        for link in (0, 2, 5):
            q = rng.uniform(-np.pi, np.pi, 6)
            point, jac = point_jacobian(ur10, q, link, offset)
            step = 1e-7
            for j in range(6):
                qp, qm = q.copy(), q.copy()
                qp[j] += step
                qm[j] -= step
                pp, _ = point_jacobian(ur10, qp, link, offset)
                pm, _ = point_jacobian(ur10, qm, link, offset)
                np.testing.assert_allclose(jac[:, j], (pp - pm) / (2 * step), atol=1e-6)

    def test_downstream_joints_have_zero_columns(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        _, jac = point_jacobian(ur10, q, 2, np.zeros(3))
        np.testing.assert_array_equal(jac[:, 3:], np.zeros((3, 3)))

    def test_equals_loop_reference_bit_for_bit(self, ur10, rng):
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 6)
            link = int(rng.integers(0, 6))
            offset = rng.uniform(-0.2, 0.2, 3)
            point, jac = point_jacobian(ur10, q, link, offset)
            ref_point, ref_jac = point_jacobian_loop(ur10, q, link, offset)
            np.testing.assert_array_equal(point, ref_point)
            np.testing.assert_array_equal(jac, ref_jac)
            centers, jacs = body_sphere_states(ur10, q)
            for row, sphere in enumerate(ur10.body_spheres):
                ref_point, ref_jac = point_jacobian_loop(ur10, q, sphere.link_index, sphere.offset)
                np.testing.assert_array_equal(centers[row], ref_point)
                np.testing.assert_array_equal(jacs[row], ref_jac)

    def test_chain_without_spheres_gives_empty_batch(self, planar2r):
        centers, jacs = body_sphere_states(planar2r, [0.3, -0.4])
        assert centers.shape == (0, 3)
        assert jacs.shape == (0, 3, planar2r.n)

    def test_sphere_batch_matches_single_queries(self, ur10, rng):
        q = rng.uniform(-np.pi, np.pi, 6)
        centers, jacs = body_sphere_states(ur10, q)
        for row, sphere in enumerate(ur10.body_spheres):
            point, jac = point_jacobian(ur10, q, sphere.link_index, sphere.offset)
            np.testing.assert_array_equal(centers[row], point)
            np.testing.assert_array_equal(jacs[row], jac)


def tilted_chain():
    """A 4-link chain with a rotated, shifted base and no zero DH parameters."""
    spec = {
        "dh": [
            {"a": 0.3, "alpha": 0.7, "d": 0.2, "theta_offset": 0.4},
            {"a": -0.5, "alpha": -1.1, "d": 0.05, "theta_offset": -2.0},
            {"a": 0.25, "alpha": 2.9, "d": -0.3, "theta_offset": 1.3},
            {"a": 0.1, "alpha": 0.2, "d": 0.15, "theta_offset": 0.0},
        ],
        "base_pose": {"rpy": [0.3, -0.2, 1.1], "xyz": [0.4, -0.1, 0.8]},
        "body_spheres": [{"link": k, "offset": [0.05 * k, -0.1, 0.02], "radius": 0.1} for k in range(4)],
    }
    return chain_from_dict(spec)


class TestStackedConfigurations:
    @pytest.mark.parametrize("name", ["ur10", "planar2r", "tilted"])
    def test_frames_equal_link_transform_loop_bit_for_bit(self, name, rng):
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        configs = rng.uniform(-2 * np.pi, 2 * np.pi, (300, chain.n))
        reference = np.array([fk_matrices_loop(chain, q) for q in configs])
        for q, ref in zip(configs, reference):
            np.testing.assert_array_equal(_fk_matrices(chain, q), ref)
        np.testing.assert_array_equal(_fk_matrices(chain, configs), reference)

    @pytest.mark.parametrize("name", ["ur10", "planar2r", "tilted"])
    def test_precomputed_frames_give_the_same_bits(self, name, rng):
        # One forward-kinematics pass serves the Jacobian of the trajectory report.
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        configs = rng.uniform(-np.pi, np.pi, (50, chain.n))
        frames = _fk_matrices(chain, configs)
        for task_dim in TASK_DIMS:
            np.testing.assert_array_equal(
                geometric_jacobian(chain, configs, task_dim, frames), geometric_jacobian(chain, configs, task_dim)
            )

    @pytest.mark.parametrize("name", ["ur10", "planar2r", "tilted"])
    def test_stack_equals_per_configuration_calls_bit_for_bit(self, name, rng):
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        configs = rng.uniform(-np.pi, np.pi, (200, chain.n))
        for task_dim in (2, 3, 6):
            stacked = geometric_jacobian(chain, configs, task_dim)
            assert stacked.shape == (200, task_dim, chain.n)
            np.testing.assert_array_equal(stacked, [geometric_jacobian(chain, q, task_dim) for q in configs])
        centers, jacs = body_sphere_states(chain, configs)
        assert centers.shape == (200, len(chain.body_spheres), 3)
        assert jacs.shape == (200, len(chain.body_spheres), 3, chain.n)
        singles = [body_sphere_states(chain, q) for q in configs]
        np.testing.assert_array_equal(centers, np.array([c for c, _ in singles]).reshape(centers.shape))
        np.testing.assert_array_equal(jacs, np.array([j for _, j in singles]).reshape(jacs.shape))

    @pytest.mark.parametrize("name", ["ur10", "planar2r", "tilted"])
    def test_contractions_and_point_jacobians_of_a_stack_equal_per_configuration_calls(self, name, rng):
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        configs = rng.uniform(-np.pi, np.pi, (120, chain.n))
        for task_dim in (2, 3, 6):
            stacked = jacobian_partials(chain, configs, task_dim)
            weights = rng.normal(size=stacked.jacobian.shape)
            contracted = stacked.contract(weights)
            assert contracted.shape == (120, chain.n)
            singles = [jacobian_partials(chain, q, task_dim) for q in configs]
            np.testing.assert_array_equal(stacked.jacobian, [s.jacobian for s in singles])
            np.testing.assert_array_equal(contracted, [s.contract(w) for s, w in zip(singles, weights)])
        offset = np.array([0.05, -0.1, 0.2])
        for link in range(chain.n):
            points, jacs = point_jacobian(chain, configs, link, offset)
            singles = [point_jacobian(chain, q, link, offset) for q in configs]
            np.testing.assert_array_equal(points, [p for p, _ in singles])
            np.testing.assert_array_equal(jacs, [j for _, j in singles])

    def test_as_config_shapes(self, ur10):
        assert _as_config(ur10, np.zeros(6)).shape == (6,)
        assert _as_config(ur10, np.zeros((4, 6)), stack=True).shape == (4, 6)
        assert _as_config(ur10, np.zeros((0, 6)), stack=True).shape == (0, 6)

    @pytest.mark.parametrize("shape", [(4, 5), (4, 7), (2, 3, 6), (4,), ()])
    def test_as_config_rejects_malformed_stacks(self, ur10, shape):
        with pytest.raises(ModelError, match="shape"):
            _as_config(ur10, np.zeros(shape), stack=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_config_rejects_a_non_finite_row(self, ur10, bad):
        configs = np.zeros((5, 6))
        configs[3, 2] = bad
        with pytest.raises(ModelError, match="non-finite"):
            _as_config(ur10, configs, stack=True)
        with pytest.raises(ModelError, match="non-finite"):
            geometric_jacobian(ur10, configs)

    def test_single_configuration_functions_reject_stacks(self, ur10):
        stack = np.zeros((3, 6))
        with pytest.raises(ModelError, match="shape"):
            _as_config(ur10, stack)
        with pytest.raises(ModelError, match="shape"):
            forward_kinematics(ur10, stack)


class TestCross:
    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((3,), (3,)), ((5, 3), (3,)), ((3,), (4, 3)), ((4, 1, 3), (6, 3)), ((2, 7, 3), (2, 1, 3))],
    )
    def test_equals_np_cross_bit_for_bit(self, rng, shape_a, shape_b):
        a = rng.standard_normal(shape_a) * 10.0 ** rng.integers(-8, 8, shape_a)
        b = rng.standard_normal(shape_b) * 10.0 ** rng.integers(-8, 8, shape_b)
        ours = _cross(a, b)
        assert ours.shape == np.cross(a, b).shape
        np.testing.assert_array_equal(ours, np.cross(a, b))

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((3,), (3,)), ((5, 3), (3,)), ((4, 1, 3), (6, 3)), ((46, 6, 3), (46, 6, 3)), ((46, 1, 6, 3), (46, 14, 1, 3))],
    )
    def test_equals_per_component_formula_bit_for_bit(self, rng, shape_a, shape_b):
        a = rng.standard_normal(shape_a) * 10.0 ** rng.integers(-8, 8, shape_a)
        b = rng.standard_normal(shape_b) * 10.0 ** rng.integers(-8, 8, shape_b)
        np.testing.assert_array_equal(_cross(a, b), cross_per_component(a, b))


class TestPointKernels:
    @pytest.mark.parametrize("name", ["ur10", "planar2r", "tilted"])
    def test_point_jacobians_equal_the_masked_form_bit_for_bit(self, name, rng):
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        frames = _fk_matrices(chain, rng.uniform(-np.pi, np.pi, (46, chain.n)))
        points = rng.uniform(-1.0, 1.0, (46, chain.n, 3))
        cases = [
            (points[:, :1], np.array([chain.n - 1])),  # the end effector's link: no column masked
            (points[:, :1], np.array([0])),  # every column past the first masked
            (points, np.arange(chain.n)),  # one point per link
            (points, rng.integers(0, chain.n, (46, chain.n))),  # one link per point, as the collision pairs pass
        ]
        for at, links in cases:
            expected = point_jacobians_masked(frames, at, links)
            np.testing.assert_array_equal(_point_jacobians(frames, at, links), expected)

    @staticmethod
    def assert_sphere_centers_equal(reference, name, rng):
        """``_body_sphere_centers`` equals ``reference(chain, frames)`` bit
        for bit when each offset has one nonzero component (the shipped
        models), where the zero terms make any order of the products exact,
        and within 1e-15 m with three nonzero components."""
        chain = tilted_chain() if name == "tilted" else load_chain(name)
        spheres = [replace(s, offset=s.offset * (np.arange(3) == k % 3)) for k, s in enumerate(chain.body_spheres)]
        one_axis = replace(chain, body_spheres=spheres)
        for scale in (1e-3, 1.0, 1e3):
            configs = rng.uniform(-np.pi, np.pi, (200, chain.n)) * scale
            frames = _fk_matrices(chain, configs)
            np.testing.assert_array_equal(_body_sphere_centers(one_axis, configs, frames)[1], reference(one_axis, frames))
            np.testing.assert_array_equal(_body_sphere_centers(one_axis, configs[0])[1], reference(one_axis, frames[0]))
            centers = _body_sphere_centers(chain, configs, frames)[1]
            np.testing.assert_allclose(centers, reference(chain, frames), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", ["ur10", "tilted"])
    def test_sphere_centers_equal_the_matmul_form(self, name, rng):
        # matmul may fuse the multiply-adds of three-axis offsets.
        self.assert_sphere_centers_equal(body_sphere_centers_matmul, name, rng)

    @pytest.mark.parametrize("name", ["ur10", "tilted"])
    def test_sphere_centers_equal_the_einsum_form(self, name, rng):
        # The form the explicit products replaced.
        self.assert_sphere_centers_equal(body_sphere_centers_einsum, name, rng)


# Near-singular UR-10 configurations: shoulder joints anywhere, the other
# four joints in the [0, 2e-3] rad band the benchmark's start states use.
near_singular_ur10 = st.tuples(
    st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), *[st.floats(0.0, 2e-3)] * 4
).map(np.array)


@st.composite
def degenerate_chains(draw):
    """A random chain of 1-6 links in which at least one link has a = d = 0."""
    n = draw(st.integers(1, 6))
    angles = st.floats(-np.pi, np.pi)
    lengths = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    links = [DhLink(a=draw(lengths), alpha=draw(angles), d=draw(lengths), theta_offset=draw(angles)) for _ in range(n)]
    links[draw(st.integers(0, n - 1))] = DhLink(a=0.0, alpha=draw(angles), d=0.0)
    q = np.array([draw(angles) for _ in range(n)])
    return KinematicChain(links=tuple(links)), q


def assert_partials_match_fd(chain, q):
    partials = partials_from_contract(jacobian_partials(chain, q, task_dim=6))
    fd = jacobian_partials_fd(chain, q, 6, step=1e-6)
    assert partials.shape == (chain.n, 6, chain.n)
    for analytic, numeric in zip(partials, fd):
        assert np.abs(analytic - numeric).max() < 1e-4


def assert_point_jacobian_matches_fd(chain, q, link, offset):
    _, jac = point_jacobian(chain, q, link, offset)
    step = 1e-7
    for j in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        pp, _ = point_jacobian(chain, qp, link, offset)
        pm, _ = point_jacobian(chain, qm, link, offset)
        np.testing.assert_allclose(jac[:, j], (pp - pm) / (2 * step), atol=1e-6)


offsets = st.tuples(*[st.floats(-0.2, 0.2)] * 3).map(np.array)


class TestDerivativeProperties:
    @given(q=near_singular_ur10)
    @settings(max_examples=60, deadline=None)
    def test_partials_near_ur10_singularity(self, ur10, q):
        assert_partials_match_fd(ur10, q)

    @given(chain_q=degenerate_chains())
    @settings(max_examples=60, deadline=None)
    def test_partials_with_degenerate_links(self, chain_q):
        assert_partials_match_fd(*chain_q)

    @given(q=near_singular_ur10, link=st.integers(0, 5), offset=offsets)
    @settings(max_examples=60, deadline=None)
    def test_point_jacobian_near_ur10_singularity(self, ur10, q, link, offset):
        assert_point_jacobian_matches_fd(ur10, q, link, offset)

    @given(chain_q=degenerate_chains(), data=st.data(), offset=offsets)
    @settings(max_examples=60, deadline=None)
    def test_point_jacobian_with_degenerate_links(self, chain_q, data, offset):
        chain, q = chain_q
        link = data.draw(st.integers(0, chain.n - 1))
        assert_point_jacobian_matches_fd(chain, q, link, offset)


class TestModelValidation:
    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ModelError):
            DhLink(a=np.inf, alpha=0.0, d=0.0)

    def test_sphere_bounds_checked(self):
        links = (DhLink(a=1.0, alpha=0.0, d=0.0),)
        with pytest.raises(ModelError):
            KinematicChain(links=links, body_spheres=(BodySphere(link_index=3, offset=np.zeros(3), radius=0.1),))
        with pytest.raises(ModelError):
            BodySphere(link_index=0, offset=np.zeros(3), radius=-0.1)

    def test_rotation_validation(self):
        with pytest.raises(ModelError):
            Pose(rotation=np.eye(3) * 1.001, position=np.zeros(3))
        bad = np.eye(3)
        bad[0, 0] = -1.0  # improper reflection
        with pytest.raises(ModelError):
            Pose(rotation=bad, position=np.zeros(3))

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            KinematicChain(links=())


class TestModelFiles:
    def test_builtin_ur10_loads(self, ur10):
        assert ur10.n == 6
        assert ur10.name == "ur10"
        assert ur10.lambda_max == {3: 0.46615604255863863, 6: 0.35605122329376215}
        assert len(ur10.body_spheres) == 14

    def test_load_by_path_equals_load_by_name(self):
        by_name = load_chain("ur10")
        by_path = load_chain(builtin_model_path("ur10"))
        _assert_chains_equal(by_name, by_path)

    def test_base_pose_rpy_offsets_moves_chain(self, tmp_path):
        spec = {
            "name": "offset",
            "dh": [{"a": 1.0, "alpha": 0.0, "d": 0.0, "theta_offset": 0.0}],
            "base_pose": {"rpy": [0.0, 0.0, np.pi / 2], "xyz": [0.0, 0.0, 0.5]},
        }
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(spec))
        chain = load_chain(path)
        pose = forward_kinematics(chain, [0.0])[-1]
        np.testing.assert_allclose(pose.position, [0.0, 1.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "dh, sphere, model, message",
        [
            ({"a": 1.0}, None, None, "missing DH field 'alpha'"),
            (None, {"offset": [0.0, 0.0, 0.0], "radius": 0.1}, None, "missing body-sphere field 'link'"),
            (None, {"link": 0, "radius": 0.1}, None, "missing body-sphere field 'offset'"),
            (None, {"link": 0, "offset": [0.0, 0.0, 0.0]}, None, "missing body-sphere field 'radius'"),
            (None, {"link": 0.7, "offset": [0.0, 0.0, 0.0], "radius": 0.1}, None, "link must be a whole number, got 0.7"),
            (None, {"link": True, "offset": [0.0, 0.0, 0.0], "radius": 0.1}, None, "link must be a whole number, got True"),
            (None, {"link": "0", "offset": [0.0, 0.0, 0.0], "radius": 0.1}, None, "link must be a whole number, got '0'"),
            (None, {"link": 0, "offset": [0.0, 0.0], "radius": 0.1}, None, r"body_spheres\[0\]: sphere offset must be 3"),
            (None, [0, [0.0, 0.0, 0.0], 0.1], None, r"body_spheres\[0\] must be an object with fields 'link', 'offset'"),
            ({"a": "1.0", "alpha": 0.0, "d": 0.0}, None, None, r"dh\[0\]\.a must be a number, got '1.0'"),
            ({"a": 1.0, "alpha": 0.0, "d": True}, None, None, r"dh\[0\]\.d must be a number, got True"),
            (None, {"link": 0, "offset": [0.0, 0.0, 0.0], "radius": "0.1"}, None, r"body_spheres\[0\]\.radius must be a number"),
            (None, {"link": 0, "offset": [0.0, 0.0, 0.0], "radius": [0.1]}, None, r"body_spheres\[0\]\.radius must be a number"),
            (None, {"link": 0, "offset": ["0", 0, 0], "radius": 0.1}, None, r"body_spheres\[0\]\.offset must be a list of numbers"),
            (None, None, {"base_pose": {"rpy": [0.0, "0", 0.0]}}, r"base_pose\.rpy must be a list of numbers"),
            (None, None, {"base_pose": {"xyz": [0.0, 0.0, False]}}, r"base_pose\.xyz must be a list of numbers"),
            (None, None, {"lambda_max": {"2": "2"}}, r"lambda_max\[2\] must be a positive finite number, got '2'"),
            (None, None, {"lambda_max": "2"}, "lambda_max must be an object keyed by task dimension"),
            (None, None, {"lambda_max": 1.0}, "lambda_max must be an object keyed by task dimension"),
            (None, None, {"lambda_max": {"4": 1.0}}, r"keyed by task dimension \(2, 3, 6\), got key '4'"),
            (None, None, {"base_pose": {"xyz": [0, 0]}}, r"base_pose\.xyz must be 3 numbers, got \[0, 0\]"),
            (None, None, {"base_pose": {"rpy": [0.0, 0.0]}}, r"base_pose\.rpy must be 3 numbers, got \[0\.0, 0\.0\]"),
            ([1.0, 0.0, 0.0], None, None, r"dh\[0\] must be an object, got \[1\.0, 0\.0, 0\.0\]"),
            (None, None, {"base_pose": [0.0, 0.0, 0.0]}, r"base_pose must be an object, got \[0\.0, 0\.0, 0\.0\]"),
            (None, None, {"dh": {"a": 1.0, "alpha": 0.0, "d": 0.0}}, "dh must be a non-empty list, got {'a'"),
            (None, None, {"dh": []}, r"dh must be a non-empty list, got \[\]"),
            (None, None, {"name": ["x"]}, r"name must be a string, got \['x'\]"),
            (None, None, {"body_spheres": 3}, "body_spheres must be a list, got 3"),
        ],
        ids=[
            "dh-alpha",
            "sphere-link",
            "sphere-offset",
            "sphere-radius",
            "link-fraction",
            "link-bool",
            "link-string",
            "offset-length",
            "sphere-not-object",
            "dh-string",
            "dh-bool",
            "radius-string",
            "radius-list",
            "offset-string",
            "rpy-string",
            "xyz-bool",
            "lambda-max-string",
            "lambda-max-bare-string",
            "lambda-max-bare-number",
            "lambda-max-key",
            "xyz-length",
            "rpy-length",
            "dh-row-list",
            "base-pose-list",
            "dh-object",
            "dh-empty",
            "name-list",
            "spheres-number",
        ],
    )
    def test_missing_field_raises_model_error(self, dh, sphere, model, message, tmp_path):
        # A body sphere used to raise a bare KeyError, a fractional or
        # boolean link was truncated by int() to a link index, a short
        # offset or a row that is not an object raised a ValueError or
        # TypeError that named no field, and float() read strings and
        # bools as numbers.  A short base_pose entry, and a dh, DH row,
        # base_pose or body_spheres of the wrong JSON type, raised errors
        # that named no field, and a name that is not a string was kept as
        # its repr.
        spec = {"name": "broken", "dh": [dh or {"a": 1.0, "alpha": 0.0, "d": 0.0}] * 2} | (model or {})
        if sphere is not None:
            spec["body_spheres"] = [sphere]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ModelError, match=message):
            load_chain(path)

    def test_model_that_is_not_an_object_raises_model_error(self, tmp_path):
        # It used to raise an AttributeError on spec.get.
        path = tmp_path / "broken.json"
        path.write_text("[1.0]")
        with pytest.raises(ModelError, match=r"model must be an object, got \[1\.0\]"):
            load_chain(path)

    def test_whole_float_link_loads(self):
        sphere = {"link": 1.0, "offset": [0.0, 0.0, 0.0], "radius": 0.1}
        spec = {"dh": [{"a": 1.0, "alpha": 0.0, "d": 0.0}] * 2, "body_spheres": [sphere]}
        (sphere,) = chain_from_dict(spec).body_spheres
        assert sphere.link_index == 1 and type(sphere.link_index) is int

    def test_unknown_builtin_raises(self):
        with pytest.raises(ModelError):
            load_chain("not_a_robot")

    def test_chain_from_dict_roundtrip(self, ur10):
        spec = json.loads(builtin_model_path("ur10").read_text())
        _assert_chains_equal(chain_from_dict(spec), ur10)


def _assert_chains_equal(a, b):
    assert a.name == b.name
    assert a.links == b.links
    assert a.lambda_max == b.lambda_max
    np.testing.assert_array_equal(a.base_pose.as_matrix(), b.base_pose.as_matrix())
    assert len(a.body_spheres) == len(b.body_spheres)
    for sa, sb in zip(a.body_spheres, b.body_spheres):
        assert (sa.link_index, sa.radius) == (sb.link_index, sb.radius)
        np.testing.assert_array_equal(sa.offset, sb.offset)
