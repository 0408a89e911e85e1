import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manipplan.collision import (
    CollisionParams,
    SdfGrid,
    box_distance,
    build_box_sdf,
    build_workspace_sdf,
    collision_residual,
    hinge_cost,
    load_sdf,
    save_sdf,
    sdf_query,
    sphere_clearances,
)
from manipplan.kinematics import body_sphere_states

from .oracles import box_sdf_reference, collision_residual_loop

TABLE_CENTER = np.array([0.15, 0.65, -0.45])
TABLE_HALF = np.array([0.5, 0.25, 0.05])


@pytest.fixture(scope="module")
def table_grid():
    return build_box_sdf(TABLE_CENTER, TABLE_HALF, origin=(-1.2, -1.2, -1.2), cell_size=0.02, dims=(121, 121, 121))


def half_space_grid():
    # f(x, y, z) = z: the exact SDF of the half-space obstacle z < 0.
    dims = (5, 5, 41)
    origin = np.array([-0.2, -0.2, -1.0])
    z = origin[2] + 0.05 * np.arange(dims[2])
    data = np.broadcast_to(z, dims).copy()
    return SdfGrid(origin=origin, cell_size=0.05, data=data)


class TestSdfQuery:
    def test_half_space_distance_and_gradient(self):
        grid = half_space_grid()
        q = sdf_query(grid, [0.0, 0.0, 0.5])
        assert q.distance == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(q.gradient, [0.0, 0.0, 1.0], atol=1e-12)
        assert not q.clamped

    def test_value_at_stored_node_is_exact(self, table_grid):
        idx = (17, 40, 62)
        point = table_grid.origin + table_grid.cell_size * np.array(idx)
        assert sdf_query(table_grid, point).distance == table_grid.data[idx]

    def test_interpolation_error_bounded_by_cell_size(self, table_grid, rng):
        for _ in range(500):
            point = rng.uniform(-1.1, 1.1, 3)
            approx = sdf_query(table_grid, point).distance
            exact = box_sdf_reference(point, TABLE_CENTER, TABLE_HALF)
            assert abs(approx - exact) < table_grid.cell_size

    def test_out_of_bounds_clamped_and_flagged(self, table_grid):
        q = sdf_query(table_grid, [5.0, 0.0, 0.0])
        assert q.clamped
        edge = sdf_query(table_grid, [table_grid.upper[0], 0.0, 0.0])
        assert q.distance == pytest.approx(edge.distance, abs=1e-12)

    def test_gradient_outside_the_grid_matches_central_differences(self, rng):
        # An affine field, which trilinear interpolation reproduces exactly;
        # the points lie at least 1e-3 off the border on every axis and
        # beyond it on at least one, where the clamped distance is flat.
        slope = np.array([0.7, -0.4, 0.25])
        grid = SdfGrid(origin=np.zeros(3), cell_size=0.1, data=np.moveaxis(np.indices((5, 5, 5)), 0, -1) @ (0.1 * slope))
        points = rng.uniform(-0.3, 0.7, (400, 3))
        off_border = np.all((np.abs(points - grid.origin) > 1e-3) & (np.abs(points - grid.upper) > 1e-3), axis=1)
        points = points[off_border & ((points < grid.origin) | (points > grid.upper)).any(axis=1)]
        assert len(points) > 100
        step = 1e-6
        for point in points:
            query = sdf_query(grid, point)
            assert query.clamped
            fd = [
                (sdf_query(grid, point + step * e).distance - sdf_query(grid, point - step * e).distance) / (2 * step)
                for e in np.eye(3)
            ]
            np.testing.assert_allclose(query.gradient, fd, rtol=0.0, atol=1e-8)

    def test_sign_correctness_against_analytic_oracle(self, table_grid, rng):
        # 10k random points; skip the one-cell band around the surface
        # where interpolation may legitimately smooth the sign over.
        checked = 0
        draws = 0
        while checked < 10000 and draws < 200000:
            draws += 1
            point = rng.uniform(-1.15, 1.15, 3)
            exact = box_sdf_reference(point, TABLE_CENTER, TABLE_HALF)
            if abs(exact) < table_grid.cell_size:
                continue
            checked += 1
            assert np.sign(sdf_query(table_grid, point).distance) == np.sign(exact)
        assert checked == 10000

    def test_gradient_norm_statistically_eikonal(self, table_grid, rng):
        # Away from edges the field is locally planar, so the interpolated
        # gradient should have near-unit norm for 95% of samples.
        norms = []
        while len(norms) < 1000:
            point = rng.uniform(-1.1, 1.1, 3)
            exact = box_sdf_reference(point, TABLE_CENTER, TABLE_HALF)
            if not table_grid.cell_size < exact < 0.6:
                continue
            norms.append(np.linalg.norm(sdf_query(table_grid, point).gradient))
        assert np.quantile(norms, 0.95) <= 1.0 + 10.0 * table_grid.cell_size


class TestBoxSdf:
    def test_deepest_interior_point(self):
        assert box_distance(TABLE_CENTER, TABLE_CENTER, TABLE_HALF)[0] == pytest.approx(-TABLE_HALF.min(), abs=1e-15)

    def test_face_point_is_zero(self):
        face = TABLE_CENTER + np.array([0.0, 0.0, TABLE_HALF[2]])
        assert box_distance(face, TABLE_CENTER, TABLE_HALF)[0] == pytest.approx(0.0, abs=1e-15)

    def test_corner_region_is_euclidean_corner_distance(self):
        corner = TABLE_CENTER + TABLE_HALF
        point = corner + np.array([0.03, 0.04, 0.12])
        expected = np.linalg.norm(point - corner)
        assert box_distance(point, TABLE_CENTER, TABLE_HALF)[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_reference_everywhere(self, rng):
        for _ in range(2000):
            point = rng.uniform(-1.5, 1.5, 3)
            expected = box_sdf_reference(point, TABLE_CENTER, TABLE_HALF)
            assert box_distance(point, TABLE_CENTER, TABLE_HALF)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_union_is_pointwise_minimum(self, rng):
        boxes = [((0.0, 0.0, 0.0), (0.2, 0.2, 0.2)), ((0.5, 0.0, 0.0), (0.1, 0.4, 0.3))]
        grid = build_workspace_sdf(boxes, origin=(-1.0, -1.0, -1.0), cell_size=0.1, dims=(21, 21, 21))
        for _ in range(200):
            idx = tuple(rng.integers(0, 21, 3))
            point = grid.origin + grid.cell_size * np.array(idx)
            expected = min(box_sdf_reference(point, c, h) for c, h in boxes)
            assert grid.data[idx] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            build_box_sdf((0, 0, 0), (0.0, 1.0, 1.0), origin=(-1, -1, -1), cell_size=0.1, dims=(5, 5, 5))


class TestHinge:
    def test_boundary(self):
        cost, slope = hinge_cost(0.1, 0.1)
        assert cost == 0.0
        assert slope == -1.0  # the margin itself still counts as active

    def test_linear_inside_margin(self):
        cost, slope = hinge_cost(0.05, 0.1)
        assert cost == pytest.approx(0.05, abs=1e-15)
        assert slope == -1.0

    def test_flat_outside(self):
        assert hinge_cost(5.0, 0.1) == (0.0, 0.0)

    @given(d=st.floats(-1.0, 1.0), eps=st.floats(0.0, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_continuous_piecewise_linear(self, d, eps):
        cost, slope = hinge_cost(d, eps)
        assert cost == max(eps - d, 0.0)
        assert cost >= 0.0
        assert slope in (-1.0, 0.0)
        # continuity at the kink
        left, _ = hinge_cost(eps - 1e-12, eps)
        right, _ = hinge_cost(eps + 1e-12, eps)
        assert abs(left - right) < 3e-12


class TestCollisionResidual:
    def params(self):
        return CollisionParams(epsilon=0.1, sigma_obs=1e-3)

    def test_far_configuration_is_zero(self, ur10, table_grid):
        q = np.array([np.pi, -np.pi / 2, 0.3, 0.2, 0.1, 0.0])  # arm folded away
        r, jac = collision_residual(ur10, q, table_grid, self.params())
        np.testing.assert_array_equal(r, np.zeros(len(ur10.body_spheres)))
        np.testing.assert_array_equal(jac, np.zeros_like(jac))

    def test_penetrating_sphere_exceeds_margin(self, ur10, table_grid):
        # Drive the wrist into the tabletop region: residual >= epsilon.
        q = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0])
        clear = sphere_clearances(ur10, q, table_grid)
        assert clear.min() < 0.0  # actually penetrating
        r, _ = collision_residual(ur10, q, table_grid, self.params())
        assert r.max() >= self.params().epsilon

    def test_jacobian_matches_finite_differences_near_contact(self, ur10, table_grid, rng):
        # Sample configurations with at least one active sphere.
        params = self.params()
        checked = 0
        worst = 0.0
        while checked < 10:
            q = rng.uniform(-np.pi, np.pi, 6)
            r, jac = collision_residual(ur10, q, table_grid, params)
            if r.max() == 0.0:
                continue
            checked += 1
            step = 1e-5
            for j in range(6):
                qp, qm = q.copy(), q.copy()
                qp[j] += step
                qm[j] -= step
                rp, _ = collision_residual(ur10, qp, table_grid, params)
                rm, _ = collision_residual(ur10, qm, table_grid, params)
                fd = (rp - rm) / (2 * step)
                active = (r > 1e-4) & (rp > 0) & (rm > 0)  # stay off the hinge kink
                worst = max(worst, np.abs(jac[active, j] - fd[active]).max(initial=0.0))
        assert worst < 1e-3

    def test_residual_only_path_matches(self, ur10, table_grid, rng):
        params = self.params()
        q = rng.uniform(-np.pi, np.pi, 6)
        full_r, _ = collision_residual(ur10, q, table_grid, params)
        lean_r, lean_jac = collision_residual(ur10, q, table_grid, params, with_jacobian=False)
        np.testing.assert_array_equal(full_r, lean_r)
        assert lean_jac is None

    def test_equals_per_sphere_loop_bit_for_bit(self, ur10, table_grid, rng):
        active = 0
        for _ in range(40):
            q = rng.uniform(-np.pi, np.pi, 6)
            r, jac = collision_residual(ur10, q, table_grid, self.params())
            ref_r, ref_jac = collision_residual_loop(ur10, q, table_grid, self.params())
            np.testing.assert_array_equal(r, ref_r)
            np.testing.assert_array_equal(jac, ref_jac)
            active += int(np.count_nonzero(r))
        assert active > 0  # the batch must have been exercised on active spheres

    def test_stack_equals_per_configuration_calls_bit_for_bit(self, ur10, planar2r, table_grid, rng):
        # Configurations driven into the tabletop, so many rows are active.
        configs = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0]) + rng.uniform(-0.4, 0.4, (60, 6))
        for with_jacobian in (True, False):
            r, jac = collision_residual(ur10, configs, table_grid, self.params(), with_jacobian)
            assert r.shape == (60, len(ur10.body_spheres))
            singles = [collision_residual(ur10, q, table_grid, self.params(), with_jacobian) for q in configs]
            np.testing.assert_array_equal(r, [r_k for r_k, _ in singles])
            if with_jacobian:
                assert jac.shape == (60, len(ur10.body_spheres), 6)
                np.testing.assert_array_equal(jac, [jac_k for _, jac_k in singles])
            else:
                assert jac is None
        assert np.count_nonzero(r) > 60
        r, jac = collision_residual(planar2r, np.zeros((4, 2)), table_grid, self.params())
        assert r.shape == (4, 0) and jac.shape == (4, 0, 2)

    def test_chain_without_spheres_gives_empty_rows(self, planar2r, table_grid):
        q = [0.3, -0.4]
        r, jac = collision_residual(planar2r, q, table_grid, self.params())
        assert r.shape == (0,)
        assert jac.shape == (0, planar2r.n)
        r, jac = collision_residual(planar2r, q, table_grid, self.params(), with_jacobian=False)
        assert r.shape == (0,)
        assert jac is None

    def test_zero_residual_implies_margin_clearance(self, ur10, table_grid, rng):
        params = self.params()
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 6)
            r, _ = collision_residual(ur10, q, table_grid, params)
            if r.max() == 0.0:
                clear = sphere_clearances(ur10, q, table_grid)
                assert clear.min() >= params.epsilon - table_grid.cell_size

    def test_clearances_of_a_stack_equal_per_configuration_calls(self, ur10, planar2r, table_grid, rng):
        configs = rng.uniform(-np.pi, np.pi, (150, 6))
        stacked = sphere_clearances(ur10, configs, table_grid)
        assert stacked.shape == (150, len(ur10.body_spheres))
        np.testing.assert_array_equal(stacked, [sphere_clearances(ur10, q, table_grid) for q in configs])
        assert sphere_clearances(planar2r, np.zeros((4, 2)), table_grid).shape == (4, 0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            CollisionParams(epsilon=-0.1, sigma_obs=1e-3)
        with pytest.raises(ValueError):
            CollisionParams(epsilon=0.1, sigma_obs=0.0)


def residual_fd(chain, q, grid, params, step=1e-6):
    """Collision residual Jacobian from central differences."""
    cols = []
    for j in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        rp, _ = collision_residual(chain, qp, grid, params, with_jacobian=False)
        rm, _ = collision_residual(chain, qm, grid, params, with_jacobian=False)
        cols.append((rp - rm) / (2 * step))
    return np.stack(cols, axis=1)


def outside_grid(centers, grid, margin=0.0):
    """Per sphere: is the centre more than ``margin`` outside the grid on some axis?"""
    return ((centers < grid.origin - margin) | (centers > grid.upper + margin)).any(axis=-1)


class TestOutsideTheGrid:
    def test_box_grid_rows_match_central_differences(self, ur10):
        q = np.array([0.3, -1.0, 0.8, 0.2, 0.4, 0.1])
        grid = build_box_sdf(np.zeros(3), np.full(3, 0.3), origin=np.full(3, -0.4), cell_size=0.02, dims=(41, 41, 41))
        params = CollisionParams(epsilon=2.0, sigma_obs=1e-3)
        r, jac = collision_residual(ur10, q, grid, params)
        centers, _ = body_sphere_states(ur10, q)
        outside = outside_grid(centers, grid, margin=1e-3)
        assert outside.any() and (~outside).any() and np.all(r > 0.0)
        np.testing.assert_allclose(jac, residual_fd(ur10, q, grid, params), rtol=0.0, atol=1e-6)

    @given(
        q=st.tuples(*[st.floats(-np.pi, np.pi)] * 6).map(np.array),
        slope=st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array),
        corner=st.tuples(*[st.floats(-0.8, 0.4)] * 3).map(np.array),
    )
    @settings(max_examples=60, deadline=None)
    def test_centres_strictly_outside_match_central_differences(self, ur10, q, slope, corner):
        # An affine field, which trilinear interpolation reproduces exactly:
        # the residual is smooth except where a centre crosses the border.
        cell, dims = 0.08, (6, 6, 6)
        nodes = np.stack(np.meshgrid(*[corner[i] + cell * np.arange(dims[i]) for i in range(3)], indexing="ij"), -1)
        grid = SdfGrid(origin=corner, cell_size=cell, data=nodes @ slope)
        params = CollisionParams(epsilon=1e3, sigma_obs=1e-3)
        centers, _ = body_sphere_states(ur10, q)
        near_border = (np.abs(centers - grid.origin) < 1e-4) | (np.abs(centers - grid.upper) < 1e-4)
        checked = ~near_border.any(axis=1)
        assume((outside_grid(centers, grid) & checked).any())
        _, jac = collision_residual(ur10, q, grid, params)
        fd = residual_fd(ur10, q, grid, params)
        np.testing.assert_allclose(jac[checked], fd[checked], rtol=0.0, atol=1e-7)


class TestSdfGridShape:
    @pytest.mark.parametrize("dims", [(2, 2, 1), (1, 2, 2), (2, 1, 2), (1, 1, 1)])
    def test_fewer_than_two_nodes_on_an_axis_rejected(self, dims):
        # One node on an axis leaves no cell to interpolate in; such a grid
        # used to read wrapped data (a z-gradient of -30 from data constant
        # in z on a (2, 2, 1) grid).
        data = np.arange(np.prod(dims), dtype=float).reshape(dims)
        with pytest.raises(ValueError, match="two nodes"):
            SdfGrid(origin=(0, 0, 0), cell_size=0.1, data=data)

    def test_two_nodes_per_axis_is_one_valid_cell(self):
        data = np.zeros((2, 2, 2))
        data[:, :, 1] = 0.1
        grid = SdfGrid(origin=(0, 0, 0), cell_size=0.1, data=data)
        query = sdf_query(grid, (0.05, 0.05, 0.05))
        assert query.distance == pytest.approx(0.05, abs=1e-15)
        np.testing.assert_allclose(query.gradient, [0.0, 0.0, 1.0], atol=1e-12)


class TestSdfSerialization:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        grid = build_box_sdf((0.1, -0.2, 0.3), (0.3, 0.2, 0.1), origin=(-1, -1, -1), cell_size=0.25, dims=(9, 9, 9))
        path = tmp_path / "table.sdf"
        save_sdf(grid, path)
        loaded = load_sdf(path)
        np.testing.assert_array_equal(loaded.data, grid.data)
        np.testing.assert_array_equal(loaded.origin, grid.origin)
        assert loaded.cell_size == grid.cell_size

    def test_header_is_json_line(self, tmp_path):
        import json

        grid = SdfGrid(origin=(0, 0, 0), cell_size=0.5, data=np.zeros((2, 2, 2)))
        path = tmp_path / "grid.sdf"
        save_sdf(grid, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        assert header == {"origin": [0.0, 0.0, 0.0], "cell_size": 0.5, "dims": [2, 2, 2]}
        assert len(payload) == 8 * 8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SdfGrid(origin=(0, 0, 0), cell_size=0.0, data=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            SdfGrid(origin=(0, 0, 0), cell_size=0.1, data=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SdfGrid(origin=(0, 0, 0), cell_size=0.1, data=np.full((2, 2, 2), np.nan))
