import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manipplan.collision import (
    BOX_COORDINATE_LIMIT,
    BoxObstacle,
    build_workspace_sdf,
    collision_residual,
    hinge_cost,
    sdf_query,
    sphere_clearances,
)
from manipplan.collision import _field, _field_distances, _field_gradients
from manipplan.kinematics import _fk_matrices, body_sphere_states, chain_from_dict
from manipplan.scenario import load_scenario, run_scenario

from .oracles import (
    box_distance,
    box_sdf_reference,
    collision_residual_dense,
    collision_residual_loop,
    field_distances_broadcast,
)

TABLE_CENTER = np.array([0.15, 0.65, -0.45])
TABLE_HALF = np.array([0.5, 0.25, 0.05])

# One box, and three overlapping off-centre boxes.
BOXES = {
    "one_box": [((0.13, -0.21, 0.37), (0.2, 0.35, 0.1))],
    "three_boxes": [
        ((0.13, -0.21, 0.37), (0.2, 0.35, 0.1)),
        ((0.3, -0.05, 0.2), (0.15, 0.1, 0.4)),
        ((-0.4, 0.5, 0.9), (0.05, 0.3, 0.2)),
    ],
}


def box_field(boxes):
    return build_workspace_sdf([BoxObstacle(center, half_extents) for center, half_extents in boxes])


@pytest.fixture(scope="module")
def table_sdf():
    return box_field([(TABLE_CENTER, TABLE_HALF)])


def reference_distance(point, boxes):
    return min(box_sdf_reference(point, center, half_extents) for center, half_extents in boxes)


def kink_distance(point, boxes):
    """How far ``point`` is, up to a constant factor, from the field's
    kinks and region borders: surfaces equidistant from two boxes, and in
    its nearest box the face planes (the surface and the borders of the
    edge and corner regions) and, inside, the medial planes."""
    distances = sorted((box_sdf_reference(point, c, h), i) for i, (c, h) in enumerate(boxes))
    gap = distances[1][0] - distances[0][0] if len(boxes) > 1 else np.inf
    center, half_extents = (np.asarray(v, dtype=float) for v in boxes[distances[0][1]])
    offset = point - center
    delta = np.abs(offset) - half_extents
    medial = np.inf
    if delta.max() < 0.0:
        second, first = np.sort(delta)[-2:]
        medial = min(first - second, abs(offset[delta.argmax()]))
    return min(gap, np.abs(delta).min(), medial)


def field_points(boxes, rng):
    """Points inside, near and around the boxes, and on a 5 m sphere around
    the origin (outside the parent's 2.4 m grid cube)."""
    centers = np.array([c for c, _ in boxes], dtype=float)
    near = centers[rng.integers(0, len(boxes), 400)] + rng.uniform(-0.6, 0.6, (400, 3))
    around = rng.uniform(-1.5, 1.5, (200, 3))
    far = rng.normal(size=(100, 3))
    far *= 5.0 / np.linalg.norm(far, axis=1, keepdims=True)
    return np.concatenate([near, around, far, centers])


class TestSdfQuery:
    def test_half_space_distance_and_gradient(self):
        # A slab whose top face is the plane z = 0: above the face's middle
        # its field is f = z, as for the half-space z < 0.
        sdf = box_field([((0.0, 0.0, -1.0), (10.0, 10.0, 1.0))])
        q = sdf_query(sdf, [0.0, 0.0, 0.5])
        assert q.distance == 0.5
        np.testing.assert_array_equal(q.gradient, [0.0, 0.0, 1.0])
        q = sdf_query(sdf, [0.25, -0.5, -0.25])
        assert q.distance == -0.25
        np.testing.assert_array_equal(q.gradient, [0.0, 0.0, 1.0])

    def test_sign_correctness_against_analytic_oracle(self, table_sdf, rng):
        # No band around the surface is skipped: the field is exact.
        points = rng.uniform(-1.15, 1.15, (10000, 3))
        points[::2] = TABLE_CENTER + rng.uniform(-1.2, 1.2, (5000, 3)) * (TABLE_HALF + 0.02)
        signs = [np.sign(sdf_query(table_sdf, point).distance) for point in points]
        expected = [np.sign(box_sdf_reference(point, TABLE_CENTER, TABLE_HALF)) for point in points]
        assert signs == expected
        assert 0 < signs.count(-1.0) < len(signs)

    @pytest.mark.parametrize("name", BOXES)
    def test_gradient_norm_is_eikonal(self, name, rng):
        sdf = box_field(BOXES[name])
        for point in field_points(BOXES[name], rng):
            assert np.linalg.norm(sdf_query(sdf, point).gradient) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("name", BOXES)
    def test_distances_equal_box_distance_bit_for_bit(self, name, rng):
        boxes = BOXES[name]
        sdf = box_field(boxes)
        points = field_points(boxes, rng)
        expected = np.minimum.reduce([box_distance(points, c, h) for c, h in boxes])
        got = np.array([sdf_query(sdf, point).distance for point in points])
        np.testing.assert_array_equal(got, expected)
        far = np.linalg.norm(points, axis=1) > 4.9
        assert far.sum() == 100 and np.all(got[far] > 3.0)
        assert np.any(got < 0.0)

    @pytest.mark.parametrize("name", BOXES)
    def test_gradient_matches_central_differences_of_the_reference(self, name, rng):
        boxes = BOXES[name]
        sdf = box_field(boxes)
        step = 1e-7
        checked = 0
        for point in field_points(boxes, rng):
            if kink_distance(point, boxes) < 1e-4:
                continue
            checked += 1
            fd = [
                (reference_distance(point + step * e, boxes) - reference_distance(point - step * e, boxes)) / (2 * step)
                for e in np.eye(3)
            ]
            np.testing.assert_allclose(sdf_query(sdf, point).gradient, fd, rtol=0.0, atol=1e-6)
        assert checked > 600

    def test_a_tie_takes_the_first_box(self):
        # (0, 0, 0) is 0.1 from the face x = -0.1 of the first box and from
        # the face y = 0.1 of the second.
        boxes = [((-0.2, 0.0, 0.0), (0.1, 0.1, 0.1)), ((0.0, 0.2, 0.0), (0.1, 0.1, 0.1))]
        first = sdf_query(box_field(boxes), np.zeros(3))
        swapped = sdf_query(box_field(boxes[::-1]), np.zeros(3))
        assert first.distance == swapped.distance == pytest.approx(0.1, abs=1e-16)
        np.testing.assert_array_equal(first.gradient, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(swapped.gradient, [0.0, -1.0, 0.0])

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_per_box_distances_equal_the_broadcast_formula_bit_for_bit(self, count, rng):
        # Dyadic boxes and points on a 1/16 m lattice give exact ties between
        # boxes and points exactly on faces; random points fall inside the
        # boxes and around them.  Every fourth draw copies the first box last,
        # a tie at every point.
        seen = {"face": 0, "inside": 0, "tie": 0}
        for trial in range(20):
            centers = rng.integers(-8, 9, (count, 3)) / 8.0
            half_extents = rng.integers(1, 5, (count, 3)) / 8.0
            copied = count > 1 and trial % 4 == 0
            if copied:
                centers[-1], half_extents[-1] = centers[0], half_extents[0]
            sdf = build_workspace_sdf([BoxObstacle(c, h) for c, h in zip(centers, half_extents)])
            which = rng.integers(0, count, 200)
            inside = centers[which] + rng.uniform(-1.0, 1.0, (200, 3)) * half_extents[which]
            lattice = rng.integers(-24, 25, (300, 3)) / 16.0
            points = np.concatenate([lattice, inside, rng.uniform(-2.0, 2.0, (200, 3))])
            distances, nearest = _field_distances(sdf, points)
            expected_distances, expected_nearest = field_distances_broadcast(sdf, points)
            assert distances.tobytes() == expected_distances.tobytes()
            assert nearest.tobytes() == expected_nearest.tobytes()
            per_box = np.array([box_distance(points, c, h) for c, h in zip(centers, half_extents)])
            seen["face"] += np.count_nonzero(distances == 0.0)
            seen["inside"] += np.count_nonzero(distances < 0.0)
            if not copied:
                seen["tie"] += np.count_nonzero(np.sum(per_box == distances, axis=0) > 1)
        assert seen["face"] and seen["inside"] and (seen["tie"] or count == 1)

    # A box at the origin with dyadic half extents (0.5, 0.25, 0.125): every
    # distance below is exact in binary.
    @pytest.mark.parametrize(
        "point, distance, gradient",
        [
            ((0.0, 0.0, 0.0), -0.125, (0.0, 0.0, 1.0)),
            ((0.4375, 0.0, 0.0), -0.0625, (1.0, 0.0, 0.0)),
            ((0.0, -0.1875, 0.0), -0.0625, (0.0, -1.0, 0.0)),
            ((0.5, 0.0, 0.0), 0.0, (1.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.375), 0.25, (0.0, 0.0, 1.0)),
            ((0.875, 0.75, 0.0), 0.625, (0.6, 0.8, 0.0)),
            ((-0.625, -0.5, 0.375), 0.375, (-1 / 3, -2 / 3, 2 / 3)),
            ((0.0, 0.0, 100.125), 100.0, (0.0, 0.0, 1.0)),
        ],
        ids=["centre", "inside_x", "inside_neg_y", "on_a_face", "face", "edge", "corner", "far_face"],
    )
    def test_closed_form_value_and_gradient(self, point, distance, gradient):
        query = sdf_query(box_field([(np.zeros(3), (0.5, 0.25, 0.125))]), point)
        assert query.distance == distance
        np.testing.assert_allclose(query.gradient, gradient, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("reach", [5.0, 50.0, 1e3, 1e6])
    def test_far_points_are_not_clamped(self, table_sdf, reach):
        # Above the table and off its corner: the grid the field replaced
        # returned its border value at any point beyond 1.2 m.
        above = TABLE_CENTER + [0.0, 0.0, TABLE_HALF[2] + reach]
        query = sdf_query(table_sdf, above)
        assert query.distance == pytest.approx(reach, rel=1e-15)
        np.testing.assert_array_equal(query.gradient, [0.0, 0.0, 1.0])
        corner = TABLE_CENTER + TABLE_HALF + reach / np.sqrt(3.0)
        query = sdf_query(table_sdf, corner)
        assert query.distance == box_distance(corner, TABLE_CENTER, TABLE_HALF)[0]
        assert query.distance == pytest.approx(reach, rel=1e-12)
        np.testing.assert_allclose(query.gradient, np.full(3, 1 / np.sqrt(3.0)), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_inside_a_face_the_gradient_is_its_normal(self, axis, sign):
        # Each point is nearer its face than any other, so that face is
        # where the box is left fastest.
        half_extents = np.array([0.3, 0.2, 0.1])
        point = np.zeros(3)
        point[axis] = sign * 0.9 * half_extents[axis]
        query = sdf_query(box_field([(np.zeros(3), half_extents)]), point)
        assert query.distance == pytest.approx(-0.1 * half_extents[axis], abs=1e-15)
        np.testing.assert_array_equal(query.gradient, sign * np.eye(3)[axis])

    @pytest.mark.parametrize("axis", range(3))
    def test_mirror_images_through_the_centre_plane(self, axis, rng):
        sdf = box_field([(np.zeros(3), (0.3, 0.2, 0.1))])
        for point in rng.uniform(-0.6, 0.6, (300, 3)):
            mirrored = point.copy()
            mirrored[axis] = -point[axis]
            query, image = sdf_query(sdf, point), sdf_query(sdf, mirrored)
            assert image.distance == query.distance
            flipped = query.gradient.copy()
            flipped[axis] = -flipped[axis]
            np.testing.assert_array_equal(image.gradient, flipped)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=lambda order: "".join(map(str, order)))
    def test_box_order_changes_no_distance(self, order, rng):
        boxes = BOXES["three_boxes"]
        sdf, reordered = box_field(boxes), box_field([boxes[i] for i in order])
        for point in field_points(boxes, rng):
            query, other = sdf_query(sdf, point), sdf_query(reordered, point)
            assert other.distance == query.distance
            nearest = sorted(box_distance(point, c, h)[0] for c, h in boxes)
            if nearest[1] > nearest[0]:  # one nearest box: one gradient
                np.testing.assert_array_equal(other.gradient, query.gradient)

    @pytest.mark.parametrize("name", BOXES)
    def test_a_step_down_the_gradient_reaches_the_nearest_surface(self, name, rng):
        # p - f(p) grad f(p) is the nearest surface point of the nearest
        # box; from outside every box, it lies on no other box's inside.
        boxes = BOXES[name]
        sdf = box_field(boxes)
        for point in field_points(boxes, rng):
            query = sdf_query(sdf, point)
            foot = point - query.distance * query.gradient
            distances = [box_distance(foot, c, h)[0] for c, h in boxes]
            nearest = int(np.argmin([box_distance(point, c, h)[0] for c, h in boxes]))
            assert distances[nearest] == pytest.approx(0.0, abs=1e-14)
            if query.distance > 0.0:
                assert sdf_query(sdf, foot).distance == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("name", BOXES)
    def test_field_is_one_lipschitz(self, name, rng):
        boxes = BOXES[name]
        sdf = box_field(boxes)
        points = field_points(boxes, rng)
        others = points + rng.normal(scale=0.2, size=points.shape)
        for p, q in zip(points, others):
            change = abs(sdf_query(sdf, p).distance - sdf_query(sdf, q).distance)
            assert change <= np.linalg.norm(p - q) * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "point",
        [[0, 0, 1], (0.0, 0.0, 1.0), np.array([0, 0, 1]), np.array([[0.0, 0.0, 1.0]])],
        ids=["int_list", "tuple", "int_array", "row"],
    )
    def test_any_three_vector_is_a_point(self, point):
        sdf = box_field([(np.zeros(3), (0.5, 0.25, 0.125))])
        query = sdf_query(sdf, point)
        assert type(query.distance) is float and query.distance == 0.875
        assert query.gradient.shape == (3,) and query.gradient.dtype == float
        np.testing.assert_array_equal(query.gradient, [0.0, 0.0, 1.0])


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
        sdf = box_field(boxes)
        for point in rng.uniform(-1.0, 1.0, (200, 3)):
            assert sdf_query(sdf, point).distance == pytest.approx(reference_distance(point, boxes), rel=1e-12, abs=1e-12)

    def test_table_field_is_the_scenario_box(self):
        scenario = load_scenario("ur10_table")
        sdf = scenario.build_sdf()
        np.testing.assert_array_equal(sdf.centers, [TABLE_CENTER])
        np.testing.assert_array_equal(sdf.half_extents, [TABLE_HALF])

    def test_no_boxes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_workspace_sdf([])

    @pytest.mark.parametrize(
        "center, half_extents",
        [
            ((0.0, 0.0), (0.1, 0.1, 0.1)),
            ((0.0, 0.0, 0.0), (0.1, 0.2)),
            ((0.0, 0.0, 0.0), (0.1, np.nan, 0.1)),
            ((0.0, np.inf, 0.0), (0.1, 0.1, 0.1)),
            ((0.0, 0.0, 0.0), (0.1, 0.0, 0.1)),
            ((0.0, 0.0, 0.0), (0.1, -0.1, 0.1)),
            ((1e200, 0.0, 0.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.0, -2e150), (1.0, 1.0, 1.0)),
            ((0.0, 0.0, 0.0), (1.0, 1e151, 1.0)),
        ],
    )
    def test_bad_box_rejected(self, center, half_extents):
        with pytest.raises(ValueError):
            BoxObstacle(center, half_extents)

    def test_the_largest_boxes_give_finite_distances_without_warnings(self):
        # Run under -W error: an overflow in the squared offsets would raise.
        limit = BOX_COORDINATE_LIMIT
        sdf = build_workspace_sdf(
            [BoxObstacle((limit, -limit, limit), (limit, 1.0, limit)), BoxObstacle((-limit, 0.0, 0.0), (1.0, 1.0, 1.0))]
        )
        points = np.array([[-limit, limit, -limit], [limit, limit, limit], [0.0, 0.0, 0.0], [-limit, 0.0, 0.0]])
        distances, gradients = _field(sdf, points)
        assert np.all(np.isfinite(distances)) and np.all(np.isfinite(gradients))
        assert distances[3] == -1.0


class TestMemory:
    """Planning on the box field allocates no grid-sized array (the 121**3
    float64 grid the field replaced was 13.5 MiB)."""

    BOUND = 4 * 2**20

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_building_and_planning_the_table_scenario(self):
        scenario = load_scenario("ur10_table")
        results = []
        peak = self.traced_peak(lambda: results.append(run_scenario(scenario) if scenario.build_sdf() else None))
        assert results[0].success
        assert peak < self.BOUND


class TestExactVerdict:
    def test_reported_clearance_is_the_exact_box_distance(self, tmp_path):
        scenario = load_scenario("ur10_table")
        run = run_scenario(scenario, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        chain = scenario.load_chain()
        centers, _ = body_sphere_states(chain, run.dense_profile.positions)
        distances = np.minimum.reduce(
            [box_distance(centers.reshape(-1, 3), box.center, box.half_extents) for box in scenario.obstacles]
        )
        radii = np.array([sphere.radius for sphere in chain.body_spheres])
        assert report["min_clearance_m"] == float((distances.reshape(centers.shape[:-1]) - radii).min())
        assert report["collision_free"] is True


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
    EPSILON = 0.1

    def test_far_configuration_is_zero(self, ur10, table_sdf):
        q = np.array([np.pi, -np.pi / 2, 0.3, 0.2, 0.1, 0.0])  # arm folded away
        r, jac = collision_residual(ur10, q, table_sdf, self.EPSILON)
        np.testing.assert_array_equal(r, np.zeros(len(ur10.body_spheres)))
        np.testing.assert_array_equal(jac, np.zeros_like(jac))

    def test_penetrating_sphere_exceeds_margin(self, ur10, table_sdf):
        # Drive the wrist into the tabletop region: residual >= epsilon.
        q = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0])
        clear = sphere_clearances(ur10, q, table_sdf)
        assert clear.min() < 0.0  # actually penetrating
        r, _ = collision_residual(ur10, q, table_sdf, self.EPSILON)
        assert r.max() >= self.EPSILON

    def test_jacobian_matches_finite_differences_near_contact(self, ur10, table_sdf, rng):
        # Sample configurations with at least one active sphere.
        checked = 0
        worst = 0.0
        while checked < 10:
            q = rng.uniform(-np.pi, np.pi, 6)
            r, jac = collision_residual(ur10, q, table_sdf, self.EPSILON)
            if r.max() == 0.0:
                continue
            checked += 1
            step = 1e-5
            for j in range(6):
                qp, qm = q.copy(), q.copy()
                qp[j] += step
                qm[j] -= step
                rp, _ = collision_residual(ur10, qp, table_sdf, self.EPSILON)
                rm, _ = collision_residual(ur10, qm, table_sdf, self.EPSILON)
                fd = (rp - rm) / (2 * step)
                active = (r > 1e-4) & (rp > 0) & (rm > 0)  # stay off the hinge kink
                worst = max(worst, np.abs(jac[active, j] - fd[active]).max(initial=0.0))
        assert worst < 1e-3

    def test_equals_per_sphere_loop_bit_for_bit(self, ur10, table_sdf, rng):
        active = 0
        for _ in range(40):
            q = rng.uniform(-np.pi, np.pi, 6)
            r, jac = collision_residual(ur10, q, table_sdf, self.EPSILON)
            ref_r, ref_jac = collision_residual_loop(ur10, q, table_sdf, self.EPSILON)
            np.testing.assert_array_equal(r, ref_r)
            np.testing.assert_array_equal(jac, ref_jac)
            active += int(np.count_nonzero(r))
        assert active > 0  # the batch must have been exercised on active spheres

    def test_active_pair_jacobians_equal_the_loop_bit_for_bit(self):
        # A planar arm with one sphere per link above a box whose face is the
        # plane y = 0; around the arm its field is f = y above the face.
        chain = chain_from_dict(
            {
                "dh": [{"a": 0.5, "alpha": 0.0, "d": 0.0}, {"a": 0.5, "alpha": 0.0, "d": 0.0}, {"a": 0.25, "alpha": 0.0, "d": 0.0}],
                "body_spheres": [
                    {"link": 0, "offset": [0.0, 0.25, 0.0], "radius": 0.125},
                    {"link": 1, "offset": [0.0, 0.75, 0.0], "radius": 0.125},
                    {"link": 2, "offset": [0.0, 0.5, 0.0], "radius": 0.125},
                ],
            }
        )
        sdf = box_field([((0.0, -4.0, 0.0), (8.0, 4.0, 8.0))])
        epsilon = 0.125
        # At q = 0 every value is a dyadic fraction: sphere 0's centre is
        # (0.5, 0.25, 0), its clearance 0.25 - 0.125 is exactly epsilon.
        configs = np.array(
            [
                [0.0, 0.0, 0.0],  # one active sphere, at its margin
                [np.pi / 2, 0.0, 0.0],  # none
                [-np.pi / 2, 0.0, 0.0],  # all three links
                [0.3, -1.2, 0.4],  # two, on links 1 and 2
                [0.3, 0.2, 0.1],  # none
            ]
        )
        r, jac = collision_residual(chain, configs, sdf, epsilon)
        loops = [collision_residual_loop(chain, q, sdf, epsilon) for q in configs]
        np.testing.assert_array_equal(r, [r_k for r_k, _ in loops])
        np.testing.assert_array_equal(jac, [jac_k for _, jac_k in loops])
        active = np.any(jac != 0.0, axis=-1)
        assert active.astype(int).tolist() == [[1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 1], [0, 0, 0]]
        assert r[0, 0] == 0.0 and active[0, 0]  # on the margin: zero cost, slope -1
        assert jac[0, 0, 0] != 0.0 and not jac[0, 0, 1:].any()
        single_r, single_jac = collision_residual(chain, configs[0], sdf, epsilon)
        np.testing.assert_array_equal(single_r, loops[0][0])
        np.testing.assert_array_equal(single_jac, loops[0][1])

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_gradients_at_some_points_equal_the_dense_field_bit_for_bit(self, name, rng):
        sdf = box_field(BOXES[name])
        points = rng.uniform(-1.0, 1.2, (400, 3))
        distances, gradients = _field(sdf, points)
        dense, nearest = _field_distances(sdf, points)
        np.testing.assert_array_equal(dense, distances)
        for some in (rng.uniform(size=len(points)) < 0.3, np.zeros(len(points), bool), np.ones(len(points), bool)):
            subset = _field_gradients(sdf, points[some], nearest[some])
            assert subset.tobytes() == gradients[some].tobytes()

    @pytest.mark.parametrize(
        "shift, epsilon, active",
        [((0.0, 0.0, 0.0), 0.1, "some"), ((40.0, 0.0, -30.0), 0.1, "none"), ((0.0, 0.0, 0.0), 5.0, "all")],
        ids=["some_active", "none_active", "all_active"],
    )
    def test_active_only_jacobian_equals_the_dense_field_bit_for_bit(self, ur10, rng, shift, epsilon, active):
        boxes = [(np.add(center, shift), half) for center, half in BOXES["three_boxes"] + [(TABLE_CENTER, TABLE_HALF)]]
        sdf = box_field(boxes)
        configs = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0]) + rng.uniform(-1.5, 1.5, (40, 6))
        r, jac = collision_residual(ur10, configs, sdf, epsilon)
        ref_r, ref_jac = collision_residual_dense(ur10, configs, sdf, epsilon)
        assert r.tobytes() == ref_r.tobytes() and jac.tobytes() == ref_jac.tobytes()
        pairs = np.count_nonzero(r)
        assert {"none": pairs == 0 and not jac.any(), "all": pairs == r.size, "some": 0 < pairs < r.size}[active]

    def test_stack_equals_per_configuration_calls_bit_for_bit(self, ur10, planar2r, table_sdf, rng):
        # Configurations driven into the tabletop, so many rows are active.
        configs = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0]) + rng.uniform(-0.4, 0.4, (60, 6))
        r, jac = collision_residual(ur10, configs, table_sdf, self.EPSILON)
        assert r.shape == (60, len(ur10.body_spheres))
        assert jac.shape == (60, len(ur10.body_spheres), 6)
        singles = [collision_residual(ur10, q, table_sdf, self.EPSILON) for q in configs]
        np.testing.assert_array_equal(r, [r_k for r_k, _ in singles])
        np.testing.assert_array_equal(jac, [jac_k for _, jac_k in singles])
        assert np.count_nonzero(r) > 60
        r, jac = collision_residual(planar2r, np.zeros((4, 2)), table_sdf, self.EPSILON)
        assert r.shape == (4, 0) and jac.shape == (4, 0, 2)

    def test_precomputed_frames_give_the_same_bits(self, ur10, table_sdf, rng):
        configs = np.array([1.0, 1.7, 1.2, 0.0, 0.0, 0.0]) + rng.uniform(-0.4, 0.4, (30, 6))
        frames = _fk_matrices(ur10, configs)
        clearances = sphere_clearances(ur10, configs, table_sdf)
        np.testing.assert_array_equal(sphere_clearances(ur10, configs, table_sdf, frames), clearances)
        r = collision_residual(ur10, configs, table_sdf, self.EPSILON)[0]
        assert np.count_nonzero(r) > 30

    def test_chain_without_spheres_gives_empty_rows(self, planar2r, table_sdf):
        q = [0.3, -0.4]
        r, jac = collision_residual(planar2r, q, table_sdf, self.EPSILON)
        assert r.shape == (0,)
        assert jac.shape == (0, planar2r.n)

    def test_zero_residual_implies_margin_clearance(self, ur10, table_sdf, rng):
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 6)
            r, _ = collision_residual(ur10, q, table_sdf, self.EPSILON)
            if r.max() == 0.0:
                clear = sphere_clearances(ur10, q, table_sdf)
                assert clear.min() > self.EPSILON

    def test_clearances_of_a_stack_equal_per_configuration_calls(self, ur10, planar2r, table_sdf, rng):
        configs = rng.uniform(-np.pi, np.pi, (150, 6))
        stacked = sphere_clearances(ur10, configs, table_sdf)
        assert stacked.shape == (150, len(ur10.body_spheres))
        np.testing.assert_array_equal(stacked, [sphere_clearances(ur10, q, table_sdf) for q in configs])
        assert sphere_clearances(planar2r, np.zeros((4, 2)), table_sdf).shape == (4, 0)


def residual_fd(chain, q, sdf, epsilon, step=1e-6):
    """Collision residual Jacobian from central differences."""
    cols = []
    for j in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        rp, _ = collision_residual(chain, qp, sdf, epsilon)
        rm, _ = collision_residual(chain, qm, sdf, epsilon)
        cols.append((rp - rm) / (2 * step))
    return np.stack(cols, axis=1)


class TestResidualJacobian:
    def test_rows_far_from_the_base_match_central_differences(self, ur10):
        # Three centres lie more than 1.2 m from the base on some axis,
        # where the grid the field replaced was clamped.
        q = np.array([2.45, -1.73, -0.07, -2.07, -1.65, 0.71])
        sdf = box_field([(np.zeros(3), np.full(3, 0.3))])
        epsilon = 2.0
        r, jac = collision_residual(ur10, q, sdf, epsilon)
        centers, _ = body_sphere_states(ur10, q)
        assert (np.abs(centers).max(axis=1) > 1.2).sum() >= 3 and np.all(r > 0.0)
        assert min(kink_distance(center, [(np.zeros(3), np.full(3, 0.3))]) for center in centers) > 1e-3
        np.testing.assert_allclose(jac, residual_fd(ur10, q, sdf, epsilon), rtol=0.0, atol=1e-7)

    @given(
        q=st.tuples(*[st.floats(-np.pi, np.pi)] * 6).map(np.array),
        center=st.tuples(*[st.floats(-1.5, 1.5)] * 3).map(np.array),
        half_extents=st.tuples(*[st.floats(0.05, 0.5)] * 3).map(np.array),
    )
    @settings(max_examples=60, deadline=None)
    def test_centres_off_the_kinks_match_central_differences(self, ur10, q, center, half_extents):
        # Every sphere is active at this margin, so the residual is smooth
        # except where a centre crosses a kink of the field.
        sdf = box_field([(center, half_extents)])
        epsilon = 10.0
        centers, _ = body_sphere_states(ur10, q)
        checked = np.array([kink_distance(c, [(center, half_extents)]) > 1e-3 for c in centers])
        assume(checked.any())
        _, jac = collision_residual(ur10, q, sdf, epsilon)
        fd = residual_fd(ur10, q, sdf, epsilon)
        np.testing.assert_allclose(jac[checked], fd[checked], rtol=0.0, atol=1e-7)
