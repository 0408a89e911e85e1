"""Workspace obstacles as the exact signed distance of a union of
axis-aligned boxes, plus the hinge-loss collision cost evaluated at the
robot's body spheres."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# body_sphere_states is re-exported, not called: perfbench's tracer tests
# wrap it under this module's name.
from .kinematics import KinematicChain, _body_sphere_centers, _point_jacobians, body_sphere_states  # noqa: F401

__all__ = [
    "BOX_COORDINATE_LIMIT",
    "BoxObstacle",
    "WorkspaceSdf",
    "SdfQuery",
    "sdf_query",
    "hinge_cost",
    "collision_residual",
    "sphere_clearances",
    "build_workspace_sdf",
]


# Largest magnitude (meters) of a box's centre and half-extent entries.  For
# boxes and points within it, a box offset's positive part is below 2e150,
# so the sum of its three squares stays under 1.2e301, far from overflow.
BOX_COORDINATE_LIMIT = 1e150


@dataclass(frozen=True)
class BoxObstacle:
    """An axis-aligned box: its centre and half extents, shape (3,) each."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "half_extents", np.asarray(self.half_extents, dtype=float).reshape(3))
        finite = np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.half_extents))
        if not (finite and np.all(self.half_extents > 0.0)):
            raise ValueError("obstacle center and half extents must be finite, half extents positive")
        if max(np.abs(self.center).max(), self.half_extents.max()) > BOX_COORDINATE_LIMIT:
            raise ValueError(f"obstacle center and half extents must be at most {BOX_COORDINATE_LIMIT:g} m in magnitude")


@dataclass(frozen=True)
class WorkspaceSdf:
    """The exact signed distance of a union of axis-aligned boxes (negative
    inside one): at each point the minimum over the boxes in box order,
    with the gradient of the first box that attains it."""

    centers: np.ndarray  # (B, 3)
    half_extents: np.ndarray  # (B, 3)


def build_workspace_sdf(boxes: Sequence[BoxObstacle]) -> WorkspaceSdf:
    """The signed distance field of one or more boxes."""
    if not boxes:
        raise ValueError("need at least one obstacle box")
    return WorkspaceSdf(np.array([box.center for box in boxes]), np.array([box.half_extents for box in boxes]))


class SdfQuery(NamedTuple):
    distance: float
    gradient: np.ndarray


def _box_terms(offsets: np.ndarray, half_extents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A box's ``d = |p - c| - h`` from the offsets ``p - c`` (3, ...), the
    coordinates on the leading axis, and the two terms of its signed
    distance: ``sqrt((x^2 + y^2) + z^2)`` over the positive parts x, y, z
    of ``d``, and ``min(max(dx, dy, dz), 0)``.  ``half_extents`` broadcasts
    against the offsets the same way, (3, 1) for one box."""
    delta = np.abs(offsets) - half_extents
    x, y, z = np.maximum(delta, 0.0)
    return delta, np.sqrt((x * x + y * y) + z * z), np.minimum(delta.max(axis=0), 0.0)


def _field_distances(sdf: WorkspaceSdf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances (k,) of the field at points (k, 3), and the index (k,) of
    the box that attains each: the first in box order on a tie.

    One box at a time, over the three contiguous coordinate arrays of the
    points."""
    coords = np.ascontiguousarray(points.T)
    distances = nearest = None
    for box, (center, half) in enumerate(zip(sdf.centers[:, :, None], sdf.half_extents[:, :, None])):
        _, outside, inside = _box_terms(coords - center, half)
        box_distances = outside + inside
        if distances is None:
            distances, nearest = box_distances, np.zeros(len(points), dtype=int)
        else:
            closer = box_distances < distances
            distances = np.where(closer, box_distances, distances)
            nearest[closer] = box
    return distances, nearest


def _field_gradients(sdf: WorkspaceSdf, points: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """Gradients (k, 3) of the field at points (k, 3) whose nearest boxes
    are ``nearest`` (k,), as :func:`_field_distances` finds them.

    Outside its nearest box a point's gradient is its unit offset from the
    box's nearest point; on or inside the box, the outward normal of the
    nearest face.  Where the field has a kink (a medial plane, or points
    equidistant from two boxes) it is one of the one-sided gradients.  Each
    point's gradient reads that point and its box alone, so it is the same
    whatever other points are evaluated with it."""
    offsets = points - sdf.centers[nearest]
    delta, outside, _ = _box_terms(offsets.T, sdf.half_extents[nearest].T)
    normal = np.zeros(offsets.shape)
    normal[np.arange(len(points)), delta.argmax(axis=0)] = 1.0
    away = outside > 0.0
    normal[away] = (np.maximum(delta[:, away], 0.0) / outside[away]).T
    return np.copysign(normal, offsets)


def _field(sdf: WorkspaceSdf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances (k,) and gradients (k, 3) of the field at points (k, 3)."""
    distances, nearest = _field_distances(sdf, points)
    return distances, _field_gradients(sdf, points, nearest)


def sdf_query(sdf: WorkspaceSdf, point) -> SdfQuery:
    """Signed distance and its gradient at a workspace point."""
    distance, gradient = _field(sdf, np.asarray(point, dtype=float).reshape(1, 3))
    return SdfQuery(distance=float(distance[0]), gradient=gradient[0])


def hinge_cost(distance: float | np.ndarray, epsilon: float):
    """Hinge penalty on clearance: ``epsilon - d`` inside the margin, else 0.

    Elementwise over ``distance``.  Returns ``(cost, d cost / d distance)``;
    the slope is -1 on the penalized side (including exactly at the
    margin) and 0 outside.
    """
    inside = distance <= epsilon
    return np.where(inside, epsilon - distance, 0.0)[()], np.where(inside, -1.0, 0.0)[()]


def _collision_terms(
    chain: KinematicChain,
    q,
    sdf: WorkspaceSdf,
    epsilon: float,
    frames: np.ndarray | None = None,
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The hinge costs of :func:`collision_residual`, and a function that
    forms their Jacobian from the same evaluation.

    The costs need the field's distances at every sphere; the Jacobian
    needs its gradient, the sphere-centre Jacobians and a row only at the
    active (configuration, sphere) pairs, inside the margin."""
    frames, centers = _body_sphere_centers(chain, q, frames)
    distances, nearest = _field_distances(sdf, centers.reshape(-1, 3))
    residual, slopes = hinge_cost(distances.reshape(centers.shape[:-1]) - chain._sphere_radii, epsilon)

    def jacobian() -> np.ndarray:
        active = slopes != 0.0
        # The active pairs, each with its own frames, in row-major order.
        flat_frames = frames.reshape(-1, chain.n + 1, 4, 4)
        config, sphere = np.nonzero(active.reshape(len(flat_frames), -1))
        points = centers.reshape(len(flat_frames), -1, 3)[config, sphere]
        gradients = _field_gradients(sdf, points, nearest.reshape(len(flat_frames), -1)[config, sphere])
        center_jacs = _point_jacobians(flat_frames[config], points[:, None], chain._sphere_links[sphere, None])[:, 0]
        jac = np.zeros(residual.shape + (chain.n,))
        jac[active] = slopes[active, None] * (gradients[:, None, :] @ center_jacs)[:, 0]
        return jac

    return residual, jacobian


def collision_residual(chain: KinematicChain, q, sdf: WorkspaceSdf, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Hinge costs of every body sphere and their joint-space Jacobian:
    shapes (S,) and (S, n), or (K, S) and (K, S, n) for a (K, n) stack of
    configurations.

    Each sphere contributes ``hinge(sdf(center) - radius, epsilon)``, the
    margin ``epsilon`` in meters; the Jacobian row chains the hinge slope,
    the field gradient, and the linear Jacobian of the sphere center,
    formed only for the active spheres (inside the margin; the other rows
    are zero).
    """
    residual, jacobian = _collision_terms(chain, q, sdf, epsilon)
    return residual, jacobian()


def sphere_clearances(chain: KinematicChain, q, sdf: WorkspaceSdf, frames: np.ndarray | None = None) -> np.ndarray:
    """Signed clearance ``sdf(center) - radius`` of every body sphere:
    shape (S,) for one configuration, (K, S) for a (K, n) stack, whose
    precomputed ``frames`` skip the forward kinematics."""
    centers = _body_sphere_centers(chain, q, frames)[1]
    distances = _field_distances(sdf, centers.reshape(-1, 3))[0]
    return distances.reshape(centers.shape[:-1]) - chain._sphere_radii
