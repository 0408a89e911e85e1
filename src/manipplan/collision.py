"""Workspace obstacles as the exact signed distance of a union of
axis-aligned boxes, plus the hinge-loss collision cost evaluated at the
robot's body spheres."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# body_sphere_states is re-exported, not called: perfbench's tracer tests
# wrap it under this module's name.
from .kinematics import KinematicChain, _body_sphere_centers, _point_jacobians, body_sphere_states  # noqa: F401

__all__ = [
    "BoxObstacle",
    "WorkspaceSdf",
    "CollisionParams",
    "SdfQuery",
    "sdf_query",
    "hinge_cost",
    "collision_residual",
    "sphere_clearances",
    "box_distance",
    "build_workspace_sdf",
]


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


@dataclass(frozen=True)
class CollisionParams:
    """Safety margin epsilon (meters) and residual variance sigma_obs."""

    epsilon: float = 0.1
    sigma_obs: float = 1e-3

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon cannot be negative")
        if self.sigma_obs <= 0.0:
            raise ValueError("sigma_obs must be positive")


class SdfQuery(NamedTuple):
    distance: float
    gradient: np.ndarray


def _box_terms(offsets: np.ndarray, half_extents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A box's ``d = |p - c| - h`` from the offsets ``p - c`` (..., 3), and
    the two terms of its signed distance: ``sqrt((x^2 + y^2) + z^2)`` over
    the positive parts x, y, z of ``d``, and ``min(max(dx, dy, dz), 0)``."""
    delta = np.abs(offsets) - half_extents
    x, y, z = np.moveaxis(np.maximum(delta, 0.0), -1, 0)
    return delta, np.sqrt((x * x + y * y) + z * z), np.minimum(delta.max(axis=-1), 0.0)


def box_distance(points, center, half_extents) -> np.ndarray:
    """Exact signed distance from points to an axis-aligned box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _, outside, inside = _box_terms(points - np.asarray(center, dtype=float), np.asarray(half_extents, dtype=float))
    return outside + inside


def _field(sdf: WorkspaceSdf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances (k,) and gradients (k, 3) of the field at points (k, 3).

    Outside its nearest box a point's gradient is its unit offset from the
    box's nearest point; on or inside the box, the outward normal of the
    nearest face.  Where the field has a kink (a medial plane, or points
    equidistant from two boxes) it is one of the one-sided gradients."""
    offsets = points[:, None, :] - sdf.centers
    delta, outside, inside = _box_terms(offsets, sdf.half_extents)
    distances = outside + inside
    rows = np.arange(len(points))
    nearest = rows, distances.argmin(axis=1)
    delta, outside = delta[nearest], outside[nearest]
    normal = np.zeros_like(delta)
    normal[rows, delta.argmax(axis=1)] = 1.0
    away = outside > 0.0
    normal[away] = np.maximum(delta[away], 0.0) / outside[away, None]
    return distances[nearest], np.copysign(normal, offsets[nearest])


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


def collision_residual(
    chain: KinematicChain,
    q,
    sdf: WorkspaceSdf,
    params: CollisionParams,
    frames: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hinge costs of every body sphere and their joint-space Jacobian:
    shapes (S,) and (S, n), or (K, S) and (K, S, n) for a (K, n) stack of
    configurations.

    Each sphere contributes ``hinge(sdf(center) - radius, epsilon)``; the
    Jacobian row chains the hinge slope, the field gradient, and the
    linear Jacobian of the sphere center, formed only for the active
    spheres (inside the margin; the other rows are zero).  ``frames`` are
    the frames of ``q``, precomputed (see
    :func:`manipplan.kinematics._frames`).
    """
    frames, centers = _body_sphere_centers(chain, q, frames)
    distances, gradients = _field(sdf, centers.reshape(-1, 3))
    residual, slopes = hinge_cost(distances.reshape(centers.shape[:-1]) - chain._sphere_radii, params.epsilon)
    active = slopes != 0.0
    # The active (configuration, sphere) pairs, each with its own frames.
    flat_frames = frames.reshape(-1, chain.n + 1, 4, 4)
    config, sphere = np.nonzero(active.reshape(len(flat_frames), -1))
    center_jacs = _point_jacobians(
        flat_frames[config],
        centers.reshape(len(flat_frames), -1, 3)[config, sphere, None],
        chain._sphere_links[sphere, None],
    )[:, 0]
    jac = np.zeros(residual.shape + (chain.n,))
    jac[active] = slopes[active, None] * (gradients.reshape(centers.shape)[active, None, :] @ center_jacs)[:, 0]
    return residual, jac


def sphere_clearances(chain: KinematicChain, q, sdf: WorkspaceSdf, frames: np.ndarray | None = None) -> np.ndarray:
    """Signed clearance ``sdf(center) - radius`` of every body sphere:
    shape (S,) for one configuration, (K, S) for a (K, n) stack, whose
    precomputed ``frames`` skip the forward kinematics."""
    centers = _body_sphere_centers(chain, q, frames)[1]
    distances = _field(sdf, centers.reshape(-1, 3))[0]
    return distances.reshape(centers.shape[:-1]) - chain._sphere_radii
