"""Workspace obstacles as a voxelized signed distance field, plus the
hinge-loss collision cost evaluated at the robot's body spheres."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .kinematics import KinematicChain, _body_sphere_centers, body_sphere_states

__all__ = [
    "SdfGrid",
    "CollisionParams",
    "SdfQuery",
    "sdf_query",
    "hinge_cost",
    "collision_residual",
    "sphere_clearances",
    "box_distance",
    "build_box_sdf",
    "build_workspace_sdf",
    "save_sdf",
    "load_sdf",
]


@dataclass(frozen=True)
class SdfGrid:
    """Signed distances (negative inside obstacles) sampled on a regular grid.

    ``data[i, j, k]`` is the distance at ``origin + cell_size * (i, j, k)``.
    """

    origin: np.ndarray
    cell_size: float
    data: np.ndarray

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        data = np.asarray(self.data, dtype=float)
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        if data.ndim != 3:
            raise ValueError(f"SDF data must be a 3-d array, got shape {data.shape}")
        if min(data.shape) < 2:
            raise ValueError(f"SDF grid needs at least two nodes along every axis, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("SDF data contains non-finite values")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def upper(self) -> np.ndarray:
        """Position of the last grid node."""
        return self.origin + self.cell_size * (np.array(self.dims) - 1)


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
    clamped: bool  # True when the query point was outside the grid


def _trilinear(grid: SdfGrid, points: np.ndarray, with_gradient: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Trilinear distances (k,) and their gradients (k, 3) at points (k, 3)
    clamped onto the grid (``None`` without ``with_gradient``).

    The gradient is the exact derivative of the interpolant inside the
    enclosing cell, so it agrees with finite differences of the distance
    to rounding (a one-cell smoothed stencil would disagree by O(cell)
    near box edges and break the cost Jacobian contract).  The clamped
    lookup does not change along an axis on which a point was clamped, so
    that gradient component is zero.
    """
    inside = np.clip(points, grid.origin, grid.upper)
    rel = (inside - grid.origin) / grid.cell_size
    _, ny, nz = grid.dims
    idx = np.clip(np.floor(rel).astype(int), 0, np.array(grid.dims) - 2)
    fx, fy, fz = (rel - idx).T
    ex, ey, ez = 1 - fx, 1 - fy, 1 - fz
    # Corner values gathered from the flat C-order data: stride ny * nz
    # along x, nz along y and 1 along z.
    d = grid.data.reshape(-1)
    sx, sy = ny * nz, nz
    at = idx @ np.array([sx, sy, 1])
    c000, c100, c010, c110 = d[at], d[at + sx], d[at + sy], d[at + sx + sy]
    at = at + 1
    c001, c101, c011, c111 = d[at], d[at + sx], d[at + sy], d[at + sx + sy]
    c00 = c000 * ex + c100 * fx
    c10 = c010 * ex + c110 * fx
    c01 = c001 * ex + c101 * fx
    c11 = c011 * ex + c111 * fx
    c0 = c00 * ey + c10 * fy
    c1 = c01 * ey + c11 * fy
    if not with_gradient:
        return c0 * ez + c1 * fz, None
    dx0 = (c100 - c000) * ey + (c110 - c010) * fy
    dx1 = (c101 - c001) * ey + (c111 - c011) * fy
    gradient = np.stack([dx0 * ez + dx1 * fz, (c10 - c00) * ez + (c11 - c01) * fz, c1 - c0], axis=1) / grid.cell_size
    gradient[inside != points] = 0.0
    return c0 * ez + c1 * fz, gradient


def sdf_query(grid: SdfGrid, point) -> SdfQuery:
    """Interpolated distance and gradient at a workspace point.

    Out-of-bounds queries are clamped to the border and flagged.
    """
    point = np.asarray(point, dtype=float).reshape(3)
    clamped = bool(np.any(point < grid.origin) or np.any(point > grid.upper))
    dist, gradient = _trilinear(grid, point[None, :])
    return SdfQuery(distance=float(dist[0]), gradient=gradient[0], clamped=clamped)


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
    grid: SdfGrid,
    params: CollisionParams,
    with_jacobian: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Hinge costs of every body sphere and their joint-space Jacobian:
    shapes (S,) and (S, n), or (K, S) and (K, S, n) for a (K, n) stack of
    configurations.

    Each sphere contributes ``hinge(sdf(center) - radius, epsilon)``; the
    Jacobian row chains the hinge slope, the field gradient, and the
    linear Jacobian of the sphere center.  A center outside the grid is
    clamped onto its border (see :func:`_trilinear`).
    """
    centers, center_jacs = body_sphere_states(chain, q)
    distances, gradients = _trilinear(grid, centers.reshape(-1, 3), with_jacobian)
    residual, slopes = hinge_cost(distances.reshape(centers.shape[:-1]) - chain._sphere_radii, params.epsilon)
    if not with_jacobian:
        return residual, None
    gradients = gradients.reshape(centers.shape)
    active = slopes != 0.0
    jac = np.zeros(residual.shape + (chain.n,))
    jac[active] = slopes[active, None] * (gradients[active, None, :] @ center_jacs[active])[:, 0]
    return residual, jac


def sphere_clearances(chain: KinematicChain, q, grid: SdfGrid) -> np.ndarray:
    """Signed clearance ``sdf(center) - radius`` of every body sphere:
    shape (S,) for one configuration, (K, S) for a (K, n) stack."""
    centers = _body_sphere_centers(chain, q)[1]
    distances = _trilinear(grid, centers.reshape(-1, 3), with_gradient=False)[0]
    return distances.reshape(centers.shape[:-1]) - chain._sphere_radii


def box_distance(points, center, half_extents) -> np.ndarray:
    """Exact signed distance from points to an axis-aligned box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    delta = np.abs(points - np.asarray(center, dtype=float)) - np.asarray(half_extents, dtype=float)
    outside = np.linalg.norm(np.maximum(delta, 0.0), axis=-1)
    inside = np.minimum(np.max(delta, axis=-1), 0.0)
    return outside + inside


def build_box_sdf(center, half_extents, origin, cell_size: float, dims) -> SdfGrid:
    """Sample the analytic distance of one axis-aligned box onto a grid."""
    return build_workspace_sdf([(center, half_extents)], origin, cell_size, dims)


def build_workspace_sdf(boxes, origin, cell_size: float, dims) -> SdfGrid:
    """SDF of a union of axis-aligned boxes (pointwise minimum of distances)."""
    if not boxes:
        raise ValueError("need at least one obstacle box")
    origin = np.asarray(origin, dtype=float).reshape(3)
    dims = tuple(int(d) for d in dims)
    axes = [origin[i] + cell_size * np.arange(dims[i]) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    data = np.full(points.shape[0], np.inf)
    for center, half_extents in boxes:
        if np.any(np.asarray(half_extents, dtype=float) <= 0.0):
            raise ValueError("box half extents must be positive")
        data = np.minimum(data, box_distance(points, center, half_extents))
    return SdfGrid(origin=origin, cell_size=float(cell_size), data=data.reshape(dims))


def save_sdf(grid: SdfGrid, path: str | Path) -> None:
    """Write a grid: one JSON header line, then little-endian float64 data
    in C order (x index slowest)."""
    header = {
        "origin": [float(v) for v in grid.origin],
        "cell_size": grid.cell_size,
        "dims": [int(d) for d in grid.dims],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(grid.data, dtype="<f8").tobytes())


def load_sdf(path: str | Path) -> SdfGrid:
    """Read a grid written by :func:`save_sdf`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    dims = tuple(int(d) for d in header["dims"])
    count = dims[0] * dims[1] * dims[2]
    data = np.frombuffer(raw, dtype="<f8", count=count).reshape(dims)
    return SdfGrid(origin=np.array(header["origin"], dtype=float), cell_size=float(header["cell_size"]), data=data.copy())
