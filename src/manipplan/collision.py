"""Workspace obstacles as a signed distance field on a regular grid, plus
the hinge-loss collision cost evaluated at the robot's body spheres."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# body_sphere_states is re-exported, not called: perfbench's tracer tests
# wrap it under this module's name.
from .kinematics import KinematicChain, _body_sphere_centers, _point_jacobians, body_sphere_states  # noqa: F401

__all__ = [
    "SdfGrid",
    "BoxSdfGrid",
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


class _RegularGrid:
    """Geometry shared by the grids: node ``(i, j, k)`` of a ``dims`` grid
    lies at ``origin + cell_size * (i, j, k)``, and ``values(i, j, k)``
    gives the signed distances at integer node indices that broadcast
    together (see :func:`_trilinear`)."""

    origin: np.ndarray
    cell_size: float
    dims: tuple[int, int, int]

    def _check_geometry(self) -> None:
        if not (np.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise ValueError("cell_size must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("SDF origin must be finite")
        if min(self.dims) < 2:
            raise ValueError(f"SDF grid needs at least two nodes along every axis, got shape {self.dims}")

    @property
    def upper(self) -> np.ndarray:
        """Position of the last grid node."""
        return self.origin + self.cell_size * (np.array(self.dims) - 1)


@dataclass(frozen=True)
class SdfGrid(_RegularGrid):
    """Signed distances (negative inside obstacles) sampled on a regular grid.

    ``data[i, j, k]`` is the distance at ``origin + cell_size * (i, j, k)``.
    """

    origin: np.ndarray
    cell_size: float
    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(3))
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3:
            raise ValueError(f"SDF data must be a 3-d array, got shape {data.shape}")
        object.__setattr__(self, "data", data)
        self._check_geometry()
        if not np.all(np.isfinite(data)):
            raise ValueError("SDF data contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def values(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        return self.data[i, j, k]


@dataclass(frozen=True)
class BoxSdfGrid(_RegularGrid):
    """Signed distance of a union of axis-aligned boxes on a regular grid,
    formed at the nodes a query reads (see :func:`build_workspace_sdf`).

    A box's distance is separable, so no node values are kept: ``tables``
    holds per box the per-axis offsets ``|axis - c| - h`` at the node
    coordinates and the squares of their positive parts, ``((dx, dy, dz),
    (sx, sy, sz))``: 6 (nx + ny + nz) values where the grid has nx ny nz.
    """

    origin: np.ndarray
    cell_size: float
    tables: tuple[tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(3))
        self._check_geometry()
        # Every node's sum of squares is at most the sum of the largest ones.
        with np.errstate(over="ignore"):
            largest = [(sx.max() + sy.max()) + sz.max() for _, (sx, sy, sz) in self.tables]
        if not np.all(np.isfinite(largest)):
            raise ValueError("SDF data contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(len(d) for d in self.tables[0][0])

    @property
    def data(self) -> np.ndarray:
        """The distances at every node, (nx, ny, nz), formed on each access."""
        nx, ny, nz = self.dims
        return self.values(np.arange(nx)[:, None, None], np.arange(ny)[:, None], np.arange(nz))

    def values(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The minimum of the boxes' :func:`_box_field` in box order; over
        the whole grid this holds three grid-sized arrays, two for one box."""
        field = _box_field(self.tables[0], i, j, k)
        for table in self.tables[1:]:
            np.minimum(field, _box_field(table, i, j, k), out=field)
        return field


def _box_field(table, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """One box's signed distance at nodes ``(i, j, k)`` from its tables
    (see :class:`BoxSdfGrid`): ``sqrt((x^2 + y^2) + z^2) + min(max(dx, dy,
    dz), 0)``, the outside sum in the order in which :func:`box_distance`'s
    norm reduces its length-3 axis, so a node equals ``box_distance`` at
    its position bit for bit."""
    (dx, dy, dz), (sx, sy, sz) = table
    dist = (sx[i] + sy[j]) + sz[k]
    np.sqrt(dist, out=dist)
    inside = np.maximum(np.maximum(dx[i], dy[j]), dz[k])
    np.minimum(inside, 0.0, out=inside)
    dist += inside
    return dist


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


def _trilinear(grid: SdfGrid | BoxSdfGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear distances (k,) and their gradients (k, 3) at points (k, 3)
    clamped onto the grid.

    The gradient is the exact derivative of the interpolant inside the
    enclosing cell, so it agrees with finite differences of the distance
    to rounding (a one-cell smoothed stencil would disagree by O(cell)
    near box edges and break the cost Jacobian contract).  The clamped
    lookup does not change along an axis on which a point was clamped, so
    that gradient component is zero.
    """
    inside = np.clip(points, grid.origin, grid.upper)
    rel = (inside - grid.origin) / grid.cell_size
    idx = np.clip(np.floor(rel).astype(int), 0, np.array(grid.dims) - 2)
    fx, fy, fz = (rel - idx).T
    ex, ey, ez = 1 - fx, 1 - fy, 1 - fz
    # The eight corner values of each point's cell as (2, 2, 2, k): the
    # leading axes step x, y and z from the cell's lowest node.
    i, j, k = idx.T
    step = np.arange(2)
    corners = grid.values(i + step[:, None, None, None], j + step[:, None, None], k + step[:, None])
    (c000, c001), (c010, c011) = corners[0]
    (c100, c101), (c110, c111) = corners[1]
    c00 = c000 * ex + c100 * fx
    c10 = c010 * ex + c110 * fx
    c01 = c001 * ex + c101 * fx
    c11 = c011 * ex + c111 * fx
    c0 = c00 * ey + c10 * fy
    c1 = c01 * ey + c11 * fy
    dx0 = (c100 - c000) * ey + (c110 - c010) * fy
    dx1 = (c101 - c001) * ey + (c111 - c011) * fy
    gradient = np.stack([dx0 * ez + dx1 * fz, (c10 - c00) * ez + (c11 - c01) * fz, c1 - c0], axis=1) / grid.cell_size
    gradient[inside != points] = 0.0
    return c0 * ez + c1 * fz, gradient


def sdf_query(grid: SdfGrid | BoxSdfGrid, point) -> SdfQuery:
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
    grid: SdfGrid | BoxSdfGrid,
    params: CollisionParams,
    frames: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hinge costs of every body sphere and their joint-space Jacobian:
    shapes (S,) and (S, n), or (K, S) and (K, S, n) for a (K, n) stack of
    configurations.

    Each sphere contributes ``hinge(sdf(center) - radius, epsilon)``; the
    Jacobian row chains the hinge slope, the field gradient, and the
    linear Jacobian of the sphere center, formed only for the active
    spheres (inside the margin; the other rows are zero).  A center
    outside the grid is clamped onto its border (see :func:`_trilinear`).
    ``frames`` are the frames of ``q``, precomputed (see
    :func:`manipplan.kinematics._frames`).
    """
    frames, centers = _body_sphere_centers(chain, q, frames)
    distances, gradients = _trilinear(grid, centers.reshape(-1, 3))
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


def sphere_clearances(
    chain: KinematicChain, q, grid: SdfGrid | BoxSdfGrid, frames: np.ndarray | None = None
) -> np.ndarray:
    """Signed clearance ``sdf(center) - radius`` of every body sphere:
    shape (S,) for one configuration, (K, S) for a (K, n) stack, whose
    precomputed ``frames`` skip the forward kinematics."""
    centers = _body_sphere_centers(chain, q, frames)[1]
    distances = _trilinear(grid, centers.reshape(-1, 3))[0]
    return distances.reshape(centers.shape[:-1]) - chain._sphere_radii


def box_distance(points, center, half_extents) -> np.ndarray:
    """Exact signed distance from points to an axis-aligned box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    delta = np.abs(points - np.asarray(center, dtype=float)) - np.asarray(half_extents, dtype=float)
    outside = np.linalg.norm(np.maximum(delta, 0.0), axis=-1)
    inside = np.minimum(np.max(delta, axis=-1), 0.0)
    return outside + inside


def build_box_sdf(center, half_extents, origin, cell_size: float, dims) -> BoxSdfGrid:
    """The analytic distance of one axis-aligned box on a grid."""
    return build_workspace_sdf([(center, half_extents)], origin, cell_size, dims)


def _checked_box(index: int, center, half_extents) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half extents of box ``index`` as shape (3,) arrays; a
    scalar broadcasts, as in :func:`box_distance`."""
    try:
        center = np.broadcast_to(np.asarray(center, dtype=float), (3,))
        half_extents = np.broadcast_to(np.asarray(half_extents, dtype=float), (3,))
    except ValueError as exc:
        raise ValueError(f"box {index}: centre and half extents must broadcast to shape (3,)") from exc
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(half_extents))):
        raise ValueError(f"box {index}: centre and half extents must be finite")
    if np.any(half_extents <= 0.0):
        raise ValueError(f"box {index}: half extents must be positive")
    return center, half_extents


def build_workspace_sdf(boxes, origin, cell_size: float, dims) -> BoxSdfGrid:
    """SDF of a union of axis-aligned boxes (pointwise minimum of distances)
    on a ``dims`` grid, every box checked first.

    It keeps each box's per-axis tables and no grid-sized array: queries
    combine the tables at the cell corners they read (see
    :meth:`BoxSdfGrid.values`), and ``data`` forms every node on request.
    """
    if not boxes:
        raise ValueError("need at least one obstacle box")
    checked = [_checked_box(i, center, half_extents) for i, (center, half_extents) in enumerate(boxes)]
    origin = np.asarray(origin, dtype=float).reshape(3)
    axes = [origin[i] + cell_size * np.arange(int(dims[i])) for i in range(3)]
    tables = tuple(_box_tables(axes, center, half_extents) for center, half_extents in checked)
    return BoxSdfGrid(origin=origin, cell_size=float(cell_size), tables=tables)


def _box_tables(axes: list[np.ndarray], center: np.ndarray, half_extents: np.ndarray):
    """One box's offsets ``|axis - c| - h`` along the three 1-D node
    coordinate ``axes``, and the squares of their positive parts."""
    offsets = tuple(np.abs(axes[i] - center[i]) - half_extents[i] for i in range(3))
    positive = (np.maximum(d, 0.0) for d in offsets)
    return offsets, tuple(o * o for o in positive)


def save_sdf(grid: SdfGrid | BoxSdfGrid, path: str | Path) -> None:
    """Write a grid: one JSON header line, then little-endian float64 data
    in C order (x index slowest).  A box grid forms its ``data`` here."""
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
    for key in ("origin", "cell_size", "dims"):
        if key not in header:
            raise ValueError(f"SDF header has no {key!r}")
    dims = tuple(int(d) for d in header["dims"])
    if len(dims) != 3:
        raise ValueError(f"SDF header dims must have three entries, got {list(dims)}")
    expected = 8 * dims[0] * dims[1] * dims[2]
    if len(raw) != expected:
        raise ValueError(f"SDF payload is {len(raw)} bytes, dims {list(dims)} need {expected}")
    data = np.frombuffer(raw, dtype="<f8").reshape(dims)
    return SdfGrid(origin=np.array(header["origin"], dtype=float), cell_size=float(header["cell_size"]), data=data.copy())
