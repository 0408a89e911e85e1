"""Serial-chain robot models and differential kinematics.

Robots are described by standard (distal) Denavit-Hartenberg parameters:
the transform of link ``i`` at joint angle ``q`` is
``Rz(q + theta_offset) @ Tz(d) @ Tx(a) @ Rx(alpha)``.  Only revolute
joints are supported.  On top of the plain forward kinematics this module
provides the geometric Jacobian and the contraction of its joint-angle
derivatives, which the singularity cost needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "ModelError",
    "DhLink",
    "BodySphere",
    "Pose",
    "KinematicChain",
    "JacobianSet",
    "forward_kinematics",
    "geometric_jacobian",
    "jacobian_partials",
    "point_jacobian",
    "chain_from_dict",
    "load_chain",
    "builtin_model_path",
]

# Orthonormality tolerance for rotation matrices.
ROTATION_TOL = 1e-9

# Task dimensions: 2 = planar (x, y rows), 3 = position, 6 = full twist.
TASK_DIMS = (2, 3, 6)


class ModelError(ValueError):
    """Invalid robot model or joint configuration."""


def _is_number(value) -> bool:
    """Whether a model-file value is a JSON number: not a bool, not a string."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool))


@dataclass(frozen=True)
class DhLink:
    """One standard-DH link: ``Rz(q + theta_offset) Tz(d) Tx(a) Rx(alpha)``."""

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0

    def __post_init__(self) -> None:
        values = (self.a, self.alpha, self.d, self.theta_offset)
        if not all(math.isfinite(v) for v in values):
            raise ModelError(f"non-finite DH parameter in {values}")


@dataclass(frozen=True)
class BodySphere:
    """Collision sphere rigidly attached to a link frame.

    ``link_index`` is 0-based: sphere ``i`` rides on the frame reached
    after link ``i`` (so it moves with joints ``0..i``).  ``offset`` is
    expressed in that link frame, meters.
    """

    link_index: int
    offset: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        offset = np.asarray(self.offset, dtype=float)
        if offset.shape != (3,) or not all(map(math.isfinite, offset.tolist())):
            raise ModelError(f"sphere offset must be 3 finite numbers, got {self.offset!r}")
        object.__setattr__(self, "offset", offset)
        if not 0.0 < self.radius < math.inf:
            raise ModelError(f"sphere radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=float)
        pos = np.asarray(self.position, dtype=float).reshape(3)
        if rot.shape != (3, 3):
            raise ModelError(f"rotation must be 3x3, got {rot.shape}")
        if not all(map(math.isfinite, rot.ravel().tolist() + pos.tolist())):
            raise ModelError("pose must be finite")
        if np.abs(rot.T @ rot - np.eye(3)).max() > ROTATION_TOL:
            raise ModelError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
            raise ModelError("rotation matrix must be proper (det +1)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "position", pos)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rpy_xyz(cls, rpy, xyz) -> "Pose":
        """Pose from roll-pitch-yaw (extrinsic x-y-z, i.e. Rz@Ry@Rx) and translation."""
        roll, pitch, yaw = (float(v) for v in rpy)
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        return cls(rz @ ry @ rx, np.asarray(xyz, dtype=float))

    def as_matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.position
        return out


@dataclass(frozen=True)
class KinematicChain:
    """Serial manipulator: DH links, base pose, and attached collision spheres.

    ``lambda_max`` caches the robot's manipulability ceiling per task
    dimension (see :func:`manipplan.manipulability.estimate_lambda_max`);
    model files ship it precomputed.
    """

    links: tuple[DhLink, ...]
    base_pose: Pose = field(default_factory=Pose.identity)
    body_spheres: tuple[BodySphere, ...] = ()
    name: str = ""
    lambda_max: dict[int, float] = field(default_factory=dict)
    # Links as arrays for _fk_matrices: the base matrix, theta offsets (n,)
    # and the factors of every link transform's entries (n, 4, 4).
    _base_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _dh_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _dh_factors: np.ndarray = field(init=False, repr=False, compare=False)
    # Body spheres as arrays for batched evaluation: link indices, offsets (S, 3), radii.
    _sphere_links: np.ndarray = field(init=False, repr=False, compare=False)
    _sphere_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _sphere_radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "body_spheres", tuple(self.body_spheres))
        if len(self.links) < 1:
            raise ModelError("chain needs at least one link")
        for task_dim, value in self.lambda_max.items():
            if task_dim not in TASK_DIMS:
                raise ModelError(f"model lambda_max is keyed by task dimension {TASK_DIMS}, got key {task_dim!r}")
            if not (_is_number(value) and 0.0 < value < math.inf):
                raise ModelError(f"model lambda_max[{task_dim}] must be a positive finite number, got {value!r}")
        for sphere in self.body_spheres:
            if not 0 <= sphere.link_index < self.n:
                raise ModelError(f"sphere link index {sphere.link_index} out of range for {self.n} links")
        dh = [(link.a, link.d, math.cos(link.alpha), math.sin(link.alpha)) for link in self.links]
        a, d, ca, sa = np.array(dh).T
        zero, one = np.zeros(self.n), np.ones(self.n)
        # Negating one factor negates a product exactly: st * (-ca) is the DH matrix's -st * ca.
        factors = [[one, -ca, sa, a], [one, ca, -sa, a], [zero, sa, ca, d], [zero, zero, zero, one]]
        object.__setattr__(self, "_base_matrix", self.base_pose.as_matrix())
        object.__setattr__(self, "_dh_offsets", np.array([link.theta_offset for link in self.links]))
        object.__setattr__(self, "_dh_factors", np.array(factors).transpose(2, 0, 1))
        object.__setattr__(self, "_sphere_links", np.array([s.link_index for s in self.body_spheres], dtype=int))
        object.__setattr__(self, "_sphere_offsets", np.array([s.offset for s in self.body_spheres]).reshape(-1, 3))
        object.__setattr__(self, "_sphere_radii", np.array([s.radius for s in self.body_spheres], dtype=float))

    @property
    def n(self) -> int:
        """Number of joints (= number of links)."""
        return len(self.links)


@dataclass(frozen=True)
class JacobianSet:
    """Geometric Jacobian together with its joint-angle derivatives.

    ``jacobian`` is the m x n task Jacobian.  :meth:`contract` pairs a
    weight matrix with the derivative of ``jacobian`` with respect to every
    joint without forming those derivatives.  Of a stack of
    configurations, both carry the stack's leading axis.
    """

    jacobian: np.ndarray
    # The full six-row Jacobian behind ``jacobian``.
    _full: np.ndarray = field(repr=False, compare=False)

    def contract(self, weights: np.ndarray) -> np.ndarray:
        """``<weights, d jacobian / d theta_k>`` (the sum of their
        elementwise products) for every joint k, in O(n) per configuration.

        ``weights`` has the shape of ``jacobian``; the result is (..., n).
        Column j's derivative is ``z_k x J_j`` for j > k and ``[z_j x
        J_lin,k; 0]`` for j <= k, so with ``w_j = [w_lin,j; w_ang,j]`` the
        product is ``z_k . sum_{j>k} (J_lin,j x w_lin,j + z_j x w_ang,j)
        + J_lin,k . sum_{j<=k} (w_lin,j x z_j)``: one suffix and one prefix
        sum over the joints.  Weights without angular rows (a task
        dimension up to 3) skip the ``z_j x w_ang,j`` terms, which are zero;
        only 2-row (planar) weights are padded, with a zero third row.
        """
        angular = weights.shape[-2] > 3
        w = weights
        if weights.shape[-2] == 2:
            w = np.zeros(weights.shape[:-2] + (3, weights.shape[-1]))
            w[..., :2, :] = weights
        w, cols = np.swapaxes(w, -1, -2), np.swapaxes(self._full, -1, -2)
        lin, axes = cols[..., :3], cols[..., 3:]
        downstream = _cross(lin, w[..., :3])
        if angular:
            downstream += _cross(axes, w[..., 3:])
        suffix = np.zeros_like(downstream)  # row k: sum over j > k
        suffix[..., :-1, :] = np.cumsum(downstream[..., :0:-1, :], axis=-2)[..., ::-1, :]
        prefix = np.cumsum(_cross(w[..., :3], axes), axis=-2)
        return np.sum(axes * suffix, axis=-1) + np.sum(lin * prefix, axis=-1)


def _as_config(chain: KinematicChain, q, stack: bool = False) -> np.ndarray:
    """``q`` as a float configuration (n,), or with ``stack`` also a (K, n)
    stack of configurations; rejects any other shape and non-finite values."""
    q = np.asarray(q, dtype=float)
    if q.ndim not in ((1, 2) if stack else (1,)) or q.shape[-1] != chain.n:
        expected = f"({chain.n},) or (K, {chain.n})" if stack else f"({chain.n},)"
        raise ModelError(f"configuration has shape {q.shape}, expected {expected}")
    if not np.all(np.isfinite(q)):
        raise ModelError("configuration contains non-finite values")
    return q


def _check_task_dim(task_dim: int) -> None:
    if task_dim not in TASK_DIMS:
        raise ModelError(f"task_dim must be one of {TASK_DIMS}, got {task_dim}")


# Which of (cos th, sin th, 1) multiplies each entry of a link transform,
# th = q + theta_offset; KinematicChain._dh_factors holds the other factor.
_TRIG_PATTERN = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [2, 2, 2, 2], [2, 2, 2, 2]])


def _fk_matrices(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    """Frames of configurations ``q`` (..., n) as (..., n+1, 4, 4) arrays:
    index 0 is the base, index n the end-effector."""
    theta = q + chain._dh_offsets
    trig = np.ones(q.shape + (3,))
    trig[..., 0], trig[..., 1] = np.cos(theta), np.sin(theta)
    links = (trig[..., _TRIG_PATTERN] * chain._dh_factors).reshape(-1, chain.n, 4, 4)
    out = np.empty(q.shape[:-1] + (chain.n + 1, 4, 4))
    out[..., 0, :, :] = chain._base_matrix
    # Compose one link at a time over the whole batch, on a flat view.
    frames = out.reshape(-1, chain.n + 1, 4, 4)
    for k in range(chain.n):
        np.matmul(frames[:, k], links[:, k], out=frames[:, k + 1])
    return out


def forward_kinematics(chain: KinematicChain, q) -> list[Pose]:
    """Poses of all link frames at configuration ``q``.

    Returns n+1 poses: entry 0 is the base frame, entry k the frame after
    link k, and the last entry the end-effector frame.
    """
    q = _as_config(chain, q)
    frames = _fk_matrices(chain, q)
    return [Pose(T[:3, :3], T[:3, 3]) for T in frames]


# Cyclic component orders (1, 2, 0) and (2, 0, 1) of a 3-vector.
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of broadcast 3-vectors along the last axis: NumPy's
    per-component ``cross`` formula, ``a1 b2 - a2 b1`` and its cyclic
    shifts, as two gathers per operand without its argument handling."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _point_jacobians(frames: np.ndarray, points: np.ndarray, links: np.ndarray) -> np.ndarray:
    """(..., P, 3, n) linear Jacobians of P points (..., P, 3), point i
    fixed on the frame after link ``links[..., i]``, from frames (..., n+1,
    4, 4).  ``links`` is (P,), shared by every stacked set of frames, or
    has the leading shape of ``points``, one link per point.

    Column j is ``z_j x (p - o_j)``; columns of joints past a point's link
    cannot move it and are zero.
    """
    n = frames.shape[-3] - 1
    axes, origins = frames[..., None, :-1, :3, 2], frames[..., None, :-1, :3, 3]
    cols = _cross(axes, points[..., :, None, :] - origins)
    past = np.arange(n) > links[..., None]
    if past.any():  # none for the end effector, on link n - 1
        cols[..., past, :] = 0.0
    return np.ascontiguousarray(np.swapaxes(cols, -1, -2))


def _end_effector_jacobian(frames: np.ndarray) -> np.ndarray:
    """(..., 6, n) geometric Jacobians of the end-effector point."""
    n = frames.shape[-3] - 1
    linear = _point_jacobians(frames, frames[..., -1:, :3, 3], np.array([n - 1]))[..., 0, :, :]
    return np.concatenate([linear, np.swapaxes(frames[..., :-1, :3, 2], -1, -2)], axis=-2)


def _frames(chain: KinematicChain, q, frames: np.ndarray | None = None) -> np.ndarray:
    """``frames`` when the caller passes them, else one forward-kinematics
    pass over ``q`` after checking it with :func:`_as_config`.

    :func:`geometric_jacobian`, :func:`_body_sphere_centers` and the
    callers of the latter accept as ``frames`` the (..., n+1, 4, 4) result
    of ``_fk_matrices(chain, q)`` for the ``q`` they are given, so one pass
    over a checked stack serves several of them; ``q`` is then not checked
    again.
    """
    return _fk_matrices(chain, _as_config(chain, q, stack=True)) if frames is None else frames


def geometric_jacobian(chain: KinematicChain, q, task_dim: int = 6, frames: np.ndarray | None = None) -> np.ndarray:
    """Geometric Jacobian mapping joint rates to end-effector velocity.

    Column j is ``[z_j x (p_e - o_j); z_j]`` for revolute joints, rows
    restricted by ``task_dim`` (6 full twist, 3 linear velocity, 2 planar
    x-y velocity).  A (K, n) stack of configurations gives (K, task_dim, n).
    ``frames`` are those of ``q``, precomputed (see :func:`_frames`).
    """
    _check_task_dim(task_dim)
    return _end_effector_jacobian(_frames(chain, q, frames))[..., :task_dim, :]


def jacobian_partials(chain: KinematicChain, q, task_dim: int = 6) -> JacobianSet:
    """Jacobian plus analytic derivatives with respect to each joint.

    One FK pass gives the Jacobian; its derivatives (the geometric
    identities of a revolute chain) are contracted by
    :meth:`JacobianSet.contract`.  ``q`` may be a (K, n) stack.
    """
    _check_task_dim(task_dim)
    jac = _end_effector_jacobian(_frames(chain, q))
    return JacobianSet(jacobian=jac[..., :task_dim, :], _full=jac)


def point_jacobian(chain: KinematicChain, q, link_index: int, offset) -> tuple[np.ndarray, np.ndarray]:
    """Position and 3 x n linear Jacobian of a point fixed in a link frame.

    The point is ``offset`` expressed in the frame after link
    ``link_index``; columns of joints that cannot move it are zero.  A
    (K, n) stack of configurations gives (K, 3) and (K, 3, n).
    """
    if not 0 <= link_index < chain.n:
        raise ModelError(f"link index {link_index} out of range")
    frames = _frames(chain, q)
    frame = frames[..., link_index + 1, :, :]
    point = frame[..., :3, :3] @ np.asarray(offset, dtype=float) + frame[..., :3, 3]
    return point, _point_jacobians(frames, point[..., None, :], np.array([link_index]))[..., 0, :, :]


def _body_sphere_centers(chain: KinematicChain, q, frames: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Frames (..., n+1, 4, 4) and body-sphere centres (..., S, 3) of a
    configuration (n,) or a stack of them (K, n)."""
    frames = _frames(chain, q, frames)
    tops = frames[..., chain._sphere_links + 1, :3, :]  # [R | p] of every sphere's frame
    offsets = chain._sphere_offsets[:, :, None]  # (S, 3, 1): each component against a column of R
    centers = tops[..., 0] * offsets[:, 0] + tops[..., 1] * offsets[:, 1] + tops[..., 2] * offsets[:, 2] + tops[..., 3]
    return frames, centers


def body_sphere_states(chain: KinematicChain, q) -> tuple[np.ndarray, np.ndarray]:
    """Centers and linear Jacobians of all S body spheres from one FK pass.

    Returns ``(centers, jacobians)`` with shapes (S, 3) and (S, 3, n), or
    (K, S, 3) and (K, S, 3, n) for a (K, n) stack of configurations.
    """
    frames, centers = _body_sphere_centers(chain, q)
    return centers, _point_jacobians(frames, centers, chain._sphere_links)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _numbers(values, where: str, size: int | None = None) -> list:
    """Model-file field ``where``, a list of JSON numbers, ``size`` of them if given."""
    if not (isinstance(values, list) and all(map(_is_number, values))):
        raise ModelError(f"{where} must be a list of numbers, got {values!r}")
    if size is not None and len(values) != size:
        raise ModelError(f"{where} must be {size} numbers, got {values!r}")
    return values


def _link_index(link) -> int:
    """A body sphere's ``link`` as an int: a whole number, not a bool."""
    if isinstance(link, bool) or not (isinstance(link, int) or (isinstance(link, float) and link.is_integer())):
        raise ModelError(f"link must be a whole number, got {link!r}")
    return int(link)


def _body_sphere(index: int, row) -> BodySphere:
    """Body sphere ``index`` of a model file; an invalid row raises a
    ``ModelError`` that names ``body_spheres[index]`` and the field."""
    where = f"body_spheres[{index}]"
    if not isinstance(row, dict):
        raise ModelError(f"{where} must be an object with fields 'link', 'offset' and 'radius', got {row!r}")
    try:
        link, offset, radius = row["link"], row["offset"], row["radius"]
    except KeyError as exc:
        raise ModelError(f"{where}: missing body-sphere field {exc}") from exc
    offset = _numbers(offset, f"{where}.offset")
    if not _is_number(radius):
        raise ModelError(f"{where}.radius must be a number, got {radius!r}")
    try:
        return BodySphere(link_index=_link_index(link), offset=offset, radius=float(radius))
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from exc


# Model-file lambda_max keys: task dimensions as JSON object keys.
_TASK_DIM_KEYS = {str(task_dim): task_dim for task_dim in TASK_DIMS}


def chain_from_dict(spec: dict) -> KinematicChain:
    """Build a chain from the JSON model schema.

    Schema: ``{name, dh: [{a, alpha, d, theta_offset}], base_pose: {rpy,
    xyz}, body_spheres: [{link, offset, radius}], lambda_max?: {task_dim:
    value}}``; angles in radians, lengths in meters.  Every value is a
    JSON number, else a ``ModelError`` names its field.
    """
    if not isinstance(spec, dict):
        raise ModelError(f"model must be an object, got {spec!r}")
    rows = spec.get("dh")
    if not (isinstance(rows, list) and rows):
        raise ModelError(f"dh must be a non-empty list, got {rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ModelError(f"dh[{i}] must be an object, got {row!r}")
    try:
        dh = [(row["a"], row["alpha"], row["d"], row.get("theta_offset", 0.0)) for row in rows]
    except KeyError as exc:
        raise ModelError(f"model is missing DH field {exc}") from exc
    for i, values in enumerate(dh):
        for key, value in zip(("a", "alpha", "d", "theta_offset"), values):
            if not _is_number(value):
                raise ModelError(f"dh[{i}].{key} must be a number, got {value!r}")
    links = tuple(DhLink(*map(float, values)) for values in dh)
    base = spec.get("base_pose", {})
    if not isinstance(base, dict):
        raise ModelError(f"base_pose must be an object, got {base!r}")
    base_pose = Pose.from_rpy_xyz(
        _numbers(base.get("rpy", [0.0, 0.0, 0.0]), "base_pose.rpy", 3),
        _numbers(base.get("xyz", [0.0, 0.0, 0.0]), "base_pose.xyz", 3),
    )
    sphere_rows = spec.get("body_spheres", [])
    if not isinstance(sphere_rows, list):
        raise ModelError(f"body_spheres must be a list, got {sphere_rows!r}")
    spheres = tuple(_body_sphere(i, row) for i, row in enumerate(sphere_rows))
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise ModelError(f"name must be a string, got {name!r}")
    cache = spec.get("lambda_max", {})
    if not isinstance(cache, dict):
        raise ModelError(f"model lambda_max must be an object keyed by task dimension, got {cache!r}")
    return KinematicChain(
        links=links,
        base_pose=base_pose,
        body_spheres=spheres,
        name=name,
        lambda_max={_TASK_DIM_KEYS.get(key, key): value for key, value in cache.items()},
    )


def builtin_model_path(name: str) -> Path:
    """Path of a model file shipped with the package (e.g. ``ur10``)."""
    root = resources.files("manipplan").joinpath("data", "models", f"{name}.json")
    path = Path(str(root))
    if not path.is_file():
        raise ModelError(f"no built-in robot model named {name!r}")
    return path


def _is_builtin(source: str | Path) -> bool:
    """Whether ``source`` names a built-in model or scenario, whatever files exist:
    no suffix and one path component (``planar2r``, not ``./planar2r`` or ``planar2r.json``)."""
    return not Path(source).suffix and Path(source).name == str(source)


def load_chain(source: str | Path) -> KinematicChain:
    """Load a robot model from a JSON file path or a built-in model name (see :func:`_is_builtin`)."""
    path = builtin_model_path(str(source)) if _is_builtin(source) else Path(source)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        raise ModelError(f"cannot read robot model {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"robot model {source!r} is not valid JSON: {exc}") from exc
    return chain_from_dict(spec)
