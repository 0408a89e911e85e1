"""Independent reference implementations used as test oracles.

Everything here is written against the math directly (plain homogeneous
matrix products, finite differences, quadrature, dense kernels) and never
calls back into the code paths it checks.
"""

import math

import mpmath
import numpy as np

from manipplan import gp_prior as gp
from manipplan.collision import _box_terms, _field, hinge_cost, sdf_query, sphere_clearances
from manipplan.kinematics import (
    _end_effector_jacobian,
    _fk_matrices,
    body_sphere_states,
    chain_from_dict,
    forward_kinematics,
    geometric_jacobian,
)
from manipplan.manipulability import SIGMA_MIN, manipulability


def planar_arm(lengths, name="planar"):
    """All-revolute planar arm in the x-y plane with the given link
    lengths, built from a model-file dict."""
    return chain_from_dict({"name": name, "dh": [{"a": float(a), "alpha": 0.0, "d": 0.0} for a in lengths]})


def dh_matrix(theta, d, a, alpha):
    """Standard-DH homogeneous transform, written out longhand."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def dh_product(dh_rows, q, base=None):
    """End-effector transform as one left-to-right matrix product.

    ``dh_rows`` is a list of (a, alpha, d, theta_offset) tuples.
    """
    T = np.eye(4) if base is None else np.asarray(base, dtype=float)
    for (a, alpha, d, off), qi in zip(dh_rows, q):
        T = T @ dh_matrix(qi + off, d, a, alpha)
    return T


def fk_matrices_loop(chain, q):
    """(n+1, 4, 4) frames of one configuration, composed one
    :func:`dh_matrix` at a time: the loop reference for batched forward
    kinematics, with the same arithmetic, so results agree bit for bit."""
    out = [chain.base_pose.as_matrix()]
    for link, qk in zip(chain.links, q):
        out.append(out[-1] @ dh_matrix(qk + link.theta_offset, link.d, link.a, link.alpha))
    return np.array(out)


def skew_to_vector(w):
    return np.array([w[2, 1], w[0, 2], w[1, 0]])


def jacobian_fd(chain, q, task_dim, step=1e-7):
    """Geometric Jacobian from central differences of forward kinematics."""
    q = np.asarray(q, dtype=float)
    rot = forward_kinematics(chain, q)[-1].rotation
    out = np.zeros((6, chain.n))
    for j in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        pose_p = forward_kinematics(chain, qp)[-1]
        pose_m = forward_kinematics(chain, qm)[-1]
        out[:3, j] = (pose_p.position - pose_m.position) / (2.0 * step)
        d_rot = (pose_p.rotation - pose_m.rotation) / (2.0 * step)
        out[3:, j] = skew_to_vector(d_rot @ rot.T)
    return out[:task_dim]


def jacobian_partials_fd(chain, q, task_dim, step=1e-6):
    """Joint derivatives of the Jacobian from central differences."""
    q = np.asarray(q, dtype=float)
    out = []
    for k in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[k] += step
        qm[k] -= step
        jp = geometric_jacobian(chain, qp, task_dim)
        jm = geometric_jacobian(chain, qm, task_dim)
        out.append((jp - jm) / (2.0 * step))
    return out


def point_jacobian_loop(chain, q, link_index, offset):
    """Point position and 3 x n linear Jacobian, one ``np.cross`` per joint.

    Loop reference for the batched point Jacobians: same arithmetic, so
    results must agree bit for bit.
    """
    poses = forward_kinematics(chain, q)
    frame = poses[link_index + 1]
    point = frame.rotation @ np.asarray(offset, dtype=float) + frame.position
    jac = np.zeros((3, chain.n))
    for j in range(link_index + 1):
        jac[:, j] = np.cross(poses[j].rotation[:, 2], point - poses[j].position)
    return point, jac


def jacobian_partials_loop(chain, q, task_dim):
    """(n, task_dim, n) Jacobian derivatives, one joint pair (k, j) at a
    time: the loop reference for the batched analytic derivatives."""
    n = chain.n
    poses = forward_kinematics(chain, q)
    axes = [pose.rotation[:, 2] for pose in poses[:-1]]
    rel = [poses[-1].position - pose.position for pose in poses[:-1]]
    out = np.zeros((n, 6, n))
    for k in range(n):
        dpe_k = np.cross(axes[k], rel[k])
        for j in range(n):
            if j <= k:
                out[k, :3, j] = np.cross(axes[j], dpe_k)
            else:
                d_axis = np.cross(axes[k], axes[j])
                out[k, 3:, j] = d_axis
                out[k, :3, j] = np.cross(d_axis, rel[j]) + np.cross(axes[j], np.cross(axes[k], rel[j]))
    return out[:, :task_dim]


def partials_from_contract(jset):
    """(..., n, m, n) Jacobian derivatives ``partials[..., k, i, j] =
    d J[i, j] / d theta_k``, read off ``JacobianSet.contract`` with one
    unit weight matrix ``E_ij`` per entry.  Not independent: it lays the
    production contraction out densely, for checks against
    :func:`jacobian_partials_loop` and finite differences."""
    m, n = jset.jacobian.shape[-2:]
    out = np.empty(jset.jacobian.shape[:-2] + (n, m, n))
    for i in range(m):
        for j in range(n):
            unit = np.zeros(jset.jacobian.shape)
            unit[..., i, j] = 1.0
            out[..., :, i, j] = jset.contract(unit)
    return out


def _jacobian_mp(chain, q, task_dim, partials=False):
    """The task Jacobian ``J`` of configuration ``q`` as an ``mpmath``
    matrix in the working precision, from forward kinematics alone; with
    ``partials``, also its joint derivatives ``[dJ/dq_k]`` by the product
    rule."""
    cross = lambda a, b: [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    frames = [mpmath.matrix(chain.base_pose.as_matrix().tolist())]
    for link, qk in zip(chain.links, q):
        th, al = mpmath.mpf(float(qk)) + link.theta_offset, mpmath.mpf(link.alpha)
        ct, st, ca, sa = mpmath.cos(th), mpmath.sin(th), mpmath.cos(al), mpmath.sin(al)
        frames.append(
            frames[-1]
            * mpmath.matrix([[ct, -st * ca, st * sa, link.a * ct], [st, ct * ca, -ct * sa, link.a * st],
                             [0, sa, ca, link.d], [0, 0, 0, 1]])
        )
    n = chain.n
    axes = [[frame[i, 2] for i in range(3)] for frame in frames[:-1]]
    rel = [[frames[-1][i, 3] - frame[i, 3] for i in range(3)] for frame in frames[:-1]]
    lin = [cross(axes[j], rel[j]) for j in range(n)]
    jac = mpmath.matrix([[(lin[j] + axes[j])[i] for j in range(n)] for i in range(task_dim)])
    if not partials:
        return jac
    derivatives = []
    for k in range(n):
        cols = []
        for j in range(n):
            if j <= k:
                cols.append(cross(axes[j], lin[k]) + [0, 0, 0])
            else:
                d_axis = cross(axes[k], axes[j])
                d_lin = [a + b for a, b in zip(cross(d_axis, rel[j]), cross(axes[j], cross(axes[k], rel[j])))]
                cols.append(d_lin + d_axis)
        derivatives.append(mpmath.matrix([[cols[j][i] for j in range(n)] for i in range(task_dim)]))
    return jac, derivatives


def manipulability_mp(chain, q, task_dim, digits=60):
    """``sqrt(det(J J^T))`` of configuration ``q`` in ``digits``-digit
    arithmetic, from the Jacobian of :func:`_jacobian_mp`."""
    with mpmath.workdps(digits):
        jac = _jacobian_mp(chain, q, task_dim)
        return float(mpmath.sqrt(mpmath.det(jac * jac.T)))


def singularity_gradient_mp(chain, q, task_dim, sigma_min, digits=60):
    """Gradient of ``ln(lambda_max / lambda)``, ``-(1/2) Tr(G^-1 (dJ_k J^T
    + J dJ_k^T))`` with ``G = J J^T`` and its eigenvalues clamped at
    ``sigma_min^2`` inside the inverse (the singular values of ``J``
    clamped at ``sigma_min``), evaluated in ``digits``-digit arithmetic:
    forward kinematics, the Jacobian and its derivatives by the product
    rule, and the eigen-decomposition of ``G``."""
    with mpmath.workdps(digits):
        jac, partials = _jacobian_mp(chain, q, task_dim, partials=True)
        evals, evecs = mpmath.eigsy(jac * jac.T)
        clamped = mpmath.diag([1 / max(e, mpmath.mpf(sigma_min) ** 2) for e in evals])
        inv_gram = evecs * clamped * evecs.T
        out = np.empty(chain.n)
        for k, d_jac in enumerate(partials):
            sym = d_jac * jac.T
            product = inv_gram * (sym + sym.T)
            out[k] = float(-sum(product[i, i] for i in range(task_dim)) / 2)
    return out


def singularity_gradient_qr_mp(chain, q, task_dim, sigma_min, digits=60):
    """Gradient of ``ln(lambda_max / lambda)``, ``-<W, dJ_k>`` with ``W =
    R'^-1 Q^T`` from the QR ``J^T = Q R`` in ``digits``-digit arithmetic
    (``mpmath.qr``), where ``R'`` is ``R`` with each diagonal entry's
    magnitude raised to at least ``sigma_min``.  Without a raised entry
    ``W = (J J^T)^-1 J``, and this equals :func:`singularity_gradient_mp`."""
    with mpmath.workdps(digits):
        jac, partials = _jacobian_mp(chain, q, task_dim, partials=True)
        q_factor, r_factor = mpmath.qr(jac.T, mode="skinny")
        for i in range(task_dim):
            r = r_factor[i, i]
            r_factor[i, i] = max(abs(r), mpmath.mpf(sigma_min)) * (-1 if r < 0 else 1)
        weights = mpmath.inverse(r_factor) * q_factor.T
        out = np.empty(chain.n)
        for k, d_jac in enumerate(partials):
            out[k] = float(-sum(weights[i, j] * d_jac[i, j] for i in range(task_dim) for j in range(chain.n)))
    return out


def collision_residual_loop(chain, q, sdf, epsilon):
    """Hinge residual and Jacobian one body sphere at a time, from
    :func:`point_jacobian_loop` and single-point ``sdf_query`` lookups."""
    count = len(chain.body_spheres)
    residual, jac = np.zeros(count), np.zeros((count, chain.n))
    for row, sphere in enumerate(chain.body_spheres):
        center, center_jac = point_jacobian_loop(chain, q, sphere.link_index, sphere.offset)
        query = sdf_query(sdf, center)
        clearance = query.distance - sphere.radius
        if clearance <= epsilon:
            residual[row] = epsilon - clearance
            jac[row] = -(query.gradient @ center_jac)
    return residual, jac


def collision_residual_dense(chain, q, sdf, epsilon):
    """Hinge residual and Jacobian from the field's distance and gradient
    (``_field``) and the centre Jacobian at every body sphere, active or
    not; the rows outside the margin are then set to zero."""
    centers, center_jacs = body_sphere_states(chain, q)
    distances, gradients = _field(sdf, centers.reshape(-1, 3))
    residual, slopes = hinge_cost(distances.reshape(centers.shape[:-1]) - chain._sphere_radii, epsilon)
    rows = slopes[..., None] * (gradients.reshape(centers.shape)[..., None, :] @ center_jacs)[..., 0, :]
    return residual, np.where(slopes[..., None] != 0.0, rows, 0.0)


def lambda_max_loop(chain, task_dim, num_samples, seed, joint_range):
    """Largest manipulability over configurations drawn and evaluated one
    at a time: the loop reference for the batched estimate."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(num_samples):
        q = rng.uniform(joint_range[0], joint_range[1], chain.n)
        best = max(best, manipulability(geometric_jacobian(chain, q, task_dim)))
    return best


def evaluate_profile_loop(chain, task_dim, trajectory, per_segment, sdf):
    """Trajectory samples and their diagnostics one sample at a time: each
    interpolated state from ``gp.interpolate``, then one Jacobian, singular
    values (without vectors, as ``manipulability`` takes them),
    forward-kinematics pass and clearance lookup per sample.

    Returns ``(times, positions, velocities, lambdas, sigma_mins,
    ee_positions, clearances)``, the last ``None`` without obstacles.
    """
    states = []
    knots = trajectory.states
    for i in range(len(knots) - 1):
        states.append(knots[i])
        for k in range(1, per_segment + 1):
            tau = knots[i].time + (knots[i + 1].time - knots[i].time) * k / (per_segment + 1)
            states.append(gp.interpolate(knots[i], knots[i + 1], tau)[0])
    states.append(knots[-1])
    rows = []
    for state in states:
        s = np.linalg.svd(geometric_jacobian(chain, state.position, task_dim), compute_uv=False)
        ee = forward_kinematics(chain, state.position)[-1].position
        clearance = None if sdf is None else sphere_clearances(chain, state.position, sdf)
        rows.append((state.time, state.position, state.velocity, np.prod(s), s[-1], ee, clearance))
    columns = [np.array(column) for column in zip(*rows)]
    if sdf is None:
        columns[-1] = None
    return tuple(columns)


def manipulability_fd(chain, q, task_dim, step=1e-6):
    """Gradient of the manipulability measure from central differences."""
    q = np.asarray(q, dtype=float)
    out = np.zeros(chain.n)
    for j in range(chain.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        lam_p = manipulability(geometric_jacobian(chain, qp, task_dim))
        lam_m = manipulability(geometric_jacobian(chain, qm, task_dim))
        out[j] = (lam_p - lam_m) / (2.0 * step)
    return out


def box_distance(points, center, half_extents):
    """Exact signed distance from points (..., 3) to one axis-aligned box,
    from the box terms of ``collision._box_terms``: the field's reference,
    which its per-box evaluation must reproduce bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    offsets = np.moveaxis(points - np.asarray(center, dtype=float), -1, 0)
    half_extents = np.asarray(half_extents, dtype=float).reshape((3,) + (1,) * (points.ndim - 1))
    _, outside, inside = _box_terms(offsets, half_extents)
    return outside + inside


def box_sdf_reference(point, center, half_extents):
    """Scalar box distance evaluated per-region (face / edge / corner /
    inside), independent of the vectorized production formula."""
    p = np.abs(np.asarray(point, dtype=float) - np.asarray(center, dtype=float))
    b = np.asarray(half_extents, dtype=float)
    excess = p - b
    if np.all(excess <= 0.0):
        return float(excess.max())  # inside: negative distance to closest face
    return float(np.sqrt(np.sum(np.maximum(excess, 0.0) ** 2)))


def wnoa_transition(dt, n):
    phi = np.eye(2 * n)
    phi[:n, n:] = dt * np.eye(n)
    return phi


def wnoa_covariance_quadrature(dt, qc, samples=20001):
    """Process-noise covariance by Simpson quadrature of the white-noise
    integral, independent of the closed form."""
    qc = np.asarray(qc, dtype=float)
    n = qc.shape[0]
    s = np.linspace(0.0, dt, samples)
    acc = np.zeros((2 * n, 2 * n))
    weights = np.ones(samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (dt - 0.0) / (samples - 1)
    for w, si in zip(weights, s):
        u = dt - si
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = u * u * qc
        block[:n, n:] = u * qc
        block[n:, :n] = u * qc
        block[n:, n:] = qc
        acc += w * block
    return acc * (h / 3.0)


def wnoa_covariance(dt, qc):
    """Closed-form process-noise covariance ``Q(dt)``, written out blockwise."""
    n = qc.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = dt**3 / 3.0 * qc
    out[:n, n:] = dt**2 / 2.0 * qc
    out[n:, :n] = out[:n, n:]
    out[n:, n:] = dt * qc
    return out


def wnoa_covariance_inv(dt, qc):
    """Closed-form ``Q(dt)^-1``, the block inverse of the dt-polynomial kernel."""
    qc_inv = np.linalg.inv(qc)
    return np.block([[12.0 / dt**3 * qc_inv, -6.0 / dt**2 * qc_inv], [-6.0 / dt**2 * qc_inv, 4.0 / dt * qc_inv]])


def whitening_matrix(qc, n):
    """``Lc^-1`` for ``qc I_n = Lc Lc^T``, the n x n block of the dense whitening."""
    return np.linalg.inv(np.linalg.cholesky(qc * np.eye(n)))


def dense_blend_matrices(t_i, t_j, tau, qc):
    """Dense blend matrices ``(Lambda, Psi)`` (2n x 2n) by the textbook
    formula ``Psi = Q(tau-t_i) Phi(t_j-tau)^T Q(t_j-t_i)^-1`` and ``Lambda =
    Phi(tau-t_i) - Psi Phi(t_j-t_i)``, with the closed-form block inverse
    of ``Q``; never uses the 2x2 kernels."""
    qc = np.asarray(qc, dtype=float)
    n = qc.shape[0]
    dt = t_j - t_i
    psi = wnoa_covariance(tau - t_i, qc) @ wnoa_transition(t_j - tau, n).T @ wnoa_covariance_inv(dt, qc)
    lam = wnoa_transition(tau - t_i, n) - psi @ wnoa_transition(dt, n)
    return lam, psi


def dense_gp_conditional_mean(times, values, tau, qc, initial_cov):
    """GP-conditioned mean state at ``tau`` from the dense joint kernel.

    Builds the full covariance of the Markov state over all support times
    (propagating an initial covariance from the first time) and solves the
    Gaussian conditioning equation; this never uses the sparse two-state
    blend.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    qc = np.asarray(qc, dtype=float)
    n = qc.shape[0]

    def marginal_cov(t):
        dt = t - times[0]
        phi = wnoa_transition(dt, n)
        return phi @ initial_cov @ phi.T + wnoa_covariance(dt, qc)

    def cross_cov(ta, tb):
        # cov(x(ta), x(tb)) for ta <= tb
        return marginal_cov(ta) @ wnoa_transition(tb - ta, n).T

    def cov(ta, tb):
        if ta <= tb:
            return cross_cov(ta, tb)
        return cross_cov(tb, ta).T

    k_ss = np.block([[cov(ta, tb) for tb in times] for ta in times])
    k_ts = np.hstack([cov(tau, t) for t in times])
    return k_ts @ np.linalg.solve(k_ss, values.reshape(-1))


def position_cost(goal):
    """The linear configuration cost ``q -> (q - goal, I)``: a
    :class:`ConfigurationFactor` over it is a Gaussian prior on the
    positions of its states."""
    goal = np.asarray(goal, dtype=float)

    def cost(q):
        return q - goal, np.broadcast_to(np.eye(len(goal)), (len(q), len(goal), len(goal))).copy()

    return cost


def dense_linearization(graph, trajectory):
    """Dense whitened Jacobian and residual of a factor graph, stacked one
    block after another from ``Factor.evaluate`` (never the solver's own
    banded assembly)."""
    dim = graph.state_dim
    x = trajectory.x
    jac = np.zeros((graph.residual_dim, graph.num_states * dim))
    res = np.zeros(graph.residual_dim)
    row = 0
    for factor in graph.factors:
        r, blocks = factor.evaluate(x)
        for states, r_k, block in zip(factor.states, r, blocks):
            res[row : row + factor.dim] = r_k
            jac[row : row + factor.dim, states[0] * dim : (states[-1] + 1) * dim] = block
            row += factor.dim
    return jac, res


def field_distances_broadcast(sdf, points):
    """Distances (k,) of a box field at points (k, 3) and the index (k,) of
    the nearest box, from one broadcast (k, B, 3) array of offsets and an
    ``argmin`` over the boxes (the first on a tie): the formula the
    per-box evaluation of ``collision._field_distances`` must reproduce
    bit for bit."""
    delta = np.abs(points[:, None, :] - sdf.centers) - sdf.half_extents
    x, y, z = np.moveaxis(np.maximum(delta, 0.0), -1, 0)
    distances = np.sqrt((x * x + y * y) + z * z) + np.minimum(delta.max(axis=-1), 0.0)
    nearest = distances.argmin(axis=1)
    return distances[np.arange(len(points)), nearest], nearest


def cross_per_component(a, b):
    """Cross products along the last axis, one component at a time: the
    formula ``kinematics._cross`` must reproduce bit for bit."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def point_jacobians_masked(frames, points, links):
    """``kinematics._point_jacobians`` with the columns past each point's
    link always set to zero by a mask, even when the mask is empty: the
    form the point Jacobians must reproduce bit for bit."""
    n = frames.shape[-3] - 1
    axes, origins = frames[..., None, :-1, :3, 2], frames[..., None, :-1, :3, 3]
    cols = cross_per_component(axes, points[..., :, None, :] - origins)
    cols[..., np.arange(n) > links[..., None], :] = 0.0
    return np.swapaxes(cols, -1, -2)


def body_sphere_centers_matmul(chain, frames):
    """Body-sphere centres ``R @ offset + p`` from every sphere's full
    frame, by ``matmul``: the form the sphere centres must reproduce bit
    for bit."""
    sphere_frames = frames[..., chain._sphere_links + 1, :, :]
    return (sphere_frames[..., :3, :3] @ chain._sphere_offsets[:, :, None])[..., 0] + sphere_frames[..., :3, 3]


def body_sphere_centers_einsum(chain, frames):
    """Body-sphere centres ``R @ offset + p`` by one ``einsum`` over every
    sphere's rotation, the form the explicit products replaced: equal to
    them bit for bit when each offset has one nonzero component."""
    tops = frames[..., chain._sphere_links + 1, :3, :]
    return np.einsum("...ij,...j->...i", tops[..., :3], chain._sphere_offsets) + tops[..., 3]


def contract_zero_padded(jset, weights, rows=None):
    """``JacobianSet.contract`` reading a copy of the weights zero-padded to
    ``rows`` rows: by default three for up to three rows and six otherwise,
    the form it had before it read 3- and 6-row weights in place, equal to
    it bit for bit."""
    rows = rows or (6 if weights.shape[-2] > 3 else 3)
    w = np.zeros(jset._full.shape[:-2] + (rows, jset._full.shape[-1]))
    w[..., : weights.shape[-2], :] = weights
    w, cols = np.swapaxes(w, -1, -2), np.swapaxes(jset._full, -1, -2)
    lin, axes = cols[..., :3], cols[..., 3:]
    downstream = cross_per_component(lin, w[..., :3])
    if rows == 6:
        downstream = downstream + cross_per_component(axes, w[..., 3:])
    suffix = np.zeros_like(downstream)
    suffix[..., :-1, :] = np.cumsum(downstream[..., :0:-1, :], axis=-2)[..., ::-1, :]
    prefix = np.cumsum(cross_per_component(w[..., :3], axes), axis=-2)
    return np.sum(axes * suffix, axis=-1) + np.sum(lin * prefix, axis=-1)


def gram_traces_empty_product(jset, qr):
    """``manipulability._gram_traces`` with its back substitution run over
    every row, the last one subtracting an empty product (zeros), the form
    that solves the last row directly must reproduce bit for bit."""
    q, r = qr
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    diagonal = np.copysign(np.maximum(np.abs(diagonal), SIGMA_MIN), diagonal)
    q_t = np.swapaxes(q, -1, -2)
    weights = np.empty_like(q_t)
    for i in reversed(range(r.shape[-1])):
        solved = (r[..., i, None, i + 1 :] @ weights[..., i + 1 :, :])[..., 0, :]
        weights[..., i, :] = (q_t[..., i, :] - solved) / diagonal[..., i, None]
    return 2.0 * jset.contract(weights)


def contract_six_rows(jset, weights):
    """``JacobianSet.contract`` with the weights padded to all six rows of
    the full Jacobian, so the angular cross products are always formed:
    the formula the contraction must reproduce bit for bit."""
    return contract_zero_padded(jset, weights, 6)


def _one_configuration(cost, q):
    """A configuration cost's residuals (d,) and Jacobian (d, n) at the one
    configuration ``q`` (n,), its frames from a forward-kinematics pass over
    that configuration alone."""
    if hasattr(cost, "chain"):
        frames = _fk_matrices(cost.chain, q[None])
        r, jacobian = cost.score(q[None], frames, _end_effector_jacobian(frames))
        return r[0], jacobian()[0]
    r, jac = cost(q[None])
    return r[0], jac[0]


def _blend_coefficients(factor):
    """A configuration factor's blend coefficients (K, P, 2 width) of its
    blocks' state halves ``(q_i, q_dot_i[, q_j, q_dot_j])``: ``(1, 0)`` at
    a knot, else the position rows of its kernels ``Lambda~`` and ``Psi~``."""
    if factor.blend is None:
        return np.broadcast_to([[[1.0, 0.0]]], (len(factor.knots), 1, 2))
    lam, psi = factor.blend
    return np.concatenate([lam[..., 0, :], psi[..., 0, :]], axis=-1)


def linearize_per_row(graph, x):
    """``(band, gradient, cost)`` of ``factor_graph.linearize`` at the
    (N, 2n) states ``x``, and ``(band_scale, gradient_scale)``: the same
    sums over the absolute values of their terms, which bound how far the
    rounding of either sum can move it.  Written as plain loops into a
    dense ``J^T J``: a GP prior, whose Jacobian is constant, adds ``J^T J``
    and ``J^T r`` block by block; a configuration factor evaluates its cost at
    one configuration ``q = sum_s c_s h_s`` at a time and adds that row's
    Gram ``(c c^T) ⊗ w^2 J^T J`` and ``c ⊗ w^2 J^T r``, ``w^2 = 1 /
    sigma``.  The cost is the exactly rounded sum of every block's and
    row's half squared norm."""
    dim, num = graph.state_dim, graph.num_states
    n, size = dim // 2, graph.num_states * graph.state_dim
    normal, normal_scale = np.zeros((size, size)), np.zeros((size, size))
    gradient, gradient_scale = np.zeros(size), np.zeros(size)
    halves = []
    for factor in graph.factors:
        if hasattr(factor, "constant_jacobian"):
            r, jac = factor.evaluate(x)
            for states, r_k, jac_k in zip(factor.states, r, jac):
                cols = slice(states[0] * dim, (states[-1] + 1) * dim)
                normal[cols, cols] += jac_k.T @ jac_k
                normal_scale[cols, cols] += np.abs(jac_k).T @ np.abs(jac_k)
                gradient[cols] += jac_k.T @ r_k
                gradient_scale[cols] += np.abs(jac_k).T @ np.abs(r_k)
                halves.append(0.5 * (r_k @ r_k))
            continue
        weight = 1.0 / factor.sigma
        for states, block in zip(factor.states, _blend_coefficients(factor)):
            cols = slice(states[0] * dim, (states[-1] + 1) * dim)
            state_halves = x[states].reshape(-1, n)
            for c in block:
                q = np.zeros(n)
                for c_s, h_s in zip(c, state_halves):
                    q = q + c_s * h_s
                r, jac = _one_configuration(factor.cost, q)
                normal[cols, cols] += np.kron(np.outer(c, c), weight * (jac.T @ jac))
                normal_scale[cols, cols] += np.kron(np.abs(np.outer(c, c)), weight * (np.abs(jac).T @ np.abs(jac)))
                gradient[cols] += np.kron(c, weight * (jac.T @ r))
                gradient_scale[cols] += np.kron(np.abs(c), weight * (np.abs(jac).T @ np.abs(r)))
                halves.append(0.5 * weight * (r @ r))
    band, band_scale = np.zeros((2 * dim, size)), np.zeros((2 * dim, size))
    for offset in range(2 * dim):
        band[offset, : size - offset] = np.diag(normal, -offset)
        band_scale[offset, : size - offset] = np.diag(normal_scale, -offset)
    return (band, gradient, math.fsum(halves)), (band_scale, gradient_scale)
