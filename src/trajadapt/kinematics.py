"""Serial-chain forward/inverse kinematics and plate motion.

The chain is a list of revolute joints, each with a fixed transform (xyz
offset + rpy rotation) from the previous joint frame followed by a rotation
about a fixed axis by the joint variable.  A fixed plate transform is
appended after the last joint; the resulting frame is the plate frame used
by the ball environment (z is the plate normal).

Rotation conventions: rpy is applied as Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (ConfigurationError, IKConvergenceError, check_domain, check_keys,
                     check_value, read_object, setting)
from .limits import JointLimits

_EYE3 = np.eye(3)

# Damped-least-squares IK: residual tolerance (m for the position, rad for
# the orientation), iteration cap, damping and largest joint step per
# iteration (rad).
IK_TOL = 1e-6
IK_MAX_ITERS = 200
IK_DAMPING = 1e-3
IK_STEP_CLAMP = 0.2


def rpy_matrix(rpy) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) for rpy = (roll, pitch, yaw)."""
    roll, pitch, yaw = (float(x) for x in rpy)
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([[cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
                     [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
                     [-sp, cp * sr, cp * cr]])


@dataclass(frozen=True)
class JointRow:
    """One revolute joint: fixed mount transform, then rotation about ``axis``.
    Each field declares the key of a chain-file joint row that sets it."""

    axis: np.ndarray = setting("axis", kind="triple", domain=(
        lambda v: 1e-12 <= math.hypot(*v) < math.inf, "be a nonzero vector"))
    origin_xyz: np.ndarray = setting("origin_xyz_m", kind="triple")
    origin_rpy: np.ndarray = setting("origin_rpy_rad", (0.0, 0.0, 0.0), "triple")

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        object.__setattr__(self, "axis", self.axis / np.linalg.norm(self.axis))


@dataclass(frozen=True)
class ChainModel:
    """Joint rows plus the plate transform; the fixed rotations (mounts, plate
    offset) and each joint's cross-product matrix K and its square are
    computed once here.  A ``setting`` field declares its chain-file key."""

    joints: tuple = setting("joints", kind="objects",
                            domain=(lambda rows: len(rows) > 0, "hold at least one joint"))
    plate_xyz: np.ndarray = setting("plate_offset_xyz_m", (0.0, 0.0, 0.0), "triple")
    plate_rpy: np.ndarray = setting("plate_offset_rpy_rad", (0.0, 0.0, 0.0), "triple")
    q_home: np.ndarray | None = setting("q_home_rad", None, "numbers")
    name: str = setting("name", "chain", "text")
    mounts: np.ndarray = field(init=False, repr=False, compare=False)
    plate_rot: np.ndarray = field(init=False, repr=False, compare=False)
    axis_skews: np.ndarray = field(init=False, repr=False, compare=False)
    axis_skews_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plate_xyz", np.asarray(self.plate_xyz, dtype=float))
        object.__setattr__(self, "plate_rpy", np.asarray(self.plate_rpy, dtype=float))
        object.__setattr__(self, "q_home", np.zeros(len(self.joints)) if self.q_home is None
                           else np.asarray(self.q_home, dtype=float))
        object.__setattr__(self, "mounts",
                           np.array([rpy_matrix(row.origin_rpy) for row in self.joints]))
        object.__setattr__(self, "plate_rot", rpy_matrix(self.plate_rpy))
        # cross-product matrices K, K @ v == cross(axis, v)
        x, y, z = np.array([row.axis for row in self.joints]).T
        zero = np.zeros_like(x)
        skews = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1)
        object.__setattr__(self, "axis_skews", skews.reshape(-1, 3, 3))
        object.__setattr__(self, "axis_skews_sq", self.axis_skews @ self.axis_skews)

    @property
    def n_joints(self) -> int:
        return len(self.joints)


def _frames(model: ChainModel, q):
    """FK for a batch of joint vectors ``q`` of shape (k, n).

    Returns the world origin (k, 3) and rotation (k, 3, 3) of every joint
    frame, as lists of n arrays, and the plate position (k, 3) and rotation
    (k, 3, 3).  Each joint rotation is Rodrigues' formula I + sin(q) K +
    (1 - cos(q)) K^2, K being the axis's cross-product matrix, after the
    joint's cached mount rotation.  The joint frames are the arrays the
    loop computes anyway; only the Jacobian reads them.  The chain starts
    from the plain (3, 3) identity, which the first products broadcast over
    the batch; with finite entries an identity product is exact in any
    kernel.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != model.n_joints:
        raise ConfigurationError(
            f"expected {model.n_joints} joint values, got {q.shape[-1]}")
    sin = np.sin(q)[:, :, None, None]
    vers = (1.0 - np.cos(q))[:, :, None, None]
    local = model.mounts @ (_EYE3 + sin * model.axis_skews + vers * model.axis_skews_sq)
    pos = np.zeros((q.shape[0], 3))
    rot = _EYE3
    origins, rots = [], []
    for i, row in enumerate(model.joints):
        pos = pos + rot @ row.origin_xyz
        rot = rot @ local[:, i]
        origins.append(pos)
        rots.append(rot)
    return origins, rots, pos + rot @ model.plate_xyz, rot @ model.plate_rot


def fk_transform(model: ChainModel, q):
    """Plate position (3,) and rotation matrix (3, 3) for joint vector q."""
    _, _, pos, rot = _frames(model, np.asarray(q, dtype=float)[None])
    return pos[0], rot[0]


def jacobian(model: ChainModel, q) -> np.ndarray:
    """Geometric Jacobian (6 x n): rows 0-2 linear, 3-5 angular."""
    origins, rots, plate_pos, _ = _frames(model, np.asarray(q, dtype=float)[None])
    return _jacobian_from_frames(model, origins, rots, plate_pos)


def _jacobian_from_frames(model: ChainModel, origins, rots, plate_pos) -> np.ndarray:
    """Jacobian from the joint origins, joint rotations and plate position
    that ``_frames`` returns for a batch of one pose.  A joint's axis is
    its frame rotation applied to its joint-frame axis (the joint rotation
    leaves its own axis fixed).  The linear rows are axis x (plate -
    origin), written out as ``np.cross`` computes them; the result is
    column-major, the layout the IK solve's BLAS calls round for."""
    axes = np.array([(rot @ row.axis)[0] for rot, row in zip(rots, model.joints)])
    a0, a1, a2 = axes.T
    b0, b1, b2 = (plate_pos[0] - np.array([o[0] for o in origins])).T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0,
                     a0, a1, a2], axis=1).T


def orientation_error(rot_current: np.ndarray, rot_target: np.ndarray) -> np.ndarray:
    """World-frame rotation vector taking the current frame onto the target.

    The log map of R = rot_target @ rot_current.T through its quaternion,
    built from the largest of the trace and the diagonal (Shepperd's method)
    so that no branch divides by a small number, near pi included.  With
    the sign fixed so that w >= 0 the angle 2 atan2(|v|, w) lies in [0, pi];
    below 1e-3 rad the factor angle / |v| comes from its series.
    """
    r = (rot_target @ rot_current.T).tolist()
    trace = r[0][0] + r[1][1] + r[2][2]
    i = max(range(3), key=lambda d: r[d][d])
    if trace > r[i][i]:
        v = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]]
        w = 1.0 + trace
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        v = [0.0] * 3
        v[i] = 1.0 - trace + 2.0 * r[i][i]
        v[j] = r[j][i] + r[i][j]
        v[k] = r[k][i] + r[i][k]
        w = r[k][j] - r[j][k]
    if w < 0.0:
        v, w = [-x for x in v], -w
    norm_v = math.hypot(*v)
    angle = 2.0 * math.atan2(norm_v, w)
    if angle < 1e-3:
        # angle / sin(angle / 2) for the unit quaternion, then unscaled
        scale = (2.0 + angle**2 / 12.0 + 7.0 * angle**4 / 2880.0) / math.hypot(norm_v, w)
    else:
        scale = angle / norm_v
    return np.array(v) * scale


def inverse_kinematics(model: ChainModel, target_pos, q_seed, target_rot,
                       limits: JointLimits):
    """Damped-least-squares IK on the full pose, continuous in the seed.

    Solves for the plate position ``target_pos`` and rotation ``target_rot``
    (3x3), clamping the iterate into the joint position range each step.
    Each iteration evaluates the chain once, for both the pose and the
    Jacobian.  Raises IKConvergenceError when the residual does not fall
    below ``IK_TOL`` within ``IK_MAX_ITERS`` iterations.
    """
    target_pos = np.asarray(target_pos, dtype=float)
    q = np.asarray(q_seed, dtype=float).copy()
    damping_eye = IK_DAMPING**2 * np.eye(6)
    for _ in range(IK_MAX_ITERS):
        origins, rots, plate_pos, plate_rot = _frames(model, q[None])
        err_p = target_pos - plate_pos[0]
        err_r = orientation_error(plate_rot[0], target_rot)
        if np.linalg.norm(err_p) < IK_TOL and np.linalg.norm(err_r) < IK_TOL:
            return q
        err = np.concatenate([err_p, err_r])
        jac = _jacobian_from_frames(model, origins, rots, plate_pos)
        jjt = jac @ jac.T + damping_eye
        dq = jac.T @ np.linalg.solve(jjt, err)
        biggest = np.max(np.abs(dq))
        if biggest > IK_STEP_CLAMP:
            dq *= IK_STEP_CLAMP / biggest
        q = np.clip(q + dq, limits.p_min, limits.p_max)
    raise IKConvergenceError(
        f"IK did not converge on target {np.array2string(target_pos, precision=4)} "
        f"(residual {np.linalg.norm(err):.3e})")


def plate_motion(model: ChainModel, q_series, dt: float):
    """Plate motion over joint vectors at consecutive control ticks.

    ``q_series`` (k, n) holds joint vectors spaced ``dt`` apart.  Returns
    arrays: plate positions (k, 3), rotations (k, 3, 3) and the
    finite-difference linear acceleration (k, 3) of the plate origin, in the
    world frame.  Interior samples use central differences, the two
    endpoints reuse their neighbours' one-sided stencils.
    """
    q_series = np.asarray(q_series, dtype=float)
    k = q_series.shape[0]
    if k < 3:
        raise ConfigurationError("plate_motion needs at least 3 substep samples")
    _, _, positions, rots = _frames(model, q_series)

    acc = np.empty_like(positions)
    acc[1:-1] = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / dt**2
    # an endpoint's one-sided stencil is its neighbour's central one
    acc[0], acc[-1] = acc[1], acc[-2]

    return positions, rots, acc


# ---------------------------------------------------------------------------
# chain description files

def _settings(raw: dict, classes, where: str) -> list:
    """The keyword arguments of each of ``classes`` in chain-file object
    ``raw`` (``where``): each key declared by a ``setting`` field, of its kind
    and in its domain, and each key without a default present."""
    declared = {f.metadata["key"]: f for cls in classes for f in fields(cls) if f.metadata}
    check_keys(raw, declared, where)
    missing = [key for key, f in declared.items() if f.default is MISSING and key not in raw]
    if missing:
        raise ConfigurationError(f"{where} is missing key(s): {', '.join(missing)}")
    for key, value in raw.items():
        meta = declared[key].metadata
        check_value(value, f"{where} {key}", meta["kind"])
        if meta["domain"]:
            check_domain(value, f"{where} {key}", meta["domain"])
    return [{f.name: raw[f.metadata["key"]] for f in fields(cls)
             if f.metadata and f.metadata["key"] in raw} for cls in classes]


def load_chain(path) -> tuple[ChainModel, JointLimits]:
    """Read a chain description file (JSON, schema in the README): its top
    level, then each joint row.  An unreadable file or an unknown, missing
    or bad key is a ConfigurationError naming the file, key, joint and value."""
    where = f"chain file {path}"
    [chain] = _settings(read_object(path, "chain file"), [ChainModel], where)
    rows = [_settings(row, [JointRow, JointLimits], f"{where} joint {j}")
            for j, row in enumerate(chain.pop("joints"))]
    try:
        limits = JointLimits(**{f.name: [row_limits[f.name] for _, row_limits in rows]
                                for f in fields(JointLimits)})
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where} has a bad value: {exc}") from None
    model = ChainModel(joints=tuple(JointRow(**row) for row, _ in rows), **chain)
    if model.q_home.shape != limits.p_min.shape or not np.all(
            (limits.p_min <= model.q_home) & (model.q_home <= limits.p_max)):
        raise ConfigurationError(
            f"{where} q_home_rad must hold {limits.n_joints} values within "
            f"[p_min_rad, p_max_rad], got {model.q_home.tolist()!r}")
    return model, limits


# ---------------------------------------------------------------------------
# stock chains

def gimbal_chain(height=0.5) -> tuple[ChainModel, JointLimits]:
    """Two-joint tilt unit (x then y axis) under the plate centre.

    Joint angles map directly onto plate tilt, which makes the balancing
    behaviour easy to reason about and to verify.
    """
    joints = (
        JointRow(axis=[1, 0, 0], origin_xyz=[0, 0, height], origin_rpy=[0, 0, 0]),
        JointRow(axis=[0, 1, 0], origin_xyz=[0, 0, 0], origin_rpy=[0, 0, 0]),
    )
    model = ChainModel(joints=joints, plate_xyz=[0, 0, 0.02], name="gimbal")
    limits = JointLimits(p_min=[-0.6, -0.6], p_max=[0.6, 0.6],
                         v_max=[2.0, 2.0], a_max=[20.0, 20.0], j_max=[200.0, 200.0])
    return model, limits
