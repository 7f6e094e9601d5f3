"""Serial-chain forward/inverse kinematics and plate motion.

The chain is a list of revolute joints, each with a fixed transform (xyz
offset + rpy rotation) from the previous joint frame followed by a rotation
about a fixed axis by the joint variable.  A fixed plate transform is
appended after the last joint; the resulting frame is the plate frame used
by the ball environment (z is the plate normal).

Rotation conventions: rpy is applied as Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import ConfigurationError, IKConvergenceError
from .limits import JointLimits


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
    """One revolute joint: fixed mount transform, then rotation about ``axis``."""

    axis: np.ndarray
    origin_xyz: np.ndarray
    origin_rpy: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not np.isfinite(norm) or norm < 1e-12:
            raise ConfigurationError("joint axis must be a nonzero finite vector")
        object.__setattr__(self, "axis", axis / norm)
        object.__setattr__(self, "origin_xyz", np.asarray(self.origin_xyz, dtype=float))
        object.__setattr__(self, "origin_rpy", np.asarray(self.origin_rpy, dtype=float))
        if not (np.all(np.isfinite(self.origin_xyz)) and np.all(np.isfinite(self.origin_rpy))):
            raise ConfigurationError("joint origin parameters must be finite")


@dataclass(frozen=True)
class ChainModel:
    """Joint rows plus the plate transform; the fixed rotations (mounts, plate
    offset) and each joint's cross-product matrices are computed once here."""

    joints: tuple
    plate_xyz: np.ndarray = field(default_factory=lambda: np.zeros(3))
    plate_rpy: np.ndarray = field(default_factory=lambda: np.zeros(3))
    q_home: np.ndarray | None = None
    name: str = "chain"
    mounts: np.ndarray = field(init=False, repr=False, compare=False)
    plate_rot: np.ndarray = field(init=False, repr=False, compare=False)
    axis_skews: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.joints) < 1:
            raise ConfigurationError("chain needs at least one joint")
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "plate_xyz", np.asarray(self.plate_xyz, dtype=float))
        object.__setattr__(self, "plate_rpy", np.asarray(self.plate_rpy, dtype=float))
        if self.q_home is None:
            object.__setattr__(self, "q_home", np.zeros(len(self.joints)))
        else:
            object.__setattr__(self, "q_home", np.asarray(self.q_home, dtype=float))
        object.__setattr__(self, "mounts",
                           np.array([rpy_matrix(row.origin_rpy) for row in self.joints]))
        object.__setattr__(self, "plate_rot", rpy_matrix(self.plate_rpy))
        # cross-product matrices K, K @ v == cross(axis, v)
        x, y, z = np.array([row.axis for row in self.joints]).T
        zero = np.zeros_like(x)
        skews = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1)
        object.__setattr__(self, "axis_skews", skews.reshape(-1, 3, 3))

    @property
    def n_joints(self) -> int:
        return len(self.joints)


def _frames(model: ChainModel, q):
    """FK for a batch of joint vectors ``q`` of shape (k, n).

    Returns the world origin (k, n, 3) and axis (k, n, 3) of every joint and
    the plate position (k, 3) and rotation (k, 3, 3).  Each joint rotation
    is Rodrigues' formula I + sin(q) K + (1 - cos(q)) K^2, K being the
    axis's cross-product matrix, after the joint's cached mount rotation.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != model.n_joints:
        raise ConfigurationError(
            f"expected {model.n_joints} joint values, got {q.shape[-1]}")
    sin = np.sin(q)[:, :, None, None]
    vers = (1.0 - np.cos(q))[:, :, None, None]
    skews = model.axis_skews
    local = model.mounts @ (np.eye(3) + sin * skews + vers * (skews @ skews))
    k = q.shape[0]
    pos = np.zeros((k, 3))
    rot = np.broadcast_to(np.eye(3), (k, 3, 3))
    origins = np.empty((k, model.n_joints, 3))
    axes = np.empty((k, model.n_joints, 3))
    for i, row in enumerate(model.joints):
        pos = pos + rot @ row.origin_xyz
        rot = rot @ local[:, i]
        origins[:, i] = pos
        # the joint rotation leaves its own axis fixed
        axes[:, i] = rot @ row.axis
    return origins, axes, pos + rot @ model.plate_xyz, rot @ model.plate_rot


def fk_transform(model: ChainModel, q):
    """Plate position (3,) and rotation matrix (3, 3) for joint vector q."""
    _, _, pos, rot = _frames(model, np.asarray(q, dtype=float)[None])
    return pos[0], rot[0]


def jacobian(model: ChainModel, q) -> np.ndarray:
    """Geometric Jacobian (6 x n): rows 0-2 linear, 3-5 angular."""
    origins, axes, plate_pos, _ = _frames(model, np.asarray(q, dtype=float)[None])
    jv = np.cross(axes[0], plate_pos[0] - origins[0])
    return np.concatenate([jv.T, axes[0].T], axis=0)


def orientation_error(rot_current: np.ndarray, rot_target: np.ndarray) -> np.ndarray:
    """World-frame rotation vector taking the current frame onto the target."""
    return Rotation.from_matrix(rot_target @ rot_current.T).as_rotvec()


def _rotation_log(rot: np.ndarray) -> np.ndarray:
    """Rotation vectors (k, 3) of rotation matrices (k, 3, 3) turning by
    less than pi.

    The angle is atan2 of the skew and trace parts, which keeps full
    relative precision for small angles; the axis comes from the skew part,
    so it loses precision as the angle approaches pi.
    """
    skew = 0.5 * np.stack([rot[:, 2, 1] - rot[:, 1, 2],
                           rot[:, 0, 2] - rot[:, 2, 0],
                           rot[:, 1, 0] - rot[:, 0, 1]], axis=1)
    sin = np.linalg.norm(skew, axis=1)
    angle = np.arctan2(sin, 0.5 * (np.trace(rot, axis1=1, axis2=2) - 1.0))
    scale = np.divide(angle, sin, out=np.ones_like(sin), where=sin > 0.0)
    return skew * scale[:, None]


def inverse_kinematics(model: ChainModel, target_pos, q_seed, target_rot=None,
                       pos_tol=1e-6, rot_tol=1e-6, max_iters=200,
                       damping=1e-3, step_clamp=0.2, limits: JointLimits | None = None):
    """Damped-least-squares IK, continuous in the seed.

    With ``target_rot`` (3x3) the full pose is solved, otherwise position
    only.  With ``limits`` the iterate is clamped into the joint position
    range each step.  Raises IKConvergenceError when the residual does not
    fall below tolerance within ``max_iters``.
    """
    target_pos = np.asarray(target_pos, dtype=float)
    q = np.asarray(q_seed, dtype=float).copy()
    rows = 3 if target_rot is None else 6
    for _ in range(max_iters):
        pos, rot = fk_transform(model, q)
        err_p = target_pos - pos
        if target_rot is None:
            err = err_p
            converged = np.linalg.norm(err_p) < pos_tol
        else:
            err_r = orientation_error(rot, target_rot)
            err = np.concatenate([err_p, err_r])
            converged = (np.linalg.norm(err_p) < pos_tol
                         and np.linalg.norm(err_r) < rot_tol)
        if converged:
            return q
        jac = jacobian(model, q)[:rows]
        jjt = jac @ jac.T + damping**2 * np.eye(rows)
        dq = jac.T @ np.linalg.solve(jjt, err)
        biggest = np.max(np.abs(dq))
        if biggest > step_clamp:
            dq *= step_clamp / biggest
        q = q + dq
        if limits is not None:
            q = np.clip(q, limits.p_min, limits.p_max)
    raise IKConvergenceError(
        f"IK did not converge on target {np.array2string(target_pos, precision=4)} "
        f"(residual {np.linalg.norm(err):.3e})")


def plate_motion(model: ChainModel, q_series, dt: float):
    """Plate motion over joint vectors at consecutive control ticks.

    ``q_series`` (k, n) holds joint vectors spaced ``dt`` apart.  Returns
    arrays: plate positions (k, 3), rotations (k, 3, 3), finite-difference
    linear acceleration (k, 3) and angular velocity (k, 3), both in the
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
    acc[0] = (positions[2] - 2.0 * positions[1] + positions[0]) / dt**2
    acc[-1] = (positions[-1] - 2.0 * positions[-2] + positions[-3]) / dt**2

    ticks = np.arange(k)
    before = np.clip(ticks - 1, 0, k - 2)
    after = np.clip(ticks + 1, 1, k - 1)
    rel = rots[after] @ rots[before].transpose(0, 2, 1)
    omega = _rotation_log(rel) / ((after - before) * dt)[:, None]
    return positions, rots, acc, omega


# ---------------------------------------------------------------------------
# chain description files

def load_chain(path) -> tuple[ChainModel, JointLimits]:
    """Read a chain description file (JSON, schema in the README)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return chain_from_dict(raw)


def chain_from_dict(raw: dict) -> tuple[ChainModel, JointLimits]:
    try:
        joint_rows = raw["joints"]
        joints = tuple(
            JointRow(axis=j["axis"], origin_xyz=j["origin_xyz_m"],
                     origin_rpy=j.get("origin_rpy_rad", [0.0, 0.0, 0.0]))
            for j in joint_rows
        )
        model = ChainModel(
            joints=joints,
            plate_xyz=raw.get("plate_offset_xyz_m", [0.0, 0.0, 0.0]),
            plate_rpy=raw.get("plate_offset_rpy_rad", [0.0, 0.0, 0.0]),
            q_home=raw.get("q_home_rad"),
            name=raw.get("name", "chain"),
        )
        limits = JointLimits(
            p_min=[j["p_min_rad"] for j in joint_rows],
            p_max=[j["p_max_rad"] for j in joint_rows],
            v_max=[j["v_max_rad_per_s"] for j in joint_rows],
            a_max=[j["a_max_rad_per_s2"] for j in joint_rows],
            j_max=[j["j_max_rad_per_s3"] for j in joint_rows],
        )
    except KeyError as exc:
        raise ConfigurationError(f"chain description is missing field {exc}") from exc
    return model, limits


# ---------------------------------------------------------------------------
# stock chains

def planar_chain(lengths, v_max=2.0, a_max=10.0, j_max=100.0) -> tuple[ChainModel, JointLimits]:
    """n-link planar arm in the x-y plane (all joints about z); for tests."""
    joints = []
    offset = [0.0, 0.0, 0.0]
    for length in lengths:
        joints.append(JointRow(axis=[0, 0, 1], origin_xyz=offset, origin_rpy=[0, 0, 0]))
        offset = [float(length), 0.0, 0.0]
    model = ChainModel(joints=tuple(joints), plate_xyz=offset, name="planar")
    n = len(lengths)
    limits = JointLimits(p_min=[-np.pi] * n, p_max=[np.pi] * n,
                         v_max=[v_max] * n, a_max=[a_max] * n, j_max=[j_max] * n)
    return model, limits


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


def seven_dof_chain() -> tuple[ChainModel, JointLimits]:
    """7-joint arm with alternating z/y axes and link offsets in the 0.1-0.4 m
    range, in the style of common collaborative arms."""
    rows = [
        ([0, 0, 1], [0.0, 0.0, 0.340]),
        ([0, 1, 0], [0.0, 0.0, 0.0]),
        ([0, 0, 1], [0.0, 0.0, 0.400]),
        ([0, -1, 0], [0.0, 0.0, 0.0]),
        ([0, 0, 1], [0.0, 0.0, 0.400]),
        ([0, 1, 0], [0.0, 0.0, 0.0]),
        ([0, 0, 1], [0.0, 0.0, 0.126]),
    ]
    joints = tuple(JointRow(axis=a, origin_xyz=o, origin_rpy=[0, 0, 0]) for a, o in rows)
    q_home = [0.0, 1.1, 0.0, 1.6, 0.0, 0.5, 0.0]
    model = ChainModel(joints=joints, plate_xyz=[0, 0, 0.05], q_home=q_home,
                       name="arm7")
    deg = np.pi / 180.0
    limits = JointLimits(
        p_min=-np.array([170, 120, 170, 120, 170, 120, 175]) * deg,
        p_max=np.array([170, 120, 170, 120, 170, 120, 175]) * deg,
        v_max=[1.71, 1.71, 1.75, 2.27, 2.44, 3.14, 3.14],
        a_max=[10.0, 10.0, 10.0, 10.0, 12.0, 15.0, 15.0],
        j_max=[100.0, 100.0, 100.0, 100.0, 120.0, 150.0, 150.0],
    )
    return model, limits
