"""Policies for the decision loop: random/greedy probes, reference tracking,
a scripted ball balancer and an affine policy on externally trained weights.

A policy maps a normalized observation (an array) to a normalized
acceleration command in [-1, 1] per joint via ``act(obs, rng)``, returned
as any sequence of n_joints floats; ``reset()`` restarts any internal
state.  Policies are deterministic given (observation, rng state).

The tracking law and the balancer's ball law run on Python floats: on one
episode's few values numpy's per-call cost is larger than the arithmetic.
They keep the operations and order of their numpy form, so they return the
same bits (``limits`` "Single-state kernel").  What can differ from numpy in
the last bit stays numpy: the BLAS products of ``LinearPolicy`` and of the
balancer's tilt norm and tilt-to-joint map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import GRAVITY, ROLLING_FACTOR, PlateGeometry, TaskSpec
from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, check_domain
from .kinematics import ChainModel, jacobian
from .limits import JointLimits, clamp

BALL_DRIVE = ROLLING_FACTOR * GRAVITY  # ball acceleration per radian of tilt
TILT_LIMIT = 0.25                      # largest plate tilt the balancer asks for, rad
BALANCE_MASK = (-2, -1)                # the balancer's default tilt joints
# the domain of each policy gain
GAIN_DOMAINS = {"kp": POSITIVE, "kd": POSITIVE, "ball_kp": NON_NEGATIVE, "ball_kd": NON_NEGATIVE}


def check_gains(**gains) -> None:
    """Reject policy gains outside their ``GAIN_DOMAINS``, naming the key.
    Absent gains are not checked, other keywords are ignored."""
    for key, domain in GAIN_DOMAINS.items():
        if key in gains:
            check_domain(gains[key], f"policy {key}", domain)


def balance_mask(mask, n_joints: int) -> tuple:
    """The balancer's joint indices, negative ones counted from the end;
    at least 2 distinct joints."""
    mask = tuple(int(i) % n_joints for i in mask)
    if len(set(mask)) < 2:
        raise ConfigurationError("balance mask must select at least 2 joints")
    return mask


@dataclass(frozen=True)
class ObservationLayout:
    """Slicing helper for the flat observation vector."""

    n_joints: int
    feedback_size: int
    n_future: int

    @property
    def size(self) -> int:
        return 3 * self.n_joints + self.feedback_size + self.n_future * self.n_joints

    def joint_pos(self, obs):
        return obs[:self.n_joints]

    def joint_vel(self, obs):
        return obs[self.n_joints:2 * self.n_joints]

    def feedback(self, obs):
        base = 3 * self.n_joints
        return obs[base:base + self.feedback_size]

    def ref_row(self, obs):
        """The first future reference row."""
        base = 3 * self.n_joints + self.feedback_size
        return obs[base:base + self.n_joints]


class RandomPolicy:
    """Uniform commands in [-1, 1] per joint; uses the caller's rng stream."""

    def __init__(self, n_joints: int):
        self.n_joints = n_joints

    def reset(self):
        pass

    def act(self, obs, rng) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.n_joints)


class GreedyMaxPolicy:
    """Always asks for +1; the engine clips it to the valid upper bound."""

    def __init__(self, n_joints: int):
        self.n_joints = n_joints

    def reset(self):
        pass

    def act(self, obs, rng) -> list:
        return [1.0] * self.n_joints


class TrackingPolicy:
    """PD-on-deviation tracker with estimated reference feedforward.

    Commands kp * (reference - position) + kd * (reference velocity -
    velocity) plus the reference acceleration.  The reference is this step's
    row: the first future row observed on the previous step (on the first
    step, the observed row).  Reference velocity and acceleration are finite
    differences of the observed reference rows across steps (held
    internally; ``reset`` clears them).  The gains keep the
    discrete loop comfortably inside the unit circle, so step disturbances do
    not ring against the jerk bound.

    The law runs on Python floats, one joint at a time, with the operations
    and order of its numpy form (``limits`` "Single-state kernel"), and
    returns lists.
    """

    def __init__(self, layout: ObservationLayout, limits: JointLimits,
                 dt: float, kp: float = 60.0, kd: float = 14.0):
        check_gains(kp=kp, kd=kd)
        self.layout = layout
        self.limits = limits
        self.dt = dt
        self.kp = kp
        self.kd = kd
        self._half = limits.p_half_range.tolist()
        self._mid = limits.p_mid.tolist()
        self._v_max = limits.v_max.tolist()
        self._a_max = limits.a_max.tolist()
        self._prev_ref = None
        self._prev_vref = None

    def reset(self):
        self._prev_ref = None
        self._prev_vref = None

    def tracking_accel(self, obs, shift=None) -> list:
        """The law's accelerations at observation ``obs`` (a list of floats
        is read as it is), each joint's reference moved by ``shift`` (a
        float sequence) if given."""
        lay, dt = self.layout, self.dt
        if not isinstance(obs, list):
            obs = np.asarray(obs, dtype=float).tolist()
        p = [o * h + m for o, h, m in zip(lay.joint_pos(obs), self._half, self._mid)]
        v = [o * w for o, w in zip(lay.joint_vel(obs), self._v_max)]
        p_ref = [o * h + m for o, h, m in zip(lay.ref_row(obs), self._half, self._mid)]

        target = p_ref
        v_ref = a_ff = [0.0] * lay.n_joints
        if self._prev_ref is not None:
            target = self._prev_ref
            v_ref = [(r - q) / dt for r, q in zip(p_ref, self._prev_ref)]
            if self._prev_vref is not None:
                a_ff = [(r - q) / dt for r, q in zip(v_ref, self._prev_vref)]
        self._prev_ref = p_ref
        self._prev_vref = v_ref

        if shift is not None:
            target = [x + s for x, s in zip(target, shift)]
        kp, kd = self.kp, self.kd
        return [f + kp * (x - q) + kd * (r - w)
                for f, x, q, r, w in zip(a_ff, target, p, v_ref, v)]

    def _normalized(self, accel) -> list:
        """Accelerations as normalized commands clamped into [-1, 1]."""
        return [clamp(x / m, -1.0, 1.0) for x, m in zip(accel, self._a_max)]

    def act(self, obs, rng) -> list:
        return self._normalized(self.tracking_accel(obs))


class PDBalancePolicy(TrackingPolicy):
    """Scripted ball balancer: a PD law on the ball error turns into a plate
    tilt, realized by the masked joints as an offset on their reference rows;
    every joint then runs the tracking law toward the (shifted) reference.

    With zero ball gains the offset vanishes and the policy is exactly the
    plain tracker.  The masked joints' tilt authority is taken from the
    angular part of the chain Jacobian at an anchor posture and checked at
    setup.  Ball position and velocity come from the task feedback (current
    and previous measured positions).  The ball law runs on floats too; the
    tilt's norm and its map to the joints are BLAS products and stay numpy.
    """

    def __init__(self, layout: ObservationLayout, limits: JointLimits, dt: float,
                 model: ChainModel, geometry: PlateGeometry, task: TaskSpec,
                 anchor_q, mask=BALANCE_MASK, ball_kp: float = 6.0,
                 ball_kd: float = 4.5, **gains):
        super().__init__(layout, limits, dt, **gains)
        check_gains(ball_kp=ball_kp, ball_kd=ball_kd)
        self.mask = list(balance_mask(mask, limits.n_joints))
        self.geometry = geometry
        self.task = task
        self.anchor_q = np.asarray(anchor_q, dtype=float)
        self.ball_kp = ball_kp
        self.ball_kd = ball_kd

        jac = jacobian(model, self.anchor_q)
        tilt_jac = jac[3:5][:, self.mask]           # world x/y tilt rates
        svals = np.linalg.svd(tilt_jac, compute_uv=False)
        if svals.size < 2 or svals[1] < 1e-6:
            raise ConfigurationError(
                "masked joints have no independent plate-tilt authority")
        self.tilt_to_joints = np.linalg.pinv(tilt_jac)

    def act(self, obs, rng) -> list:
        half = (self.geometry.half_x, self.geometry.half_y)
        obs = np.asarray(obs, dtype=float).tolist()
        f = self.layout.feedback(obs)
        cur = [x * h for x, h in zip(f[0:2], half)]
        prev = [x * h for x, h in zip(f[2:4], half)]
        err = [x * h for x, h in zip(f[4:6], half)] if self.task.kind == "in_place" else cur
        vel = [(c - q) / self.dt for c, q in zip(cur, prev)]

        # desired ball acceleration -> plate tilt about world x/y
        u = [-(self.ball_kp * e + self.ball_kd * w) for e, w in zip(err, vel)]
        tilt = np.array([-u[1], u[0]]) / BALL_DRIVE
        norm = math.sqrt(tilt.dot(tilt))
        if norm > TILT_LIMIT:
            tilt *= TILT_LIMIT / norm

        shift = [0.0] * self.limits.n_joints
        for j, s in zip(self.mask, (self.tilt_to_joints @ tilt).tolist()):
            shift[j] = s
        return self._normalized(self.tracking_accel(obs, shift))


class LinearPolicy:
    """Affine map from observation to action, clipped into [-1, 1]: one row
    of ``weights`` per joint, one column per observation value and a last
    column for the bias.  The weights are trained outside this package;
    ``load`` reads them as ``np.savetxt`` text."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float))

    def reset(self):
        pass

    def act(self, obs, rng) -> np.ndarray:
        x = np.concatenate([np.asarray(obs, dtype=float), [1.0]])
        return np.minimum(np.maximum(self.weights @ x, -1.0), 1.0)

    @classmethod
    def load(cls, path) -> "LinearPolicy":
        return cls(np.loadtxt(path))

