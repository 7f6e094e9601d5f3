"""Policies for the decision loop: random/greedy probes, reference tracking,
a scripted ball balancer and a small cross-entropy-method trainer.

A policy maps a normalized observation to a normalized acceleration command
in [-1, 1] per joint via ``act(obs, rng)``; ``reset()`` restarts any
internal state.  Policies are deterministic given (observation, rng state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import GRAVITY, ROLLING_FACTOR, PlateGeometry, TaskSpec
from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, check_domain
from .kinematics import ChainModel, jacobian
from .limits import JointLimits

BALL_DRIVE = ROLLING_FACTOR * GRAVITY  # ball acceleration per radian of tilt
TILT_LIMIT = 0.25                      # largest plate tilt the balancer asks for, rad
BALANCE_MASK = (-2, -1)                # the balancer's default tilt joints
CEM_MIN_STD = 1e-3                     # floor of the CEM sampling std per parameter
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

    def act(self, obs, rng) -> np.ndarray:
        return np.ones(self.n_joints)


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
    """

    def __init__(self, layout: ObservationLayout, limits: JointLimits,
                 dt: float, kp: float = 60.0, kd: float = 14.0):
        check_gains(kp=kp, kd=kd)
        self.layout = layout
        self.limits = limits
        self.dt = dt
        self.kp = kp
        self.kd = kd
        self._prev_ref = None
        self._prev_vref = None

    def reset(self):
        self._prev_ref = None
        self._prev_vref = None

    def tracking_accel(self, obs, shift=None) -> np.ndarray:
        lay, lim = self.layout, self.limits
        p = lay.joint_pos(obs) * lim.p_half_range + lim.p_mid
        v = lay.joint_vel(obs) * lim.v_max
        p_ref = lay.ref_row(obs) * lim.p_half_range + lim.p_mid

        target = p_ref
        v_ref = np.zeros_like(p_ref)
        a_ff = np.zeros_like(p_ref)
        if self._prev_ref is not None:
            target = self._prev_ref
            v_ref = (p_ref - self._prev_ref) / self.dt
            if self._prev_vref is not None:
                a_ff = (v_ref - self._prev_vref) / self.dt
        self._prev_ref = p_ref
        self._prev_vref = v_ref

        if shift is not None:
            target = target + shift
        return a_ff + self.kp * (target - p) + self.kd * (v_ref - v)

    def act(self, obs, rng) -> np.ndarray:
        return np.minimum(np.maximum(self.tracking_accel(obs) / self.limits.a_max, -1.0), 1.0)


class PDBalancePolicy(TrackingPolicy):
    """Scripted ball balancer: a PD law on the ball error turns into a plate
    tilt, realized by the masked joints as an offset on their reference rows;
    every joint then runs the tracking law toward the (shifted) reference.

    With zero ball gains the offset vanishes and the policy is exactly the
    plain tracker.  The masked joints' tilt authority is taken from the
    angular part of the chain Jacobian at an anchor posture and checked at
    setup.  Ball position and velocity come from the task feedback (current
    and previous measured positions).
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

    def act(self, obs, rng) -> np.ndarray:
        lay, lim = self.layout, self.limits
        half = self.geometry.half_extents
        f = lay.feedback(obs)
        cur = f[0:2] * half
        prev = f[2:4] * half
        err = (f[4:6] * half) if self.task.kind == "in_place" else cur
        vel = (cur - prev) / self.dt

        # desired ball acceleration -> plate tilt about world x/y
        u = -(self.ball_kp * err + self.ball_kd * vel)
        tilt = np.array([-u[1], u[0]]) / BALL_DRIVE
        norm = math.sqrt(tilt.dot(tilt))
        if norm > TILT_LIMIT:
            tilt *= TILT_LIMIT / norm

        shift = np.zeros(lim.n_joints)
        shift[self.mask] = self.tilt_to_joints @ tilt
        return np.minimum(np.maximum(self.tracking_accel(obs, shift) / lim.a_max, -1.0), 1.0)


class LinearPolicy:
    """Affine map from observation to action, clipped into [-1, 1]."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float))

    @classmethod
    def zeros(cls, n_out: int, n_in: int) -> "LinearPolicy":
        return cls(np.zeros((n_out, n_in + 1)))

    @property
    def n_params(self) -> int:
        return self.weights.size

    def with_params(self, flat) -> "LinearPolicy":
        return LinearPolicy(np.asarray(flat, dtype=float).reshape(self.weights.shape))

    def reset(self):
        pass

    def act(self, obs, rng) -> np.ndarray:
        x = np.concatenate([np.asarray(obs, dtype=float), [1.0]])
        return np.minimum(np.maximum(self.weights @ x, -1.0), 1.0)

    def save(self, path) -> None:
        np.savetxt(path, self.weights,
                   header=f"linear policy {self.weights.shape[0]} x {self.weights.shape[1]}")

    @classmethod
    def load(cls, path) -> "LinearPolicy":
        return cls(np.loadtxt(path))


def cem_optimize(objective, dim: int, generations: int, population: int = 32,
                 elite_frac: float = 0.25, seed: int = 0, init_std: float = 0.5):
    """Cross-entropy method over a flat parameter vector.

    ``objective(params) -> float`` is maximized, starting from a zero mean.
    Returns (best_params, history); history holds each generation's mean
    return and the best return so far.
    An elite fraction of 1.0 selects everything, which leaves the sampling
    distribution unchanged (degenerate but well defined).
    """
    if generations < 1:
        raise ConfigurationError("need at least one generation")
    rng = np.random.default_rng(seed)
    mean = np.zeros(dim)
    std = np.full(dim, init_std)
    n_elite = max(1, int(round(population * elite_frac)))

    best_params = mean.copy()
    best_return = -np.inf
    history = []
    for _ in range(generations):
        samples = mean[None, :] + std[None, :] * rng.standard_normal((population, dim))
        returns = np.array([objective(s) for s in samples])
        order = np.argsort(returns)[::-1]
        elite = samples[order[:n_elite]]
        if returns[order[0]] > best_return:
            best_return = float(returns[order[0]])
            best_params = samples[order[0]].copy()
        if n_elite < population:
            mean = elite.mean(axis=0)
            std = np.maximum(elite.std(axis=0), CEM_MIN_STD)
        history.append({"mean_return": float(returns.mean()), "best_return": best_return})
    return best_params, history


def cem_train(episode_return, template: LinearPolicy, generations: int,
              seed: int = 0, population: int = 32, elite_frac: float = 0.25,
              init_std: float = 0.5):
    """Train a linear policy with CEM against ``episode_return(policy) -> float``.

    Returns (trained policy, history).  Deterministic under the seed as long
    as the return evaluation is.
    """
    def objective(flat):
        return episode_return(template.with_params(flat))

    best, history = cem_optimize(objective, template.n_params, generations,
                                 population=population, elite_frac=elite_frac,
                                 seed=seed, init_std=init_std)
    return template.with_params(best), history
