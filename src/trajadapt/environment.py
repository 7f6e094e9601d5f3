"""Planar ball-on-plate physics, task rewards, sensing and episode metrics.

The ball is a solid sphere rolling without slip, reduced to a point model in
the plate frame: driving acceleration is 5/7 of the tangential specific
force (gravity plus the pseudo-force from plate-origin acceleration), with
Coulomb-style rolling resistance.  Integration is semi-implicit Euler at
the control substep.

The rotating-frame terms of plate angular velocity are neglected, so no
angular velocity is computed.  Over 10 episodes of the README balancing
baseline (``configs/balance_demo.json``, seed 2024, 20 000 ticks, ball
within 2.0 cm of the centre) the plate turned at |w| <= 0.082 rad/s (p99
0.066) with |dw/dt| <= 0.97 rad/s^2 within a decision step (1.23 across
step boundaries).  That bounds the centrifugal term by 1.3e-4 m/s^2,
Coriolis by 3.5e-3 m/s^2 and Euler by 0.019 m/s^2 (0.025 across
boundaries), about 1 % of the 1.73 m/s^2 drive at the balancer's 0.25 rad
tilt limit.

Plate poses reach the ball model as arrays, one row per control tick: the
rollout evaluates ``kinematics.plate_motion`` once per decision step on the
substep joint profile and hands its rotation matrices (k, 3, 3) and
finite-difference origin accelerations (k, 3) to ``BallPlateEnv.step``,
which passes them on to ``step_ball``.

The sensor reads the ball position at reset and after every decision step,
with Gaussian noise of ``TaskSpec.noise_std`` metres.  The environment keeps
the last reading, so a feedback vector's previous position is the current
one of the vector before it (right after reset, the same reading twice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

GRAVITY = 9.81
ROLLING_FACTOR = 5.0 / 7.0
G_WORLD = np.array([0.0, 0.0, -GRAVITY])


@dataclass(frozen=True)
class PlateGeometry:
    half_x: float = 0.17
    half_y: float = 0.135

    def __post_init__(self):
        if self.half_x <= 0 or self.half_y <= 0:
            raise ConfigurationError("plate half-extents must be positive")

    @property
    def half_extents(self) -> np.ndarray:
        return np.array([self.half_x, self.half_y])


@dataclass(frozen=True)
class BallParams:
    """Ball characteristics plus the ranges used for randomization."""

    radius: float = 0.02
    rolling_friction: float = 0.005
    radius_range: tuple = (0.012, 0.030)
    friction_range: tuple = (0.001, 0.010)

    def __post_init__(self):
        if self.radius <= 0 or self.rolling_friction < 0:
            raise ConfigurationError("ball parameters must be positive")
        for name in ("radius_range", "friction_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigurationError(f"{name} must satisfy lo <= hi")


def randomize_ball(params: BallParams, rng: np.random.Generator) -> BallParams:
    """Uniform draw of radius/friction within the configured ranges."""
    return replace(
        params,
        radius=float(rng.uniform(*params.radius_range)),
        rolling_friction=float(rng.uniform(*params.friction_range)),
    )


@dataclass
class BallState:
    position: np.ndarray           # (2,) in the plate frame, m
    velocity: np.ndarray           # (2,) in the plate frame, m/s
    on_plate: bool = True

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


@dataclass(frozen=True)
class TaskSpec:
    """Balancing task: keep the ball anywhere on the plate, or near a point.

    For ``in_place`` the target is ``initial_position`` and success requires
    the distance to it to stay below ``success_bound``.
    """

    kind: str = "in_place"
    initial_position: tuple = (0.0, 0.0)
    success_bound: float = 0.06
    noise_std: float = 0.001
    reward_exponent: float = 2.0

    def __post_init__(self):
        if self.kind not in ("on_plate", "in_place"):
            raise ConfigurationError("task kind must be 'on_plate' or 'in_place'")
        if self.success_bound <= 0:
            raise ConfigurationError("success bound must be positive")
        if self.noise_std < 0:
            raise ConfigurationError("noise std must be >= 0")

    @property
    def target(self) -> np.ndarray:
        return np.asarray(self.initial_position, dtype=float)

    @property
    def feedback_size(self) -> int:
        return 6 if self.kind == "in_place" else 4


def plate_drive(rotations, lin_acc) -> np.ndarray:
    """Plate-frame driving accelerations (k, 2), one row per plate tick.

    ``rotations`` (k, 3, 3) are the plate frame's world rotation matrices,
    ``lin_acc`` (k, 3) the world-frame accelerations of the plate origin.
    Row i is 5/7 of the tangential part of ``rotations[i].T @ (g - lin_acc[i])``.
    """
    return ROLLING_FACTOR * ((G_WORLD - lin_acc)[:, None, :] @ rotations)[:, 0, :2]


def ball_acceleration(drive: np.ndarray, velocity: np.ndarray,
                      params: BallParams) -> np.ndarray:
    """Plate-frame ball acceleration for one tick: the tick's ``plate_drive``
    row less rolling resistance against the velocity (2,)."""
    # sqrt of the dot product is bit for bit np.linalg.norm; math.hypot or
    # x*x + y*y round differently on some vectors
    speed = math.sqrt(velocity.dot(velocity))
    resist = params.rolling_friction * GRAVITY
    if speed < 1e-12:
        # static: rolling resistance holds the ball if it can
        if math.sqrt(drive.dot(drive)) <= resist:
            return np.zeros(2)
        return drive
    return drive - resist * velocity / speed


def effective_bounds(geometry: PlateGeometry, params: BallParams) -> np.ndarray:
    """Centre-of-ball bounds; the ball leaves when its edge passes the rim."""
    return geometry.half_extents - params.radius


def step_ball(state: BallState, rotations, lin_acc, params: BallParams, dt: float,
              geometry: PlateGeometry) -> BallState:
    """Advance the ball through plate ticks spaced ``dt`` apart.

    ``rotations`` (k, 3, 3) are the plate's world rotation matrices and
    ``lin_acc`` (k, 3) the world-frame accelerations of its origin, one row
    per tick.  One ``plate_drive`` call gives every tick's drive; only the
    rolling resistance, which depends on the velocity, runs per tick.  Stops
    integrating once the ball leaves the plate (that is a state, not an
    error).  Semi-implicit: velocity first, then position.  Returns a new
    state; ``state`` is not modified.
    """
    if len(rotations) != len(lin_acc):
        raise ValueError(f"{len(rotations)} plate rotations but "
                         f"{len(lin_acc)} origin accelerations")
    position, velocity, on_plate = state.position, state.velocity, state.on_plate
    bound_x, bound_y = effective_bounds(geometry, params)
    stop_speed = params.rolling_friction * GRAVITY * dt
    for drive in plate_drive(rotations, lin_acc):
        if not on_plate:
            break
        new_v = velocity + ball_acceleration(drive, velocity, params) * dt
        # Coulomb resistance must not reverse the velocity within a substep
        if new_v.dot(velocity) < 0 and math.sqrt(velocity.dot(velocity)) < stop_speed:
            new_v = np.zeros(2)
        velocity = new_v
        position = position + velocity * dt
        x, y = position
        on_plate = not (abs(x) > bound_x or abs(y) > bound_y)
    return BallState(position, velocity, on_plate)


def task_reward(state: BallState, spec: TaskSpec, geometry: PlateGeometry,
                params: BallParams) -> float:
    """Task reward in [0, 1]: 1 at the target, decaying to 0 at the boundary.

    on_plate: decay with the max-normalized distance to the bounds where
    the ball's edge passes the rim; in_place: decay with distance to the
    target, reaching 0 at the success bound.  Off the plate the reward is 0.
    The decay exponent is configurable (2 = quadratic).
    """
    if not state.on_plate:
        return 0.0
    k = spec.reward_exponent
    if spec.kind == "on_plate":
        frac = float(np.max(np.abs(state.position) / effective_bounds(geometry, params)))
    else:
        d = float(np.linalg.norm(state.position - spec.target))
        frac = d / spec.success_bound
    return float(np.clip(1.0 - min(frac, 1.0) ** k, 0.0, 1.0))


def sensor_feedback(measured, previous, spec: TaskSpec,
                    geometry: PlateGeometry) -> np.ndarray:
    """Normalized task feedback from the current and previous readings.

    Both positions normalized by the plate half-extents; for in_place
    additionally the 2-d offset of the current reading from the target.
    Everything is clamped to [-1, 1].
    """
    half = geometry.half_extents
    parts = [measured / half, previous / half]
    if spec.kind == "in_place":
        parts.append((measured - spec.target) / half)
    return np.clip(np.concatenate(parts), -1.0, 1.0)


# ---------------------------------------------------------------------------
# episode report

@dataclass
class EpisodeReport:
    """One episode's metrics row.  Every field holds a plain Python bool,
    int, float or None, so ``dataclasses.asdict`` gives the JSON row."""

    success: bool
    fraction: float
    error_distance_m: float | None  # mean 2-d distance to the target (in_place)
    mean_norm_accel: float          # mean over joints and steps of |a|/a_max
    mean_norm_jerk: float           # mean over joints and steps of |j|/j_max
    steps_executed: int
    total_steps: int
    terminated: bool = False
    ball_lost: bool = False
    mean_reward: float = 0.0


def episode_metrics(log, total_steps: int, limits, spec: TaskSpec | None,
                    terminated: bool, ball_lost: bool) -> EpisodeReport:
    """Aggregate an episode's step log (``adaptation.StepLog``) into the
    summary metrics.

    success: the episode ran to the end of the reference with the ball inside
    its task bound throughout; fraction: executed decision steps over the
    reference's total.  The ball columns are read only with a ``spec``.  A
    log without rows gives zero means and no success.  The error distance is
    None unless an ``in_place`` spec measured it on at least one row.
    """
    executed = len(log)
    fraction = executed / max(total_steps, 1)

    mean_a = mean_j = mean_r = 0.0
    err = None
    in_bound = True
    if executed:
        mean_a = float(np.mean(np.abs(log.a) / limits.a_max))
        mean_j = float(np.mean(np.abs(log.jerk) / limits.j_max))
        mean_r = float(np.mean(log.reward))
        if spec is not None:
            on_plate = bool(np.all(log.ball_on_plate == 1.0))
            if spec.kind == "in_place":
                offsets = np.column_stack((log.ball_x_m, log.ball_y_m)) - spec.target
                dists = np.linalg.norm(offsets, axis=1)
                err = float(np.mean(dists))
                in_bound = bool(np.all(dists <= spec.success_bound)) and on_plate
            else:
                in_bound = on_plate

    success = in_bound and not terminated and not ball_lost and executed >= total_steps
    return EpisodeReport(success=success, fraction=min(fraction, 1.0),
                         error_distance_m=err, mean_norm_accel=mean_a,
                         mean_norm_jerk=mean_j, steps_executed=executed,
                         total_steps=total_steps, terminated=terminated,
                         ball_lost=ball_lost, mean_reward=mean_r)


# ---------------------------------------------------------------------------
# environment wrapper used by the rollout engine

class BallPlateEnv:
    """Single-owner mutable environment: ball state + sensing for one episode."""

    def __init__(self, model, geometry: PlateGeometry, task: TaskSpec,
                 ball: BallParams, control_dt: float, randomize: bool,
                 start_offset=(0.0, 0.0)):
        self.model = model
        self.geometry = geometry
        self.task = task
        self.base_ball = ball
        self.control_dt = control_dt
        self.randomize = randomize
        self.start_offset = np.asarray(start_offset, dtype=float)
        self.ball = ball
        self.state = None
        self.measured = None
        self.rng = np.random.default_rng(0)

    def reset(self, seed) -> np.ndarray:
        self.rng = np.random.default_rng(seed)
        self.ball = randomize_ball(self.base_ball, self.rng) if self.randomize \
            else self.base_ball
        start = self.task.target + self.start_offset
        bounds = effective_bounds(self.geometry, self.ball)
        if np.any(np.abs(start) > bounds):
            raise ConfigurationError("initial ball position is off the plate")
        self.state = BallState(position=start, velocity=np.zeros(2))
        self.measured = None
        return self._sense()

    def _sense(self) -> np.ndarray:
        """Read the ball position; feedback from this and the last reading."""
        measured = self.state.position
        if self.task.noise_std > 0:
            measured = measured + self.rng.normal(0.0, self.task.noise_std, 2)
        previous = measured if self.measured is None else self.measured
        self.measured = measured
        return sensor_feedback(measured, previous, self.task, self.geometry)

    def step(self, rotations, lin_acc):
        """Advance through one decision step's plate ticks (rotations
        (k, 3, 3), origin accelerations (k, 3)); returns (ball state, task
        reward, feedback vector)."""
        if self.state is None:
            raise ConfigurationError("environment used before reset")
        self.state = step_ball(self.state, rotations, lin_acc, self.ball,
                               self.control_dt, self.geometry)
        reward = task_reward(self.state, self.task, self.geometry, self.ball)
        return self.state, reward, self._sense()
