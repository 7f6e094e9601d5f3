"""Planar ball-on-plate physics, task rewards, sensing and episode metrics.

The ball is a solid sphere rolling without slip, reduced to a point model in
the plate frame: driving acceleration is 5/7 of the tangential specific
force (gravity plus the pseudo-force from plate-origin acceleration), with
Coulomb-style rolling resistance.  Plate rotation rates stay small for
balancing, so Coriolis/Euler terms from plate angular velocity are
neglected.  Integration is semi-implicit Euler at the control substep.

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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

GRAVITY = 9.81
ROLLING_FACTOR = 5.0 / 7.0


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


def randomize_ball(params: BallParams, rng) -> BallParams:
    """Uniform draw of radius/friction within the configured ranges."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
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


def ball_acceleration(rotation: np.ndarray, plate_lin_acc, velocity,
                      params: BallParams) -> np.ndarray:
    """Plate-frame ball acceleration for one substep.

    ``rotation`` is the plate frame's world rotation matrix; ``plate_lin_acc``
    the world-frame acceleration of the plate origin.
    """
    g_world = np.array([0.0, 0.0, -GRAVITY])
    specific_force = rotation.T @ (g_world - np.asarray(plate_lin_acc, dtype=float))
    drive = ROLLING_FACTOR * specific_force[:2]

    velocity = np.asarray(velocity, dtype=float)
    speed = np.linalg.norm(velocity)
    resist = params.rolling_friction * GRAVITY
    if speed < 1e-12:
        # static: rolling resistance holds the ball if it can
        if np.linalg.norm(drive) <= resist:
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
    per tick.  Stops integrating once the ball leaves the plate (that is a
    state, not an error).  Semi-implicit: velocity first, then position.
    Returns a new state; ``state`` is not modified.
    """
    position, velocity, on_plate = state.position, state.velocity, state.on_plate
    bounds = effective_bounds(geometry, params)
    for rotation, acc_plate in zip(rotations, lin_acc, strict=True):
        if not on_plate:
            break
        acc = ball_acceleration(rotation, acc_plate, velocity, params)
        # Coulomb resistance must not reverse the velocity within a substep
        new_v = velocity + acc * dt
        if params.rolling_friction > 0 and np.dot(new_v, velocity) < 0 \
                and np.linalg.norm(velocity) < params.rolling_friction * GRAVITY * dt:
            new_v = np.zeros(2)
        velocity = new_v
        position = position + velocity * dt
        on_plate = not np.any(np.abs(position) > bounds)
    return BallState(position, velocity, on_plate)


def task_reward(state: BallState, spec: TaskSpec, geometry: PlateGeometry,
                params: BallParams | None = None) -> float:
    """Task reward in [0, 1]: 1 at the target, decaying to 0 at the boundary.

    on_plate: decay with the max-normalized distance to the plate rim;
    in_place: decay with distance to the target, reaching 0 at the success
    bound.  Off the plate the reward is 0.  The decay exponent is
    configurable (2 = quadratic).
    """
    if not state.on_plate:
        return 0.0
    k = spec.reward_exponent
    if spec.kind == "on_plate":
        half = geometry.half_extents if params is None else effective_bounds(geometry, params)
        frac = float(np.max(np.abs(state.position) / half))
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
    success: bool
    fraction: float
    error_distance: float          # mean 2-d distance to the target (in_place)
    mean_norm_accel: float         # mean over joints and steps of |a|/a_max
    mean_norm_jerk: float          # mean over joints and steps of |j|/j_max
    steps_executed: int
    total_steps: int
    terminated: bool = False
    ball_lost: bool = False
    mean_reward: float = 0.0

    def row(self) -> dict:
        return {
            "success": bool(self.success),
            "fraction": float(self.fraction),
            "error_distance_m": float(self.error_distance),
            "mean_norm_accel": float(self.mean_norm_accel),
            "mean_norm_jerk": float(self.mean_norm_jerk),
            "steps_executed": int(self.steps_executed),
            "total_steps": int(self.total_steps),
            "terminated": bool(self.terminated),
            "ball_lost": bool(self.ball_lost),
            "mean_reward": float(self.mean_reward),
        }


def episode_metrics(log, total_steps: int, limits, spec: TaskSpec | None,
                    dt: float, terminated: bool = False,
                    ball_lost: bool = False) -> EpisodeReport:
    """Aggregate an episode's step log (``adaptation.StepLog``) into the
    summary metrics.

    success: the episode ran to the end of the reference with the ball inside
    its task bound throughout; fraction: executed decision steps over the
    reference's total.  The ball columns are read only with a ``spec``.  A
    log without rows gives zero means and no success.
    """
    executed = len(log)
    fraction = executed / max(total_steps, 1)

    mean_a = mean_j = mean_r = err = 0.0
    in_bound = True
    if executed:
        mean_a = float(np.mean(np.abs(log.accel) / limits.a_max))
        mean_j = float(np.mean(np.abs(log.jerk) / limits.j_max))
        mean_r = float(np.mean(log.reward))
        if spec is not None:
            on_plate = bool(np.all(log.on_plate == 1.0))
            if spec.kind == "in_place":
                offsets = np.column_stack((log.ball_x, log.ball_y)) - spec.target
                dists = np.linalg.norm(offsets, axis=1)
                err = float(np.mean(dists))
                in_bound = bool(np.all(dists <= spec.success_bound)) and on_plate
            else:
                in_bound = on_plate

    success = in_bound and not terminated and not ball_lost and executed >= total_steps
    return EpisodeReport(success=success, fraction=min(fraction, 1.0),
                         error_distance=err, mean_norm_accel=mean_a,
                         mean_norm_jerk=mean_j, steps_executed=executed,
                         total_steps=total_steps, terminated=terminated,
                         ball_lost=ball_lost, mean_reward=mean_r)


# ---------------------------------------------------------------------------
# environment wrapper used by the rollout engine

class BallPlateEnv:
    """Single-owner mutable environment: ball state + sensing for one episode."""

    def __init__(self, model, geometry: PlateGeometry, task: TaskSpec,
                 ball: BallParams, control_dt: float, randomize: bool = False,
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
