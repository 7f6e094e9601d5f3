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

The plate poses are arrays.  ``BallPlateEnv`` keeps the ball's plate-frame
``position`` and ``velocity`` as (2,) arrays.  Once per decision step the
rollout evaluates ``kinematics.plate_motion`` on the substep joint profile
and hands its rotation matrices (k, 3, 3), finite-difference origin
accelerations (k, 3) and the control period to ``BallPlateEnv.step``, which
passes them with the ball arrays to ``step_ball``, gets back new arrays and
whether the ball is still on the plate, and returns the position as a list
[x, y] with the reward and the feedback.  How an episode ended is read
afterwards from its log (``episode_metrics``).

On (2,) arrays numpy's per-call cost is larger than the arithmetic, so the
ball, the reward and the sensing run on Python floats, with numpy's
operations in numpy's order (``limits`` "Single-state kernel").
``step_ball`` takes every tick's drive from one batched ``plate_drive``
call (a BLAS product) and runs its tick loop on floats.  Every dot product
of two 2-vectors stays numpy's, on reused (2,) scratch arrays: the ball's
speed, the drive's magnitude for a ball at rest, the velocity reversal test
and the ``in_place`` reward's distance to the target (``planar_norm``).
The speed and the distance are what ``np.linalg.norm`` computes, and the
BLAS dot may fuse a multiply-add (the OpenBLAS 0.3.31 bundled with numpy
2.4 returns fma(y, y, x*x) on an AVX2 x86-64 CPU), so ``math.hypot`` or
x*x + y*y differ from it in the last bit on some vectors, and every later
tick with them.

``BallPlateEnv(model, geometry, task, ball)`` is built from the ``plate``,
``task`` and ``ball`` config sections alone: each reset puts the ball at
rest at ``TaskSpec.start`` (the target plus ``start_offset``) and draws its
radius and friction when ``BallParams.randomize`` is set.  ``check_start``
rejects a start off the plate for the largest ball a reset can draw;
``config.load_config`` runs it for every command and ``BallPlateEnv`` again
for callers that build one directly.

The sensor reads the ball position at reset and after every decision step,
with Gaussian noise of ``TaskSpec.noise_std`` metres.  The environment keeps
the last reading, so a feedback vector's previous position is the current
one of the vector before it (right after reset, the same reading twice).
The feedback is a list of floats, each part divided by its plate
half-extent and clamped with numpy's tie rule (``limits.clamp``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, POSITIVE_RANGE, ConfigurationError, check_fields,
                     setting)
from .limits import clamp

GRAVITY = 9.81
ROLLING_FACTOR = 5.0 / 7.0
G_WORLD = np.array([0.0, 0.0, -GRAVITY])


@dataclass(frozen=True)
class PlateGeometry:
    half_x: float = setting("half_x_m", 0.17, domain=POSITIVE)
    half_y: float = setting("half_y_m", 0.135, domain=POSITIVE)

    def __post_init__(self):
        check_fields(self, "plate")


@dataclass(frozen=True)
class BallParams:
    """Ball characteristics plus the ranges a reset draws them from when
    ``randomize`` is set."""

    radius: float = setting("radius_m", 0.02, domain=POSITIVE)
    rolling_friction: float = setting("rolling_friction", 0.005, domain=NON_NEGATIVE)
    radius_range: tuple = setting("radius_range_m", (0.012, 0.030), "pair", POSITIVE_RANGE)
    friction_range: tuple = setting("friction_range", (0.001, 0.010), "pair",
                                    (lambda r: 0.0 <= r[0] <= r[1], "satisfy 0 <= lo <= hi"))
    randomize: bool = setting("randomize", True, "flag")

    def __post_init__(self):
        check_fields(self, "ball")


def randomize_ball(params: BallParams, rng: np.random.Generator) -> BallParams:
    """Uniform draw of radius/friction within the configured ranges; the
    ``params`` themselves when they are not randomized."""
    if not params.randomize:
        return params
    return replace(
        params,
        radius=float(rng.uniform(*params.radius_range)),
        rolling_friction=float(rng.uniform(*params.friction_range)),
    )


@dataclass(frozen=True)
class TaskSpec:
    """Balancing task: keep the ball anywhere on the plate, or near a point.

    For ``in_place`` the target is ``initial_position`` and success requires
    the distance to it to stay below ``success_bound``.  Every reset puts
    the ball at rest ``start_offset`` from ``initial_position``.
    """

    kind: str = setting("kind", "in_place", "text", (
        lambda v: v in ("on_plate", "in_place"), "be 'on_plate' or 'in_place'"))
    initial_position: tuple = setting("target_xy_m", (0.0, 0.0), "pair")
    success_bound: float = setting("success_bound_m", 0.06, domain=POSITIVE)
    noise_std: float = setting("noise_std_m", 0.001, domain=NON_NEGATIVE)
    reward_exponent: float = setting("reward_exponent", 2.0, domain=POSITIVE)
    start_offset: tuple = setting("start_offset_xy_m", (0.0, 0.0), "pair")

    def __post_init__(self):
        check_fields(self, "task")

    @property
    def target(self) -> np.ndarray:
        return np.asarray(self.initial_position, dtype=float)

    @property
    def start(self) -> np.ndarray:
        """The ball's plate-frame position at reset."""
        return self.target + np.asarray(self.start_offset, dtype=float)

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


def planar_norm(x: float, y: float, buf: np.ndarray) -> float:
    """|(x, y)| bit for bit as ``np.linalg.norm`` computes it (see the module
    docstring), through the (2,) float64 scratch array ``buf``."""
    buf[0], buf[1] = x, y
    return math.sqrt(buf.dot(buf))


def effective_bounds(geometry: PlateGeometry, params: BallParams) -> tuple:
    """Centre-of-ball bounds (x, y); the ball leaves when its edge passes
    the rim."""
    return geometry.half_x - params.radius, geometry.half_y - params.radius


def step_ball(position, velocity, rotations, lin_acc, params: BallParams,
              dt: float, geometry: PlateGeometry):
    """Advance a ball on the plate through plate ticks spaced ``dt`` apart.

    ``position`` and ``velocity`` (2,) are the ball's plate-frame state,
    ``rotations`` (k, 3, 3) the plate's world rotation matrices and
    ``lin_acc`` (k, 3) the world-frame accelerations of its origin, one row
    per tick.  One ``plate_drive`` call gives every tick's drive; the tick
    loop runs on Python floats.  Each tick's acceleration is the drive less
    the rolling resistance against the velocity; a ball at rest stays there
    while the resistance can hold it.  Semi-implicit: velocity first, then
    position.  Returns new (position, velocity) arrays and whether the ball
    is on the plate; integration stops at the tick the ball leaves the
    plate (that is a state, not an error).

    ``planar_norm`` is written out in the loop: ``old`` holds the tick's
    velocity for its speed and for the reversal test's dot product with the
    new velocity in ``new``, which first holds the drive of a ball at rest.
    """
    if len(rotations) != len(lin_acc):
        raise ValueError(f"{len(rotations)} plate rotations but "
                         f"{len(lin_acc)} origin accelerations")
    bound_x, bound_y = effective_bounds(geometry, params)
    resist = params.rolling_friction * GRAVITY
    stop_speed = resist * dt
    (x, y), (vx, vy) = position.tolist(), velocity.tolist()
    old, new = np.empty(2), np.empty(2)
    on_plate = True
    for ax, ay in plate_drive(rotations, lin_acc).tolist():
        # a ball at rest has speed 0.0 exactly, without the dot product
        moving = vx or vy
        speed = 0.0
        if moving:
            old[0], old[1] = vx, vy
            speed = math.sqrt(old.dot(old))
        if speed < 1e-12:
            # static: rolling resistance holds the ball if it can
            new[0], new[1] = ax, ay
            if math.sqrt(new.dot(new)) <= resist:
                ax = ay = 0.0
        else:
            ax, ay = ax - resist * vx / speed, ay - resist * vy / speed
        new_vx, new_vy = vx + ax * dt, vy + ay * dt
        # Coulomb resistance must not reverse the velocity within a substep
        # (against a velocity of zeros the dot product is never negative)
        if moving and speed < stop_speed:
            new[0], new[1] = new_vx, new_vy
            if new.dot(old) < 0:
                new_vx = new_vy = 0.0
        vx, vy = new_vx, new_vy
        x, y = x + vx * dt, y + vy * dt
        if abs(x) > bound_x or abs(y) > bound_y:
            on_plate = False
            break
    return np.array((x, y)), np.array((vx, vy)), on_plate


def task_reward(position, on_plate: bool, spec: TaskSpec, geometry: PlateGeometry,
                params: BallParams) -> float:
    """Task reward in [0, 1]: 1 at the target, decaying to 0 at the boundary.

    on_plate: decay with the max-normalized distance to the bounds where
    the ball's edge passes the rim; in_place: decay with distance to the
    target, reaching 0 at the success bound.  Off the plate the reward is 0.
    The decay exponent is configurable (2 = quadratic).  ``position`` is the
    ball's (x, y); the arithmetic runs on floats, the distance through
    ``planar_norm``.
    """
    if not on_plate:
        return 0.0
    x, y = map(float, position)
    k = spec.reward_exponent
    if spec.kind == "on_plate":
        bound_x, bound_y = effective_bounds(geometry, params)
        fx, fy = abs(x) / bound_x, abs(y) / bound_y
        frac = fx if fx > fy or fx != fx else fy  # np.max: a NaN propagates
    else:
        target_x, target_y = spec.initial_position
        frac = planar_norm(x - target_x, y - target_y, np.empty(2)) / spec.success_bound
    return min(max(1.0 - min(frac, 1.0) ** k, 0.0), 1.0)


def sensor_feedback(measured, previous, spec: TaskSpec, geometry: PlateGeometry) -> list:
    """Normalized task feedback from the current and previous readings
    (x, y), as a list of floats.

    Both positions normalized by the plate half-extents; for in_place
    additionally the 2-d offset of the current reading from the target.
    Everything is clamped to [-1, 1] (``limits.clamp``).
    """
    half_x, half_y = geometry.half_x, geometry.half_y
    (x, y), (prev_x, prev_y) = measured, previous
    parts = [x / half_x, y / half_y, prev_x / half_x, prev_y / half_y]
    if spec.kind == "in_place":
        target_x, target_y = spec.initial_position
        parts += [(x - target_x) / half_x, (y - target_y) / half_y]
    return [clamp(p, -1.0, 1.0) for p in parts]


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
    terminated: bool                # ended early, not by losing the ball
    ball_lost: bool                 # the ball left the plate on the last step
    mean_reward: float


def episode_metrics(log, total_steps: int, limits, spec: TaskSpec | None) -> EpisodeReport:
    """Aggregate an episode's step log (``adaptation.StepLog``) into the
    summary metrics.

    How the episode ended is read from the log: the ball was lost if the
    last row has it off the plate, and the episode terminated if it has
    fewer rows than ``total_steps`` otherwise.  success: the episode ran to
    the end of the reference with the ball inside its task bound throughout;
    fraction: executed decision steps over the reference's total.  The ball
    position columns are read only with a ``spec``.  A log without rows
    gives zero means and no success.  The error distance is None unless an
    ``in_place`` spec measured it on at least one row.
    """
    executed = len(log)
    fraction = executed / max(total_steps, 1)
    lost = executed > 0 and bool(log.ball_on_plate[-1] == 0.0)

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

    success = in_bound and not lost and executed >= total_steps
    return EpisodeReport(success=success, fraction=min(fraction, 1.0),
                         error_distance_m=err, mean_norm_accel=mean_a,
                         mean_norm_jerk=mean_j, steps_executed=executed,
                         total_steps=total_steps,
                         terminated=executed < total_steps and not lost,
                         ball_lost=lost, mean_reward=mean_r)


# ---------------------------------------------------------------------------
# environment wrapper used by the rollout engine

def check_start(task: TaskSpec, geometry: PlateGeometry, ball: BallParams) -> None:
    """Reject a ``task.start`` off the plate for any ball a reset can draw:
    the largest radius has the tightest bounds."""
    largest = replace(ball, radius=ball.radius_range[1]) if ball.randomize else ball
    (x, y), (bound_x, bound_y) = task.start, effective_bounds(geometry, largest)
    if abs(x) > bound_x or abs(y) > bound_y:
        raise ConfigurationError(
            "initial ball position is off the plate: task target_xy_m + "
            f"start_offset_xy_m = ({x:g}, {y:g}) m, beyond +-({bound_x:g}, "
            f"{bound_y:g}) m for a ball of radius {largest.radius:g} m")


class BallPlateEnv:
    """Single-owner mutable environment: the ball's plate-frame ``position``
    and ``velocity`` arrays plus sensing, for one episode at a time."""

    def __init__(self, model, geometry: PlateGeometry, task: TaskSpec,
                 ball: BallParams):
        check_start(task, geometry, ball)
        self.model = model
        self.geometry = geometry
        self.task = task
        self.base_ball = ball
        self.ball = ball
        self.position = self.velocity = self.measured = None

    def reset(self, seed) -> list:
        self.rng = np.random.default_rng(seed)
        self.ball = randomize_ball(self.base_ball, self.rng)
        self.position = self.task.start
        self.velocity = np.zeros(2)
        self.measured = None
        return self._sense(self.position.tolist())

    def _sense(self, position: list) -> list:
        """Read the ball ``position`` [x, y]; feedback from this and the last
        reading."""
        measured = position
        if self.task.noise_std > 0:
            noise_x, noise_y = self.rng.normal(0.0, self.task.noise_std, 2).tolist()
            measured = [position[0] + noise_x, position[1] + noise_y]
        previous = measured if self.measured is None else self.measured
        self.measured = measured
        return sensor_feedback(measured, previous, self.task, self.geometry)

    def step(self, rotations, lin_acc, dt: float):
        """Advance through one decision step's plate ticks (rotations
        (k, 3, 3), origin accelerations (k, 3), ``dt`` apart); returns (ball
        position [x, y], on the plate, task reward, feedback list)."""
        if self.position is None:
            raise ConfigurationError("environment used before reset")
        self.position, self.velocity, on_plate = step_ball(
            self.position, self.velocity, rotations, lin_acc, self.ball, dt,
            self.geometry)
        position = self.position.tolist()
        reward = task_reward(position, on_plate, self.task, self.geometry, self.ball)
        return position, on_plate, reward, self._sense(position)
