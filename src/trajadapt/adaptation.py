"""Per-decision-step engine: observation, clipping, integration, termination,
environment stepping and the composed reward.

The decision loop per step: build the normalized observation, query the
policy, denormalize and clip the commanded acceleration into the valid
range, integrate to the next joint setpoints, end the episode if the
deviation from the reference exceeds the termination threshold, otherwise
execute the substeps (driving the ball environment when present), score
the step and write it as one row of the episode's ``StepLog``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .environment import BallPlateEnv, EpisodeReport, episode_metrics
from .errors import ConfigurationError
from .kinematics import plate_motion
from .limits import (JointLimits, JointState, StepParams, clip_action,
                     integrate_step, substep_profile, valid_accel_bounds,
                     valid_accel_range)
from .trajectory import ReferenceTrajectory


@dataclass(frozen=True)
class RewardWeights:
    """Thresholds and weights of the composed reward.

    accel_threshold is in normalized units; the deviation thresholds and the
    termination threshold are joint angles in rad.  Defaults: deviation-zero
    threshold 2 degrees; the deviation-one and termination thresholds are set
    equal at 10 degrees so the deviation penalty saturates exactly where the
    episode would end.
    """

    accel_threshold: float = 0.8
    jerk_weight: float = 4.0
    deviation_low: float = np.deg2rad(2.0)
    deviation_high: float = np.deg2rad(10.0)
    termination: float = np.deg2rad(10.0)
    n_future: int = 1

    def __post_init__(self):
        if not 0.0 <= self.accel_threshold < 1.0:
            raise ConfigurationError("accel threshold must be in [0, 1)")
        if self.jerk_weight <= 0:
            raise ConfigurationError("jerk weight must be > 0")
        if not self.deviation_low < self.deviation_high <= self.termination:
            raise ConfigurationError(
                "need deviation_low < deviation_high <= termination threshold")
        if self.n_future < 1:
            raise ConfigurationError("n_future must be >= 1")


@dataclass(frozen=True)
class RewardBreakdown:
    r_task: float
    p_accel: float
    p_jerk: float
    p_smooth: float
    p_deviation: float
    total: float


def accel_penalty(a_next_norm, threshold: float) -> float:
    """Quadratic ramp from 0 at the threshold to 1 at full normalized accel."""
    a_abs = float(np.max(np.abs(a_next_norm)))
    if a_abs < threshold:
        return 0.0
    a_abs = min(a_abs, 1.0)
    return ((1.0 - (1.0 - a_abs) / (1.0 - threshold)) ** 2)


def jerk_penalty(jerk, j_max, weight: float) -> float:
    """Sum-of-squares jerk measure against a saturation level set by
    ``weight`` (larger weight saturates earlier)."""
    jerk = np.asarray(jerk, dtype=float)
    j_p = float(np.sum(jerk**2))
    j_sat = float(np.sum(np.asarray(j_max, dtype=float) ** 2)) / weight
    if j_p > j_sat:
        return 1.0
    return (j_p / j_sat) ** 2


def deviation_penalty(p_next, p_ref_next, low: float, high: float) -> float:
    """Quadratic ramp on the worst joint deviation, 0 below ``low``, 1 above
    ``high``."""
    dev = float(np.max(np.abs(np.asarray(p_next) - np.asarray(p_ref_next))))
    if dev < low:
        return 0.0
    if dev > high:
        return 1.0
    return ((dev - low) / (high - low)) ** 2


def compose_reward(r_task: float, p_accel: float, p_jerk: float,
                   p_deviation: float) -> RewardBreakdown:
    p_smooth = 0.5 * (p_accel + p_jerk)
    total = r_task * (1.0 - p_smooth) * (1.0 - p_deviation)
    return RewardBreakdown(r_task=r_task, p_accel=p_accel, p_jerk=p_jerk,
                           p_smooth=p_smooth, p_deviation=p_deviation,
                           total=total)


def check_termination(p_next, p_ref_next, threshold: float) -> bool:
    """True when the worst joint deviation strictly exceeds the threshold."""
    dev = float(np.max(np.abs(np.asarray(p_next) - np.asarray(p_ref_next))))
    return dev > threshold


def build_observation(state: JointState, limits: JointLimits, feedback,
                      reference: ReferenceTrajectory, t: int,
                      n_future: int) -> np.ndarray:
    """Normalized observation: joint state, task feedback, future reference rows.

    Positions map through the joint range to [-1, 1] (mid-range is 0),
    velocities/accelerations through v_max/a_max.  Reference rows t+1..t+N
    are normalized like positions; rows past the end hold the final row.
    Everything is clamped into [-1, 1].
    """
    feedback = np.asarray(feedback, dtype=float)
    if state.p.shape[0] != limits.n_joints:
        raise ConfigurationError("state and limits disagree on joint count")
    if reference.n_joints != limits.n_joints:
        raise ConfigurationError("reference and limits disagree on joint count")

    def norm_pos(p):
        return (p - limits.p_mid) / limits.p_half_range

    rows = []
    last = reference.n_steps - 1
    for k in range(1, n_future + 1):
        rows.append(norm_pos(reference.positions[min(t + k, last)]))
    obs = np.concatenate([
        norm_pos(state.p),
        state.v / limits.v_max,
        state.a / limits.a_max,
        feedback,
        np.concatenate(rows),
    ])
    return np.clip(obs, -1.0, 1.0)


_JOINT_COLUMNS = ("p", "v", "accel", "jerk", "raw", "act")  # (T, n_joints)


@dataclass
class StepLog:
    """Columns of an episode's executed decision steps, one row per step.

    ``accel`` is the physical a_{t+1} applied, ``jerk`` (a_{t+1} - a_t) / dt,
    ``raw`` the normalized policy output and ``act`` the normalized clipped
    command.  The ball columns are NaN without an environment; ``on_plate``
    is 1.0 or 0.0 with one.
    """

    time: np.ndarray
    p: np.ndarray
    v: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray
    raw: np.ndarray
    act: np.ndarray
    r_task: np.ndarray
    p_accel: np.ndarray
    p_jerk: np.ndarray
    p_smooth: np.ndarray
    p_deviation: np.ndarray
    reward: np.ndarray
    deviation: np.ndarray
    ball_x: np.ndarray
    ball_y: np.ndarray
    on_plate: np.ndarray

    @classmethod
    def allocate(cls, steps: int, n_joints: int) -> "StepLog":
        """A NaN-filled log of ``steps`` rows."""
        return cls(**{f.name: np.full((steps, n_joints) if f.name in _JOINT_COLUMNS
                                      else steps, np.nan)
                      for f in fields(cls)})

    def __len__(self) -> int:
        return self.time.shape[0]

    def head(self, rows: int) -> "StepLog":
        """The first ``rows`` rows."""
        return StepLog(**{f.name: getattr(self, f.name)[:rows] for f in fields(self)})


def rollout(reference: ReferenceTrajectory, policy, limits: JointLimits,
            params: StepParams, weights: RewardWeights,
            env: BallPlateEnv | None = None, seed: int = 0):
    """Run one episode along a reference; returns (EpisodeReport, StepLog).

    The joint state starts at rest on the first reference row.  A deviation
    beyond the termination threshold, or a policy output with a non-finite
    entry, ends the episode before the offending step executes; the ball
    leaving the plate ends it after the step that lost it.  The log holds
    the executed steps only, so it is empty when the first step ends the
    episode.
    """
    if reference.n_steps < 2:
        raise ConfigurationError("reference needs at least 2 rows")
    total_steps = reference.n_steps - 1
    state = JointState.at_rest(reference.positions[0])
    seed_key = [int(s) for s in (seed if isinstance(seed, (list, tuple)) else [seed])]
    policy_rng = np.random.default_rng(seed_key + [1])
    policy.reset(tuple(seed_key))

    feedback = np.zeros(0)
    if env is not None:
        feedback = env.reset(seed_key + [2])

    log = StepLog.allocate(total_steps, limits.n_joints)
    executed = 0
    terminated = False
    ball_lost = False
    a_max = limits.a_max

    for t in range(total_steps):
        obs = build_observation(state, limits, feedback, reference, t,
                                weights.n_future)
        raw = np.asarray(policy.act(obs, policy_rng), dtype=float)
        if not np.all(np.isfinite(raw)):
            terminated = True
            break
        raw = np.clip(raw, -1.0, 1.0)
        desired = raw * a_max
        rng = valid_accel_range(state, limits, params)
        a_next = clip_action(desired, rng)

        p_next, v_next = integrate_step(state.p, state.v, state.a, a_next, params.dt)
        p_ref_next = reference.positions[t + 1]
        deviation = float(np.max(np.abs(p_next - p_ref_next)))

        if check_termination(p_next, p_ref_next, weights.termination):
            terminated = True
            break

        r_task = 1.0
        if env is not None:
            q_sub, _, _ = substep_profile(state.p, state.v, state.a, a_next,
                                          params.dt, params.substeps)
            _, rotations, lin_acc, _ = plate_motion(env.model, q_sub,
                                                    params.control_dt)
            ball, r_task, feedback = env.step(rotations[1:], lin_acc[1:])
            log.ball_x[t], log.ball_y[t] = ball.position
            log.on_plate[t] = 1.0 if ball.on_plate else 0.0

        jerk = (a_next - state.a) / params.dt
        reward = compose_reward(
            r_task,
            accel_penalty(a_next / a_max, weights.accel_threshold),
            jerk_penalty(jerk, limits.j_max, weights.jerk_weight),
            deviation_penalty(p_next, p_ref_next, weights.deviation_low,
                              weights.deviation_high),
        )
        log.time[t] = (t + 1) * params.dt
        log.p[t] = p_next
        log.v[t] = v_next
        log.accel[t] = a_next
        log.jerk[t] = jerk
        log.raw[t] = raw
        log.act[t] = a_next / a_max
        log.r_task[t] = reward.r_task
        log.p_accel[t] = reward.p_accel
        log.p_jerk[t] = reward.p_jerk
        log.p_smooth[t] = reward.p_smooth
        log.p_deviation[t] = reward.p_deviation
        log.reward[t] = reward.total
        log.deviation[t] = deviation
        executed = t + 1
        state = JointState(p=p_next, v=v_next, a=a_next)

        if log.on_plate[t] == 0.0:  # NaN without an environment
            ball_lost = True
            break

    log = log.head(executed)
    report = episode_metrics(log, total_steps, limits,
                             env.task if env else None, params.dt,
                             terminated=terminated, ball_lost=ball_lost)
    return report, log


# ---------------------------------------------------------------------------
# vectorized limit-validation campaign

@dataclass
class CampaignReport:
    episodes: int
    steps: int
    n_joints: int
    violations: int
    max_velocity_norm: float
    max_accel_norm: float
    max_jerk_norm: float
    first_violation: tuple | None = None

    def ok(self, tol: float = 1e-9) -> bool:
        return self.violations == 0 and max(
            self.max_velocity_norm, self.max_accel_norm, self.max_jerk_norm
        ) <= 1.0 + tol


def run_limit_campaign(episodes: int, steps: int, n_joints: int = 7,
                       dt: float = 0.05, seed: int = 0,
                       correction_enabled: bool = True,
                       v_max_range=(0.5, 3.0), a_max_range=(2.0, 15.0),
                       jerk_fill_range=(0.3, 1.0),
                       fixed_limits: JointLimits | None = None) -> CampaignReport:
    """Random-policy episodes with per-episode randomized limits, fully
    vectorized across episodes.

    Jerk limits are drawn as a fraction of min(a_max/dt, v_max/dt^2), the
    supported safety envelope.  With ``fixed_limits`` every episode instead
    uses that limit set (still random actions).  Each step is checked
    against the normalized velocity/acceleration bounds over its whole
    continuous profile, so every control tick is covered whatever the
    control period, and against the jerk bound.
    """
    if episodes < 1 or steps < 1:
        raise ConfigurationError("campaign needs episodes >= 1 and steps >= 1")
    rng = np.random.default_rng(seed)
    if fixed_limits is not None:
        from .limits import check_limit_regime
        check_limit_regime(fixed_limits, dt)
        n_joints = fixed_limits.n_joints
        shape = (episodes, n_joints)
        v_max = np.tile(fixed_limits.v_max, (episodes, 1))
        a_max = np.tile(fixed_limits.a_max, (episodes, 1))
        j_max = np.tile(fixed_limits.j_max, (episodes, 1))
    else:
        shape = (episodes, n_joints)
        v_max = rng.uniform(*v_max_range, shape)
        a_max = rng.uniform(*a_max_range, shape)
        j_max = rng.uniform(*jerk_fill_range, shape) * np.minimum(a_max / dt,
                                                                  v_max / dt**2)

    v = np.zeros(shape)
    a = np.zeros(shape)
    tol = 1e-9
    violations = 0
    first = None
    max_v = max_a = max_j = 0.0
    dt2 = dt * dt

    for step in range(steps):
        lo, hi = valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                    correction_enabled=correction_enabled)
        raw = rng.uniform(-1.0, 1.0, shape) * a_max
        a1 = np.clip(raw, lo, hi)

        jerk_norm = np.abs(a1 - a) / (dt * j_max)
        slope = (a1 - a) / dt
        # The acceleration is linear and the velocity quadratic in time, so
        # both peak at a step end or, for the velocity, where the
        # acceleration crosses zero inside the step.
        a_end = a + slope * dt
        v_end = v + a * dt + 0.5 * slope * dt2
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(np.abs(slope) > 0, -a / np.where(slope != 0, slope, 1.0), -1.0)
        inside = (t_star > 0) & (t_star < dt)
        v_star = v + a * t_star + 0.5 * slope * t_star**2

        v_norm = np.maximum(np.maximum(np.abs(v), np.abs(v_end)),
                            np.where(inside, np.abs(v_star), 0.0)) / v_max
        a_norm = np.maximum(np.abs(a), np.abs(a_end)) / a_max
        step_v = float(v_norm.max())
        step_a = float(a_norm.max())
        step_j = float(jerk_norm.max())
        max_v = max(max_v, step_v)
        max_a = max(max_a, step_a)
        max_j = max(max_j, step_j)
        if max(step_v, step_a, step_j) > 1.0 + tol:
            violations += 1
            if first is None:
                bad = np.argwhere((v_norm > 1 + tol) | (a_norm > 1 + tol)
                                  | (jerk_norm > 1 + tol))
                ep, joint = (int(bad[0][0]), int(bad[0][1])) if bad.size else (-1, -1)
                first = (step, ep, joint)

        v = v + 0.5 * (a + a1) * dt
        a = a1

    return CampaignReport(episodes=episodes, steps=steps, n_joints=n_joints,
                          violations=violations, max_velocity_norm=max_v,
                          max_accel_norm=max_a, max_jerk_norm=max_j,
                          first_violation=first)
