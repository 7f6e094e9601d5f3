"""Per-decision-step engine: observation, clipping, integration, termination,
environment stepping and the composed reward.

The decision loop keeps only what must run in order: build the normalized
observation, query the policy, denormalize and clip the commanded
acceleration into the valid range, integrate to the next joint setpoints,
end the episode if the deviation from the reference exceeds the termination
threshold, otherwise execute the substeps (driving the ball environment when
present) and write the step's state, deviation and task reward into the
episode's ``StepLog``.  The reward penalties depend on the executed
trajectory alone, so ``score_log`` computes them once per episode over the
log's columns.

One episode's joint state is n_joints numbers, too few for numpy's per-call
cost to pay off, so ``rollout`` keeps the state, the policy output and the
clipped command as lists of Python floats and runs the elementwise steps on
them: the raw clamp, the valid range, the clip, the integration and the
deviation.  Each keeps the operations and order of its numpy form, so the
log holds the same bits (``limits`` "Single-state kernel").  The
environment side does the same: the substep profile's tick positions, the
ball's tick loop, the task reward and the feedback run on floats.  The
observation is the policy's input array, normalized in one subtraction and
one division.  What a float copy could change in the last bit stays numpy:
the profile's powers of the tick times (``**3``, computed once per step
length), the plate kinematics (``sin``, ``cos`` and BLAS products), the
ball's drive and 2-vector dot products (BLAS) and the per-episode sums of
``score_log`` and ``episode_metrics`` (pairwise).  The campaign keeps
(episodes, joints) arrays throughout.

An episode's last decision step also slices and scores its log, so
``StepLog.head`` returns a log it keeps whole, and ``score_log`` and its
penalty helpers call ufuncs directly (``np.maximum.reduce``,
``np.square``, ...), not numpy's Python-level wrappers, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .environment import BallPlateEnv, episode_metrics
from .errors import (BELOW_ONE, NON_NEGATIVE, POSITIVE, POSITIVE_RANGE, ConfigurationError,
                     at_least, check_fields, read_settings, setting)
from .kinematics import plate_motion
from .limits import (JointLimits, StepParams, check_limit_regime, clamp, clip_action,
                     integrate_step, profile_peaks, substep_profile, valid_accel_bounds,
                     valid_accel_range)
from .trajectory import ReferenceTrajectory

# Slack of the campaign's normalized |v|, |a| and |j| over 1.
CAMPAIGN_TOL = 1e-9


@dataclass(frozen=True)
class RewardWeights:
    """Thresholds and weights of the composed reward.

    accel_threshold is in normalized units; the deviation thresholds and the
    termination threshold are joint angles in rad.  Defaults: deviation-zero
    threshold 2 degrees; the deviation-one and termination thresholds are set
    equal at 10 degrees so the deviation penalty saturates exactly where the
    episode would end.
    """

    accel_threshold: float = setting("accel_threshold_norm", 0.8, domain=BELOW_ONE)
    jerk_weight: float = setting("jerk_weight", 4.0, domain=POSITIVE)
    deviation_low: float = setting("deviation_low_rad", math.radians(2.0),
                                   domain=NON_NEGATIVE)
    deviation_high: float = setting("deviation_high_rad", math.radians(10.0))
    termination: float = setting("termination_rad", math.radians(10.0))
    n_future: int = setting("future_positions", 1, domain=at_least(1))

    def __post_init__(self):
        check_fields(self, "reward")
        if not self.deviation_low < self.deviation_high <= self.termination:
            raise ConfigurationError(
                "reward deviation_low_rad, deviation_high_rad, termination_rad must satisfy "
                "low < high <= termination, got "
                f"{[self.deviation_low, self.deviation_high, self.termination]}")


def accel_penalty(act, threshold: float):
    """Quadratic ramp from 0 at the threshold to 1 at full normalized accel,
    on the worst joint of each row of normalized commands."""
    a_abs = np.minimum(np.maximum(np.maximum.reduce(np.abs(act), axis=-1), threshold), 1.0)
    return np.square(1.0 - (1.0 - a_abs) / (1.0 - threshold))


def jerk_penalty(jerk, j_max, weight: float):
    """Sum-of-squares jerk measure of each row against a saturation level
    set by ``weight`` (larger weight saturates earlier)."""
    j_p = np.add.reduce(np.square(jerk), axis=-1)
    j_sat = np.add.reduce(np.square(j_max), axis=None) / weight
    return np.square(np.minimum(j_p / j_sat, 1.0))


def deviation_penalty(deviation, low: float, high: float):
    """Quadratic ramp on the worst joint deviation, 0 below ``low``, 1 above
    ``high``."""
    return np.square((np.minimum(np.maximum(deviation, low), high) - low) / (high - low))


def compose_reward(r_task, p_accel, p_jerk, p_deviation):
    """(p_smooth, reward): the task reward scaled by the smoothness and
    deviation penalties."""
    p_smooth = 0.5 * (p_accel + p_jerk)
    return p_smooth, r_task * (1.0 - p_smooth) * (1.0 - p_deviation)


def _observation_scaling(limits: JointLimits, feedback_size: int, n_future: int):
    """(offset, scale) arrays of the flat observation: positions and
    reference rows by the joint range, velocities and accelerations by
    v_max and a_max, and the feedback by an offset of 0.0 and a scale of
    1.0, which leave it exact.  Kept in ``limits.observation_scalings``."""
    key = (feedback_size, n_future)
    scaling = limits.observation_scalings.get(key)
    if scaling is None:
        n = limits.n_joints
        offset = np.concatenate((limits.p_mid, np.zeros(2 * n + feedback_size),
                                 np.tile(limits.p_mid, n_future)))
        scale = np.concatenate((limits.p_half_range, limits.v_max, limits.a_max,
                                np.ones(feedback_size), np.tile(limits.p_half_range, n_future)))
        scaling = limits.observation_scalings[key] = (offset, scale)
    return scaling


def build_observation(p, v, a, limits: JointLimits, feedback,
                      reference: ReferenceTrajectory, t: int,
                      n_future: int) -> np.ndarray:
    """Normalized observation: joint positions ``p``, velocities ``v`` and
    accelerations ``a`` and the task feedback (float sequences), future
    reference rows.

    Positions map through the joint range to [-1, 1] (mid-range is 0),
    velocities/accelerations through v_max/a_max.  Reference rows t+1..t+N
    are normalized like positions; rows past the end hold the final row.
    Everything is clamped into [-1, 1].  One subtraction and one division
    normalize every part (``_observation_scaling``).
    """
    offset, scale = _observation_scaling(limits, len(feedback), n_future)
    last = reference.n_steps - 1
    if t + n_future <= last:
        rows = reference.positions[t + 1:t + 1 + n_future]
    else:
        rows = reference.positions[[min(t + k, last) for k in range(1, n_future + 1)]]
    obs = np.array([*p, *v, *a, *feedback, *rows.ravel().tolist()])
    obs -= offset
    obs /= scale
    np.maximum(obs, -1.0, out=obs)
    return np.minimum(obs, 1.0, out=obs)


JOINT_COLUMNS = ("p", "v", "a", "jerk", "raw", "act")  # (T, n_joints)


@dataclass
class StepLog:
    """Columns of an episode's executed decision steps, one row per step.

    The field names are the step-log header names; a field in
    ``JOINT_COLUMNS`` has one column per joint, suffixed with the joint
    index.  ``a`` is the physical a_{t+1} applied, ``jerk``
    (a_{t+1} - a_t) / dt, ``raw`` the normalized policy output and ``act``
    the normalized clipped command.  The ball columns are NaN without an
    environment; ``ball_on_plate`` is 1.0 or 0.0 with one.
    """

    t_s: np.ndarray
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    jerk: np.ndarray
    raw: np.ndarray
    act: np.ndarray
    r_task: np.ndarray
    p_accel: np.ndarray
    p_jerk: np.ndarray
    p_smooth: np.ndarray
    p_deviation: np.ndarray
    reward: np.ndarray
    deviation_rad: np.ndarray
    ball_x_m: np.ndarray
    ball_y_m: np.ndarray
    ball_on_plate: np.ndarray

    @classmethod
    def allocate(cls, steps: int, n_joints: int) -> "StepLog":
        """A NaN-filled log of ``steps`` rows."""
        return cls(**{f.name: np.full((steps, n_joints) if f.name in JOINT_COLUMNS
                                      else steps, np.nan)
                      for f in fields(cls)})

    def __len__(self) -> int:
        return self.t_s.shape[0]

    def head(self, rows: int) -> "StepLog":
        """The first ``rows`` rows; the log itself if that is all of them."""
        if rows == len(self):
            return self
        return StepLog(**{f.name: getattr(self, f.name)[:rows] for f in fields(self)})


def score_log(log: StepLog, limits: JointLimits, weights: RewardWeights,
              dt: float) -> None:
    """Fill the columns that follow from the executed trajectory: ``t_s``,
    ``jerk``, ``act``, the penalties and ``reward``.

    Reads ``a``, ``deviation_rad`` and ``r_task``; the first row's jerk is
    taken from rest, where every rollout starts (a copy: a - 0.0 is a
    bitwise, -0.0 included).  Direct ufunc calls, as this runs inside
    ``rollout``'s last decision step.
    """
    np.multiply(np.arange(1, len(log) + 1), dt, out=log.t_s)
    np.subtract(log.a[1:], log.a[:-1], out=log.jerk[1:])
    log.jerk[:1] = log.a[:1]
    log.jerk /= dt
    np.divide(log.a, limits.a_max, out=log.act)
    log.p_accel[:] = accel_penalty(log.act, weights.accel_threshold)
    log.p_jerk[:] = jerk_penalty(log.jerk, limits.j_max, weights.jerk_weight)
    log.p_deviation[:] = deviation_penalty(log.deviation_rad, weights.deviation_low,
                                           weights.deviation_high)
    log.p_smooth[:], log.reward[:] = compose_reward(
        log.r_task, log.p_accel, log.p_jerk, log.p_deviation)


def rollout(reference: ReferenceTrajectory, policy, limits: JointLimits,
            params: StepParams, weights: RewardWeights,
            env: BallPlateEnv | None = None, seed=(0,)):
    """Run one episode along a reference; returns (EpisodeReport, StepLog).

    The joint state starts at rest on the first reference row.  A deviation
    beyond the termination threshold, or a policy output with a non-finite
    entry, ends the episode before the offending step executes; the ball
    leaving the plate ends it after the step that lost it.  The log holds
    the executed steps only, so it is empty when the first step ends the
    episode.  ``seed`` is a sequence of ints; the policy and the environment
    draw from streams derived from it.

    The joint state, the policy output and the clipped command are lists of
    Python floats: on one episode's n_joints values numpy's per-call cost is
    larger than the arithmetic (``limits`` "Single-state kernel").  A policy
    may return any sequence of n_joints floats.  The observation, the
    substep profile's tick positions, the plate motion and the log are
    numpy arrays; the environment returns the ball position and the
    feedback as float lists.
    """
    if reference.n_steps < 2:
        raise ConfigurationError("reference needs at least 2 rows")
    if reference.n_joints != limits.n_joints:
        raise ConfigurationError("reference and limits disagree on joint count")
    n = limits.n_joints
    total_steps = reference.n_steps - 1
    ref_rows = reference.positions.tolist()
    a_max = limits.a_max.tolist()
    p, v, a = ref_rows[0], [0.0] * n, [0.0] * n
    seed_key = [int(s) for s in seed]
    policy_rng = np.random.default_rng(seed_key + [1])
    policy.reset()

    feedback = []
    if env is not None:
        feedback = env.reset(seed_key + [2])

    log = StepLog.allocate(total_steps, n)
    executed = 0

    for t in range(total_steps):
        obs = build_observation(p, v, a, limits, feedback, reference, t,
                                weights.n_future)
        raw = [float(x) for x in policy.act(obs, policy_rng)]
        if len(raw) != n:
            raise ValueError(f"the policy returned {len(raw)} commands for {n} joints")
        if not all(map(math.isfinite, raw)):
            break
        raw = [clamp(x, -1.0, 1.0) for x in raw]
        lo, hi = valid_accel_range(v, a, limits, params)
        a_next = clip_action([x * m for x, m in zip(raw, a_max)], lo, hi)

        p_next, v_next = integrate_step(p, v, a, a_next, params.dt)
        deviation = max(abs(x - r) for x, r in zip(p_next, ref_rows[t + 1]))
        if deviation > weights.termination:
            break

        r_task = 1.0
        if env is not None:
            q_sub = substep_profile(p, v, a, a_next, params.dt, params.substeps)
            _, rotations, lin_acc = plate_motion(env.model, q_sub,
                                                 params.control_dt)
            position, on_plate, r_task, feedback = env.step(
                rotations[1:], lin_acc[1:], params.control_dt)
            log.ball_x_m[t], log.ball_y_m[t] = position
            log.ball_on_plate[t] = 1.0 if on_plate else 0.0

        log.p[t] = p_next
        log.v[t] = v_next
        log.a[t] = a_next
        log.raw[t] = raw
        log.deviation_rad[t] = deviation
        log.r_task[t] = r_task
        executed = t + 1
        p, v, a = p_next, v_next, a_next

        if log.ball_on_plate[t] == 0.0:  # NaN without an environment
            break

    log = log.head(executed)
    score_log(log, limits, weights, params.dt)
    report = episode_metrics(log, total_steps, limits, env.task if env else None)
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

    def ok(self) -> bool:
        return self.violations == 0 and max(
            self.max_velocity_norm, self.max_accel_norm, self.max_jerk_norm
        ) <= 1.0 + CAMPAIGN_TOL


# The keys of config section ``validate``: keyword arguments of
# ``run_limit_campaign``, which checks the counts by these too.
CAMPAIGN_SETTINGS = (
    setting("episodes", None, domain=at_least(1)), setting("steps", None, domain=at_least(1)),
    setting("v_max_range", None, "pair", POSITIVE_RANGE),
    setting("a_max_range", None, "pair", POSITIVE_RANGE),
    setting("jerk_fill_range", None, "pair", (lambda r: 0.0 < r[0] <= r[1] <= 1.0,
                                              "satisfy 0 < lo <= hi <= 1")))


def run_limit_campaign(episodes: int, steps: int = 200, *, n_joints: int, dt: float,
                       seed: int, correction_enabled: bool,
                       v_max_range=(0.5, 3.0), a_max_range=(2.0, 15.0),
                       jerk_fill_range=(0.3, 1.0),
                       fixed_limits: JointLimits | None = None) -> CampaignReport:
    """Random-policy episodes with per-episode randomized limits, fully
    vectorized across episodes.

    Jerk limits are drawn as a fraction of min(a_max/dt, v_max/dt^2), the
    supported safety envelope.  With ``fixed_limits`` every episode instead
    uses that limit set of ``n_joints`` joints (still random actions).  Each
    step is checked against the normalized velocity/acceleration bounds
    over its whole continuous profile, so every control tick is covered
    whatever the control period, and against the jerk bound
    (``limits.profile_peaks``).
    """
    read_settings({"episodes": episodes, "steps": steps}, CAMPAIGN_SETTINGS, "validate")
    rng = np.random.default_rng(seed)
    shape = (episodes, n_joints)
    if fixed_limits is not None:
        check_limit_regime(fixed_limits, dt)
        v_max = np.tile(fixed_limits.v_max, (episodes, 1))
        a_max = np.tile(fixed_limits.a_max, (episodes, 1))
        j_max = np.tile(fixed_limits.j_max, (episodes, 1))
    else:
        v_max = rng.uniform(*v_max_range, shape)
        a_max = rng.uniform(*a_max_range, shape)
        j_max = rng.uniform(*jerk_fill_range, shape) * np.minimum(a_max / dt,
                                                                  v_max / dt**2)

    v = np.zeros(shape)
    a = np.zeros(shape)
    violations = 0
    first = None
    peaks = [0.0, 0.0, 0.0]
    tol = 1.0 + CAMPAIGN_TOL

    for step in range(steps):
        lo, hi = valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                    correction_enabled=correction_enabled)
        a1 = rng.uniform(-1.0, 1.0, shape)
        a1 *= a_max
        # np.clip's bits for NaN-free input: a tie returns the bound
        np.minimum(np.maximum(a1, lo, out=a1), hi, out=a1)

        norms = profile_peaks(v, a, a1, v_max, a_max, j_max, dt)
        step_peaks = [float(np.maximum.reduce(x, axis=None)) for x in norms]
        peaks = [max(p, s) for p, s in zip(peaks, step_peaks)]
        if max(step_peaks) > tol:
            violations += 1
            if first is None:
                bad = np.argwhere((norms[0] > tol) | (norms[1] > tol) | (norms[2] > tol))
                first = (step, int(bad[0][0]), int(bad[0][1]))

        # v += 0.5 * (a + a1) * dt, in the buffer of the a that a1 replaces
        dv = np.add(a, a1, out=a)
        dv *= 0.5
        dv *= dt
        v += dv
        a = a1

    return CampaignReport(episodes, steps, n_joints, violations, *peaks, first)
