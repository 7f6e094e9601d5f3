"""Shared oracles: forward-simulation of bound profiles and the greedy-max
closed loop, kept independent of the closed-form code paths they check;
frozen reference copies of the valid-range kernels, of the decision step
on arrays and of the environment layers it drives (substep profile, plate
motion, ball, reward and sensing); a planar test chain and the stock
7-joint arm; a call counter for monkeypatched functions."""

import math
from pathlib import Path

import numpy as np

from trajadapt import adaptation as ad
from trajadapt import environment as env
from trajadapt import limits as lim
from trajadapt import policy as pol
from trajadapt.errors import ConfigurationError, LimitConsistencyError, NonFiniteStateError
from trajadapt.kinematics import ChainModel, JointRow, load_chain

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def count_calls(monkeypatch, owner, names):
    """Wrap ``owner.<name>`` for each name with a call counter."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def arm_chain():
    """The 7-joint arm of ``configs/chain_7dof.json`` and its limits."""
    return load_chain(CONFIG_DIR / "chain_7dof.json")


def planar_chain(lengths, v_max=2.0, a_max=10.0, j_max=100.0):
    """n-link planar arm in the x-y plane (all joints about z) and its limits."""
    joints = []
    offset = [0.0, 0.0, 0.0]
    for length in lengths:
        joints.append(JointRow(axis=[0, 0, 1], origin_xyz=offset, origin_rpy=[0, 0, 0]))
        offset = [float(length), 0.0, 0.0]
    model = ChainModel(joints=tuple(joints), plate_xyz=offset, name="planar")
    n = len(lengths)
    limits = lim.JointLimits(p_min=[-np.pi] * n, p_max=[np.pi] * n,
                             v_max=[v_max] * n, a_max=[a_max] * n, j_max=[j_max] * n)
    return model, limits


def profile_peak_velocity(v0, a0, a1, j_max, dt, n=512):
    """Peak velocity of: linear ramp a0->a1 over dt, then slope -j_max until
    the acceleration reaches zero.

    Forward simulation by cumulative trapezoid integration, with the in-ramp
    zero crossing of the acceleration evaluated explicitly (velocity
    extremum).  Vectorized over 1-d inputs.
    """
    v0, a0, a1, j_max = np.broadcast_arrays(
        np.atleast_1d(np.asarray(v0, float)), np.asarray(a0, float),
        np.asarray(a1, float), np.asarray(j_max, float))
    tau = np.linspace(0.0, 1.0, n + 1) * dt
    a = a0[:, None] + (a1 - a0)[:, None] * (tau / dt)
    dv = 0.5 * (a[:, 1:] + a[:, :-1]) * (dt / n)
    v = np.concatenate([v0[:, None], v0[:, None] + np.cumsum(dv, axis=1)], axis=1)
    peak = v.max(axis=1)

    crossing = (a0 > 0) & (a1 < 0)
    if np.any(crossing):
        t_star = np.where(crossing, a0 * dt / np.where(a0 != a1, a0 - a1, 1.0), 0.0)
        k = np.clip((t_star / (dt / n)).astype(int), 0, n - 1)
        rows = np.arange(a.shape[0])
        t_k = k * (dt / n)
        a_k = a[rows, k]
        v_k = v[rows, k]
        v_star = v_k + 0.5 * a_k * (t_star - t_k)  # a(t_star) = 0
        peak = np.where(crossing, np.maximum(peak, v_star), peak)

    brake = a1 > 0
    if np.any(brake):
        tb = np.where(brake, a1 / j_max, 0.0)
        tau2 = np.linspace(0.0, 1.0, n + 1)[None, :] * tb[:, None]
        a2 = a1[:, None] - j_max[:, None] * tau2
        dv2 = 0.5 * (a2[:, 1:] + a2[:, :-1]) * (tb[:, None] / n)
        v2 = v[:, -1][:, None] + np.cumsum(dv2, axis=1)
        peak = np.where(brake, np.maximum(peak, v2.max(axis=1)), peak)
    return peak


def bisect_max_accel_velocity(v0, a0, v_max, j_max, dt, iters=80):
    """Largest a1 whose accelerate-then-brake profile peaks at <= v_max."""
    v0, a0, v_max, j_max = np.broadcast_arrays(
        np.atleast_1d(np.asarray(v0, float)), np.asarray(a0, float),
        np.asarray(v_max, float), np.asarray(j_max, float))
    lo = np.minimum(a0, 0.0) - 2.0 * j_max * dt - 2.0 * np.abs(a0) - 1.0
    hi = np.maximum(a0, 0.0) + 4.0 * np.maximum(v_max - v0, 0.0) / dt + j_max * dt + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = profile_peak_velocity(v0, a0, mid, j_max, dt) <= v_max
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo


def random_limit_tuples(rng, n):
    """States on or inside the velocity-safe set, in the supported regime."""
    dt = rng.uniform(0.02, 0.1, n)
    v_max = rng.uniform(0.3, 3.0, n)
    a_max = rng.uniform(1.0, 15.0, n)
    j_max = rng.uniform(0.5, 1.0, n) * np.minimum(a_max / dt, v_max / dt**2)
    a0 = rng.uniform(-1.0, 1.0, n) * np.minimum(a_max, np.sqrt(1.9 * j_max * v_max))
    budget = v_max - a0**2 / (2.0 * j_max)
    v0 = rng.uniform(-1.0, 1.0, n) * np.maximum(budget, 0.0) * 0.999
    return v0, a0, v_max, a_max, j_max, dt


def greedy_rollout(v0, a0, v_max, a_max, j_max, dt, steps, correction):
    """Scalar greedy-max closed loop; returns knot arrays and substep peak v."""
    v, a = float(v0), float(a0)
    vs, accs = [v], [a]
    peak = v
    for _ in range(steps):
        lo, hi = lim.valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        a1 = float(hi)
        _, vv, _ = ref_substep_profile(0.0, v, a, a1, dt, 10)
        peak = max(peak, float(np.max(vv)))
        if a > 0.0 > a1:
            t_star = a * dt / (a - a1)
            peak = max(peak, v + a * t_star + (a1 - a) * t_star**2 / (2 * dt))
        _, [v1] = lim.integrate_step([0.0], [v], [a], [a1], dt)
        v, a = v1, a1
        vs.append(v)
        accs.append(a)
    return np.asarray(vs), np.asarray(accs), peak


# ---------------------------------------------------------------------------
# Frozen reference kernels: the valid-range arithmetic as first written
# (element passes over (k, 6) candidates, boolean-mask gathers, the in-step
# root always evaluated), with thin ranges braking at full jerk.  ``limits``
# must stay bit-identical to them.

def ref_max_accel_velocity(v0, a0, v_max, j_max, dt):
    v0, a0, v_max, j_max = (np.asarray(x, dtype=float) for x in (v0, a0, v_max, j_max))
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = 1.0 + (8.0 * (v0 - v_max) + 4.0 * a0 * dt) / (-j_max * dt * dt)
        disc = np.maximum(disc, 0.0)
        brake = (-j_max * dt / 2.0) * (1.0 - np.sqrt(disc))
        gap = v_max - v0
        safe_gap = np.where(gap != 0.0, gap, 1.0)
        instep = a0 * (1.0 - (a0 * dt) / (2.0 * safe_gap))
    past_threshold = v0 + 0.5 * a0 * dt >= v_max
    use_instep = past_threshold & (a0 != 0.0) & (gap > 0.0)
    rest_at_limit = past_threshold & (a0 == 0.0)
    out = np.where(use_instep, instep, brake)
    out = np.where(rest_at_limit, 0.0, out)
    return out if out.ndim else float(out)


def ref_correction_shift(v0, a0, a_unc, v_max, a_max, j_max, dt):
    jd = j_max * dt
    dv = v_max - v0
    with np.errstate(invalid="ignore", divide="ignore"):
        n0 = np.ceil(np.maximum(a_unc, 0.0) / jd)
    n0 = np.clip(np.nan_to_num(n0, nan=1.0), 1.0, 1e6)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    n = np.maximum(n0[..., None] + offsets, 1.0)
    c = (dv / dt - 0.5 * a0)[..., None]
    a_star = c / n + 0.5 * jd[..., None] * (n - 1.0)
    a_tail = a_star - jd[..., None] * (n - 1.0)
    tol = 1e-9
    lower = np.maximum(a0 - jd, -a_max)[..., None]
    admissible = (
        (a_star >= -tol)
        & (a_star <= a_unc[..., None] + tol)
        & (a_star >= lower - tol)
        & (a_tail >= -tol)
        & (a_tail <= jd[..., None] + tol)
    )
    a_star = np.where(admissible, a_star, -np.inf)
    best = np.max(a_star, axis=-1)
    return np.where(np.isfinite(best), np.minimum(np.maximum(best, 0.0), a_unc), a_unc)


def _ref_reflected(x, shape):
    out = np.empty((2,) + shape)
    out[0] = x
    out[1] = -x
    return out


def ref_valid_accel_bounds(v0, a0, v_max, a_max, j_max, dt, correction_enabled=False):
    v0, a0, v_max, a_max, j_max = (np.asarray(x, dtype=float)
                                   for x in (v0, a0, v_max, a_max, j_max))
    shape = np.broadcast(v0, a0, v_max, a_max, j_max).shape
    if not (np.isfinite(v0).all() and np.isfinite(a0).all()):
        raise NonFiniteStateError("valid acceleration range needs a finite "
                                  "joint velocity and acceleration")
    v_refl = _ref_reflected(v0, shape)
    a_refl = _ref_reflected(a0, shape)
    vel = ref_max_accel_velocity(v_refl, a_refl, v_max, j_max, dt)
    hi_jerk = a0 + j_max * dt
    lo_jerk = a0 - j_max * dt
    if correction_enabled:
        binding = np.stack((
            vel[0] <= np.minimum(hi_jerk, a_max) + lim.LIMIT_EPS,
            -vel[1] >= np.maximum(lo_jerk, -a_max) - lim.LIMIT_EPS,
        ))
        if binding.any():
            vel[binding] = ref_correction_shift(
                v_refl[binding], a_refl[binding], vel[binding],
                *(np.broadcast_to(x, vel.shape)[binding] for x in (v_max, a_max, j_max)),
                dt,
            )
    hi = np.minimum(np.minimum(hi_jerk, a_max), vel[0])
    lo = np.maximum(np.maximum(lo_jerk, -a_max), -vel[1])
    ceil = np.minimum(hi_jerk, a_max)
    floor = np.maximum(lo_jerk, -a_max)
    bad = lo - hi > lim.LIMIT_EPS
    if np.any(bad):
        v_b = v_refl[:, bad]
        vel_b = ref_max_accel_velocity(
            v_b - lim.BOUNDARY_ULPS * np.abs(np.spacing(v_b)), a_refl[:, bad],
            *(np.broadcast_to(x, shape)[bad] for x in (v_max, j_max)), dt)
        ceil_b, floor_b = ceil[bad], floor[bad]
        empty = np.maximum(floor_b, -vel_b[1]) > np.minimum(ceil_b, vel_b[0])
        if np.any(empty):
            idx = np.argwhere(bad)[np.argmax(empty)]
            joint = idx[-1] if idx.size else 0
            raise LimitConsistencyError(joint, lo[tuple(idx)], hi[tuple(idx)])
    # boundary states, and thin ranges (0 < lo - hi <= LIMIT_EPS)
    over = lo > hi
    brake = np.where(vel[0] < ceil, floor, ceil)
    lo = np.where(over, brake, lo)[()]
    hi = np.where(over, brake, hi)[()]
    return lo, hi


# ---------------------------------------------------------------------------
# Frozen environment layers: the substep profile with its velocities and
# accelerations, the plate FK and motion, the ball step with its per-tick
# helpers, the task reward, the sensing and the environment wrapper, all as
# written on numpy arrays.  The rollout's environment side must stay
# bit-identical to them, and the tests that read a step's continuous
# velocity and acceleration take them from ``ref_substep_profile``.

def ref_substep_profile(p0, v0, a0, a1, dt, substeps):
    """Positions, velocities and accelerations at every control tick of a
    step, arrays of leading length substeps + 1."""
    p0, v0, a0, a1 = (np.asarray(x, dtype=float) for x in (p0, v0, a0, a1))
    tau = (np.arange(substeps + 1, dtype=float) * (dt / substeps))
    tau = tau.reshape((-1,) + (1,) * p0.ndim)
    slope = (a1 - a0) / dt
    a = a0 + slope * tau
    v = v0 + a0 * tau + 0.5 * slope * tau**2
    p = p0 + v0 * tau + 0.5 * a0 * tau**2 + slope * tau**3 / 6.0
    return p, v, a


def ref_frames(model, q):
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != model.n_joints:
        raise ConfigurationError(
            f"expected {model.n_joints} joint values, got {q.shape[-1]}")
    eye = np.eye(3)
    sin = np.sin(q)[:, :, None, None]
    vers = (1.0 - np.cos(q))[:, :, None, None]
    local = model.mounts @ (eye + sin * model.axis_skews + vers * model.axis_skews_sq)
    pos = np.zeros((q.shape[0], 3))
    rot = np.broadcast_to(eye, (q.shape[0], 3, 3))
    origins, rots = [], []
    for i, row in enumerate(model.joints):
        pos = pos + rot @ row.origin_xyz
        rot = rot @ local[:, i]
        origins.append(pos)
        rots.append(rot)
    return origins, rots, pos + rot @ model.plate_xyz, rot @ model.plate_rot


def ref_plate_motion(model, q_series, dt):
    q_series = np.asarray(q_series, dtype=float)
    if q_series.shape[0] < 3:
        raise ConfigurationError("plate_motion needs at least 3 substep samples")
    _, _, positions, rots = ref_frames(model, q_series)
    acc = np.empty_like(positions)
    acc[1:-1] = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / dt**2
    acc[0], acc[-1] = acc[1], acc[-2]
    return positions, rots, acc


def ref_plate_drive(rotations, lin_acc):
    g_world = np.array([0.0, 0.0, -env.GRAVITY])
    return env.ROLLING_FACTOR * ((g_world - lin_acc)[:, None, :] @ rotations)[:, 0, :2]


def ref_planar_norm(x, y, buf):
    buf[0], buf[1] = x, y
    return math.sqrt(buf.dot(buf))


def ref_ball_acceleration(drive, velocity, speed, resist, buf):
    dx, dy = drive
    if speed < 1e-12:
        if ref_planar_norm(dx, dy, buf) <= resist:
            return 0.0, 0.0
        return dx, dy
    vx, vy = velocity
    return dx - resist * vx / speed, dy - resist * vy / speed


def ref_step_ball(position, velocity, rotations, lin_acc, params, dt, geometry):
    bound_x, bound_y = env.effective_bounds(geometry, params)
    resist = params.rolling_friction * env.GRAVITY
    stop_speed = resist * dt
    (x, y), (vx, vy) = position.tolist(), velocity.tolist()
    buf = np.empty(2)
    on_plate = True
    for drive in ref_plate_drive(rotations, lin_acc).tolist():
        speed = ref_planar_norm(vx, vy, buf) if vx or vy else 0.0
        ax, ay = ref_ball_acceleration(drive, (vx, vy), speed, resist, buf)
        new_vx, new_vy = vx + ax * dt, vy + ay * dt
        if speed < stop_speed and np.dot((new_vx, new_vy), (vx, vy)) < 0:
            new_vx = new_vy = 0.0
        vx, vy = new_vx, new_vy
        x, y = x + vx * dt, y + vy * dt
        if abs(x) > bound_x or abs(y) > bound_y:
            on_plate = False
            break
    return np.array((x, y)), np.array((vx, vy)), on_plate


def ref_task_reward(position, on_plate, spec, geometry, params):
    if not on_plate:
        return 0.0
    k = spec.reward_exponent
    if spec.kind == "on_plate":
        frac = float(np.max(np.abs(position) / env.effective_bounds(geometry, params)))
    else:
        offset = position - spec.target
        frac = math.sqrt(offset.dot(offset)) / spec.success_bound
    return min(max(1.0 - min(frac, 1.0) ** k, 0.0), 1.0)


def ref_sensor_feedback(measured, previous, spec, geometry):
    half = np.array([geometry.half_x, geometry.half_y])
    parts = [measured / half, previous / half]
    if spec.kind == "in_place":
        parts.append((measured - spec.target) / half)
    return np.minimum(np.maximum(np.concatenate(parts), -1.0), 1.0)


class RefBallPlateEnv:
    """``BallPlateEnv`` on the frozen ball, reward and sensing above."""

    def __init__(self, model, geometry, task, ball):
        self.model = model
        self.geometry = geometry
        self.task = task
        self.base_ball = ball
        self.position = self.velocity = self.measured = None

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.ball = env.randomize_ball(self.base_ball, self.rng)
        self.position = self.task.start
        self.velocity = np.zeros(2)
        self.measured = None
        return self._sense()

    def _sense(self):
        measured = self.position
        if self.task.noise_std > 0:
            measured = measured + self.rng.normal(0.0, self.task.noise_std, 2)
        previous = measured if self.measured is None else self.measured
        self.measured = measured
        return ref_sensor_feedback(measured, previous, self.task, self.geometry)

    def step(self, rotations, lin_acc, dt):
        self.position, self.velocity, on_plate = ref_step_ball(
            self.position, self.velocity, rotations, lin_acc, self.ball, dt, self.geometry)
        reward = ref_task_reward(self.position, on_plate, self.task, self.geometry, self.ball)
        return self.position, on_plate, reward, self._sense()


# ---------------------------------------------------------------------------
# Frozen reference step loop: ``adaptation.rollout``'s decision step as it
# was written on (n,) arrays, with the tracking law and the balancer's ball
# law on arrays too and the frozen valid-range kernel above.  ``rollout``
# must write the same log bits.

def ref_build_observation(p, v, a, limits, feedback, reference, t, n_future):
    feedback = np.asarray(feedback, dtype=float)

    def norm_pos(p):
        return (p - limits.p_mid) / limits.p_half_range

    rows = []
    last = reference.n_steps - 1
    for k in range(1, n_future + 1):
        rows.append(norm_pos(reference.positions[min(t + k, last)]))
    obs = np.concatenate([norm_pos(p), v / limits.v_max, a / limits.a_max, feedback,
                          np.concatenate(rows)])
    return np.minimum(np.maximum(obs, -1.0), 1.0)


class _RefTrackingLaw:
    """``TrackingPolicy``'s law on arrays, ahead of it in the MRO."""

    def tracking_accel(self, obs, shift=None):
        lay, lim_ = self.layout, self.limits
        p = lay.joint_pos(obs) * lim_.p_half_range + lim_.p_mid
        v = lay.joint_vel(obs) * lim_.v_max
        p_ref = lay.ref_row(obs) * lim_.p_half_range + lim_.p_mid

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

    def act(self, obs, rng):
        return np.minimum(np.maximum(self.tracking_accel(obs) / self.limits.a_max, -1.0), 1.0)


class RefTrackingPolicy(_RefTrackingLaw, pol.TrackingPolicy):
    pass


class RefPDBalancePolicy(_RefTrackingLaw, pol.PDBalancePolicy):
    def act(self, obs, rng):
        lay, lim_ = self.layout, self.limits
        half = np.array([self.geometry.half_x, self.geometry.half_y])
        f = lay.feedback(obs)
        cur = f[0:2] * half
        prev = f[2:4] * half
        err = (f[4:6] * half) if self.task.kind == "in_place" else cur
        vel = (cur - prev) / self.dt

        u = -(self.ball_kp * err + self.ball_kd * vel)
        tilt = np.array([-u[1], u[0]]) / pol.BALL_DRIVE
        norm = math.sqrt(tilt.dot(tilt))
        if norm > pol.TILT_LIMIT:
            tilt *= pol.TILT_LIMIT / norm

        shift = np.zeros(lim_.n_joints)
        shift[self.mask] = self.tilt_to_joints @ tilt
        return np.minimum(np.maximum(self.tracking_accel(obs, shift) / lim_.a_max, -1.0), 1.0)


def ref_rollout_log(reference, policy, limits, params, weights, env=None, seed=(0,)):
    """The scored ``StepLog`` of one episode of the array step loop, with
    the frozen environment layers below on a ``RefBallPlateEnv`` of
    ``env``'s model, geometry, task and ball."""
    total_steps = reference.n_steps - 1
    p = reference.positions[0].copy()
    v = np.zeros_like(p)
    a = np.zeros_like(p)
    seed_key = [int(s) for s in seed]
    policy_rng = np.random.default_rng(seed_key + [1])
    policy.reset()
    feedback = np.zeros(0)
    if env is not None:
        env = RefBallPlateEnv(env.model, env.geometry, env.task, env.base_ball)
        feedback = env.reset(seed_key + [2])
    log = ad.StepLog.allocate(total_steps, limits.n_joints)
    dt = params.dt
    executed = 0
    for t in range(total_steps):
        obs = ref_build_observation(p, v, a, limits, feedback, reference, t, weights.n_future)
        raw = np.asarray(policy.act(obs, policy_rng), dtype=float)
        if not np.isfinite(raw).all():
            break
        raw = np.minimum(np.maximum(raw, -1.0), 1.0)
        lo, hi = ref_valid_accel_bounds(v, a, limits.v_max, limits.a_max, limits.j_max, dt,
                                        params.correction_enabled)
        a_next = np.minimum(np.maximum(raw * limits.a_max, lo), hi)
        v_next = v + 0.5 * (a + a_next) * dt
        p_next = p + v * dt + (2.0 * a + a_next) * dt * dt / 6.0
        deviation = np.abs(p_next - reference.positions[t + 1]).max()
        if deviation > weights.termination:
            break
        r_task = 1.0
        if env is not None:
            q_sub, _, _ = ref_substep_profile(p, v, a, a_next, dt, params.substeps)
            _, rotations, lin_acc = ref_plate_motion(env.model, q_sub, params.control_dt)
            position, on_plate, r_task, feedback = env.step(rotations[1:], lin_acc[1:],
                                                            params.control_dt)
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
        if log.ball_on_plate[t] == 0.0:
            break
    log = log.head(executed)
    ad.score_log(log, limits, weights, dt)
    return log
