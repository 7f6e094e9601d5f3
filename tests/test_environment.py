import itertools

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from trajadapt import environment as env
from trajadapt.adaptation import StepLog
from trajadapt.errors import ConfigurationError
from trajadapt.kinematics import gimbal_chain
from trajadapt.limits import JointLimits


def accel(rotation, lin_acc, velocity, params, dt=0.005):
    """The ball's acceleration over one ``step_ball`` tick from the plate's
    centre at ``velocity`` (2,), on a plate at ``rotation`` whose origin
    accelerates at ``lin_acc`` (3,)."""
    _, new_velocity, _ = env.step_ball(np.zeros(2), velocity, np.asarray(rotation)[None],
                                       np.asarray(lin_acc, dtype=float)[None], params, dt,
                                       env.PlateGeometry())
    return (new_velocity - velocity) / dt


def still_plate(rot, ticks=1):
    """(rotations, lin_acc) of a plate held at ``rot`` for ``ticks`` ticks."""
    return np.repeat(np.asarray(rot)[None], ticks, axis=0), np.zeros((ticks, 3))


# ---------------------------------------------------------------------------
# physics

def test_flat_plate_equilibrium():
    params = env.BallParams()
    rots, acc = still_plate(np.eye(3), ticks=10)
    position, velocity, on_plate = env.step_ball(np.zeros(2), np.zeros(2), rots, acc,
                                                 params, 0.005, env.PlateGeometry())
    np.testing.assert_array_equal(position, [0.0, 0.0])
    np.testing.assert_array_equal(velocity, [0.0, 0.0])
    assert on_plate


def test_static_tilt_acceleration_value():
    params = env.BallParams(rolling_friction=0.0)
    rot = Rotation.from_euler("y", np.deg2rad(5)).as_matrix()
    acc = accel(rot, np.zeros(3), np.zeros(2), params)
    expected = (5.0 / 7.0) * env.GRAVITY * np.sin(np.deg2rad(5))
    assert np.linalg.norm(acc) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.6107, abs=1e-4)


def test_accelerating_plate_pseudo_force():
    params = env.BallParams(rolling_friction=0.0)
    a_p = 1.3
    acc = accel(np.eye(3), [a_p, 0.0, 0.0], np.zeros(2), params)
    np.testing.assert_allclose(acc, [-(5.0 / 7.0) * a_p, 0.0], atol=1e-12)


def test_rolling_friction_opposes_motion_and_sticks():
    params = env.BallParams(rolling_friction=0.02)
    acc = accel(np.eye(3), np.zeros(3), np.array([0.1, 0.0]), params)
    assert acc[0] == pytest.approx(-0.02 * env.GRAVITY)
    # at rest on a flat plate friction produces no motion
    acc0 = accel(np.eye(3), np.zeros(3), np.array([0.0, 0.0]), params)
    np.testing.assert_array_equal(acc0, [0.0, 0.0])


def test_energy_conservation_on_static_tilt():
    # frictionless rolling on a fixed 5 degree incline for 10 s at 5 ms
    params = env.BallParams(rolling_friction=0.0)
    rot = Rotation.from_euler("y", np.deg2rad(5)).as_matrix()
    rots, acc = still_plate(rot)
    geometry = env.PlateGeometry(half_x=100.0, half_y=100.0)
    g_t = (rot.T @ np.array([0.0, 0.0, -env.GRAVITY]))[:2]

    def energy(position, velocity):
        return 0.7 * float(np.dot(velocity, velocity)) - float(np.dot(position, g_t))

    position, velocity, _ = env.step_ball(np.zeros(2), np.zeros(2), rots, acc, params,
                                          0.005, geometry)
    e0 = energy(position, velocity)
    for _ in range(1999):
        position, velocity, _ = env.step_ball(position, velocity, rots, acc, params,
                                              0.005, geometry)
    drift = abs(energy(position, velocity) - e0)
    assert drift < 0.01 * 0.7 * float(np.dot(velocity, velocity))


def test_ball_leaves_plate():
    params = env.BallParams(rolling_friction=0.0)
    rots, acc = still_plate(Rotation.from_euler("y", np.deg2rad(10)).as_matrix())
    geometry = env.PlateGeometry()
    position, velocity = np.zeros(2), np.zeros(2)
    for _ in range(400):
        position, velocity, on_plate = env.step_ball(position, velocity, rots, acc,
                                                     params, 0.005, geometry)
        if not on_plate:
            break
    assert not on_plate
    assert np.any(np.abs(position) > env.effective_bounds(geometry, params))


# ---------------------------------------------------------------------------
# the batched step against the per-tick loop it replaced

def oracle_ball_acceleration(rotation, acc_plate, velocity, params, hits):
    """Per-tick ball acceleration: ``rotation.T @ (g - a)`` and
    ``np.linalg.norm`` on 2-vectors.  Adds the branch it takes to ``hits``."""
    g_world = np.array([0.0, 0.0, -env.GRAVITY])
    drive = env.ROLLING_FACTOR * (rotation.T @ (g_world - acc_plate))[:2]
    speed = np.linalg.norm(velocity)
    resist = params.rolling_friction * env.GRAVITY
    if speed < 1e-12:
        if np.linalg.norm(drive) <= resist:
            hits.add("static hold")
            return np.zeros(2)
        hits.add("static push")
        return drive
    return drive - resist * velocity / speed


def oracle_step_ball(position, velocity, rotations, lin_acc, params, dt, geometry,
                     hits):
    """Per-tick ball step from a ball on the plate, one
    ``oracle_ball_acceleration`` per tick.  Adds the name of each branch it
    takes to ``hits``."""
    on_plate = True
    bounds = env.effective_bounds(geometry, params)
    for rotation, acc_plate in zip(rotations, lin_acc, strict=True):
        if not on_plate:
            break
        acc = oracle_ball_acceleration(rotation, acc_plate, velocity, params, hits)
        new_v = velocity + acc * dt
        if params.rolling_friction > 0 and np.dot(new_v, velocity) < 0 \
                and np.linalg.norm(velocity) < params.rolling_friction * env.GRAVITY * dt:
            hits.add("reversal")
            new_v = np.zeros(2)
        velocity = new_v
        position = position + velocity * dt
        on_plate = not np.any(np.abs(position) > bounds)
        if not on_plate:
            hits.add("left")
    return position, velocity, on_plate


def random_ball_step(rng, case):
    """A 10-tick step aimed at one branch: a resting ball on a near-flat
    plate, one creeping slower than friction stops in a tick, one near the
    rim moving out, or a free ball on a tilting, accelerating plate."""
    geometry = env.PlateGeometry()
    friction = rng.choice([0.0, rng.uniform(0.001, 0.01)])
    params = env.BallParams(radius=rng.uniform(0.012, 0.03), rolling_friction=friction)
    tilt = {"rest": 1e-3, "creep": 1e-4}.get(case, 0.2)
    rotations = Rotation.from_rotvec(rng.normal(0.0, tilt, (10, 3))).as_matrix()
    lin_acc = rng.normal(0.0, tilt, (10, 3))
    bounds = env.effective_bounds(geometry, params)
    position = rng.uniform(-0.5, 0.5, 2) * bounds
    velocity = rng.normal(0.0, 0.2, 2)
    if case == "rest":
        velocity = np.zeros(2)
    elif case == "creep":
        velocity = rng.normal(0.0, 1e-4, 2)
    elif case == "rim":
        position = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.98, 1.0, 2) * bounds
        velocity = np.sign(position) * rng.uniform(0.05, 0.5, 2)
    return position, velocity, rotations, lin_acc, params, geometry


def test_step_ball_matches_per_tick_oracle_exactly():
    rng = np.random.default_rng(41)
    hits = set()
    for i in range(200):
        case = ("rest", "creep", "rim", "free")[i % 4]
        position, velocity, rotations, lin_acc, params, geometry = random_ball_step(rng, case)
        want = oracle_step_ball(position, velocity, rotations, lin_acc, params, 0.005,
                                geometry, hits)
        got = env.step_ball(position, velocity, rotations, lin_acc, params, 0.005, geometry)
        assert np.array_equal(got[0], want[0])  # position
        assert np.array_equal(got[1], want[1])  # velocity
        assert got[2] == want[2]                # on the plate
    assert hits == {"static hold", "static push", "reversal", "left"}


def test_ball_acceleration_matches_per_tick_oracle_exactly():
    # one step_ball tick per sample: its new velocity is the old one plus the
    # tick's acceleration times the tick, so a last-bit change in the speed
    # or the rolling resistance shows
    rng = np.random.default_rng(47)
    params = env.BallParams(rolling_friction=0.007)
    geometry = env.PlateGeometry(half_x=100.0, half_y=100.0)
    rotations = Rotation.from_rotvec(rng.normal(0.0, 0.2, (2000, 3))).as_matrix()
    lin_acc = rng.normal(0.0, 1.0, (2000, 3))
    for rot, acc, velocity in zip(rotations, lin_acc, rng.normal(0.0, 0.3, (2000, 2))):
        want = oracle_step_ball(np.zeros(2), velocity, rot[None], acc[None], params, 0.005,
                                geometry, set())
        got = env.step_ball(np.zeros(2), velocity, rot[None], acc[None], params, 0.005,
                            geometry)
        assert np.array_equal(got[1], want[1])


def test_planar_norm_is_np_linalg_norm_bit_for_bit():
    # hypot or a hand-written sum of squares round differently on a share
    # of vectors
    rng = np.random.default_rng(59)
    buf = np.empty(2)
    for v in rng.normal(0.0, 0.3, (2000, 2)):
        assert env.planar_norm(*v.tolist(), buf) == np.linalg.norm(v)


def test_plate_drive_equals_per_tick_specific_force():
    rng = np.random.default_rng(43)
    rotations = Rotation.random(2000, random_state=rng).as_matrix()
    lin_acc = rng.normal(0.0, 5.0, (2000, 3))
    got = env.plate_drive(rotations, lin_acc)
    g_world = np.array([0.0, 0.0, -env.GRAVITY])
    want = np.array([env.ROLLING_FACTOR * (rot.T @ (g_world - acc))[:2]
                     for rot, acc in zip(rotations, lin_acc)])
    assert np.array_equal(got, want)


def test_step_ball_leaves_its_inputs_and_returns_fresh_arrays():
    rng = np.random.default_rng(53)
    position, velocity, rotations, lin_acc, params, geometry = random_ball_step(rng, "free")
    inputs = [position, velocity, rotations, lin_acc]
    saved = [x.copy() for x in inputs]
    first = env.step_ball(position, velocity, rotations, lin_acc, params, 0.005, geometry)
    kept = [x.copy() for x in first[:2]]
    second = env.step_ball(first[0], first[1], rotations, lin_acc, params, 0.005, geometry)
    for x, was in zip(inputs + list(first[:2]), saved + kept):
        assert np.array_equal(x, was)
    # every returned array is new: it shares no memory with an input or a
    # result of the earlier call
    arrays = inputs + list(first[:2]) + list(second[:2])
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def test_step_ball_rejects_mismatched_tick_counts():
    rots, acc = still_plate(np.eye(3), ticks=10)
    with pytest.raises(ValueError):
        env.step_ball(np.zeros(2), np.zeros(2), rots, acc[:1], env.BallParams(), 0.005,
                      env.PlateGeometry())


# ---------------------------------------------------------------------------
# rewards

def test_task_reward_at_target_is_one():
    spec = env.TaskSpec(kind="in_place")
    assert env.task_reward(np.zeros(2), True, spec, env.PlateGeometry(),
                           env.BallParams()) == 1.0


def test_task_reward_off_plate_is_zero():
    spec = env.TaskSpec(kind="on_plate")
    assert env.task_reward(np.array([0.3, 0.0]), False, spec, env.PlateGeometry(),
                           env.BallParams()) == 0.0


def test_task_reward_quadratic_decay_value():
    spec = env.TaskSpec(kind="in_place", success_bound=0.06)
    assert env.task_reward(np.array([0.03, 0.0]), True, spec, env.PlateGeometry(),
                           env.BallParams()) == pytest.approx(0.75)


def test_task_reward_continuous_at_bound():
    spec = env.TaskSpec(kind="in_place", success_bound=0.06)
    geometry, ball = env.PlateGeometry(), env.BallParams()
    just_in = np.array([0.06 - 1e-9, 0.0])
    at = np.array([0.06, 0.0])
    assert env.task_reward(just_in, True, spec, geometry, ball) == pytest.approx(0.0, abs=1e-7)
    assert env.task_reward(at, True, spec, geometry, ball) == 0.0


def test_on_plate_reward_decays_to_zero_at_rim():
    spec = env.TaskSpec(kind="on_plate")
    geometry, ball = env.PlateGeometry(), env.BallParams()
    # the ball's edge reaches the rim when its centre is a radius inside
    centre = np.zeros(2)
    rim = np.array([geometry.half_x - ball.radius, 0.0])
    half_way = np.array([0.5 * (geometry.half_x - ball.radius), 0.0])
    assert env.task_reward(centre, True, spec, geometry, ball) == 1.0
    assert env.task_reward(half_way, True, spec, geometry, ball) == pytest.approx(0.75)
    assert env.task_reward(rim, True, spec, geometry, ball) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sensing

def test_sensor_feedback_lengths():
    geometry = env.PlateGeometry()
    centre = np.zeros(2)
    f_on = env.sensor_feedback(centre, centre,
                               env.TaskSpec(kind="on_plate", noise_std=0.0), geometry)
    f_in = env.sensor_feedback(centre, centre,
                               env.TaskSpec(kind="in_place", noise_std=0.0), geometry)
    assert len(f_on) == 4
    assert len(f_in) == 6


def test_sensor_feedback_zero_noise_stationary_centre():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="in_place", noise_std=0.0),
                         env.BallParams(randomize=False))
    f = e.reset(seed=0)
    for _ in range(2):
        np.testing.assert_array_equal(f, np.zeros(6))
        *_, f = e.step(*still_plate(np.eye(3)), 0.005)


def test_sensor_feedback_noise_magnitude():
    geometry = env.PlateGeometry()
    spec = env.TaskSpec(kind="on_plate", noise_std=0.001)
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, geometry, spec, env.BallParams(randomize=False))
    e.reset(seed=123)
    # the ball rests at the centre of the flat plate; only the noise moves the reading
    reads = np.array([e.step(*still_plate(np.eye(3)), 0.005)[3][0] for _ in range(4000)])
    observed = np.std(reads) * geometry.half_x
    assert observed == pytest.approx(0.001, rel=0.10)


def test_sensor_feedback_clamped():
    geometry = env.PlateGeometry()
    spec = env.TaskSpec(kind="on_plate", noise_std=0.0)
    off = np.array([0.5, -0.5])
    f = np.array(env.sensor_feedback(off, off, spec, geometry))
    assert np.all(f <= 1.0) and np.all(f >= -1.0)


def test_env_previous_reading_is_last_current_reading():
    # with noise, each reading appears once as current and then unchanged as
    # previous; right after reset both halves are the same reading
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="in_place", noise_std=0.002),
                         env.BallParams(randomize=False))
    f = e.reset(seed=3)
    np.testing.assert_array_equal(f[2:4], f[0:2])
    for _ in range(5):
        *_, f_next = e.step(*still_plate(np.eye(3), ticks=10), 0.005)
        np.testing.assert_array_equal(f_next[2:4], f[0:2])
        assert not np.array_equal(f_next[0:2], f[0:2])
        f = f_next


# ---------------------------------------------------------------------------
# randomization

def test_randomize_ball_within_ranges_and_deterministic():
    base = env.BallParams()
    rng = np.random.default_rng(7)
    draws = [env.randomize_ball(base, np.random.default_rng(k)) for k in range(200)]
    for d in draws:
        assert base.radius_range[0] <= d.radius <= base.radius_range[1]
        assert base.friction_range[0] <= d.rolling_friction <= base.friction_range[1]
    again = env.randomize_ball(base, np.random.default_rng(5))
    assert again == env.randomize_ball(base, np.random.default_rng(5))


def test_randomize_ball_off_returns_params_without_drawing():
    base = env.BallParams(randomize=False)
    rng = np.random.default_rng(3)
    assert env.randomize_ball(base, rng) is base
    assert rng.uniform() == np.random.default_rng(3).uniform()


def test_randomize_ball_degenerate_ranges():
    base = env.BallParams(radius_range=(0.02, 0.02), friction_range=(0.01, 0.01))
    d = env.randomize_ball(base, np.random.default_rng(3))
    assert (d.radius, d.rolling_friction) == (0.02, 0.01)


# ---------------------------------------------------------------------------
# metrics

def _log(accel, jerk, position=None, lost=False):
    """A step log with these accel and jerk rows and, given a ball
    ``position``, that position on every row, on the plate except on the
    last row when ``lost``."""
    accel = np.asarray(accel, float)
    log = StepLog.allocate(*accel.shape)
    log.a[:] = accel
    log.jerk[:] = jerk
    if position is not None:
        log.ball_x_m[:], log.ball_y_m[:] = position
        log.ball_on_plate[:] = 1.0
        if lost:
            log.ball_on_plate[-1] = 0.0
    return log


def _limits():
    return JointLimits(p_min=[-1] * 2, p_max=[1] * 2, v_max=[1] * 2,
                       a_max=[10.0] * 2, j_max=[100.0] * 2)


def test_metrics_fraction_on_early_stop():
    log = _log(np.zeros((50, 2)), np.zeros((50, 2)), position=np.zeros(2), lost=True)
    rep = env.episode_metrics(log, total_steps=100, limits=_limits(), spec=None)
    assert rep.fraction == pytest.approx(0.5)
    assert rep.ball_lost and not rep.terminated
    assert not rep.success


def test_metrics_perfect_episode():
    spec = env.TaskSpec(kind="in_place")
    log = _log(np.zeros((100, 2)), np.zeros((100, 2)), position=np.zeros(2))
    rep = env.episode_metrics(log, total_steps=100, limits=_limits(), spec=spec)
    assert rep.success
    assert not rep.terminated and not rep.ball_lost
    assert rep.fraction == 1.0
    assert rep.error_distance_m == 0.0


def test_metrics_mean_normalized_accel():
    log = _log(np.full((10, 2), 0.7), np.zeros((10, 2)))  # a_max = 10
    rep = env.episode_metrics(log, total_steps=10, limits=_limits(), spec=None)
    assert rep.mean_norm_accel == pytest.approx(0.07)


def test_metrics_invariant_under_log_split():
    rng = np.random.default_rng(0)
    rows = [(rng.uniform(-5, 5, 2), rng.uniform(-50, 50, 2)) for _ in range(60)]
    accel, jerk = (np.array(col) for col in zip(*rows))
    full = env.episode_metrics(_log(accel, jerk), total_steps=60, limits=_limits(),
                               spec=None)
    first = env.episode_metrics(_log(accel[:30], jerk[:30]), total_steps=30,
                                limits=_limits(), spec=None)
    second = env.episode_metrics(_log(accel[30:], jerk[30:]), total_steps=30,
                                 limits=_limits(), spec=None)
    recombined = 0.5 * (first.mean_norm_accel + second.mean_norm_accel)
    assert full.mean_norm_accel == pytest.approx(recombined, abs=1e-12)


def test_metrics_zero_rows_give_no_steps_and_no_success():
    for spec in (None, env.TaskSpec(kind="in_place"), env.TaskSpec(kind="on_plate")):
        rep = env.episode_metrics(StepLog.allocate(0, 2), total_steps=10,
                                  limits=_limits(), spec=spec)
        assert rep.steps_executed == 0
        assert rep.terminated and not rep.ball_lost
        assert rep.fraction == 0.0
        assert not rep.success
        assert (rep.error_distance_m, rep.mean_norm_accel, rep.mean_norm_jerk,
                rep.mean_reward) == (None, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# env wrapper

def test_env_reset_and_step():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(), env.TaskSpec(noise_std=0.0),
                         env.BallParams(randomize=False))
    f = e.reset(seed=0)
    assert len(f) == 6
    position, on_plate, reward, f2 = e.step(*still_plate(np.eye(3), ticks=10), 0.005)
    assert reward == 1.0
    assert on_plate
    np.testing.assert_array_equal(position, [0.0, 0.0])
    np.testing.assert_array_equal(e.velocity, [0.0, 0.0])


def test_env_step_before_reset_is_rejected():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(), env.TaskSpec(noise_std=0.0),
                         env.BallParams(randomize=False))
    with pytest.raises(ConfigurationError, match="before reset"):
        e.step(*still_plate(np.eye(3)), 0.005)


def test_env_rejects_start_off_plate():
    model, _ = gimbal_chain()
    with pytest.raises(ConfigurationError):
        env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(noise_std=0.0, start_offset=(5.0, 0.0)),
                         env.BallParams(randomize=False))


def test_env_start_checked_against_largest_radius_it_can_draw():
    # 0.145 m is on the plate for the 0.02 m ball (bound 0.15) but not for
    # the largest radius a reset can draw (0.03 m, bound 0.14)
    model, _ = gimbal_chain()

    def make(offset, randomize):
        return env.BallPlateEnv(model, env.PlateGeometry(),
                                env.TaskSpec(noise_std=0.0, start_offset=offset),
                                env.BallParams(randomize=randomize))

    fixed = make((0.145, 0.0), randomize=False)
    fixed.reset(seed=0)
    np.testing.assert_array_equal(fixed.position, [0.145, 0.0])
    with pytest.raises(ConfigurationError, match="off the plate"):
        make((0.145, 0.0), randomize=True)
    at_bound = make((0.14, 0.0), randomize=True)
    for seed in range(20):
        at_bound.reset(seed=seed)
