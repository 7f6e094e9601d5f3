import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from trajadapt import environment as env
from trajadapt.adaptation import StepLog
from trajadapt.errors import ConfigurationError
from trajadapt.kinematics import gimbal_chain
from trajadapt.limits import JointLimits


def still_plate(rot, ticks=1):
    """(rotations, lin_acc) of a plate held at ``rot`` for ``ticks`` ticks."""
    return np.repeat(np.asarray(rot)[None], ticks, axis=0), np.zeros((ticks, 3))


# ---------------------------------------------------------------------------
# physics

def test_flat_plate_equilibrium():
    params = env.BallParams()
    state = env.BallState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    rots, acc = still_plate(np.eye(3), ticks=10)
    out = env.step_ball(state, rots, acc, params, 0.005, env.PlateGeometry())
    np.testing.assert_array_equal(out.position, [0.0, 0.0])
    np.testing.assert_array_equal(out.velocity, [0.0, 0.0])
    assert out.on_plate


def test_static_tilt_acceleration_value():
    params = env.BallParams(rolling_friction=0.0)
    rot = Rotation.from_euler("y", np.deg2rad(5)).as_matrix()
    acc = env.ball_acceleration(rot, [0, 0, 0], [0, 0], params)
    expected = (5.0 / 7.0) * env.GRAVITY * np.sin(np.deg2rad(5))
    assert np.linalg.norm(acc) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.6107, abs=1e-4)


def test_accelerating_plate_pseudo_force():
    params = env.BallParams(rolling_friction=0.0)
    a_p = 1.3
    acc = env.ball_acceleration(np.eye(3), [a_p, 0.0, 0.0], [0, 0], params)
    np.testing.assert_allclose(acc, [-(5.0 / 7.0) * a_p, 0.0], atol=1e-12)


def test_rolling_friction_opposes_motion_and_sticks():
    params = env.BallParams(rolling_friction=0.02)
    acc = env.ball_acceleration(np.eye(3), [0, 0, 0], [0.1, 0.0], params)
    assert acc[0] == pytest.approx(-0.02 * env.GRAVITY)
    # at rest on a flat plate friction produces no motion
    acc0 = env.ball_acceleration(np.eye(3), [0, 0, 0], [0.0, 0.0], params)
    np.testing.assert_array_equal(acc0, [0.0, 0.0])


def test_energy_conservation_on_static_tilt():
    # frictionless rolling on a fixed 5 degree incline for 10 s at 5 ms
    params = env.BallParams(rolling_friction=0.0)
    rot = Rotation.from_euler("y", np.deg2rad(5)).as_matrix()
    rots, acc = still_plate(rot)
    geometry = env.PlateGeometry(half_x=100.0, half_y=100.0)
    g_t = (rot.T @ np.array([0.0, 0.0, -env.GRAVITY]))[:2]

    def energy(s):
        return 0.7 * float(np.dot(s.velocity, s.velocity)) - float(np.dot(s.position, g_t))

    state = env.BallState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    state = env.step_ball(state, rots, acc, params, 0.005, geometry)
    e0 = energy(state)
    for _ in range(1999):
        state = env.step_ball(state, rots, acc, params, 0.005, geometry)
    drift = abs(energy(state) - e0)
    assert drift < 0.01 * 0.7 * float(np.dot(state.velocity, state.velocity))


def test_ball_leaves_plate():
    params = env.BallParams(rolling_friction=0.0)
    rots, acc = still_plate(Rotation.from_euler("y", np.deg2rad(10)).as_matrix())
    geometry = env.PlateGeometry()
    state = env.BallState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    for _ in range(400):
        state = env.step_ball(state, rots, acc, params, 0.005, geometry)
        if not state.on_plate:
            break
    assert not state.on_plate


# ---------------------------------------------------------------------------
# rewards

def test_task_reward_at_target_is_one():
    spec = env.TaskSpec(kind="in_place")
    state = env.BallState(position=[0.0, 0.0], velocity=[0, 0])
    assert env.task_reward(state, spec, env.PlateGeometry()) == 1.0


def test_task_reward_off_plate_is_zero():
    spec = env.TaskSpec(kind="on_plate")
    state = env.BallState(position=[0.3, 0.0], velocity=[0, 0], on_plate=False)
    assert env.task_reward(state, spec, env.PlateGeometry()) == 0.0


def test_task_reward_quadratic_decay_value():
    spec = env.TaskSpec(kind="in_place", success_bound=0.06)
    state = env.BallState(position=[0.03, 0.0], velocity=[0, 0])
    assert env.task_reward(state, spec, env.PlateGeometry()) == pytest.approx(0.75)


def test_task_reward_continuous_at_bound():
    spec = env.TaskSpec(kind="in_place", success_bound=0.06)
    geometry = env.PlateGeometry()
    just_in = env.BallState(position=[0.06 - 1e-9, 0.0], velocity=[0, 0])
    at = env.BallState(position=[0.06, 0.0], velocity=[0, 0])
    assert env.task_reward(just_in, spec, geometry) == pytest.approx(0.0, abs=1e-7)
    assert env.task_reward(at, spec, geometry) == 0.0


def test_on_plate_reward_decays_to_zero_at_rim():
    spec = env.TaskSpec(kind="on_plate")
    geometry = env.PlateGeometry()
    centre = env.BallState(position=[0.0, 0.0], velocity=[0, 0])
    rim = env.BallState(position=[geometry.half_x, 0.0], velocity=[0, 0])
    assert env.task_reward(centre, spec, geometry) == 1.0
    assert env.task_reward(rim, spec, geometry) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sensing

def test_sensor_feedback_lengths():
    geometry = env.PlateGeometry()
    centre = np.zeros(2)
    f_on = env.sensor_feedback(centre, centre,
                               env.TaskSpec(kind="on_plate", noise_std=0.0), geometry)
    f_in = env.sensor_feedback(centre, centre,
                               env.TaskSpec(kind="in_place", noise_std=0.0), geometry)
    assert f_on.shape == (4,)
    assert f_in.shape == (6,)


def test_sensor_feedback_zero_noise_stationary_centre():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="in_place", noise_std=0.0),
                         env.BallParams(), control_dt=0.005)
    f = e.reset(seed=0)
    for _ in range(2):
        np.testing.assert_array_equal(f, np.zeros(6))
        _, _, f = e.step(*still_plate(np.eye(3)))


def test_sensor_feedback_noise_magnitude():
    geometry = env.PlateGeometry()
    spec = env.TaskSpec(kind="on_plate", noise_std=0.001)
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, geometry, spec, env.BallParams(), control_dt=0.005)
    e.reset(seed=123)
    # the ball rests at the centre of the flat plate; only the noise moves the reading
    reads = np.array([e.step(*still_plate(np.eye(3)))[2][0] for _ in range(4000)])
    observed = np.std(reads) * geometry.half_x
    assert observed == pytest.approx(0.001, rel=0.10)


def test_sensor_feedback_clamped():
    geometry = env.PlateGeometry()
    spec = env.TaskSpec(kind="on_plate", noise_std=0.0)
    off = np.array([0.5, -0.5])
    f = env.sensor_feedback(off, off, spec, geometry)
    assert np.all(f <= 1.0) and np.all(f >= -1.0)


def test_env_previous_reading_is_last_current_reading():
    # with noise, each reading appears once as current and then unchanged as
    # previous; right after reset both halves are the same reading
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="in_place", noise_std=0.002),
                         env.BallParams(), control_dt=0.005)
    f = e.reset(seed=3)
    np.testing.assert_array_equal(f[2:4], f[0:2])
    for _ in range(5):
        _, _, f_next = e.step(*still_plate(np.eye(3), ticks=10))
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


def test_randomize_ball_degenerate_ranges():
    base = env.BallParams(radius_range=(0.02, 0.02), friction_range=(0.01, 0.01))
    d = env.randomize_ball(base, 3)
    assert (d.radius, d.rolling_friction) == (0.02, 0.01)


# ---------------------------------------------------------------------------
# metrics

def _log(accel, jerk, ball=None):
    """A step log with these accel and jerk rows and, given a ball state, its
    position and on-plate flag on every row."""
    accel = np.asarray(accel, float)
    log = StepLog.allocate(*accel.shape)
    log.accel[:] = accel
    log.jerk[:] = jerk
    if ball is not None:
        log.ball_x[:], log.ball_y[:] = ball.position
        log.on_plate[:] = 1.0 if ball.on_plate else 0.0
    return log


def _limits():
    return JointLimits(p_min=[-1] * 2, p_max=[1] * 2, v_max=[1] * 2,
                       a_max=[10.0] * 2, j_max=[100.0] * 2)


def test_metrics_fraction_on_early_stop():
    log = _log(np.zeros((50, 2)), np.zeros((50, 2)))
    rep = env.episode_metrics(log, total_steps=100, limits=_limits(), spec=None,
                              dt=0.05, ball_lost=True)
    assert rep.fraction == pytest.approx(0.5)
    assert not rep.success


def test_metrics_perfect_episode():
    spec = env.TaskSpec(kind="in_place")
    ball = env.BallState(position=[0.0, 0.0], velocity=[0, 0])
    log = _log(np.zeros((100, 2)), np.zeros((100, 2)), ball=ball)
    rep = env.episode_metrics(log, total_steps=100, limits=_limits(), spec=spec,
                              dt=0.05)
    assert rep.success
    assert rep.fraction == 1.0
    assert rep.error_distance == 0.0


def test_metrics_mean_normalized_accel():
    log = _log(np.full((10, 2), 0.7), np.zeros((10, 2)))  # a_max = 10
    rep = env.episode_metrics(log, total_steps=10, limits=_limits(), spec=None,
                              dt=0.05)
    assert rep.mean_norm_accel == pytest.approx(0.07)


def test_metrics_invariant_under_log_split():
    rng = np.random.default_rng(0)
    rows = [(rng.uniform(-5, 5, 2), rng.uniform(-50, 50, 2)) for _ in range(60)]
    accel, jerk = (np.array(col) for col in zip(*rows))
    full = env.episode_metrics(_log(accel, jerk), total_steps=60, limits=_limits(),
                               spec=None, dt=0.05)
    first = env.episode_metrics(_log(accel[:30], jerk[:30]), total_steps=30,
                                limits=_limits(), spec=None, dt=0.05)
    second = env.episode_metrics(_log(accel[30:], jerk[30:]), total_steps=30,
                                 limits=_limits(), spec=None, dt=0.05)
    recombined = 0.5 * (first.mean_norm_accel + second.mean_norm_accel)
    assert full.mean_norm_accel == pytest.approx(recombined, abs=1e-12)


def test_metrics_zero_rows_give_no_steps_and_no_success():
    for spec in (None, env.TaskSpec(kind="in_place"), env.TaskSpec(kind="on_plate")):
        rep = env.episode_metrics(StepLog.allocate(0, 2), total_steps=10,
                                  limits=_limits(), spec=spec, dt=0.05)
        assert rep.steps_executed == 0
        assert rep.fraction == 0.0
        assert not rep.success
        assert (rep.error_distance, rep.mean_norm_accel, rep.mean_norm_jerk,
                rep.mean_reward) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# env wrapper

def test_env_reset_and_step():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(), env.TaskSpec(noise_std=0.0),
                         env.BallParams(), control_dt=0.005)
    f = e.reset(seed=0)
    assert f.shape == (6,)
    ball, reward, f2 = e.step(*still_plate(np.eye(3), ticks=10))
    assert reward == 1.0
    assert ball.on_plate


def test_env_rejects_start_off_plate():
    model, _ = gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(), env.TaskSpec(noise_std=0.0),
                         env.BallParams(), control_dt=0.005,
                         start_offset=(5.0, 0.0))
    with pytest.raises(ConfigurationError):
        e.reset(seed=0)
