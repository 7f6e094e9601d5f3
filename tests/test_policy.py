from dataclasses import replace

import numpy as np
import pytest

from conftest import FIXED_BALL, arm_chain, planar_chain
from trajadapt import adaptation as ad
from trajadapt import environment as env
from trajadapt import kinematics as kin
from trajadapt import policy as pol
from trajadapt.errors import ConfigurationError
from trajadapt.limits import JointLimits, StepParams
from trajadapt.trajectory import ReferenceTrajectory


def _gimbal_setup(kind="in_place", noise=0.0):
    model, limits = kin.gimbal_chain()
    task = env.TaskSpec(kind=kind, noise_std=noise)
    layout = pol.ObservationLayout(2, task.feedback_size, 1)
    return model, limits, task, layout


# ---------------------------------------------------------------------------
# random / greedy

def test_random_policy_bounds_and_mean():
    p = pol.RandomPolicy(4)
    rng = np.random.default_rng(0)
    draws = np.array([p.act(None, rng) for _ in range(25_000)])
    assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
    assert abs(draws.mean()) < 0.01


def test_random_policy_seed_determinism():
    p = pol.RandomPolicy(3)
    a = np.array([p.act(None, np.random.default_rng(7)) for _ in range(1)])
    b = np.array([p.act(None, np.random.default_rng(7)) for _ in range(1)])
    np.testing.assert_array_equal(a, b)


def test_greedy_policy_constant_ones():
    p = pol.GreedyMaxPolicy(5)
    np.testing.assert_array_equal(p.act(None, None), np.ones(5))


# ---------------------------------------------------------------------------
# tracking

def test_tracking_zero_action_at_rest_on_reference():
    _, limits, task, layout = _gimbal_setup()
    p = pol.TrackingPolicy(layout, limits, 0.05)
    obs = np.zeros(layout.size)  # mid-range, at rest, reference at mid-range
    np.testing.assert_allclose(p.act(obs, None), 0.0, atol=1e-12)


def test_tracking_saturates_under_large_deviation():
    _, limits, task, layout = _gimbal_setup()
    p = pol.TrackingPolicy(layout, limits, 0.05)
    obs = np.zeros(layout.size)
    obs[layout.size - 2:] = 1.0  # reference row far above current position
    act = p.act(obs, None)
    np.testing.assert_array_equal(act, [1.0, 1.0])


def test_tracking_aims_at_the_current_row():
    # on a constant-velocity reference, a joint on row t at the reference
    # velocity is commanded exactly the feedforward: the PD term compares the
    # position with row t, not with the observed row t + 1.  Every value is
    # exact in binary.
    limits = JointLimits(p_min=[-1.0], p_max=[1.0], v_max=[2.0], a_max=[8.0], j_max=[64.0])
    policy = pol.TrackingPolicy(pol.ObservationLayout(1, 0, 1), limits, 0.25)
    rows = 0.0625 * np.arange(6)  # 0.25 rad/s
    commands = [policy.tracking_accel(np.array([rows[t], 0.25 / 2.0, 0.0, rows[t + 1]]))[0]
                for t in range(5)]
    # feedforward 0.25 / dt on the first step with a reference velocity, then 0
    assert commands[1:] == [1.0, 0.0, 0.0, 0.0]


def test_tracking_gain_validation():
    _, limits, _, layout = _gimbal_setup()
    with pytest.raises(ConfigurationError):
        pol.TrackingPolicy(layout, limits, 0.05, kp=0.0)
    with pytest.raises(ConfigurationError):
        pol.TrackingPolicy(layout, limits, 0.05, kd=-1.0)


def test_tracking_follows_limit_respecting_reference_within_two_degrees():
    # smooth reference staying below 30 % of every limit, jerk included
    model, limits = arm_chain()
    t = 0.05 * np.arange(80)
    amp = np.linspace(0.15, 0.3, 7)
    rows = np.asarray(model.q_home) + 0.5 * amp * (1.0 - np.cos(2.0 * t))[:, None]
    ref = ReferenceTrajectory(dt=0.05, positions=rows)
    layout = pol.ObservationLayout(7, 0, 1)
    policy = pol.TrackingPolicy(layout, limits, 0.05)
    report, log = ad.rollout(ref, policy, limits, StepParams(),
                             ad.RewardWeights())
    assert not report.terminated
    worst = max(log.deviation_rad)
    assert worst < np.deg2rad(2.0)


# ---------------------------------------------------------------------------
# balancer

def test_balance_zero_action_at_target_rest():
    model, limits, task, layout = _gimbal_setup()
    p = pol.PDBalancePolicy(layout, limits, 0.05, model, env.PlateGeometry(),
                            task, anchor_q=np.zeros(2), mask=(0, 1))
    obs = np.zeros(layout.size)  # ball at target, at rest, joints on reference
    np.testing.assert_allclose(p.act(obs, None), 0.0, atol=1e-12)


def test_balance_mask_without_authority_rejected():
    # planar chain about z never tilts the plate normal
    model, limits = planar_chain([1.0, 1.0])
    task = env.TaskSpec(kind="in_place")
    layout = pol.ObservationLayout(2, task.feedback_size, 1)
    with pytest.raises(ConfigurationError):
        pol.PDBalancePolicy(layout, limits, 0.05, model, env.PlateGeometry(),
                            task, anchor_q=np.zeros(2), mask=(0, 1))


def test_balance_zero_gains_degenerates_to_tracking():
    model, limits, task, layout = _gimbal_setup()
    p = pol.PDBalancePolicy(layout, limits, 0.05, model, env.PlateGeometry(),
                            task, anchor_q=np.zeros(2), mask=(0, 1),
                            ball_kp=0.0, ball_kd=0.0)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((60, 2)))
    e = env.BallPlateEnv(model, env.PlateGeometry(), replace(task, start_offset=(0.02, 0.0)),
                         FIXED_BALL)
    report, log = ad.rollout(ref, p, limits, StepParams(), ad.RewardWeights(),
                             env=e, seed=[0])
    # tracks the reference tightly and never reacts to the ball
    assert max(log.deviation_rad) < np.deg2rad(0.01)
    ball_moved = abs(log.ball_x_m[-1] - 0.02)
    assert ball_moved < 1e-6


def test_balance_recovers_two_centimetre_offset():
    model, limits, task, layout = _gimbal_setup()
    e = env.BallPlateEnv(model, env.PlateGeometry(), replace(task, start_offset=(0.02, 0.0)),
                         env.BallParams())
    p = pol.PDBalancePolicy(layout, limits, 0.05, model, env.PlateGeometry(),
                            task, anchor_q=np.zeros(2), mask=(0, 1))
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((201, 2)))
    report, log = ad.rollout(ref, p, limits, StepParams(), ad.RewardWeights(),
                             env=e, seed=[3])
    assert report.success
    dists = np.linalg.norm(
        np.column_stack((log.ball_x_m, log.ball_y_m)) - task.target, axis=1)
    assert max(dists) < 0.06
    assert dists[-1] < dists[0]


# ---------------------------------------------------------------------------
# linear policy

def test_linear_policy_save_load(tmp_path):
    # the weights file format the README documents: np.savetxt text
    w = np.arange(12.0).reshape(3, 4) / 10.0
    path = tmp_path / "weights.txt"
    np.savetxt(path, w)
    p = pol.LinearPolicy.load(path)
    np.testing.assert_array_equal(p.weights, w)
    obs = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(p.act(obs, None), pol.LinearPolicy(w).act(obs, None))


def test_linear_policy_clips_output():
    p = pol.LinearPolicy(np.full((2, 4), 10.0))
    out = p.act(np.ones(3), None)
    np.testing.assert_array_equal(out, [1.0, 1.0])
