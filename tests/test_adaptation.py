from dataclasses import fields

import numpy as np
import pytest

from conftest import (RefPDBalancePolicy, RefTrackingPolicy, arm_chain, ref_rollout_log,
                      ref_substep_profile)
from trajadapt import adaptation as ad
from trajadapt import environment as env
from trajadapt import kinematics as kin
from trajadapt import policy as pol
from trajadapt.errors import ConfigurationError
from trajadapt.limits import JointLimits, StepParams
from trajadapt.trajectory import ReferenceTrajectory


def _limits(n=7):
    return JointLimits(p_min=[-2.0] * n, p_max=[2.0] * n, v_max=[1.5] * n,
                       a_max=[10.0] * n, j_max=[100.0] * n)


# ---------------------------------------------------------------------------
# penalty terms

def test_accel_penalty_values():
    assert ad.accel_penalty([0.5], 0.8) == 0.0
    assert ad.accel_penalty([1.0], 0.8) == 1.0
    assert ad.accel_penalty([0.9], 0.8) == pytest.approx(0.25)
    # max-abs over joints
    assert ad.accel_penalty([0.1, -0.9, 0.3], 0.8) == pytest.approx(0.25)


def test_accel_penalty_continuous_at_threshold():
    below = ad.accel_penalty([np.nextafter(0.8, 0.0)], 0.8)
    above = ad.accel_penalty([np.nextafter(0.8, 1.0)], 0.8)
    assert below == 0.0
    assert abs(above - below) < 1e-12


def test_jerk_penalty_values():
    assert ad.jerk_penalty([0.0], [1.0], 4.0) == 0.0
    # j_p == j_sat saturates at exactly 1
    assert ad.jerk_penalty([0.5], [1.0], 4.0) == 1.0
    assert ad.jerk_penalty([0.3], [1.0], 4.0) == pytest.approx(0.1296)


def test_jerk_penalty_continuous_at_saturation():
    j_sat_jerk = 0.5  # j_p = 0.25 = j_sat for j_max=1, c=4
    below = ad.jerk_penalty([np.nextafter(j_sat_jerk, 0.0)], [1.0], 4.0)
    above = ad.jerk_penalty([np.nextafter(j_sat_jerk, 1.0)], [1.0], 4.0)
    assert above == 1.0
    assert abs(below - above) < 1e-12


def test_deviation_penalty_values():
    low, high = 0.0349, 0.1745
    assert ad.deviation_penalty(low, low, high) == 0.0
    assert ad.deviation_penalty(high, low, high) == pytest.approx(1.0)
    mid = 0.5 * (low + high)
    assert ad.deviation_penalty(mid, low, high) == pytest.approx(0.25)
    assert ad.deviation_penalty(high + 0.1, low, high) == 1.0


def test_deviation_penalty_continuous_at_thresholds():
    low, high = 0.02, 0.1
    for edge in (low, high):
        left = ad.deviation_penalty(np.nextafter(edge, 0.0), low, high)
        right = ad.deviation_penalty(np.nextafter(edge, 1.0), low, high)
        assert abs(left - right) < 1e-12


def test_compose_reward_cases():
    assert ad.compose_reward(1.0, 0.0, 0.0, 0.0)[1] == 1.0
    assert ad.compose_reward(0.37, 0.1, 0.3, 1.0)[1] == 0.0
    p_smooth, total = ad.compose_reward(0.8, 0.2, 0.0, 0.5)
    assert p_smooth == pytest.approx(0.1)
    assert total == pytest.approx(0.36)


def test_reward_in_unit_interval_randomized():
    rng = np.random.default_rng(0)
    r_task, p_accel, p_jerk, p_dev = rng.uniform(size=(4, 100_000))
    p_smooth, total = ad.compose_reward(r_task, p_accel, p_jerk, p_dev)
    assert np.all((0.0 <= total) & (total <= 1.0))
    assert p_smooth == pytest.approx(0.5 * (p_accel + p_jerk))


def test_check_termination_boundary():
    # boundary stays in the episode (strict inequality): a joint held at 0
    # against a reference that steps to the given offset
    weights = ad.RewardWeights(deviation_low=0.01, deviation_high=0.1,
                               termination=0.1)

    def terminated(offset):
        ref = ReferenceTrajectory(dt=0.05, positions=[[0.0], [offset]])
        report, _ = ad.rollout(ref, ZeroPolicy(1), _limits(1), StepParams(),
                               weights)
        return report.terminated

    assert not terminated(0.1)
    assert terminated(0.1 + 1e-6)
    assert not terminated(0.0)


def test_reward_weights_validation():
    with pytest.raises(ConfigurationError):
        ad.RewardWeights(accel_threshold=1.0)
    with pytest.raises(ConfigurationError):
        ad.RewardWeights(deviation_low=0.2, deviation_high=0.1)
    with pytest.raises(ConfigurationError):
        ad.RewardWeights(deviation_high=0.3, termination=0.2)


# ---------------------------------------------------------------------------
# observation

def _ref(n_steps=20, n=7, dt=0.05):
    return ReferenceTrajectory(dt=dt, positions=np.zeros((n_steps, n)))


def test_observation_length_in_place_seven_joints():
    limits = _limits()
    feedback = np.zeros(6)
    obs = ad.build_observation(np.zeros(7), np.zeros(7), np.zeros(7), limits,
                               feedback, _ref(), 0, 1)
    assert obs.shape == (34,)
    # joints at mid-range and at rest -> joint-state block all zeros
    np.testing.assert_allclose(obs[:21], 0.0, atol=1e-12)


def test_observation_velocity_normalization_boundary():
    limits = _limits()
    obs = ad.build_observation(np.zeros(7), limits.v_max.copy(), np.zeros(7),
                               limits, np.zeros(6), _ref(), 0, 1)
    np.testing.assert_allclose(obs[7:14], 1.0, atol=1e-12)


def test_observation_more_future_rows():
    limits = _limits()
    rest = (np.zeros(7), np.zeros(7), np.zeros(7), limits, np.zeros(6), _ref(), 0)
    obs1 = ad.build_observation(*rest, 1)
    obs10 = ad.build_observation(*rest, 10)
    assert obs10.shape[0] - obs1.shape[0] == 9 * 7


def test_observation_pads_with_final_row():
    limits = _limits(1)
    rows = np.linspace(0.0, 1.0, 5)[:, None]
    ref = ReferenceTrajectory(dt=0.05, positions=rows)
    obs = ad.build_observation(np.zeros(1), np.zeros(1), np.zeros(1), limits,
                               np.zeros(0), ref, 3, 4)
    ref_block = obs[3:]
    expected = (np.array([1.0, 1.0, 1.0, 1.0]) - 0.0) / 2.0  # rows 4,4,4,4 normalized
    np.testing.assert_allclose(ref_block, expected, atol=1e-12)


def test_observation_always_in_unit_box():
    limits = _limits(2)
    obs = ad.build_observation(np.array([5.0, -5.0]), np.array([9.0, -9.0]),
                               np.array([99.0, -99.0]), limits, np.zeros(4),
                               _ref(n=2), 0, 1)
    assert np.all(obs <= 1.0) and np.all(obs >= -1.0)


# ---------------------------------------------------------------------------
# rollout

class ZeroPolicy:
    def __init__(self, n):
        self.n = n

    def reset(self):
        pass

    def act(self, obs, rng):
        return np.zeros(self.n)


class HugePolicy:
    def __init__(self, n):
        self.n = n

    def reset(self):
        pass

    def act(self, obs, rng):
        return np.full(self.n, 1e9)


def test_rollout_zero_policy_stationary_reference():
    limits = _limits(2)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((30, 2)))
    report, log = ad.rollout(ref, ZeroPolicy(2), limits,
                             StepParams(), ad.RewardWeights())
    assert report.fraction == 1.0
    assert report.steps_executed == 29
    assert not report.terminated
    np.testing.assert_allclose(log.p, 0.0, atol=1e-15)


def test_rollout_huge_policy_equals_greedy():
    limits = _limits(2)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((20, 2)))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)  # keep episodes alive
    _, log_huge = ad.rollout(ref, HugePolicy(2), limits, StepParams(),
                             weights, seed=[3])
    _, log_one = ad.rollout(ref, pol.GreedyMaxPolicy(2), limits, StepParams(),
                            weights, seed=[3])
    np.testing.assert_array_equal(log_huge.a, log_one.a)


def test_rollout_untrained_motion_independent_of_reference():
    # a policy that ignores the observation moves identically along any
    # reference of the same length
    limits = _limits(3)
    rng = np.random.default_rng(8)
    ref_a = ReferenceTrajectory(dt=0.05, positions=np.zeros((25, 3)))
    wander = np.cumsum(rng.normal(0, 1e-4, (24, 3)), axis=0)
    ref_b = ReferenceTrajectory(
        dt=0.05, positions=np.vstack([np.zeros(3), wander]))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)
    _, log_a = ad.rollout(ref_a, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=[11])
    _, log_b = ad.rollout(ref_b, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=[11])
    assert len(log_a) == len(log_b)
    np.testing.assert_array_equal(log_a.p, log_b.p)
    np.testing.assert_array_equal(log_a.v, log_b.v)
    np.testing.assert_array_equal(log_a.a, log_b.a)


def test_rollout_execution_time_identity():
    # step count equals reference steps when not terminated
    limits = _limits(2)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((41, 2)))
    report, log = ad.rollout(ref, ZeroPolicy(2), limits, StepParams(),
                             ad.RewardWeights())
    assert len(log) == 40 == report.total_steps


def test_rollout_terminates_on_reference_jump():
    limits = _limits(2)
    rows = np.zeros((30, 2))
    rows[10:] = 1.0  # 1 rad jump no policy can follow within 10 degrees
    ref = ReferenceTrajectory(dt=0.05, positions=rows)
    report, log = ad.rollout(ref, ZeroPolicy(2), limits, StepParams(),
                             ad.RewardWeights())
    assert report.terminated
    assert report.fraction == pytest.approx(9 / 29)
    assert report.steps_executed == 9
    assert not report.success


class BadAfterPolicy:
    """Zero command for ``start`` steps, then ``[bad, 0.5]``."""

    def __init__(self, start, bad):
        self.start = start
        self.bad = bad
        self.calls = 0

    def reset(self):
        self.calls = 0

    def act(self, obs, rng):
        self.calls += 1
        return np.zeros(2) if self.calls <= self.start else np.array([self.bad, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("start", [0, 5])
def test_rollout_terminates_on_non_finite_policy_output(start, bad):
    model, limits = kin.gimbal_chain()
    task = env.TaskSpec(kind="on_plate", noise_std=0.0)
    e = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams(randomize=False))
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((41, 2)))
    report, log = ad.rollout(ref, BadAfterPolicy(start, bad), limits,
                             StepParams(), ad.RewardWeights(), env=e, seed=[0])
    assert report.terminated
    assert not report.success
    assert report.steps_executed == len(log) == start
    assert np.all(np.isfinite(log.p))
    assert np.all((log.p >= limits.p_min) & (log.p <= limits.p_max))


def test_rollout_rejects_a_policy_output_of_another_length():
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((5, 2)))
    with pytest.raises(ValueError, match="returned 1 commands for 2 joints"):
        ad.rollout(ref, ZeroPolicy(1), _limits(2), StepParams(), ad.RewardWeights())


def test_rollout_rejects_reference_of_other_joint_count():
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((10, 3)))
    with pytest.raises(ConfigurationError, match="joint count"):
        ad.rollout(ref, ZeroPolicy(3), _limits(2), StepParams(), ad.RewardWeights())


def _ball_episode(policy, rows, weights, jump_at=None):
    """A gimbal episode with the ball on a flat-start plate, along a
    stationary reference of ``rows`` rows that jumps by 1 rad at row
    ``jump_at``."""
    model, limits = kin.gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="on_plate", noise_std=0.0),
                         env.BallParams(randomize=False))
    positions = np.zeros((rows, 2))
    if jump_at is not None:
        positions[jump_at:] = 1.0
    ref = ReferenceTrajectory(dt=0.05, positions=positions)
    return ad.rollout(ref, policy, limits, StepParams(), weights, env=e, seed=[0])


# greedy_max tilts the plate until the ball rolls off after its 10th step;
# the wide thresholds keep the deviation from ending the episode first
LOOSE = ad.RewardWeights(deviation_low=0.1, deviation_high=9.0, termination=10.0)
BALL_LOST_STEP = 10


@pytest.mark.parametrize("case, rows, expected", [
    # (terminated, ball_lost, success, steps executed)
    ("complete", 41, (False, False, True, 40)),
    ("deviation", 41, (True, False, False, 9)),
    ("non_finite", 41, (True, False, False, 5)),
    ("ball_lost_mid_episode", 41, (False, True, False, BALL_LOST_STEP)),
    ("ball_lost_on_final_step", BALL_LOST_STEP + 1, (False, True, False, BALL_LOST_STEP)),
])
def test_episode_end_is_read_from_the_log(case, rows, expected):
    if case == "complete":
        report, log = _ball_episode(ZeroPolicy(2), rows, ad.RewardWeights())
    elif case == "deviation":
        report, log = _ball_episode(ZeroPolicy(2), rows, ad.RewardWeights(), jump_at=10)
    elif case == "non_finite":
        report, log = _ball_episode(BadAfterPolicy(5, np.nan), rows, ad.RewardWeights())
    else:
        report, log = _ball_episode(pol.GreedyMaxPolicy(2), rows, LOOSE)
    assert (report.terminated, report.ball_lost, report.success,
            report.steps_executed) == expected
    assert report.total_steps == rows - 1
    assert len(log) == report.steps_executed
    # the ball is on the plate on every row but, when it was lost, the last
    assert np.all(log.ball_on_plate[:-1] == 1.0)
    assert log.ball_on_plate[-1] == (0.0 if report.ball_lost else 1.0)


def test_rollout_deterministic():
    limits = _limits(3)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((20, 3)))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)
    r1, log1 = ad.rollout(ref, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=[5])
    r2, log2 = ad.rollout(ref, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=[5])
    assert r1 == r2
    np.testing.assert_array_equal(log1.a, log2.a)
    np.testing.assert_array_equal(log1.raw, log2.raw)


def test_rollout_random_policy_respects_limits_at_substeps():
    limits = _limits(3)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((60, 3)))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)
    params = StepParams()
    for seed in range(5):
        _, log = ad.rollout(ref, pol.RandomPolicy(3), limits, params,
                            weights, seed=[seed])
        prev_a = np.zeros(3)
        prev_v = np.zeros(3)
        prev_p = np.zeros(3)
        for p, v, accel, jerk in zip(log.p, log.v, log.a, log.jerk):
            assert np.all(np.abs(accel) <= limits.a_max + 1e-9)
            assert np.all(np.abs(jerk) <= limits.j_max + 1e-9)
            _, vv, aa = ref_substep_profile(prev_p, prev_v, prev_a, accel,
                                            params.dt, params.substeps)
            assert np.all(np.abs(vv) <= limits.v_max[None, :] + 1e-9)
            assert np.all(np.abs(aa) <= limits.a_max[None, :] + 1e-9)
            prev_p, prev_v, prev_a = p, v, accel


def test_rollout_with_ball_environment_runs():
    model, limits = kin.gimbal_chain()
    task = env.TaskSpec(kind="on_plate", noise_std=0.0)
    e = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams(randomize=False))
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((10, 2)))
    report, log = ad.rollout(ref, ZeroPolicy(2), limits, StepParams(),
                             ad.RewardWeights(), env=e, seed=[0])
    assert report.success
    assert np.all(np.isfinite(log.ball_x_m) & np.isfinite(log.ball_y_m))
    assert np.all(log.r_task == 1.0)


LOOSE_TERMINATION = ad.RewardWeights(deviation_low=5.0, deviation_high=9.0, termination=10.0)


def _moving_reference(model, limits, steps=121):
    """The home posture plus a sine of a tenth of each joint's half range,
    a different period per joint."""
    t = np.arange(steps)[:, None] * 0.05
    periods = 2.0 + np.arange(limits.n_joints)
    swing = np.sin(2.0 * np.pi * t / periods)
    return ReferenceTrajectory(dt=0.05, positions=model.q_home + limits.p_half_range / 10.0 * swing)


@pytest.mark.parametrize("chain", ["gimbal", "arm"])
@pytest.mark.parametrize("kind", ["tracking", "pd_balance", "linear", "random", "greedy_max"])
def test_rollout_matches_the_frozen_array_step_loop(chain, kind):
    """``rollout`` on floats writes the log bits, signbits included, of the
    array step loop it replaced (``conftest.ref_rollout_log``), on a moving
    reference with the termination loosened; the policies that follow it
    drive the ball environment."""
    if chain == "gimbal":
        model, limits = kin.gimbal_chain()
        task, mask = env.TaskSpec(kind="in_place", start_offset=(0.02, 0.0)), (0, 1)
    else:
        model, limits = arm_chain()
        task, mask = env.TaskSpec(kind="on_plate", noise_std=0.001), (4, 5)
    reference = _moving_reference(model, limits)
    environment = None
    if kind in ("tracking", "pd_balance", "linear"):
        environment = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams())
    layout = pol.ObservationLayout(limits.n_joints,
                                   task.feedback_size if environment else 0, 1)
    params = StepParams()
    tracking = (layout, limits, params.dt)
    weights = np.random.default_rng(3).standard_normal((limits.n_joints, layout.size + 1))
    new_cls, ref_cls, args = {
        "tracking": (pol.TrackingPolicy, RefTrackingPolicy, tracking),
        "pd_balance": (pol.PDBalancePolicy, RefPDBalancePolicy,
                       tracking + (model, env.PlateGeometry(), task, reference.positions[0],
                                   mask)),
        "linear": (pol.LinearPolicy, pol.LinearPolicy, (weights,)),
        "random": (pol.RandomPolicy, pol.RandomPolicy, (limits.n_joints,)),
        "greedy_max": (pol.GreedyMaxPolicy, pol.GreedyMaxPolicy, (limits.n_joints,)),
    }[kind]
    for seed in ([1, 0], [1, 1]):
        report, log = ad.rollout(reference, new_cls(*args), limits, params, LOOSE_TERMINATION,
                                 env=environment, seed=seed)
        want = ref_rollout_log(reference, ref_cls(*args), limits, params, LOOSE_TERMINATION,
                               env=environment, seed=seed)
        assert len(log) >= 10
        for f in fields(log):
            got, expected = getattr(log, f.name), getattr(want, f.name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), f.name
        assert report == env.episode_metrics(want, reference.n_steps - 1, limits,
                                             task if environment else None)


# (chain, task kind, start offset, noise, ball gains, moving reference): the
# balancer's episodes on which the environment layers must keep their bits
FROZEN_ENVIRONMENT_CASES = {
    "gimbal_in_place": ("gimbal", "in_place", (0.02, 0.0), 0.0, {}, True),
    "gimbal_on_plate_noisy": ("gimbal", "on_plate", (0.03, -0.02), 0.001, {}, True),
    # the arm's moving reference loses the ball within 15 steps; on a
    # stationary one the balancer keeps it
    "arm_on_plate_noisy": ("arm", "on_plate", (0.0, 0.0), 0.001, {}, False),
    "arm_in_place": ("arm", "in_place", (-0.02, 0.01), 0.0, {}, False),
    # no ball law: the tracked tilt rolls the ball off the plate
    "gimbal_ball_lost": ("gimbal", "on_plate", (0.1, 0.0), 0.0,
                         {"ball_kp": 0.0, "ball_kd": 0.0}, True),
    # a level plate never moves the ball: every tick takes the static branch
    "gimbal_ball_at_rest": ("gimbal", "in_place", (0.0, 0.0), 0.0, {}, False),
}


@pytest.mark.parametrize("case", sorted(FROZEN_ENVIRONMENT_CASES))
def test_rollout_matches_the_frozen_environment_layers(case):
    """The balancer's rollouts write the log bits, signbits included, and the
    report of the array step loop on the frozen substep profile, plate
    motion, ball, reward and sensing (``conftest.RefBallPlateEnv``)."""
    chain, kind, offset, noise, gains, moving = FROZEN_ENVIRONMENT_CASES[case]
    model, limits = kin.gimbal_chain() if chain == "gimbal" else arm_chain()
    mask = (0, 1) if chain == "gimbal" else (4, 5)
    task = env.TaskSpec(kind=kind, start_offset=offset, noise_std=noise)
    environment = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams())
    reference = (_moving_reference(model, limits) if moving else
                 ReferenceTrajectory(dt=0.05, positions=np.tile(model.q_home, (61, 1))))
    layout = pol.ObservationLayout(limits.n_joints, task.feedback_size, 1)
    params = StepParams()
    args = (layout, limits, params.dt, model, env.PlateGeometry(), task,
            reference.positions[0], mask)
    for seed in ([2, 0], [2, 1]):
        report, log = ad.rollout(reference, pol.PDBalancePolicy(*args, **gains), limits,
                                 params, LOOSE_TERMINATION, env=environment, seed=seed)
        want = ref_rollout_log(reference, RefPDBalancePolicy(*args, **gains), limits,
                               params, LOOSE_TERMINATION, env=environment, seed=seed)
        assert len(log) >= 10
        for f in fields(log):
            got, expected = getattr(log, f.name), getattr(want, f.name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), f.name
        assert report == env.episode_metrics(want, reference.n_steps - 1, limits, task)
        if case == "gimbal_ball_lost":
            assert report.ball_lost
        elif case == "gimbal_ball_at_rest":
            assert np.all(log.ball_x_m == task.start[0]) and np.all(log.ball_y_m == 0.0)
        else:
            assert np.all(log.ball_on_plate == 1.0)


# ---------------------------------------------------------------------------
# vectorized campaign

def test_campaign_no_violations_small():
    rep = ad.run_limit_campaign(episodes=200, steps=60, seed=1, n_joints=7, dt=0.05, correction_enabled=True)
    assert rep.ok()
    assert rep.violations == 0
    assert rep.first_violation is None
    assert rep.max_velocity_norm <= 1.0 + 1e-9


def test_campaign_deterministic():
    a = ad.run_limit_campaign(episodes=50, steps=30, seed=9, n_joints=7, dt=0.05, correction_enabled=True)
    b = ad.run_limit_campaign(episodes=50, steps=30, seed=9, n_joints=7, dt=0.05, correction_enabled=True)
    assert a == b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_campaign_without_correction_keeps_a_nonempty_range(seed):
    # each seed used to end in an empty range (lo - hi of 1e-9 to 3e-9) on a
    # joint braking from its velocity bound; see limits "Boundary states"
    rep = ad.run_limit_campaign(50, 40, correction_enabled=False, seed=seed,
                                n_joints=7, dt=0.05)
    assert rep.ok()


# (seed, correction, fixed arm limits): violations and the three normalized
# peaks of a 300 x 100 campaign; they must stay bit-identical.  Recorded
# when thin ranges began to brake at full jerk: every max_jerk_norm fell to
# 1 + 2.2e-16 (from up to 1 + 2.4e-10) and the correction-off
# max_velocity_norm values moved by 1 ulp.
CAMPAIGN_PINS = {
    (3, True, False): (0, 1.0000000000000002, 0.9999975570517113, 1.0000000000000002),
    (3, True, True): (0, 1.0000000000000002, 0.9999594621862367, 1.0000000000000002),
    (3, False, False): (0, 1.0000000000000004, 0.9999975570517113, 1.0000000000000002),
    (3, False, True): (0, 1.0000000000000002, 0.9999594621862367, 1.0000000000000002),
    (11, True, False): (0, 1.0000000000000002, 0.9999470835143298, 1.0000000000000002),
    (11, True, True): (0, 1.0000000000000002, 0.9999750998363431, 1.0000000000000002),
    (11, False, False): (0, 1.0000000000000007, 0.9999470835143298, 1.0000000000000002),
    (11, False, True): (0, 1.0000000000000002, 0.9999750998363431, 1.0000000000000002),
}


@pytest.mark.parametrize("case", sorted(CAMPAIGN_PINS))
def test_campaign_report_pinned(case):
    seed, correction, fixed = case
    limits = arm_chain()[1] if fixed else None
    rep = ad.run_limit_campaign(300, 100, seed=seed, correction_enabled=correction,
                                fixed_limits=limits, n_joints=7, dt=0.05)
    violations, v, a, j = CAMPAIGN_PINS[case]
    assert rep == ad.CampaignReport(episodes=300, steps=100, n_joints=7,
                                    violations=violations, max_velocity_norm=v,
                                    max_accel_norm=a, max_jerk_norm=j)


def test_campaign_single_step():
    rep = ad.run_limit_campaign(episodes=10, steps=1, seed=0, n_joints=7, dt=0.05, correction_enabled=True)
    assert rep.ok()


def test_campaign_validates_arguments():
    for episodes, steps, name in ((0, 10, "episodes"), (5, 0, "steps")):
        with pytest.raises(ConfigurationError,
                           match=f"^validate {name} must be an integer >= 1, got 0$"):
            ad.run_limit_campaign(episodes=episodes, steps=steps, seed=0, n_joints=7, dt=0.05,
                                  correction_enabled=True)


def test_campaign_reports_violations_of_widened_range(monkeypatch):
    # one step from rest: a widened range lets the jerk bound be exceeded;
    # later steps would start outside the safe set and have no valid range
    exact = ad.valid_accel_bounds

    def widened(*args, **kwargs):
        lo, hi = exact(*args, **kwargs)
        return lo, hi + 0.1 * np.abs(hi)

    monkeypatch.setattr(ad, "valid_accel_bounds", widened)
    rep = ad.run_limit_campaign(episodes=200, steps=1, seed=3, n_joints=7, dt=0.05, correction_enabled=True)
    assert rep.violations > 0
    assert rep.first_violation is not None and rep.first_violation[0] == 0
    assert 1.0 < rep.max_jerk_norm <= 1.1 + 1e-9
    assert not rep.ok()


def test_campaign_reports_velocity_peak_between_ticks(monkeypatch):
    # ramp to a = 1, hold it, then step to a = -1/3: the last step's
    # velocity peaks at t* = 0.75 dt, between control ticks 7 and 8, and
    # only that turning point exceeds v_max
    dt, v_max = 0.05, 0.4937
    schedule = [1.0] * 10 + [-1.0 / 3.0]
    calls = []

    def scripted(v, a, *args, **kwargs):
        a1 = np.full(v.shape, schedule[len(calls)])
        calls.append((v.copy(), a.copy()))
        return a1, a1

    monkeypatch.setattr(ad, "valid_accel_bounds", scripted)
    limits = JointLimits(p_min=[-2.0], p_max=[2.0], v_max=[v_max],
                         a_max=[2.0], j_max=[40.0])
    rep = ad.run_limit_campaign(episodes=1, steps=len(schedule), dt=dt,
                                fixed_limits=limits, n_joints=1, seed=0,
                                correction_enabled=True)

    v0, a0 = calls[-1]
    _, v_ticks, _ = ref_substep_profile(0.0, v0, a0, schedule[-1], dt, 10)
    assert np.all(np.abs(v_ticks) <= v_max)
    assert rep.violations == 1
    assert rep.first_violation == (len(schedule) - 1, 0, 0)
    assert rep.max_velocity_norm > 1.0 + 1e-9
    assert rep.max_accel_norm <= 1.0 and rep.max_jerk_norm <= 1.0


# ---------------------------------------------------------------------------
# scoring the step log

def _scalar_scores(log, reference, limits, weights, dt):
    """Per-row copy of the scalar formulas the decision loop used to score
    each step: (time, jerk, act, p_accel, p_jerk, p_smooth, p_deviation,
    reward, deviation) per row."""
    thr = weights.accel_threshold
    low, high = weights.deviation_low, weights.deviation_high
    j_sat = float(np.sum(limits.j_max ** 2)) / weights.jerk_weight
    a_prev = np.zeros(limits.n_joints)
    rows = []
    for t in range(len(log)):
        act = log.a[t] / limits.a_max
        jerk = (log.a[t] - a_prev) / dt
        a_prev = log.a[t]
        a_abs = float(np.max(np.abs(act)))
        p_accel = 0.0 if a_abs < thr else (
            (1.0 - (1.0 - min(a_abs, 1.0)) / (1.0 - thr)) ** 2)
        j_p = float(np.sum(jerk ** 2))
        p_jerk = 1.0 if j_p > j_sat else (j_p / j_sat) ** 2
        dev = float(np.max(np.abs(log.p[t] - reference.positions[t + 1])))
        p_dev = 0.0 if dev < low else 1.0 if dev > high else (
            ((dev - low) / (high - low)) ** 2)
        p_smooth = 0.5 * (p_accel + p_jerk)
        reward = log.r_task[t] * (1.0 - p_smooth) * (1.0 - p_dev)
        rows.append([(t + 1) * dt, *jerk, *act, p_accel, p_jerk, p_smooth,
                     p_dev, reward, dev])
    return np.array(rows).reshape(len(log), 2 * limits.n_joints + 7)


def _scored_columns(log):
    return np.column_stack((log.t_s, log.jerk, log.act, log.p_accel, log.p_jerk,
                            log.p_smooth, log.p_deviation, log.reward,
                            log.deviation_rad))


def test_scored_columns_match_scalar_formulas():
    params = StepParams()
    episodes = []  # (reference, limits, weights, report, log)

    limits = _limits(3)
    t = np.arange(80)[:, None] * params.dt
    wave = ReferenceTrajectory(dt=0.05, positions=0.3 * np.sin(t + np.arange(3)))
    weights = ad.RewardWeights(deviation_low=0.01, deviation_high=0.2,
                               termination=1.0)
    for policy, seed in ((pol.RandomPolicy(3), 0), (pol.RandomPolicy(3), 1),
                         (pol.GreedyMaxPolicy(3), 0)):
        episodes.append((wave, limits, weights, *ad.rollout(
            wave, policy, limits, params, weights, seed=[seed])))

    for jump_at in (10, 1):  # terminates after 9 rows, and before the first
        rows = np.zeros((30, 2))
        rows[jump_at:] = 1.0
        ref = ReferenceTrajectory(dt=0.05, positions=rows)
        episodes.append((ref, _limits(2), ad.RewardWeights(), *ad.rollout(
            ref, ZeroPolicy(2), _limits(2), params, ad.RewardWeights())))

    model, limits = kin.gimbal_chain()
    e = env.BallPlateEnv(model, env.PlateGeometry(),
                         env.TaskSpec(kind="in_place", noise_std=0.0, start_offset=(0.02, 0.0)),
                         env.BallParams(randomize=False))
    still = ReferenceTrajectory(dt=0.05, positions=np.zeros((61, 2)))
    layout = pol.ObservationLayout(2, e.task.feedback_size, 1)
    balancer = pol.PDBalancePolicy(layout, limits, params.dt, model, e.geometry,
                                   e.task, anchor_q=np.zeros(2), mask=(0, 1))
    weights = ad.RewardWeights(deviation_low=0.001, deviation_high=0.01,
                               termination=0.5)
    for policy, seed in ((balancer, 0), (pol.RandomPolicy(2), 4)):
        episodes.append((still, limits, weights, *ad.rollout(
            still, policy, limits, params, weights, env=e, seed=[seed])))

    for ref, lim, w, report, log in episodes:
        np.testing.assert_allclose(_scored_columns(log),
                                   _scalar_scores(log, ref, lim, w, params.dt),
                                   rtol=0.0, atol=1e-12)
        assert report.mean_reward == (np.mean(log.reward) if len(log) else 0.0)

    reports = [ep[3] for ep in episodes]
    assert [r.steps_executed for r in reports[3:5]] == [9, 0]
    assert all(r.terminated for r in reports[3:5])
    assert [r.terminated for r in reports[5:]] == [False, True]  # with the ball
    logs = [ep[4] for ep in episodes]
    p_accel, p_jerk, p_dev, r_task = (np.concatenate([getattr(log, c) for log in logs])
                                      for c in ("p_accel", "p_jerk", "p_deviation",
                                                "r_task"))
    for column in (p_accel, p_jerk, p_dev):  # every branch of every penalty
        assert np.any(column == 0.0) and np.any(column == 1.0)
        assert np.any((column > 0.0) & (column < 1.0))
    assert np.any((r_task > 0.0) & (r_task < 1.0))
