import numpy as np
import pytest

from trajadapt import adaptation as ad
from trajadapt import environment as env
from trajadapt import kinematics as kin
from trajadapt import policy as pol
from trajadapt.errors import ConfigurationError
from trajadapt.limits import JointLimits, JointState, StepParams, substep_profile
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
    assert ad.deviation_penalty([low], [0.0], low, high) == 0.0
    assert ad.deviation_penalty([high], [0.0], low, high) == pytest.approx(1.0)
    mid = 0.5 * (low + high)
    assert ad.deviation_penalty([mid], [0.0], low, high) == pytest.approx(0.25)
    assert ad.deviation_penalty([high + 0.1], [0.0], low, high) == 1.0


def test_deviation_penalty_continuous_at_thresholds():
    low, high = 0.02, 0.1
    for edge in (low, high):
        left = ad.deviation_penalty([np.nextafter(edge, 0.0)], [0.0], low, high)
        right = ad.deviation_penalty([np.nextafter(edge, 1.0)], [0.0], low, high)
        assert abs(left - right) < 1e-12


def test_compose_reward_cases():
    assert ad.compose_reward(1.0, 0.0, 0.0, 0.0).total == 1.0
    assert ad.compose_reward(0.37, 0.1, 0.3, 1.0).total == 0.0
    r = ad.compose_reward(0.8, 0.2, 0.0, 0.5)
    assert r.p_smooth == pytest.approx(0.1)
    assert r.total == pytest.approx(0.36)


def test_reward_in_unit_interval_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100_000):
        r = ad.compose_reward(rng.uniform(), rng.uniform(), rng.uniform(),
                              rng.uniform())
        assert 0.0 <= r.total <= 1.0
        assert r.p_smooth == pytest.approx(0.5 * (r.p_accel + r.p_jerk))


def test_check_termination_boundary():
    # boundary stays in the episode (strict inequality)
    assert not ad.check_termination([0.1], [0.0], 0.1)
    assert ad.check_termination([0.1 + 1e-6], [0.0], 0.1)
    assert not ad.check_termination([0.0], [0.0], 0.1)


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
    state = JointState.at_rest(np.zeros(7))
    feedback = np.zeros(6)
    obs = ad.build_observation(state, limits, feedback, _ref(), 0, 1)
    assert obs.shape == (34,)
    # joints at mid-range and at rest -> joint-state block all zeros
    np.testing.assert_allclose(obs[:21], 0.0, atol=1e-12)


def test_observation_velocity_normalization_boundary():
    limits = _limits()
    state = JointState(p=np.zeros(7), v=limits.v_max.copy(), a=np.zeros(7))
    obs = ad.build_observation(state, limits, np.zeros(6), _ref(), 0, 1)
    np.testing.assert_allclose(obs[7:14], 1.0, atol=1e-12)


def test_observation_more_future_rows():
    limits = _limits()
    state = JointState.at_rest(np.zeros(7))
    obs1 = ad.build_observation(state, limits, np.zeros(6), _ref(), 0, 1)
    obs10 = ad.build_observation(state, limits, np.zeros(6), _ref(), 0, 10)
    assert obs10.shape[0] - obs1.shape[0] == 9 * 7


def test_observation_pads_with_final_row():
    limits = _limits(1)
    rows = np.linspace(0.0, 1.0, 5)[:, None]
    ref = ReferenceTrajectory(dt=0.05, positions=rows)
    state = JointState.at_rest([0.0])
    obs = ad.build_observation(state, limits, np.zeros(0), ref, 3, 4)
    ref_block = obs[3:]
    expected = (np.array([1.0, 1.0, 1.0, 1.0]) - 0.0) / 2.0  # rows 4,4,4,4 normalized
    np.testing.assert_allclose(ref_block, expected, atol=1e-12)


def test_observation_always_in_unit_box():
    limits = _limits(2)
    state = JointState(p=[5.0, -5.0], v=[9.0, -9.0], a=[99.0, -99.0])
    obs = ad.build_observation(state, limits, np.zeros(4), _ref(n=2), 0, 1)
    assert np.all(obs <= 1.0) and np.all(obs >= -1.0)


# ---------------------------------------------------------------------------
# rollout

class ZeroPolicy:
    def __init__(self, n):
        self.n = n

    def reset(self, seed=None):
        pass

    def act(self, obs, rng):
        return np.zeros(self.n)


class HugePolicy:
    def __init__(self, n):
        self.n = n

    def reset(self, seed=None):
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
                             weights, seed=3)
    _, log_one = ad.rollout(ref, pol.GreedyMaxPolicy(2), limits, StepParams(),
                            weights, seed=3)
    np.testing.assert_array_equal(log_huge.accel, log_one.accel)


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
                          weights, seed=11)
    _, log_b = ad.rollout(ref_b, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=11)
    assert len(log_a) == len(log_b)
    np.testing.assert_array_equal(log_a.p, log_b.p)
    np.testing.assert_array_equal(log_a.v, log_b.v)
    np.testing.assert_array_equal(log_a.accel, log_b.accel)


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

    def reset(self, seed=None):
        self.calls = 0

    def act(self, obs, rng):
        self.calls += 1
        return np.zeros(2) if self.calls <= self.start else np.array([self.bad, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("start", [0, 5])
def test_rollout_terminates_on_non_finite_policy_output(start, bad):
    model, limits = kin.gimbal_chain()
    task = env.TaskSpec(kind="on_plate", noise_std=0.0)
    e = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams(),
                         control_dt=0.005)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((41, 2)))
    report, log = ad.rollout(ref, BadAfterPolicy(start, bad), limits,
                             StepParams(), ad.RewardWeights(), env=e, seed=0)
    assert report.terminated
    assert not report.success
    assert report.steps_executed == len(log) == start
    assert np.all(np.isfinite(log.p))
    assert np.all((log.p >= limits.p_min) & (log.p <= limits.p_max))


def test_rollout_deterministic():
    limits = _limits(3)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((20, 3)))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)
    r1, log1 = ad.rollout(ref, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=5)
    r2, log2 = ad.rollout(ref, pol.RandomPolicy(3), limits, StepParams(),
                          weights, seed=5)
    assert r1.row() == r2.row()
    np.testing.assert_array_equal(log1.accel, log2.accel)
    np.testing.assert_array_equal(log1.raw, log2.raw)


def test_rollout_random_policy_respects_limits_at_substeps():
    from trajadapt.limits import substep_profile
    limits = _limits(3)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((60, 3)))
    weights = ad.RewardWeights(termination=10.0, deviation_high=9.0,
                               deviation_low=0.1)
    params = StepParams()
    for seed in range(5):
        _, log = ad.rollout(ref, pol.RandomPolicy(3), limits, params,
                            weights, seed=seed)
        prev_a = np.zeros(3)
        prev_v = np.zeros(3)
        prev_p = np.zeros(3)
        for p, v, accel, jerk in zip(log.p, log.v, log.accel, log.jerk):
            assert np.all(np.abs(accel) <= limits.a_max + 1e-9)
            assert np.all(np.abs(jerk) <= limits.j_max + 1e-9)
            _, vv, aa = substep_profile(prev_p, prev_v, prev_a, accel,
                                        params.dt, params.substeps)
            assert np.all(np.abs(vv) <= limits.v_max[None, :] + 1e-9)
            assert np.all(np.abs(aa) <= limits.a_max[None, :] + 1e-9)
            prev_p, prev_v, prev_a = p, v, accel


def test_rollout_with_ball_environment_runs():
    model, limits = kin.gimbal_chain()
    task = env.TaskSpec(kind="on_plate", noise_std=0.0)
    e = env.BallPlateEnv(model, env.PlateGeometry(), task, env.BallParams(),
                         control_dt=0.005)
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((10, 2)))
    report, log = ad.rollout(ref, ZeroPolicy(2), limits, StepParams(),
                             ad.RewardWeights(), env=e, seed=0)
    assert report.success
    assert np.all(np.isfinite(log.ball_x) & np.isfinite(log.ball_y))
    assert np.all(log.r_task == 1.0)


# ---------------------------------------------------------------------------
# vectorized campaign

def test_campaign_no_violations_small():
    rep = ad.run_limit_campaign(episodes=200, steps=60, seed=1)
    assert rep.ok()
    assert rep.violations == 0
    assert rep.first_violation is None
    assert rep.max_velocity_norm <= 1.0 + 1e-9


def test_campaign_deterministic():
    a = ad.run_limit_campaign(episodes=50, steps=30, seed=9)
    b = ad.run_limit_campaign(episodes=50, steps=30, seed=9)
    assert a == b


def test_campaign_single_step():
    rep = ad.run_limit_campaign(episodes=10, steps=1, seed=0)
    assert rep.ok()


def test_campaign_validates_arguments():
    with pytest.raises(ConfigurationError):
        ad.run_limit_campaign(episodes=0, steps=10)


def test_campaign_reports_violations_of_widened_range(monkeypatch):
    # one step from rest: a widened range lets the jerk bound be exceeded;
    # later steps would start outside the safe set and have no valid range
    exact = ad.valid_accel_bounds

    def widened(*args, **kwargs):
        lo, hi = exact(*args, **kwargs)
        return lo, hi + 0.1 * np.abs(hi)

    monkeypatch.setattr(ad, "valid_accel_bounds", widened)
    rep = ad.run_limit_campaign(episodes=200, steps=1, seed=3)
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
                                fixed_limits=limits)

    v0, a0 = calls[-1]
    _, v_ticks, _ = substep_profile(0.0, v0, a0, schedule[-1], dt, 10)
    assert np.all(np.abs(v_ticks) <= v_max)
    assert rep.violations == 1
    assert rep.first_violation == (len(schedule) - 1, 0, 0)
    assert rep.max_velocity_norm > 1.0 + 1e-9
    assert rep.max_accel_norm <= 1.0 and rep.max_jerk_norm <= 1.0
