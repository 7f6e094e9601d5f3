import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from trajadapt import limits as lim
from trajadapt.errors import (ConfigurationError, LimitConsistencyError,
                              NonFiniteStateError)


# ---------------------------------------------------------------------------
# oracles shared with the acceptance suite

from conftest import (bisect_max_accel_velocity, count_calls, greedy_rollout,
                      profile_peak_velocity, random_limit_tuples,
                      ref_correction_shift, ref_max_accel_velocity, ref_profile_peaks,
                      ref_substep_profile, ref_valid_accel_bounds, velocity_bound)


# ---------------------------------------------------------------------------
# jerk / acceleration bounds (hand values)

def _jerk_bounds(a0, j_max, dt):
    # velocity and acceleration limits far away: only the jerk bound binds
    return lim.valid_accel_bounds(0.0, a0, 1e6, 1e6, j_max, dt,
                                  correction_enabled=False)


def test_max_accel_jerk_hand_values():
    assert _jerk_bounds(0.2, 4.0, 0.05)[1] == pytest.approx(0.4, abs=1e-15)
    # j_max = 0 lies outside JointLimits' domain: the bound's formula itself
    assert 1.0 + 0.0 * 0.05 == pytest.approx(1.0, abs=1e-15)
    assert _jerk_bounds(0.0, 20.0, 0.05)[1] == pytest.approx(1.0, abs=1e-15)
    assert _jerk_bounds(0.2, 4.0, 0.05)[0] == pytest.approx(0.0, abs=1e-15)


def test_interpolation_jerk_cap():
    # linear interpolation between accelerations in [-a_max, a_max] cannot
    # exceed (a_max - (-a_max)) / dt
    a_max, dt = 2.0, 0.05
    assert (a_max - (-a_max)) / dt == pytest.approx(80.0)


# ---------------------------------------------------------------------------
# velocity bound

def test_max_accel_velocity_hand_values():
    got = velocity_bound(0.9, 0.5, 1.0, 10.0, 0.05)
    assert got == pytest.approx(-0.25 * (1.0 - np.sqrt(29.0)), abs=1e-12)
    assert got == pytest.approx(1.0963, abs=5e-5)

    # past-threshold branch: ramp's in-step peak equals v_max at t = 0.02 s
    got13 = velocity_bound(0.99, 1.0, 1.0, 7.0, 0.05)
    assert got13 == pytest.approx(-1.5, abs=1e-12)
    t_star = 1.0 * 0.05 / (1.0 - got13)
    assert t_star == pytest.approx(0.02, abs=1e-12)
    v_star = 0.99 + 1.0 * t_star + (got13 - 1.0) * t_star**2 / (2 * 0.05)
    assert v_star == pytest.approx(1.0, abs=1e-12)

    # resting at the limit: nothing positive is allowed
    assert velocity_bound(1.0, 0.0, 1.0, 10.0, 0.05) == 0.0


def test_max_accel_velocity_degenerate_v0_equals_vmax():
    # a0 > 0 with zero velocity headroom: in-step formula would divide by
    # zero, the braking-phase expression stays finite
    got = velocity_bound(1.0, 0.05, 1.0, 10.0, 0.05)
    assert np.isfinite(got)
    assert got < 0.0


def test_max_accel_velocity_branch_continuity():
    # at v0 + a0*dt/2 == v_max both branches give exactly 0 gain headroom
    v_max, j_max, dt = 1.0, 10.0, 0.05
    a0 = 0.4
    v0 = v_max - 0.5 * a0 * dt
    below = velocity_bound(v0 - 1e-12, a0, v_max, j_max, dt)
    above = velocity_bound(v0 + 1e-12, a0, v_max, j_max, dt)
    assert abs(below - above) < 1e-9


def test_max_accel_velocity_matches_bisection_oracle():
    rng = np.random.default_rng(1234)
    v0, a0, v_max, _, j_max, dt = random_limit_tuples(rng, 400)
    # bisection oracle works on a common dt per batch
    for i in range(0, 400, 100):
        s = slice(i, i + 100)
        d = float(np.mean(dt[s]))
        closed = velocity_bound(v0[s], a0[s], v_max[s], j_max[s], d)
        oracle = bisect_max_accel_velocity(v0[s], a0[s], v_max[s], j_max[s], d)
        np.testing.assert_allclose(closed, oracle, rtol=0.0, atol=1e-8)
        peak = profile_peak_velocity(v0[s], a0[s], closed, j_max[s], d)
        assert np.all(peak <= v_max[s] + 1e-9)


def test_min_accel_velocity_is_sign_reflection():
    # the lower bound of a state is minus the upper bound of its mirror image
    rng = np.random.default_rng(7)
    v0, a0, v_max, a_max, j_max, dt = random_limit_tuples(rng, 50)
    for correction in (False, True):
        lo, hi = lim.valid_accel_bounds(v0, a0, v_max, a_max, j_max, 0.05,
                                        correction_enabled=correction)
        lo_mirror, hi_mirror = lim.valid_accel_bounds(
            -v0, -a0, v_max, a_max, j_max, 0.05, correction_enabled=correction)
        np.testing.assert_allclose(lo, -hi_mirror, rtol=0, atol=0)
        np.testing.assert_allclose(hi, -lo_mirror, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# area-equalized correction

def test_correction_disabled_returns_uncorrected():
    unc = velocity_bound(0.95, 0.8, 1.0, 10.0, 0.05)
    _, got = lim.valid_accel_bounds(0.95, 0.8, 1.0, 2.0, 10.0, 0.05,
                                    correction_enabled=False)
    assert got == pytest.approx(unc, abs=0)


def test_correction_inactive_when_bound_not_hit():
    # far from v_max the jerk bound binds, so the correction changes nothing
    plain = lim.valid_accel_bounds(0.0, 0.0, 50.0, 2.0, 10.0, 0.05,
                                   correction_enabled=False)
    got = lim.valid_accel_bounds(0.0, 0.0, 50.0, 2.0, 10.0, 0.05,
                                 correction_enabled=True)
    assert velocity_bound(0.0, 0.0, 50.0, 10.0, 0.05) > got[1]
    assert got[0] == pytest.approx(plain[0], abs=0)
    assert got[1] == pytest.approx(plain[1], abs=0)


def test_correction_shifts_bound_down_and_lands_exactly():
    v0, a0, v_max, j_max, dt = 0.95, 0.8, 1.0, 10.0, 0.05
    unc = velocity_bound(v0, a0, v_max, j_max, dt)
    _, corr = lim.valid_accel_bounds(v0, a0, v_max, 2.0, j_max, dt,
                                     correction_enabled=True)
    corr = float(corr)
    assert corr <= unc + 1e-12
    assert corr == pytest.approx(0.55, abs=1e-12)

    # numeric-integration oracle: trapezoid over the planned continuation
    # (ramp to corr, -j_max slope steps, final shallower segment to zero)
    # must gain exactly v_max - v0
    knots = [a0, corr]
    while knots[-1] - j_max * dt > 1e-12:
        knots.append(knots[-1] - j_max * dt)
    knots.append(0.0)
    knots = np.asarray(knots)
    gain = np.sum(0.5 * (knots[1:] + knots[:-1]) * dt)
    assert gain == pytest.approx(v_max - v0, abs=1e-8)


def test_correction_removes_velocity_ripple():
    # closed-loop simulation oracle from the saturated start state
    vs_u, _, peak_u = greedy_rollout(0.95, 0.8, 1.0, 2.0, 10.0, 0.05, 120, False)
    vs_c, _, peak_c = greedy_rollout(0.95, 0.8, 1.0, 2.0, 10.0, 0.05, 120, True)
    assert peak_u <= 1.0 + 1e-9 and peak_c <= 1.0 + 1e-9
    ripple_u = 1.0 - vs_u[60:].min()
    ripple_c = 1.0 - vs_c[60:].min()
    assert ripple_u > 1e-3          # measurable without correction
    assert ripple_c < 1e-3 * 1.0    # < 0.1 % of v_max with correction


def test_greedy_phase_structure():
    # jerk-slope phase, acceleration plateau, settle at v_max
    v_max, a_max, j_max, dt = 1.0, 2.0, 17.0, 0.05
    vs, accs, peak = greedy_rollout(0.0, 0.0, v_max, a_max, j_max, dt, 120, True)
    da = np.diff(accs) / dt
    jerk_steps = np.where(np.abs(da - j_max) < 1e-6)[0]
    plateau_steps = np.where(np.abs(accs - a_max) < 1e-9)[0]
    assert jerk_steps.size >= 1
    assert plateau_steps.size >= 1
    assert jerk_steps[0] < plateau_steps[0]
    decay_start = np.where(np.diff(accs) < -1e-9)[0]
    assert decay_start.size >= 1 and plateau_steps[-1] <= decay_start[-1] + 1
    assert peak <= v_max + 1e-6
    assert abs(vs[-1] - v_max) < 1e-9
    assert np.all(v_max - vs[-20:] < 1e-3 * v_max)


# ---------------------------------------------------------------------------
# valid range + clipping

def _simple_limits(v=1.0, a=2.0, j=20.0, n=1):
    return lim.JointLimits(p_min=[-3.0] * n, p_max=[3.0] * n,
                           v_max=[v] * n, a_max=[a] * n, j_max=[j] * n)


def test_valid_accel_range_unconstrained_gives_accel_limit():
    limits = _simple_limits(v=100.0, a=2.0, j=1000.0)
    params = lim.StepParams(dt=0.05, control_dt=0.005, correction_enabled=False)
    lo, hi = lim.valid_accel_range(np.zeros(1), np.zeros(1), limits, params)
    assert lo[0] == pytest.approx(-2.0) and hi[0] == pytest.approx(2.0)


def test_valid_accel_range_at_velocity_limit():
    limits = _simple_limits()
    params = lim.StepParams(correction_enabled=False)
    _, hi = lim.valid_accel_range(np.array([1.0]), np.array([0.0]), limits, params)
    assert hi[0] == pytest.approx(0.0, abs=1e-12)


def test_valid_accel_range_accel_limit_binds_over_jerk():
    limits = _simple_limits(v=100.0, a=2.0, j=200.0)
    params = lim.StepParams(correction_enabled=False)
    _, hi = lim.valid_accel_range(np.array([0.0]), np.array([2.0]), limits, params)
    assert hi[0] == pytest.approx(2.0)  # a_max < a0 + j_max*dt = 12


def test_valid_accel_range_inconsistent_state_raises():
    limits = _simple_limits()
    params = lim.StepParams(correction_enabled=False)
    with pytest.raises(LimitConsistencyError):  # far outside the safe set
        lim.valid_accel_range(np.array([1.5]), np.array([2.0]), limits, params)


def test_boundary_state_brakes_at_full_jerk():
    # joint 4 of the arm in episode 445 of the configured-limits campaign of
    # `validate-limits --seed 637028892`: v0 is 1 ulp past the viable
    # boundary and the velocity bound lies 1.9e-9 below the jerk floor
    v0, a0, v_max, a_max, j_max, dt = (2.4399993766775756, 0.012231000853947238,
                                       2.44, 12.0, 120.0, 0.05)
    for correction in (False, True):
        lo, hi = lim.valid_accel_bounds(v0, a0, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        assert lo == hi == a0 - j_max * dt
        assert profile_peak_velocity(v0, a0, hi, j_max, dt)[0] - v_max < 1e-13
        # its mirror image brakes on the lower side
        assert lim.valid_accel_bounds(-v0, -a0, v_max, a_max, j_max, dt,
                                      correction_enabled=correction) == (-hi, -lo)


@pytest.mark.parametrize("seed, correction", [
    pytest.param(20, False, id="False"), pytest.param(20, True, id="True"),
    # each of these draws a thin range that used to collapse onto the
    # velocity bound, a normalized jerk of 1 + 1.0e-9 to 1 + 1.2e-9
    *(pytest.param(seed, False, id=f"{seed}-False") for seed in (21, 23, 27, 28)),
])
def test_boundary_fuzz_keeps_a_nonempty_range(seed, correction):
    """States one step after a command equal to a binding velocity bound,
    moved 1-64 ulp in v0 and in a0, on the upper or (mirrored) lower side:
    the range stays non-empty, and riding the bound for 20 more steps
    exceeds no limit by more than LIMIT_EPS anywhere in the profile.  The
    jerk excess is measured as the step's acceleration change over
    j_max * dt, the quantity the range bounds to LIMIT_EPS; normalized by
    j_max * dt it stays within the campaign's 1 + 1e-9."""
    dt = 0.05
    rng = np.random.default_rng(seed)
    n = 160_000
    v_max = rng.uniform(0.5, 3.0, n)
    a_max = rng.uniform(2.0, 15.0, n)
    j_max = rng.uniform(0.3, 1.0, n) * np.minimum(a_max / dt, v_max / dt**2)
    a_p = rng.uniform(-1.0, 1.0, n) * np.minimum(a_max, np.sqrt(2.0 * j_max * v_max))
    room = v_max - np.maximum(a_p, 0.0) ** 2 / (2.0 * j_max)
    v_p = room * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, n))
    _, a = lim.valid_accel_bounds(v_p, a_p, v_max, a_max, j_max, dt,
                                  correction_enabled=correction)
    binding = velocity_bound(v_p, a_p, v_max, j_max, dt) \
        < np.minimum(a_p + j_max * dt, a_max)
    assert binding.sum() >= 100_000
    v = v_p + 0.5 * (a_p + a) * dt

    def ulps(x):
        k = rng.integers(1, 65, n) * rng.choice([-1.0, 1.0], n)
        return x + k * np.abs(np.spacing(x))

    side = rng.choice([-1.0, 1.0], n)
    v, a, v_max, a_max, j_max, side = (x[binding] for x in (
        side * ulps(v), side * ulps(a), v_max, a_max, j_max, side))
    for _ in range(20):
        lo, hi = lim.valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        assert np.all(lo <= hi)
        a1 = np.where(side > 0, hi, lo)
        slope = (a1 - a) / dt
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(slope != 0.0, -a / slope, -1.0)
        inside = (t_star > 0.0) & (t_star < dt)
        v_end = v + 0.5 * (a + a1) * dt
        v_peak = np.maximum(np.abs(v_end),
                            np.where(inside, np.abs(v + 0.5 * a * t_star), 0.0))
        assert np.max(v_peak - v_max) <= lim.LIMIT_EPS
        assert np.max(np.abs(a1) - a_max) <= lim.LIMIT_EPS
        assert np.max(np.abs(a1 - a) - j_max * dt) <= lim.LIMIT_EPS
        assert np.max(np.abs(a1 - a) / (j_max * dt)) <= 1.0 + 1e-9
        v, a = v_end, a1


def test_valid_accel_bounds_batch_equals_per_joint_calls():
    rng = np.random.default_rng(11)
    dt, shape = 0.05, (40, 7)
    v_max = rng.uniform(0.3, 3.0, shape)
    a_max = rng.uniform(1.0, 15.0, shape)
    j_max = rng.uniform(0.3, 1.0, shape) * np.minimum(a_max / dt, v_max / dt**2)
    a0 = rng.uniform(-1, 1, shape) * np.minimum(a_max, np.sqrt(1.9 * j_max * v_max))
    budget = np.maximum(v_max - a0**2 / (2.0 * j_max), 0.0)
    v0 = rng.uniform(-1, 1, shape) * budget * 0.999
    # rows 0-4 at rest, rows 5-9 on +v_max, rows 10-14 on -v_max
    v0[:5], a0[:5] = 0.0, 0.0
    v0[5:10], a0[5:10] = v_max[5:10], 0.0
    v0[10:15], a0[10:15] = -v_max[10:15], -0.0

    bounds = {}
    for correction in (False, True):
        lo, hi = lim.valid_accel_bounds(v0, a0, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        lo_1 = np.empty(shape)
        hi_1 = np.empty(shape)
        for idx in np.ndindex(*shape):
            lo_1[idx], hi_1[idx] = lim.valid_accel_bounds(
                v0[idx], a0[idx], v_max[idx], a_max[idx], j_max[idx], dt,
                correction_enabled=correction)
        for got, want in ((lo, lo_1), (hi, hi_1)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        bounds[correction] = lo, hi

    # the batch mixes shifted and untouched entries on both sides
    (lo_u, hi_u), (lo_c, hi_c) = bounds[False], bounds[True]
    assert np.any(hi_c < hi_u) and np.any(hi_c == hi_u)
    assert np.any(lo_c > lo_u) and np.any(lo_c == lo_u)


def test_clip_action_cases():
    lo, hi = np.array([-0.5]), np.array([0.5])
    assert lim.clip_action(np.array([0.7]), lo, hi)[0] == pytest.approx(0.5)
    assert lim.clip_action(np.array([0.3]), lo, hi)[0] == pytest.approx(0.3)
    assert lim.clip_action(np.array([-0.9]), lo, hi)[0] == pytest.approx(-0.5)


@given(raw=st.floats(-10, 10), lo=st.floats(-5, 0), hi=st.floats(0, 5))
def test_clip_action_is_projection(raw, lo, hi):
    once = lim.clip_action([raw], [lo], [hi])
    twice = lim.clip_action(once, [lo], [hi])
    assert lo <= once[0] <= hi
    assert once[0] == twice[0]


# ---------------------------------------------------------------------------
# integration

def test_integrate_step_hand_values():
    [p1], [v1] = lim.integrate_step([0.0], [1.0], [0.0], [0.0], 0.05)
    assert (p1, v1) == (pytest.approx(0.05), pytest.approx(1.0))
    [p1], [v1] = lim.integrate_step([0.0], [0.0], [1.0], [1.0], 0.05)
    assert (p1, v1) == (pytest.approx(0.00125), pytest.approx(0.05))
    [p1], [v1] = lim.integrate_step([0.0], [0.0], [0.0], [1.0], 0.05)
    assert p1 == pytest.approx(4.1666666666e-4, rel=1e-9)
    assert v1 == pytest.approx(0.025)


def test_integrate_step_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p0, v0, a0, a1 = rng.uniform(-2, 2, 4)
        dt = rng.uniform(0.01, 0.2)
        tau = np.linspace(0.0, dt, 1001)
        a = a0 + (a1 - a0) * tau / dt
        v = v0 + np.array([simpson(a[: k + 1], x=tau[: k + 1]) if k else 0.0
                           for k in (0, 1000)])
        v_num = v0 + simpson(a, x=tau)
        v_profile = v0 + a0 * tau + (a1 - a0) * tau**2 / (2 * dt)
        p_num = p0 + simpson(v_profile, x=tau)
        [p1], [v1] = lim.integrate_step([p0], [v0], [a0], [a1], dt)
        assert v1 == pytest.approx(v_num, abs=1e-10)
        assert p1 == pytest.approx(p_num, abs=1e-10)


def test_intermediate_setpoints_endpoint_and_shape():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    p0, v0, a0, a1 = np.array([0.1]), np.array([0.4]), np.array([0.0]), np.array([1.0])
    series = lim.substep_profile(p0, v0, a0, a1, params.dt,
                                 params.substeps)[1:]
    assert series.shape == (10, 1)
    p1, _ = lim.integrate_step(p0, v0, a0, a1, 0.05)
    assert abs(series[-1, 0] - p1[0]) < 1e-12


def test_intermediate_setpoints_constant_velocity_equally_spaced():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    series = lim.substep_profile([0.0], [1.0], [0.0], [0.0], params.dt,
                                 params.substeps)[1:]
    np.testing.assert_allclose(np.diff(series[:, 0]), 0.005, atol=1e-15)
    assert series[0, 0] == pytest.approx(0.005)


def test_intermediate_setpoints_cubic_closed_form():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    a1, dt = 1.0, 0.05
    series = lim.substep_profile([0.0], [0.0], [0.0], [a1], params.dt,
                                 params.substeps)[1:]
    t = np.arange(1, 11) * 0.005
    expected = a1 * t**3 / (6.0 * dt)
    np.testing.assert_allclose(series[:, 0], expected, atol=1e-15)


def test_step_params_validation():
    with pytest.raises(ConfigurationError):
        lim.StepParams(dt=0.05, control_dt=0.004)
    with pytest.raises(ConfigurationError):
        lim.StepParams(dt=0.0)
    assert lim.StepParams(dt=0.05, control_dt=0.005).substeps == 10


def test_joint_limits_validation():
    # each message names the field, its chain-file key, the first offending
    # joint and its value; the regime check names both sides and dt_s
    with pytest.raises(ConfigurationError, match=r"JointLimits p_min \(p_min_rad\) "
                       r"must be < p_max per joint, got 0\.0 at joint 0$"):
        lim.JointLimits(p_min=[0.0], p_max=[0.0], v_max=[1], a_max=[1], j_max=[1])
    with pytest.raises(ConfigurationError, match=r"JointLimits a_max \(a_max_rad_per_s2\) "
                       r"must be > 0 per joint, got -2\.0 at joint 1$"):
        lim.JointLimits(p_min=[-1, -1, -1], p_max=[1, 1, 1], v_max=[1, 1, 1],
                        a_max=[1, -2.0, 0.0], j_max=[1, 1, 1])
    two = dict(p_min=[-1, -1], p_max=[1, 1], v_max=[1.0, 1.0], a_max=[2.0, 2.0],
               j_max=[20.0, 20.0])
    with pytest.raises(ConfigurationError, match=r"^unsupported regime at joint 1: "
                       r"j_max \* dt = 1 exceeds a_max = 0\.5 at step dt_s 0\.05$"):
        lim.check_limit_regime(lim.JointLimits(**dict(two, a_max=[2.0, 0.5])), 0.05)
    with pytest.raises(ConfigurationError, match=r"^unsupported regime at joint 0: "
                       r"j_max \* dt\*\*2 = 0\.05 exceeds v_max = 0\.01 at step dt_s 0\.05$"):
        lim.check_limit_regime(lim.JointLimits(**dict(two, v_max=[0.01, 1.0])), 0.05)


@pytest.mark.parametrize("field", ["p_min", "p_max", "v_max", "a_max", "j_max"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_joint_limits_reject_non_finite_values(field, bad):
    values = dict(p_min=[-1.0, -1.0], p_max=[1.0, 1.0], v_max=[1.0, 1.0],
                  a_max=[10.0, 10.0], j_max=[100.0, 100.0])
    values[field] = [values[field][0], -bad if field == "p_min" else bad]
    with pytest.raises(ConfigurationError, match=field):
        lim.JointLimits(**values)


@pytest.mark.parametrize("kwargs", [dict(dt=np.inf), dict(dt=np.nan),
                                    dict(control_dt=np.inf),
                                    dict(dt=np.inf, control_dt=np.inf)],
                         ids=["dt-inf", "dt-nan", "control_dt-inf", "both-inf"])
def test_step_params_reject_non_finite_periods(kwargs):
    with pytest.raises(ConfigurationError, match="finite"):
        lim.StepParams(**kwargs)


@pytest.mark.parametrize("v0, a0", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                                    (0.0, np.nan), (0.0, np.inf)])
def test_valid_accel_bounds_rejects_non_finite_state(v0, a0):
    with pytest.raises(NonFiniteStateError):
        lim.valid_accel_bounds(v0, a0, 1.0, 10.0, 100.0, 0.05, correction_enabled=True)
    # one bad entry in a batch is enough
    v = np.zeros((3, 4))
    a = np.zeros((3, 4))
    v[2, 1], a[2, 1] = v0, a0
    with pytest.raises(NonFiniteStateError):
        lim.valid_accel_bounds(v, a, 1.0, 10.0, 100.0, 0.05, correction_enabled=False)


# ---------------------------------------------------------------------------
# safety fuzz

@st.composite
def regime_and_state(draw):
    dt = draw(st.sampled_from([0.02, 0.05, 0.1]))
    v_max = draw(st.floats(0.3, 3.0))
    a_max = draw(st.floats(1.0, 15.0))
    j_hi = min(a_max / dt, v_max / dt**2, 120.0)
    j_max = draw(st.floats(0.5, j_hi))
    ua = draw(st.floats(-1.0, 1.0))
    a0 = ua * min(a_max, np.sqrt(1.9 * j_max * v_max))
    budget = max(v_max - a0**2 / (2.0 * j_max), 0.0)
    v0 = draw(st.floats(-1.0, 1.0)) * budget * 0.999
    seed = draw(st.integers(0, 2**31 - 1))
    correction = draw(st.booleans())
    return dt, v_max, a_max, j_max, v0, a0, seed, correction


@settings(max_examples=150, deadline=None)
@given(regime_and_state())
def test_safety_fuzz_random_actions_never_violate(case):
    dt, v_max, a_max, j_max, v0, a0, seed, correction = case
    rng = np.random.default_rng(seed)
    v, a = v0, a0
    for _ in range(30):
        lo, hi = lim.valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        a1 = float(lo + rng.uniform() * (hi - lo))
        assert abs(a1 - a) / dt <= j_max + 1e-9
        _, vv, aa = ref_substep_profile(0.0, v, a, a1, dt, 10)
        assert np.all(np.abs(vv) <= v_max + 1e-9)
        assert np.all(np.abs(aa) <= a_max + 1e-9)
        # in-step velocity extremum (between control ticks)
        if a != a1 and (a > 0) != (a1 > 0):
            t_star = a * dt / (a - a1)
            v_star = v + a * t_star + (a1 - a) * t_star**2 / (2 * dt)
            assert abs(v_star) <= v_max + 1e-9
        _, [v1] = lim.integrate_step([0.0], [v], [a], [a1], dt)
        v, a = v1, a1


# ---------------------------------------------------------------------------
# kernel oracle: bit-identical to the frozen reference kernels

def _outcome(bounds, *args, **kwargs):
    """(lo, hi) of a valid-range call, or what it raised."""
    try:
        return bounds(*args, **kwargs)
    except LimitConsistencyError as exc:
        return type(exc), exc.joint, exc.lo, exc.hi
    except NonFiniteStateError as exc:
        return type(exc), str(exc)


def _float_range(v0, a0, v_max, a_max, j_max, dt, *, correction_enabled):
    """The single-state kernel ``valid_accel_range`` on the arguments of
    ``valid_accel_bounds``: (n,) states and limits."""
    limits = lim.JointLimits(p_min=-np.ones(np.size(v_max)), p_max=np.ones(np.size(v_max)),
                             v_max=v_max, a_max=a_max, j_max=j_max)
    lo, hi = lim.valid_accel_range(np.asarray(v0).tolist(), np.asarray(a0).tolist(), limits,
                                   lim.StepParams(dt=dt, correction_enabled=correction_enabled))
    return np.array(lo), np.array(hi)


def _assert_same_outcome(*args, correction, kernel=lim.valid_accel_bounds):
    want = _outcome(ref_valid_accel_bounds, *args, correction_enabled=correction)
    got = _outcome(kernel, *args, correction_enabled=correction)
    if isinstance(want[0], type):
        assert got == want
        return want
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))
    return want


def _oracle_states(rng, v_max, a_max, j_max, dt):
    """One state per limit entry: interior, at rest, on +-v_max, riding the
    velocity bound, past the in-step threshold (inside the viable set), the
    boundary fuzz's ulp-moved states and ulp-moved states on the viable
    boundary, in about equal shares, on both sides, in random order; a0 is
    exactly 0 in the rest states and in some of the v_max ones."""
    n = v_max.size
    jd = j_max * dt
    kind = rng.integers(0, 7, n)
    side = rng.choice([-1.0, 1.0], n)
    # interior of the safe set
    a0 = rng.uniform(-1, 1, n) * np.minimum(a_max, np.sqrt(1.9 * j_max * v_max))
    v0 = rng.uniform(-1, 1, n) * np.maximum(v_max - a0**2 / (2 * j_max), 0.0) * 0.999
    # at rest, and resting on or braking off +-v_max
    rest = kind == 1
    v0[rest], a0[rest] = 0.0, side[rest] * 0.0
    on_limit = kind == 2
    brake = rng.choice([0.0, 1.0], n) * rng.uniform(0, 1, n) * jd
    v0[on_limit] = (side * v_max)[on_limit]
    a0[on_limit] = (-side * brake)[on_limit]
    # close to the velocity bound, where it binds
    a_p = rng.uniform(-1, 1, n) * np.minimum(a_max, np.sqrt(2 * j_max * v_max))
    room = v_max - np.maximum(a_p, 0.0) ** 2 / (2 * j_max)
    v_p = room * (1 - 10.0 ** rng.uniform(-12, 0, n))
    riding = kind == 3
    v0[riding], a0[riding] = (side * v_p)[riding], (side * a_p)[riding]
    # past v0 + a0*dt/2 >= v_max with the in-step root still above the
    # jerk floor: a0 <= j_max*dt and v_max - v0 >= a0**2 / (2 j_max)
    a_t = rng.uniform(0, 1, n) * np.minimum(jd, a_max)
    gap = a_t**2 / (2 * j_max)
    gap = gap + rng.uniform(0.01, 1, n) * (0.5 * a_t * dt - gap)
    past = kind == 4
    v0[past], a0[past] = (side * (v_max - gap))[past], (side * a_t)[past]
    # one step after a command equal to a binding bound, from closer to
    # the bound, moved 1-64 ulp
    v_p = room * (1 - 10.0 ** rng.uniform(-14, -6, n))
    _, a1 = ref_valid_accel_bounds(v_p, a_p, v_max, a_max, j_max, dt, True)
    v1 = v_p + 0.5 * (a_p + a1) * dt

    def ulps(x):
        return x + rng.integers(1, 65, n) * rng.choice([-1.0, 1.0], n) * np.abs(np.spacing(x))

    moved = (kind == 5) & (ref_max_accel_velocity(v_p, a_p, v_max, j_max, dt)
                           < np.minimum(a_p + jd, a_max))
    v0[moved], a0[moved] = (side * ulps(v1))[moved], (side * ulps(a1))[moved]
    # on the viable boundary, where the in-step root meets the jerk floor
    # and one ulp of v0 moves it by up to 1e-7, moved 1-64 ulp
    a_b = jd * 10.0 ** rng.uniform(-4, -1, n)
    edge = kind == 6
    v0[edge] = (side * ulps(v_max - a_b**2 / (2 * j_max)))[edge]
    a0[edge] = (side * a_b)[edge]
    return v0, a0


def _regime_limits(rng, n, dt):
    v_max = rng.uniform(0.5, 3.0, n)
    a_max = rng.uniform(2.0, 15.0, n)
    j_max = rng.uniform(0.3, 1.0, n) * np.minimum(a_max / dt, v_max / dt**2)
    return v_max, a_max, j_max


@pytest.mark.parametrize("correction", [False, True])
def test_kernels_match_frozen_reference(correction, monkeypatch):
    dt, shape = 0.05, (20_000, 7)
    rng = np.random.default_rng(31)
    v_max, a_max, j_max = (x.reshape(shape) for x in _regime_limits(rng, 140_000, dt))
    v0, a0 = (x.reshape(shape) for x in _oracle_states(rng, v_max.ravel(), a_max.ravel(),
                                                       j_max.ravel(), dt))
    # (E, n) states and limits, then per-entry kernels on the same states
    batch = _assert_same_outcome(v0, a0, v_max, a_max, j_max, dt, correction=correction)
    vel = np.stack((v0, -v0)), np.stack((a0, -a0))
    want = ref_max_accel_velocity(*vel, v_max, j_max, dt)
    # in-step roots and boundary states (velocity bound below the jerk floor)
    assert (np.abs(v0) + 0.5 * np.abs(a0) * dt >= v_max).sum() > 20_000
    floor = np.maximum(a0 - j_max * dt, -a_max)
    ceil = np.minimum(a0 + j_max * dt, a_max)
    assert (want[0] < floor - lim.LIMIT_EPS).sum() > 1_000
    assert (-want[1] > ceil + lim.LIMIT_EPS).sum() > 1_000
    got = velocity_bound(*vel, v_max, j_max, dt)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    args = tuple(x.ravel() for x in (v0, a0, want[0], v_max, a_max, j_max))
    with np.errstate(invalid="ignore", divide="ignore"):
        got = lim._shifted_bound(*args[:-1], args[-1] * dt, dt)
    want = ref_correction_shift(*args, dt)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    # (n,) and scalar states; the single-state kernel on every (n,) row,
    # each its own call, bit for bit the batch's row
    for e in range(0, 300):
        for kernel in (lim.valid_accel_bounds, _float_range):
            _assert_same_outcome(v0[e], a0[e], v_max[e], a_max[e], j_max[e], dt,
                                 correction=correction, kernel=kernel)
    calls = count_calls(monkeypatch, lim, ("valid_accel_bounds",))
    rows = [_float_range(v0[e], a0[e], v_max[e], a_max[e], j_max[e], dt,
                         correction_enabled=correction) for e in range(shape[0])]
    # the boundary and ulp-moved rows hand the call to the batch kernel
    assert 1_000 < calls["valid_accel_bounds"] < shape[0] - 1_000
    for got, want in zip(zip(*rows), batch):
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))
    for e, j in zip(range(300, 1300), rng.integers(0, 7, 1000)):
        idx = (e, j)
        _assert_same_outcome(v0[idx], a0[idx], v_max[idx], a_max[idx], j_max[idx], dt,
                             correction=correction)

    # (n,) limits with (E, n) states, broadcast: the kernel takes one shape
    limits = _regime_limits(rng, 7, dt)
    tiled = (np.tile(x, 5_000) for x in limits)
    states = (x.reshape(5_000, 7) for x in _oracle_states(rng, *tiled, dt))
    _assert_same_outcome(*np.broadcast_arrays(*states, *limits), dt, correction=correction)

    # scalar limits with (n,) states, a scalar state with (n,) limits
    for _ in range(300):
        one = tuple(float(x[0]) for x in _regime_limits(rng, 1, dt))
        states = _oracle_states(rng, *(np.full(7, x) for x in one), dt)
        _assert_same_outcome(*np.broadcast_arrays(*states, *one), dt, correction=correction)
        limits = _regime_limits(rng, 7, dt)
        j = rng.integers(0, 7)
        v0, a0 = (float(x[j]) for x in _oracle_states(rng, *limits, dt))
        _assert_same_outcome(*np.broadcast_arrays(v0, a0, *limits), dt, correction=correction)

    # (E, 1) limits with (E, n) states
    limits = _regime_limits(rng, 5_000, dt)
    tiled = (np.repeat(x, 7) for x in limits)
    states = (x.reshape(5_000, 7) for x in _oracle_states(rng, *tiled, dt))
    _assert_same_outcome(*np.broadcast_arrays(*states, *(x[:, None] for x in limits)), dt,
                         correction=correction)


@pytest.mark.parametrize("correction", [False, True])
def test_kernels_raise_like_frozen_reference(correction):
    """States outside the viable set, alone or planted in a batch, raise the
    same error with the same joint, lo and hi."""
    dt = 0.05
    rng = np.random.default_rng(32)
    v_max, a_max, j_max = _regime_limits(rng, 400, dt)
    v0 = v_max * rng.uniform(0.999, 1.2, 400) * rng.choice([-1.0, 1.0], 400)
    v0[::4] = np.sign(v0[::4]) * v_max[::4]      # on the bound, accelerating
    a0 = np.sign(v0) * rng.uniform(0.0, 1.0, 400) * a_max
    raised = 0
    for i in range(400):
        out = _assert_same_outcome(v0[i], a0[i], v_max[i], a_max[i], j_max[i], dt,
                                   correction=correction)
        raised += out[0] is LimitConsistencyError
        one = slice(i, i + 1)
        _assert_same_outcome(v0[one], a0[one], v_max[one], a_max[one], j_max[one], dt,
                             correction=correction, kernel=_float_range)
    assert 200 < raised < 400
    for k in range(20):
        vb, ab, jb = (x.reshape(8, 7) for x in _regime_limits(rng, 56, dt))
        vs, as_ = (x.reshape(8, 7) for x in _oracle_states(rng, vb.ravel(), ab.ravel(),
                                                           jb.ravel(), dt))
        for _ in range(k % 3 + 1):
            e, j = rng.integers(0, 8), rng.integers(0, 7)
            vs[e, j], as_[e, j] = 1.1 * vb[e, j], ab[e, j]
        for a_32 in (as_[3, 2], np.nan):
            as_[3, 2] = a_32
            _assert_same_outcome(vs, as_, vb, ab, jb, dt, correction=correction)
            # each row alone, through the single-state kernel too
            for e in range(8):
                _assert_same_outcome(vs[e], as_[e], vb[e], ab[e], jb[e], dt,
                                     correction=correction, kernel=_float_range)


def test_single_state_kernel_walks_match_the_batch_kernel():
    """Random and greedy (+-1) commands over random limit sets of 1-7 joints:
    at every state the walks visit, the single-state kernel returns the bits
    of ``valid_accel_bounds``, which recomputes each walk's ranges at once
    from its (steps, n) states."""
    dt = 0.05
    rng = np.random.default_rng(41)
    states = mismatches = 0
    for walk in range(560):
        n = int(rng.integers(1, 8))
        v_max, a_max, j_max = _regime_limits(rng, n, dt)
        limits = lim.JointLimits(p_min=-np.ones(n), p_max=np.ones(n),
                                 v_max=v_max, a_max=a_max, j_max=j_max)
        params = lim.StepParams(dt=dt, correction_enabled=bool(walk % 2))
        greedy = walk % 4 >= 2
        sign = rng.choice([-1.0, 1.0], n)
        v, a = [0.0] * n, [0.0] * n
        visited, got = [], []
        for _ in range(90):
            lo, hi = lim.valid_accel_range(v, a, limits, params)
            visited.append((v, a))
            got.append((lo, hi))
            if greedy:  # ride a limit, now and then turn around
                flip = rng.uniform(size=n) < 0.05
                sign[flip] = -sign[flip]
                raw = sign
            else:
                raw = rng.uniform(-1.0, 1.0, n)
            a_next = lim.clip_action((raw * a_max).tolist(), lo, hi)
            _, v = lim.integrate_step([0.0] * n, v, a, a_next, dt)
            a = a_next
        want = lim.valid_accel_bounds(*np.broadcast_arrays(*np.stack(visited, axis=1), v_max,
                                                           a_max, j_max), dt,
                                      correction_enabled=params.correction_enabled)
        got = np.stack(got, axis=1)
        mismatches += np.count_nonzero(got.view(np.int64) != np.stack(want).view(np.int64))
        states += len(visited)
    assert states >= 50_000
    assert mismatches == 0


@pytest.mark.parametrize("n_v, n_a", [(1, 3), (3, 1), (2, 3), (4, 3), (3, 4)])
def test_valid_accel_range_rejects_a_state_of_another_length(n_v, n_a):
    limits = _simple_limits(n=3)
    with pytest.raises(ValueError, match=rf"3 joints .* shapes \({n_v},\) and \({n_a},\)"):
        lim.valid_accel_range(np.zeros(n_v), np.zeros(n_a), limits, lim.StepParams())


def _assert_inputs_unchanged(kernel, *args, **kwargs):
    """Call ``kernel`` (a valid-range error counts as a result) and check
    that every array argument keeps its bytes."""
    arrays = [x for x in args if isinstance(x, np.ndarray)]
    before = [x.tobytes() for x in arrays]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _outcome(kernel, *args, **kwargs)
    assert [x.tobytes() for x in arrays] == before
    return out


def test_kernels_leave_their_inputs_unchanged(monkeypatch):
    """The batch kernels write into arrays that they allocate, never into an
    argument: (E, n) states and limits, (n,) rows and 0-d entries of them,
    with the oracle's boundary and thin-range states, which take the rare
    branches."""
    dt, shape = 0.05, (2000, 7)
    rng = np.random.default_rng(53)
    limits = _regime_limits(rng, shape[0] * shape[1], dt)
    states = _oracle_states(rng, *limits, dt)
    v0, a0, v_max, a_max, j_max = (x.reshape(shape) for x in (*states, *limits))
    a1 = rng.uniform(-1.0, 1.0, shape) * a_max
    jd = j_max * dt
    a_unc = velocity_bound(v0, a0, v_max, j_max, dt)
    calls = count_calls(monkeypatch, lim, ("_velocity_bound",))
    for correction in (False, True):
        calls["_velocity_bound"] = 0
        lo, hi = _assert_inputs_unchanged(lim.valid_accel_bounds, v0, a0, v_max, a_max, j_max,
                                          dt, correction_enabled=correction)
        # the boundary re-evaluation ran, and thin ranges took their brake
        assert calls["_velocity_bound"] == 2
        assert np.count_nonzero(lo == hi) > 10

    rows = [(...,)] + [(e,) for e in range(0, 200, 10)]
    rows += [(e, j) for e, j in zip(range(200, 400, 10), rng.integers(0, 7, 20))]
    for idx in rows:
        v, a, a_next, vm, am, jm, jd_, unc = (np.array(x[idx]) for x in
                                              (v0, a0, a1, v_max, a_max, j_max, jd, a_unc))
        for correction in (False, True):
            _assert_inputs_unchanged(lim.valid_accel_bounds, v, a, vm, am, jm, dt,
                                     correction_enabled=correction)
        _assert_inputs_unchanged(lim.profile_peaks, v, a, a_next, vm, am, jm, dt)
        _assert_inputs_unchanged(lim._velocity_bound, v, a, vm, jd_, dt)
        # stacked states under limits of their trailing axes, as the batch calls it
        _assert_inputs_unchanged(lim._velocity_bound, np.stack((v, -v)), np.stack((a, -a)),
                                 vm, jd_, dt)
        # the shifted bound takes (k,) vectors
        _assert_inputs_unchanged(lim._shifted_bound,
                                 *(x.ravel() for x in (v, a, unc, vm, am, jd_)), dt)
    # (T, n) states under (n,) limits
    _assert_inputs_unchanged(lim.profile_peaks, v0, a0, a1, v_max[0], a_max[0], j_max[0], dt)


# ---------------------------------------------------------------------------
# step profile peaks

def _assert_same_peaks(args, dt):
    """``profile_peaks`` on ``args`` (states, then limits) returns the frozen
    audit's arrays bit for bit, signbits included, and leaves its inputs."""
    before = [x.copy() for x in args]
    want = ref_profile_peaks(*np.broadcast_arrays(*args), dt)
    got = lim.profile_peaks(*args, dt)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(args, before))
    return got


def test_profile_peaks_match_the_frozen_audit():
    """Random (E, n) states, and (T, n) states under (n,) limits; rows where
    the slope is zero (a1 == a0, or a0 and a1 one subnormal apart over a
    long step), where a0 is +0.0 or -0.0 so the turning point t* sits at
    exactly 0, and where a1 == 0 puts t* at exactly dt or one ulp off it."""
    dt = 0.05
    rng = np.random.default_rng(43)
    shape = (3000, 7)
    limits = [x.reshape(shape) for x in _regime_limits(rng, shape[0] * shape[1], dt)]
    v0, a0, a1 = (rng.uniform(-1.0, 1.0, shape) * limit
                  for limit in (limits[0], limits[1], limits[1]))
    a1[1::6] = a0[1::6]
    a0[2::6] = rng.choice([0.0, -0.0], a0[2::6].shape)
    a1[3::6] = 0.0
    v0[4::6] = rng.choice([0.0, -0.0], v0[4::6].shape)
    v_norm, _, _ = _assert_same_peaks((v0, a0, a1, *limits), dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = -a0 / ((a1 - a0) / dt)
    assert np.count_nonzero(t_star[3::6] == dt) > 1_000
    assert np.count_nonzero(t_star[3::6] != dt) > 100
    assert np.count_nonzero(t_star[2::6] == 0.0) == a0[2::6].size
    # the velocity at t* is the peak on many rows
    ends = np.maximum(np.abs(v0), np.abs(v0 + a0 * dt + 0.5 * (a1 - a0) * dt)) / limits[0]
    assert np.count_nonzero(v_norm > ends) > 1_000

    # (T, n) states of one limit set
    one = [x[0] for x in limits]
    _assert_same_peaks((v0[:400], a0[:400], a1[:400], *one), dt)

    # a zero slope although a1 != a0: one subnormal of da halves to zero
    long_dt = 2.0
    a0 = np.array([[0.0, -0.0, 1e-310, -1e-310, 5e-324]])
    a1 = np.nextafter(a0, np.inf)
    assert np.all(a1 != a0) and np.all((a1 - a0) / long_dt == 0.0)
    _assert_same_peaks((np.full(a0.shape, 0.3), a0, a1, *(np.ones(a0.shape),) * 3), long_dt)
