import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from trajadapt import limits as lim
from trajadapt.errors import (ConfigurationError, LimitConsistencyError,
                              NonFiniteStateError)


# ---------------------------------------------------------------------------
# oracles shared with the acceptance suite

from conftest import (bisect_max_accel_velocity, greedy_rollout,
                      profile_peak_velocity, random_limit_tuples)


# ---------------------------------------------------------------------------
# jerk / acceleration bounds (hand values)

def _jerk_bounds(a0, j_max, dt):
    # velocity and acceleration limits far away: only the jerk bound binds
    return lim.valid_accel_bounds(0.0, a0, 1e6, 1e6, j_max, dt)


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
    got = lim.max_accel_velocity(0.9, 0.5, 1.0, 10.0, 0.05)
    assert got == pytest.approx(-0.25 * (1.0 - np.sqrt(29.0)), abs=1e-12)
    assert got == pytest.approx(1.0963, abs=5e-5)

    # past-threshold branch: ramp's in-step peak equals v_max at t = 0.02 s
    got13 = lim.max_accel_velocity(0.99, 1.0, 1.0, 7.0, 0.05)
    assert got13 == pytest.approx(-1.5, abs=1e-12)
    t_star = 1.0 * 0.05 / (1.0 - got13)
    assert t_star == pytest.approx(0.02, abs=1e-12)
    v_star = 0.99 + 1.0 * t_star + (got13 - 1.0) * t_star**2 / (2 * 0.05)
    assert v_star == pytest.approx(1.0, abs=1e-12)

    # resting at the limit: nothing positive is allowed
    assert lim.max_accel_velocity(1.0, 0.0, 1.0, 10.0, 0.05) == 0.0


def test_max_accel_velocity_degenerate_v0_equals_vmax():
    # a0 > 0 with zero velocity headroom: in-step formula would divide by
    # zero, the braking-phase expression stays finite
    got = lim.max_accel_velocity(1.0, 0.05, 1.0, 10.0, 0.05)
    assert np.isfinite(got)
    assert got < 0.0


def test_max_accel_velocity_branch_continuity():
    # at v0 + a0*dt/2 == v_max both branches give exactly 0 gain headroom
    v_max, j_max, dt = 1.0, 10.0, 0.05
    a0 = 0.4
    v0 = v_max - 0.5 * a0 * dt
    below = lim.max_accel_velocity(v0 - 1e-12, a0, v_max, j_max, dt)
    above = lim.max_accel_velocity(v0 + 1e-12, a0, v_max, j_max, dt)
    assert abs(below - above) < 1e-9


def test_max_accel_velocity_matches_bisection_oracle():
    rng = np.random.default_rng(1234)
    v0, a0, v_max, _, j_max, dt = random_limit_tuples(rng, 400)
    # bisection oracle works on a common dt per batch
    for i in range(0, 400, 100):
        s = slice(i, i + 100)
        d = float(np.mean(dt[s]))
        closed = lim.max_accel_velocity(v0[s], a0[s], v_max[s], j_max[s], d)
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
    unc = lim.max_accel_velocity(0.95, 0.8, 1.0, 10.0, 0.05)
    _, got = lim.valid_accel_bounds(0.95, 0.8, 1.0, 2.0, 10.0, 0.05,
                                    correction_enabled=False)
    assert got == pytest.approx(unc, abs=0)


def test_correction_inactive_when_bound_not_hit():
    # far from v_max the jerk bound binds, so the correction changes nothing
    plain = lim.valid_accel_bounds(0.0, 0.0, 50.0, 2.0, 10.0, 0.05)
    got = lim.valid_accel_bounds(0.0, 0.0, 50.0, 2.0, 10.0, 0.05,
                                 correction_enabled=True)
    assert lim.max_accel_velocity(0.0, 0.0, 50.0, 10.0, 0.05) > got[1]
    assert got[0] == pytest.approx(plain[0], abs=0)
    assert got[1] == pytest.approx(plain[1], abs=0)


def test_correction_shifts_bound_down_and_lands_exactly():
    v0, a0, v_max, j_max, dt = 0.95, 0.8, 1.0, 10.0, 0.05
    unc = lim.max_accel_velocity(v0, a0, v_max, j_max, dt)
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
    r = lim.valid_accel_range(lim.JointState.at_rest([0.0]), limits, params)
    assert r.lo[0] == pytest.approx(-2.0) and r.hi[0] == pytest.approx(2.0)


def test_valid_accel_range_at_velocity_limit():
    limits = _simple_limits()
    params = lim.StepParams(correction_enabled=False)
    state = lim.JointState(p=[0.0], v=[1.0], a=[0.0])
    r = lim.valid_accel_range(state, limits, params)
    assert r.hi[0] == pytest.approx(0.0, abs=1e-12)


def test_valid_accel_range_accel_limit_binds_over_jerk():
    limits = _simple_limits(v=100.0, a=2.0, j=200.0)
    params = lim.StepParams(correction_enabled=False)
    state = lim.JointState(p=[0.0], v=[0.0], a=[2.0])
    r = lim.valid_accel_range(state, limits, params)
    assert r.hi[0] == pytest.approx(2.0)  # a_max < a0 + j_max*dt = 12


def test_valid_accel_range_inconsistent_state_raises():
    limits = _simple_limits()
    params = lim.StepParams(correction_enabled=False)
    state = lim.JointState(p=[0.0], v=[1.5], a=[2.0])  # far outside the safe set
    with pytest.raises(LimitConsistencyError):
        lim.valid_accel_range(state, limits, params)


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
    r = lim.AccelRange(lo=np.array([-0.5]), hi=np.array([0.5]))
    assert lim.clip_action([0.7], r)[0] == pytest.approx(0.5)
    assert lim.clip_action([0.3], r)[0] == pytest.approx(0.3)
    assert lim.clip_action([-0.9], r)[0] == pytest.approx(-0.5)


@given(raw=st.floats(-10, 10), lo=st.floats(-5, 0), hi=st.floats(0, 5))
def test_clip_action_is_projection(raw, lo, hi):
    r = lim.AccelRange(lo=np.array([lo]), hi=np.array([hi]))
    once = lim.clip_action([raw], r)
    twice = lim.clip_action(once, r)
    assert lo <= once[0] <= hi
    assert once[0] == twice[0]


# ---------------------------------------------------------------------------
# integration

def test_integrate_step_hand_values():
    p1, v1 = lim.integrate_step(0.0, 1.0, 0.0, 0.0, 0.05)
    assert (p1, v1) == (pytest.approx(0.05), pytest.approx(1.0))
    p1, v1 = lim.integrate_step(0.0, 0.0, 1.0, 1.0, 0.05)
    assert (p1, v1) == (pytest.approx(0.00125), pytest.approx(0.05))
    p1, v1 = lim.integrate_step(0.0, 0.0, 0.0, 1.0, 0.05)
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
        p1, v1 = lim.integrate_step(p0, v0, a0, a1, dt)
        assert v1 == pytest.approx(v_num, abs=1e-10)
        assert p1 == pytest.approx(p_num, abs=1e-10)


def test_intermediate_setpoints_endpoint_and_shape():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    p0, v0, a0, a1 = np.array([0.1]), np.array([0.4]), np.array([0.0]), np.array([1.0])
    series = lim.substep_profile(p0, v0, a0, a1, params.dt,
                                 params.substeps)[0][1:]
    assert series.shape == (10, 1)
    p1, _ = lim.integrate_step(p0, v0, a0, a1, 0.05)
    assert abs(series[-1, 0] - p1[0]) < 1e-12


def test_intermediate_setpoints_constant_velocity_equally_spaced():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    series = lim.substep_profile([0.0], [1.0], [0.0], [0.0], params.dt,
                                 params.substeps)[0][1:]
    np.testing.assert_allclose(np.diff(series[:, 0]), 0.005, atol=1e-15)
    assert series[0, 0] == pytest.approx(0.005)


def test_intermediate_setpoints_cubic_closed_form():
    params = lim.StepParams(dt=0.05, control_dt=0.005)
    a1, dt = 1.0, 0.05
    series = lim.substep_profile([0.0], [0.0], [0.0], [a1], params.dt,
                                 params.substeps)[0][1:]
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
    with pytest.raises(ConfigurationError):
        lim.JointLimits(p_min=[0.0], p_max=[0.0], v_max=[1], a_max=[1], j_max=[1])
    with pytest.raises(ConfigurationError):
        lim.JointLimits(p_min=[-1], p_max=[1], v_max=[1], a_max=[0.0], j_max=[1])
    with pytest.raises(ConfigurationError):
        lim.check_limit_regime(_simple_limits(v=1.0, a=0.5, j=20.0), 0.05)


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
        lim.valid_accel_bounds(v0, a0, 1.0, 10.0, 100.0, 0.05, True)
    # one bad entry in a batch is enough
    v = np.zeros((3, 4))
    a = np.zeros((3, 4))
    v[2, 1], a[2, 1] = v0, a0
    with pytest.raises(NonFiniteStateError):
        lim.valid_accel_bounds(v, a, 1.0, 10.0, 100.0, 0.05, False)


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
        _, vv, aa = lim.substep_profile(0.0, v, a, a1, dt, 10)
        assert np.all(np.abs(vv) <= v_max + 1e-9)
        assert np.all(np.abs(aa) <= a_max + 1e-9)
        # in-step velocity extremum (between control ticks)
        if a != a1 and (a > 0) != (a1 > 0):
            t_star = a * dt / (a - a1)
            v_star = v + a * t_star + (a1 - a) * t_star**2 / (2 * dt)
            assert abs(v_star) <= v_max + 1e-9
        _, v1 = lim.integrate_step(0.0, v, a, a1, dt)
        v, a = float(v1), a1
