import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import CONFIG_DIR, arm_chain, planar_chain
from trajadapt import adaptation as ad
from trajadapt import kinematics as kin
from trajadapt import policy as pol
from trajadapt import trajectory as tr
from trajadapt.config import load_config
from trajadapt.errors import ConfigurationError, PathRejectedError
from trajadapt.limits import JointLimits


DEMO_AREAS = tr.SamplingAreas(boxes=(
    ((0.35, -0.28, 0.82), (0.50, -0.15, 0.92)),
    ((0.42, -0.06, 0.82), (0.58, 0.06, 0.92)),
    ((0.35, 0.15, 0.82), (0.50, 0.28, 0.92)),
), height_band=(0.82, 0.92))


@pytest.fixture(scope="module")
def arm():
    return arm_chain()


@pytest.fixture(scope="module")
def demo_reference(arm):
    model, limits = arm
    cfg = tr.PipelineConfig(dt=0.05)
    return tr.generate_reference(model, limits, DEMO_AREAS, cfg, seed=1, traj_id="traj",
                                 split="train")


# ---------------------------------------------------------------------------
# waypoint sampling

def test_sample_waypoints_point_box():
    areas = tr.SamplingAreas(boxes=(
        ((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)),
        ((0.5, 0.5, 0.3), (0.5, 0.5, 0.3)),
    ))
    pts = tr.sample_waypoints(areas, np.random.default_rng(0))
    np.testing.assert_allclose(pts[0], [0.1, 0.2, 0.3])
    np.testing.assert_allclose(pts[1], [0.5, 0.5, 0.3])


def test_sample_waypoints_deterministic():
    a = tr.sample_waypoints(DEMO_AREAS, np.random.default_rng(99))
    b = tr.sample_waypoints(DEMO_AREAS, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_sample_waypoints_bounds_and_coverage():
    rng = np.random.default_rng(5)
    areas = tr.SamplingAreas(boxes=(
        ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ((2.0, 0.0, 0.0), (3.0, 1.0, 1.0)),
    ))
    hits = np.zeros(8, dtype=int)
    for _ in range(10_000):
        p = tr.sample_waypoints(areas, rng)[0]
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        octant = (p[0] > 0.5) * 4 + (p[1] > 0.5) * 2 + (p[2] > 0.5)
        hits[octant] += 1
    assert np.all(hits > 0)  # coarse uniformity: every octant reached


def test_sample_waypoints_height_band():
    pts = tr.sample_waypoints(DEMO_AREAS, np.random.default_rng(4))
    assert np.all(pts[:, 2] == pts[0, 2])
    assert 0.82 <= pts[0, 2] <= 0.92


# ---------------------------------------------------------------------------
# spline

def test_spline_two_waypoints_is_straight():
    path = tr.CartesianPath([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    for u in np.linspace(0, 1, 11):
        np.testing.assert_allclose(path(u), [u, 2 * u, 0.0], atol=1e-12)


def test_spline_interpolates_waypoints():
    wps = np.array([[0, 0, 0], [0.5, 0.2, 0.1], [1.0, -0.3, 0.4], [1.5, 0, 0]], float)
    path = tr.CartesianPath(wps)
    # the chord-length knots, normalized to [0, 1]
    knots = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(wps, axis=0), axis=1))])
    for u, wp in zip(knots / knots[-1], wps):
        assert np.linalg.norm(path(u) - wp) < 1e-9


def test_spline_collinear_waypoints_stay_on_line():
    wps = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3.5, 3.5, 3.5]], float)
    path = tr.CartesianPath(wps)
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    for u in np.linspace(0, 1, 50):
        p = path(u)
        off_line = p - np.dot(p, direction) * direction
        assert np.linalg.norm(off_line) < 1e-9


def test_spline_duplicate_waypoints_rejected():
    with pytest.raises(ConfigurationError):
        tr.CartesianPath([[0, 0, 0], [0, 0, 0], [1, 0, 0]])


@pytest.mark.parametrize("m", [2, 3, 4, 10, 100])
def test_natural_spline_matches_scipy(m):
    # tolerance 1e-12 relative to the size of the nu-th derivative: the
    # largest |y| over the shortest interval to the power nu
    rng = np.random.default_rng(m)
    x = np.cumsum(rng.uniform(0.05, 1.0, m))
    y = rng.normal(size=(m, 5))
    ours = tr.NaturalSpline(x, y)
    oracle = CubicSpline(x, y, axis=0, bc_type="natural")
    points = np.concatenate([x, rng.uniform(x[0], x[-1], 200)])
    for nu in (0, 1, 2):
        scale = np.max(np.abs(y)) / np.min(np.diff(x)) ** nu
        np.testing.assert_allclose(ours(points, nu), oracle(points, nu),
                                   rtol=0, atol=1e-12 * scale)
        for end in (x[0], x[-1]):  # scalar points, as CartesianPath passes them
            np.testing.assert_allclose(ours(end, nu), oracle(end, nu),
                                       rtol=0, atol=1e-12 * scale)


def test_natural_spline_third_derivative():
    # the second derivative is linear inside an interval, so its central
    # difference there is the third derivative up to rounding
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.05, 1.0, 6))
    spline = tr.NaturalSpline(x, rng.normal(size=(6, 3)))
    mid = 0.5 * (x[:-1] + x[1:])
    h = 0.25 * np.min(np.diff(x))
    central = (spline(mid + h, 2) - spline(mid - h, 2)) / (2.0 * h)
    np.testing.assert_allclose(spline(mid, 3), central, rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError, match="0, 1, 2 or 3"):
        spline(mid, 4)


# ---------------------------------------------------------------------------
# joint-space conversion

def test_path_to_joint_space_stationary(arm):
    model, limits = arm
    pos, _ = kin.fk_transform(model, model.q_home)
    path = tr.CartesianPath([pos, pos + [1e-9, 0, 0]])
    qs = tr.path_to_joint_space(path, model, 5, limits=limits)
    assert np.max(np.abs(np.diff(qs, axis=0))) < 1e-5


def test_path_to_joint_space_fk_round_trip(arm):
    model, limits = arm
    wps = tr.sample_waypoints(DEMO_AREAS, np.random.default_rng(2))
    path = tr.CartesianPath(wps)
    qs = tr.path_to_joint_space(path, model, 40, limits=limits)
    us = np.linspace(0, 1, 40)
    for q, u in zip(qs[::5], us[::5]):
        p, rot = kin.fk_transform(model, q)
        assert np.linalg.norm(p - path(u)) < 1e-5
        assert np.linalg.norm(kin.orientation_error(rot, np.eye(3))) < 1e-5


def test_path_to_joint_space_unreachable_rejected():
    model, limits = planar_chain([0.5, 0.5])
    path = tr.CartesianPath([[0.2, 0.2, 0.0], [5.0, 0.0, 0.0]])
    with pytest.raises(PathRejectedError):
        tr.path_to_joint_space(path, model, 10, limits=limits)


# ---------------------------------------------------------------------------
# time parameterization

def test_time_parameterize_trapezoid_duration():
    # the straight unit path that a time-optimal pass runs as a trapezoid;
    # bound by velocity alone, the minimum-jerk speed peaks at 15/8 of the
    # mean, so T = 15/8 * path / v_max
    limits = JointLimits(p_min=[-2], p_max=[2], v_max=[1.0], a_max=[100.0],
                         j_max=[1000.0])
    q_path = np.linspace(0.0, 1.0, 60)[:, None]
    timed = tr.time_parameterize(q_path, limits, headroom=0.0, grid=2000)
    assert timed.duration == pytest.approx(1.875, rel=1e-3)


def test_time_parameterize_headroom_and_grid_take_effect():
    limits = JointLimits(p_min=[-2], p_max=[2], v_max=[1.0], a_max=[100.0],
                         j_max=[1000.0])
    q_path = np.linspace(0.0, 1.0, 60)[:, None]
    full = tr.time_parameterize(q_path, limits, headroom=0.0, grid=2000).duration
    kept = tr.time_parameterize(q_path, limits, headroom=0.2, grid=2000).duration
    assert kept / full == pytest.approx(1.0 / 0.8, rel=1e-12)
    coarse = tr.time_parameterize(q_path, limits, headroom=0.0, grid=4)
    assert coarse.t.shape == (4,) and coarse.duration < full


def test_time_parameterize_jerk_bound():
    # a 4-cm hop at a_max = j_max = 1: the jerk limit sets T = cbrt(60 * 0.04)
    limits = JointLimits(p_min=[-2], p_max=[2], v_max=[10.0], a_max=[1.0], j_max=[1.0])
    q_path = np.linspace(0.0, 0.04, 30)[:, None]
    timed = tr.time_parameterize(q_path, limits, headroom=0.0, grid=3001)
    assert timed.duration == pytest.approx(np.cbrt(60.0 * 0.04), rel=1e-9)


def test_time_parameterize_velocity_scaling():
    lim_full = JointLimits(p_min=[-2], p_max=[2], v_max=[1.0], a_max=[100.0],
                           j_max=[1000.0])
    lim_half = JointLimits(p_min=[-2], p_max=[2], v_max=[0.5], a_max=[100.0],
                           j_max=[1000.0])
    q_path = np.linspace(0.0, 1.0, 60)[:, None]
    t_full = tr.time_parameterize(q_path, lim_full, headroom=0.0, grid=2000).duration
    t_half = tr.time_parameterize(q_path, lim_half, headroom=0.0, grid=2000).duration
    assert t_half / t_full == pytest.approx(2.0, rel=0.02)


def test_time_parameterize_zero_length_path():
    limits = JointLimits(p_min=[-2], p_max=[2], v_max=[1], a_max=[1], j_max=[1])
    timed = tr.time_parameterize(np.zeros((5, 1)), limits, headroom=0.05, grid=600)
    assert timed.duration == 0.0


def test_time_parameterize_monotone_time(demo_reference, arm):
    model, limits = arm
    assert np.all(np.diff(demo_reference.positions, axis=0).shape[0] > 0)
    # re-derive from a fresh path to inspect timestamps directly
    wps = tr.sample_waypoints(DEMO_AREAS, np.random.default_rng(3))
    qs = tr.path_to_joint_space(tr.CartesianPath(wps), model, 60, limits=limits)
    timed = tr.time_parameterize(qs, limits, headroom=0.05, grid=600)
    assert np.all(np.diff(timed.t) > 0)


# ---------------------------------------------------------------------------
# resampling

def test_resample_uniform_row_count():
    t = np.linspace(0.0, 2.0, 500)
    q = np.linspace(0.0, 1.0, 500)[:, None]
    ref = tr.resample_uniform(tr.TimedTrajectory(t=t, q=q), 0.05, traj_id="traj",
                              split="train")
    assert ref.n_steps == 41


def test_resample_constant_trajectory():
    t = np.linspace(0.0, 1.0, 100)
    q = np.full((100, 2), 0.3)
    ref = tr.resample_uniform(tr.TimedTrajectory(t=t, q=q), 0.05, traj_id="traj",
                              split="train")
    assert np.all(ref.positions == 0.3)


def test_resample_linear_profile_equally_spaced():
    t = np.linspace(0.0, 1.0, 2001)
    q = (0.7 * t)[:, None]
    ref = tr.resample_uniform(tr.TimedTrajectory(t=t, q=q), 0.05, traj_id="traj",
                              split="train")
    np.testing.assert_allclose(np.diff(ref.positions[:, 0]), 0.7 * 0.05, atol=1e-12)


# ---------------------------------------------------------------------------
# mirroring

def test_mirror_is_involution(demo_reference, arm):
    model, limits = arm
    m = tr.mirror_trajectory(demo_reference, "xz", model, limits)
    mm = tr.mirror_trajectory(m, "xz", model, limits)
    for k in range(0, demo_reference.n_steps, 3):
        p1, _ = kin.fk_transform(model, demo_reference.positions[k])
        p2, _ = kin.fk_transform(model, mm.positions[k])
        assert np.linalg.norm(p1 - p2) < 1e-5


def test_mirror_fk_matches_reflected_path(demo_reference, arm):
    model, limits = arm
    for plane in ("xz", "yz"):
        m = tr.mirror_trajectory(demo_reference, plane, model, limits)
        for k in range(0, demo_reference.n_steps, 4):
            p, _ = kin.fk_transform(model, demo_reference.positions[k])
            pm, _ = kin.fk_transform(model, m.positions[k])
            assert np.linalg.norm(pm - p * tr.MIRROR_PLANES[plane]) < 1e-5


def test_mirror_trajectory_in_plane_is_fixed():
    # a gimbal plate path lying in the xz plane (y == 0) mirrors onto itself
    model, limits = kin.gimbal_chain()
    rows = np.zeros((6, 2))
    ref = tr.ReferenceTrajectory(dt=0.05, positions=rows)
    m = tr.mirror_trajectory(ref, "xz", model, limits)
    for k in range(6):
        p, _ = kin.fk_transform(model, rows[k])
        pm, _ = kin.fk_transform(model, m.positions[k])
        assert np.linalg.norm(p - pm) < 1e-6


def test_mirror_unknown_plane():
    ref = tr.ReferenceTrajectory(dt=0.05, positions=np.zeros((3, 2)))
    model, limits = kin.gimbal_chain()
    with pytest.raises(ConfigurationError):
        tr.mirror_trajectory(ref, "xy", model, limits)


# ---------------------------------------------------------------------------
# pipeline + dataset

def test_generated_reference_respects_limits(demo_reference, arm):
    _, limits = arm
    ratios = tr.check_reference_limits(demo_reference, limits)
    assert ratios["vel_ratio"] <= 1.0
    assert ratios["acc_ratio"] <= 1.0
    assert ratios["jerk_ratio"] <= 1.0


def test_check_reference_limits_jerk_ratio():
    # p = t^3 has third difference 6 dt^3 exactly; no jerk below 4 rows
    limits = JointLimits(p_min=[-2], p_max=[2], v_max=[10.0], a_max=[10.0], j_max=[4.0])
    rows = (0.5 * np.arange(5.0)) ** 3
    ref = tr.ReferenceTrajectory(dt=0.5, positions=rows[:, None])
    assert tr.check_reference_limits(ref, limits)["jerk_ratio"] == 6.0 / 4.0
    short = tr.ReferenceTrajectory(dt=0.5, positions=rows[:3, None])
    assert tr.check_reference_limits(short, limits)["jerk_ratio"] == 0.0


def test_arm_dataset_references_are_followable():
    # every reference of the stock arm dataset keeps its jerk within j_max,
    # and the tracking baseline follows each one to the end
    cfg = load_config(CONFIG_DIR / "arm_dataset.json")
    trajs, rejections = tr.generate_dataset(cfg.model, cfg.limits, cfg.areas, cfg.pipeline,
                                            count=cfg.generate_count, seed=cfg.seed)
    assert len(trajs) == 20 and rejections == []
    for ref in trajs:
        ratios = tr.check_reference_limits(ref, cfg.limits)
        assert max(ratios.values()) <= 1.0, (ref.traj_id, ratios)
        policy = pol.TrackingPolicy(cfg.layout, cfg.limits, cfg.step.dt)
        report, _ = ad.rollout(ref, policy, cfg.limits, cfg.step, cfg.reward)
        assert report.success, ref.traj_id


def test_pipeline_deterministic(arm):
    model, limits = arm
    cfg = tr.PipelineConfig(dt=0.05)
    a = tr.generate_reference(model, limits, DEMO_AREAS, cfg, seed=7, traj_id="traj",
                              split="train")
    b = tr.generate_reference(model, limits, DEMO_AREAS, cfg, seed=7, traj_id="traj",
                              split="train")
    np.testing.assert_array_equal(a.positions, b.positions)


def test_generate_dataset_split_and_determinism(arm, tmp_path):
    model, limits = arm
    cfg = tr.PipelineConfig(dt=0.05, ik_samples=40, grid=300)
    trajs, rejections = tr.generate_dataset(model, limits, DEMO_AREAS, cfg,
                                            count=6, seed=21)
    assert len(trajs) == 6
    splits = {t.split for t in trajs}
    assert splits <= {"train", "test"}
    ids = [t.traj_id for t in trajs]
    assert len(set(ids)) == 6

    trajs2, _ = tr.generate_dataset(model, limits, DEMO_AREAS, cfg,
                                    count=6, seed=21)
    for a, b in zip(trajs, trajs2):
        assert a.split == b.split
        np.testing.assert_array_equal(a.positions, b.positions)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tr.save_dataset(p1, trajs)
    tr.save_dataset(p2, trajs2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_round_trip(tmp_path, arm):
    rows = np.cumsum(np.random.default_rng(0).normal(0, 0.01, (12, 7)), axis=0)
    trajs = [tr.ReferenceTrajectory(dt=0.05, positions=rows, traj_id="t0", split="test")]
    path = tmp_path / "ds.csv"
    tr.save_dataset(path, trajs)
    loaded = tr.load_dataset(path)
    assert len(loaded) == 1
    assert loaded[0].traj_id == "t0"
    assert loaded[0].split == "test"
    assert loaded[0].dt == 0.05
    np.testing.assert_array_equal(loaded[0].positions, rows)


def test_sampling_areas_validation():
    with pytest.raises(ConfigurationError):
        tr.SamplingAreas(boxes=(((0, 0, 0), (1, 1, 1)),))
    with pytest.raises(ConfigurationError):
        tr.SamplingAreas(boxes=(((0, 0, 0), (-1, 1, 1)), ((0, 0, 0), (1, 1, 1))))
