from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from trajadapt import kinematics as kin
from trajadapt.errors import ConfigurationError, IKConvergenceError
from trajadapt.limits import JointLimits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_planar_fk_hand_values():
    model, _ = kin.planar_chain([1.0, 1.0])
    p, _ = kin.fk_transform(model, [0.0, 0.0])
    np.testing.assert_allclose(p, [2.0, 0.0, 0.0], atol=1e-12)
    p, _ = kin.fk_transform(model, [np.pi / 2, 0.0])
    np.testing.assert_allclose(p, [0.0, 2.0, 0.0], atol=1e-12)
    p, _ = kin.fk_transform(model, [np.pi / 2, -np.pi / 2])
    np.testing.assert_allclose(p, [1.0, 1.0, 0.0], atol=1e-12)


def test_fk_is_exact_composition():
    # splitting the chain anywhere and composing partial transforms matches
    model, _ = kin.seven_dof_chain()
    rng = np.random.default_rng(11)
    q = rng.uniform(-1.0, 1.0, 7)
    full_p, full_r = kin.fk_transform(model, q)
    for split in (1, 3, 5):
        head = kin.ChainModel(joints=model.joints[:split], name="head")
        hp, hr = kin.fk_transform(head, q[:split])
        tail = kin.ChainModel(joints=model.joints[split:],
                              plate_xyz=model.plate_xyz,
                              plate_rpy=model.plate_rpy, name="tail")
        tp, tr = kin.fk_transform(tail, q[split:])
        comp_p = hp + hr @ tp
        comp_r = hr @ tr
        np.testing.assert_allclose(comp_p, full_p, atol=1e-12)
        np.testing.assert_allclose(comp_r, full_r, atol=1e-12)


def test_seven_dof_home_is_horizontal():
    model, _ = kin.seven_dof_chain()
    _, rot = kin.fk_transform(model, model.q_home)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)


def test_jacobian_matches_finite_differences():
    model, _ = kin.seven_dof_chain()
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.0, 1.0, 7)
    jac = kin.jacobian(model, q)
    eps = 1e-7
    p0, r0 = kin.fk_transform(model, q)
    for i in range(7):
        dq = np.zeros(7)
        dq[i] = eps
        p1, r1 = kin.fk_transform(model, q + dq)
        np.testing.assert_allclose(jac[:3, i], (p1 - p0) / eps, atol=1e-5)
        w = kin.orientation_error(r0, r1) / eps
        np.testing.assert_allclose(jac[3:, i], w, atol=1e-5)


def test_ik_fixed_point():
    model, _ = kin.seven_dof_chain()
    q_seed = np.asarray(model.q_home)
    pos, rot = kin.fk_transform(model, q_seed)
    q = kin.inverse_kinematics(model, pos, q_seed, target_rot=rot)
    np.testing.assert_allclose(q, q_seed, atol=1e-9)


def test_ik_reaches_perturbed_target():
    model, limits = kin.seven_dof_chain()
    pos, rot = kin.fk_transform(model, model.q_home)
    target = pos + np.array([0.15, -0.1, -0.2])
    q = kin.inverse_kinematics(model, target, model.q_home, target_rot=rot,
                               limits=limits)
    p2, r2 = kin.fk_transform(model, q)
    assert np.linalg.norm(p2 - target) < 1e-6
    assert np.linalg.norm(kin.orientation_error(r2, rot)) < 1e-6
    assert np.all(q >= limits.p_min) and np.all(q <= limits.p_max)


def test_ik_round_trip_random_poses():
    model, _ = kin.seven_dof_chain()
    rng = np.random.default_rng(42)
    for _ in range(5):
        q_true = np.asarray(model.q_home) + rng.uniform(-0.3, 0.3, 7)
        pos, rot = kin.fk_transform(model, q_true)
        q = kin.inverse_kinematics(model, pos, model.q_home, target_rot=rot)
        p2, r2 = kin.fk_transform(model, q)
        assert np.linalg.norm(p2 - pos) < 1e-6
        assert np.linalg.norm(kin.orientation_error(r2, rot)) < 1e-6


def test_ik_unreachable_target_raises():
    model, _ = kin.planar_chain([1.0, 1.0])
    with pytest.raises(IKConvergenceError):
        kin.inverse_kinematics(model, [5.0, 0.0, 0.0], [0.1, 0.1])


def test_plate_motion_stationary():
    model, _ = kin.gimbal_chain()
    q_series = np.zeros((5, 2))
    positions, rotations, lin_acc, ang_vel = kin.plate_motion(model, q_series, 0.005)
    assert positions.shape == lin_acc.shape == ang_vel.shape == (5, 3)
    assert rotations.shape == (5, 3, 3)
    np.testing.assert_allclose(lin_acc, 0.0, atol=1e-12)
    np.testing.assert_allclose(ang_vel, 0.0, atol=1e-12)


def test_plate_motion_single_rotating_joint_rate():
    # base joint spinning at a constant rate: plate angular velocity equals it
    model, _ = kin.planar_chain([1.0])
    rate = 0.7
    dt = 0.005
    q_series = (rate * dt * np.arange(9))[:, None]
    _, _, _, ang_vel = kin.plate_motion(model, q_series, dt)
    np.testing.assert_allclose(ang_vel[4], [0.0, 0.0, rate], atol=1e-9)


def test_plate_motion_acceleration_matches_analytic():
    # sinusoidal joint profile on a 1-link chain: second derivative known
    model, _ = kin.planar_chain([1.0])
    dt = 0.005
    amp, w = 0.3, 4.0
    t = dt * np.arange(21)
    q_series = (amp * np.sin(w * t))[:, None]

    def pos(tt):
        ang = amp * np.sin(w * tt)
        return np.array([np.cos(ang), np.sin(ang), 0.0])

    _, _, lin_acc, _ = kin.plate_motion(model, q_series, dt)
    for k in (5, 10, 15):
        eps = 1e-5
        analytic = (pos(t[k] + eps) - 2 * pos(t[k]) + pos(t[k] - eps)) / eps**2
        np.testing.assert_allclose(lin_acc[k], analytic, atol=5e-4)


def test_plate_motion_too_few_samples():
    model, _ = kin.gimbal_chain()
    with pytest.raises(ConfigurationError):
        kin.plate_motion(model, np.zeros((2, 2)), 0.005)


def test_plate_motion_wrong_joint_count():
    model, _ = kin.gimbal_chain()
    with pytest.raises(ConfigurationError):
        kin.plate_motion(model, np.zeros((5, 3)), 0.005)


# ---------------------------------------------------------------------------
# batched FK against a per-pose scipy oracle

def _rpy_oracle(rpy):
    roll, pitch, yaw = rpy
    return Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix()


def oracle_fk(model, q):
    """Plate position, rotation and geometric Jacobian for one joint vector,
    one scipy rotation per mount and joint."""
    pos, rot = np.zeros(3), np.eye(3)
    origins, axes = [], []
    for row, qi in zip(model.joints, q):
        pos = pos + rot @ row.origin_xyz
        rot = rot @ _rpy_oracle(row.origin_rpy)
        origins.append(pos)
        axes.append(rot @ row.axis)
        rot = rot @ Rotation.from_rotvec(row.axis * qi).as_matrix()
    plate_pos = pos + rot @ model.plate_xyz
    plate_rot = rot @ _rpy_oracle(model.plate_rpy)
    axes = np.array(axes)
    jac = np.concatenate([np.cross(axes, plate_pos - np.array(origins)).T, axes.T])
    return plate_pos, plate_rot, jac


def mounted_chain():
    """Four joints on skewed axes with nonzero mount and plate rotations."""
    rng = np.random.default_rng(3)
    joints = tuple(
        kin.JointRow(axis=rng.normal(size=3), origin_xyz=rng.uniform(-0.3, 0.3, 3),
                     origin_rpy=rng.uniform(-np.pi, np.pi, 3))
        for _ in range(4))
    return kin.ChainModel(joints=joints, plate_xyz=[0.05, -0.02, 0.1],
                          plate_rpy=[0.3, -0.7, 1.9], name="mounted")


FK_CHAINS = {
    "gimbal": lambda: kin.gimbal_chain()[0],
    "arm7": lambda: kin.seven_dof_chain()[0],
    "mounted": mounted_chain,
}


@pytest.mark.parametrize("chain", sorted(FK_CHAINS))
def test_fk_and_jacobian_match_oracle(chain):
    model = FK_CHAINS[chain]()
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, model.n_joints)
        want_p, want_r, want_j = oracle_fk(model, q)
        pos, rot = kin.fk_transform(model, q)
        np.testing.assert_allclose(pos, want_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rot, want_r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kin.jacobian(model, q), want_j, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chain", sorted(FK_CHAINS))
def test_plate_motion_poses_match_oracle(chain):
    model = FK_CHAINS[chain]()
    rng = np.random.default_rng(19)
    q_series = rng.uniform(-np.pi, np.pi, (11, model.n_joints))
    positions, rotations, _, _ = kin.plate_motion(model, q_series, 0.005)
    for q, pos, rot in zip(q_series, positions, rotations):
        want_p, want_r, _ = oracle_fk(model, q)
        np.testing.assert_allclose(pos, want_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rot, want_r, rtol=0, atol=1e-12)


def test_plate_motion_ang_vel_matches_scipy_rotvec():
    # ticks q0 - h d, q0, q0 + h d: the relative rotations the finite
    # differences see sweep from about 1e-9 to 1 rad as h grows
    model = mounted_chain()
    rng = np.random.default_rng(23)
    q0 = rng.uniform(-1.0, 1.0, model.n_joints)
    direction = rng.normal(size=model.n_joints)
    direction /= np.linalg.norm(direction)
    dt = 0.5
    angles = []
    for h in np.logspace(-9, 0.5, 20) / 2:
        q_series = q0 + np.outer([-h, 0.0, h], direction)
        _, rots, _, ang_vel = kin.plate_motion(model, q_series, dt)
        for i, (a, b, span) in enumerate([(0, 1, 1), (0, 2, 2), (1, 2, 1)]):
            rotvec = Rotation.from_matrix(rots[b] @ rots[a].T).as_rotvec()
            np.testing.assert_allclose(ang_vel[i], rotvec / (span * dt),
                                       rtol=1e-12, atol=1e-12)
        angles.append(np.linalg.norm(ang_vel[1]) * 2 * dt)
    assert min(angles) < 1e-9 and max(angles) > 1.0


def test_config_chain_files_equal_stock_chains():
    for name, stock in (("chain_gimbal.json", kin.gimbal_chain),
                        ("chain_7dof.json", kin.seven_dof_chain)):
        model, limits = kin.load_chain(CONFIG_DIR / name)
        model2, limits2 = stock()
        assert model.name == model2.name
        assert len(model.joints) == len(model2.joints)
        for row, row2 in zip(model.joints, model2.joints):
            for attr in ("axis", "origin_xyz", "origin_rpy"):
                np.testing.assert_array_equal(getattr(row, attr), getattr(row2, attr))
        for attr in ("plate_xyz", "plate_rpy", "q_home"):
            np.testing.assert_array_equal(getattr(model, attr), getattr(model2, attr))
        for attr in ("p_min", "p_max", "v_max", "a_max", "j_max"):
            np.testing.assert_array_equal(getattr(limits, attr), getattr(limits2, attr))


def test_chain_file_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"joints": [{"axis": [0,0,1]}]}')
    with pytest.raises(ConfigurationError):
        kin.load_chain(path)


def test_joint_limits_from_chain_respect_invariants():
    _, limits = kin.seven_dof_chain()
    assert isinstance(limits, JointLimits)
    assert np.all(limits.v_max > 0)
