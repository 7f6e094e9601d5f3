import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import CONFIG_DIR, arm_chain, planar_chain, ref_frames
from trajadapt import kinematics as kin
from trajadapt.errors import ConfigurationError, IKConvergenceError
from trajadapt.limits import JointLimits


def test_planar_fk_hand_values():
    model, _ = planar_chain([1.0, 1.0])
    p, _ = kin.fk_transform(model, [0.0, 0.0])
    np.testing.assert_allclose(p, [2.0, 0.0, 0.0], atol=1e-12)
    p, _ = kin.fk_transform(model, [np.pi / 2, 0.0])
    np.testing.assert_allclose(p, [0.0, 2.0, 0.0], atol=1e-12)
    p, _ = kin.fk_transform(model, [np.pi / 2, -np.pi / 2])
    np.testing.assert_allclose(p, [1.0, 1.0, 0.0], atol=1e-12)


def test_fk_is_exact_composition():
    # splitting the chain anywhere and composing partial transforms matches
    model, _ = arm_chain()
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
    model, _ = arm_chain()
    _, rot = kin.fk_transform(model, model.q_home)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)


def test_jacobian_matches_finite_differences():
    model, _ = arm_chain()
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


def test_jacobian_equals_numpy_cross_bit_for_bit():
    # same values and the same column-major layout, so the IK's BLAS calls
    # round exactly as with np.cross
    model, _ = arm_chain()
    rng = np.random.default_rng(5)
    for q in rng.uniform(-3.0, 3.0, (200, 7)):
        origins, rots, plate_pos, _ = kin._frames(model, q[None])
        got = kin._jacobian_from_frames(model, origins, rots, plate_pos)
        axes = np.array([rot[0] @ row.axis for rot, row in zip(rots, model.joints)])
        offsets = plate_pos[0] - np.array([origin[0] for origin in origins])
        want = np.concatenate([np.cross(axes, offsets).T, axes.T], axis=0)
        assert np.array_equal(got, want) and got.strides == want.strides
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_orientation_error_matches_scipy():
    rng = np.random.default_rng(11)
    angles = np.concatenate([np.logspace(-9, 0, 40), [1e-3, 2.0, 3.0],
                             np.pi - np.logspace(-1, -9, 30)])
    for angle in angles:
        for current in Rotation.random(10, random_state=rng).as_matrix():
            axis = rng.normal(size=3)
            delta = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis))
            target = delta.as_matrix() @ current
            want = Rotation.from_matrix(target @ current.T).as_rotvec()
            got = kin.orientation_error(current, target)
            if np.pi - angle < 1e-6:
                # the sign of a rotation by pi is arbitrary
                got = got if np.dot(got, want) >= 0 else -got
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_orientation_error_of_identity_is_exactly_zero():
    # rotations whose product with their transpose is the identity exactly
    turns = [np.eye(3), np.diag([1.0, -1.0, -1.0]),
             np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])]
    for rot in turns:
        assert np.all(kin.orientation_error(rot, rot) == 0.0)


def test_ik_fixed_point():
    model, limits = arm_chain()
    q_seed = np.asarray(model.q_home)
    pos, rot = kin.fk_transform(model, q_seed)
    q = kin.inverse_kinematics(model, pos, q_seed, rot, limits)
    np.testing.assert_allclose(q, q_seed, atol=1e-9)


def test_ik_reaches_perturbed_target():
    model, limits = arm_chain()
    pos, rot = kin.fk_transform(model, model.q_home)
    target = pos + np.array([0.15, -0.1, -0.2])
    q = kin.inverse_kinematics(model, target, model.q_home, rot, limits)
    p2, r2 = kin.fk_transform(model, q)
    assert np.linalg.norm(p2 - target) < 1e-6
    assert np.linalg.norm(kin.orientation_error(r2, rot)) < 1e-6
    assert np.all(q >= limits.p_min) and np.all(q <= limits.p_max)


def test_ik_round_trip_random_poses():
    model, limits = arm_chain()
    rng = np.random.default_rng(42)
    for _ in range(5):
        q_true = np.asarray(model.q_home) + rng.uniform(-0.3, 0.3, 7)
        pos, rot = kin.fk_transform(model, q_true)
        q = kin.inverse_kinematics(model, pos, model.q_home, rot, limits)
        p2, r2 = kin.fk_transform(model, q)
        assert np.linalg.norm(p2 - pos) < 1e-6
        assert np.linalg.norm(kin.orientation_error(r2, rot)) < 1e-6


def test_ik_unreachable_target_raises():
    model, limits = planar_chain([1.0, 1.0])
    with pytest.raises(IKConvergenceError):
        kin.inverse_kinematics(model, [5.0, 0.0, 0.0], [0.1, 0.1], np.eye(3), limits)


def test_plate_motion_stationary():
    model, _ = kin.gimbal_chain()
    q_series = np.zeros((5, 2))
    positions, rotations, lin_acc = kin.plate_motion(model, q_series, 0.005)
    assert positions.shape == lin_acc.shape == (5, 3)
    assert rotations.shape == (5, 3, 3)
    np.testing.assert_allclose(lin_acc, 0.0, atol=1e-12)


def test_plate_motion_acceleration_matches_analytic():
    # sinusoidal joint profile on a 1-link chain: second derivative known
    model, _ = planar_chain([1.0])
    dt = 0.005
    amp, w = 0.3, 4.0
    t = dt * np.arange(21)
    q_series = (amp * np.sin(w * t))[:, None]

    def pos(tt):
        ang = amp * np.sin(w * tt)
        return np.array([np.cos(ang), np.sin(ang), 0.0])

    _, _, lin_acc = kin.plate_motion(model, q_series, dt)
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
    "arm7": lambda: arm_chain()[0],
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


def _signed_origin_chain():
    """The mounted chain with -0.0 and +0.0 in its first joint's origin and
    a one-joint chain on a mount, whose first product is the plate's."""
    model = mounted_chain()
    first = model.joints[0]
    rows = (kin.JointRow(axis=first.axis, origin_xyz=[-0.0, 0.0, -0.0],
                         origin_rpy=first.origin_rpy),) + model.joints[1:]
    return kin.ChainModel(joints=rows, plate_xyz=model.plate_xyz, plate_rpy=model.plate_rpy,
                          name="signed")


@pytest.mark.parametrize("chain", sorted(FK_CHAINS) + ["signed", "one_joint"])
def test_frames_match_the_frozen_fk(chain):
    """Every joint origin and rotation and the plate pose of ``_frames``, bit
    for bit and signbits included, are those of the frozen FK
    (``conftest.ref_frames``), which multiplies by every identity; q holds
    signed zeros and multiples of pi/2 beside random angles."""
    if chain == "signed":
        model = _signed_origin_chain()
    elif chain == "one_joint":
        model = kin.ChainModel(joints=mounted_chain().joints[:1], plate_xyz=[0.0, -0.0, 0.1],
                               plate_rpy=[0.3, -0.7, 1.9], name="one")
    else:
        model = FK_CHAINS[chain]()
    rng = np.random.default_rng(29)
    q = rng.uniform(-np.pi, np.pi, (64, model.n_joints))
    q[::4] = rng.choice([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi], (16, model.n_joints))
    for batch in (q, q[:1], q[5:16]):
        got, want = kin._frames(model, batch), ref_frames(model, batch)
        for g, w in zip([*got[0], *got[1], *got[2:]], [*want[0], *want[1], *want[2:]]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("chain", sorted(FK_CHAINS))
def test_plate_motion_poses_match_oracle(chain):
    model = FK_CHAINS[chain]()
    rng = np.random.default_rng(19)
    q_series = rng.uniform(-np.pi, np.pi, (11, model.n_joints))
    positions, rotations, _ = kin.plate_motion(model, q_series, 0.005)
    for q, pos, rot in zip(q_series, positions, rotations):
        want_p, want_r, _ = oracle_fk(model, q)
        np.testing.assert_allclose(pos, want_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rot, want_r, rtol=0, atol=1e-12)


@pytest.mark.parametrize("load", [kin.gimbal_chain,
                                  lambda: kin.load_chain(CONFIG_DIR / "chain_7dof.json")],
                         ids=["gimbal", "chain_7dof"])
def test_plate_motion_poses_equal_per_tick_fk_transform(load):
    model, _ = load()
    rng = np.random.default_rng(23)
    q_series = rng.uniform(-np.pi, np.pi, (11, model.n_joints))
    positions, rotations, _ = kin.plate_motion(model, q_series, 0.005)
    for q, pos, rot in zip(q_series, positions, rotations):
        want_p, want_r = kin.fk_transform(model, q)
        assert np.array_equal(pos, want_p) and np.array_equal(rot, want_r)


def test_config_chain_files_equal_stock_chains():
    model, limits = kin.load_chain(CONFIG_DIR / "chain_gimbal.json")
    model2, limits2 = kin.gimbal_chain()
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
    _, limits = arm_chain()
    assert isinstance(limits, JointLimits)
    assert np.all(limits.v_max > 0)
