"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not configurable; they are the contract.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.spatial.transform import Rotation

from conftest import arm_chain, bisect_max_accel_velocity, greedy_rollout, \
    profile_peak_velocity, random_limit_tuples, ref_substep_profile, velocity_bound
from trajadapt import adaptation as ad
from trajadapt import cli
from trajadapt import environment as envm
from trajadapt import kinematics as kin
from trajadapt import limits as lim
from trajadapt import policy as pol
from trajadapt import trajectory as tr
from trajadapt.limits import StepParams
from trajadapt.trajectory import ReferenceTrajectory

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool, detail: str):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_limit_safety_campaign():
    t0 = time.time()
    rep = ad.run_limit_campaign(episodes=10_000, steps=200, n_joints=7,
                                dt=0.05, seed=42, correction_enabled=True)
    wall = time.time() - t0
    worst = max(rep.max_velocity_norm, rep.max_accel_norm, rep.max_jerk_norm)
    ok = rep.violations == 0 and worst <= 1.0 + 1e-9 and wall < 120.0
    _report("criterion 1: limit safety 10k episodes", ok,
            f"violations={rep.violations}, worst norm={worst:.12f}, "
            f"wall={wall:.1f}s (< 120 s)")


def test_criterion_02_velocity_bound_oracle_equivalence():
    rng = np.random.default_rng(1234)
    v0, a0, v_max, _, j_max, dt = random_limit_tuples(rng, 1000)
    worst_gap = 0.0
    worst_peak = 0.0
    for i in range(0, 1000, 100):
        s = slice(i, i + 100)
        d = float(np.mean(dt[s]))
        closed = velocity_bound(v0[s], a0[s], v_max[s], j_max[s], d)
        oracle = bisect_max_accel_velocity(v0[s], a0[s], v_max[s], j_max[s], d)
        worst_gap = max(worst_gap, float(np.max(np.abs(closed - oracle))))
        peak = profile_peak_velocity(v0[s], a0[s], closed, j_max[s], d)
        worst_peak = max(worst_peak, float(np.max(peak - v_max[s])))
    ok = worst_gap <= 1e-8 and worst_peak <= 1e-9
    _report("criterion 2: velocity-bound oracle (1000 tuples)", ok,
            f"max |closed-form - bisection|={worst_gap:.2e} (<= 1e-8), "
            f"max peak overshoot={worst_peak:.2e} (<= 1e-9)")


def test_criterion_03_greedy_max_phase_structure():
    v_max, a_max, j_max, dt = 1.0, 2.0, 17.0, 0.05
    vs, accs, peak = greedy_rollout(0.0, 0.0, v_max, a_max, j_max, dt,
                                    steps=140, correction=True)
    da = np.diff(accs) / dt
    jerk_steps = np.where(np.abs(da - j_max) < 1e-6)[0]
    plateau = np.where(np.abs(accs - a_max) < 1e-9)[0]
    settle = np.where(np.abs(vs - v_max) < 1e-9)[0]
    ordered = (jerk_steps.size > 0 and plateau.size > 0 and settle.size > 0
               and jerk_steps[0] < plateau[0] < settle[0])
    overshoot = peak - v_max
    ripple = float(np.max(v_max - vs[settle[0]:])) if settle.size else np.inf
    ok = ordered and overshoot < 1e-6 and ripple < 1e-3 * v_max
    _report("criterion 3: greedy-max phase structure", ok,
            f"jerk@{jerk_steps[0] if jerk_steps.size else '-'} -> "
            f"plateau@{plateau[0] if plateau.size else '-'} -> "
            f"settle@{settle[0] if settle.size else '-'}, "
            f"overshoot={overshoot:.2e} (< 1e-6), "
            f"post-settle ripple={ripple:.2e} (< 0.1% v_max)")


def test_criterion_04_random_policy_traces():
    rng = np.random.default_rng(7)
    worst_norm = 0.0
    worst_vjump = 0.0
    for _ in range(20):
        v_max, a_max, j_max = rng.uniform(0.5, 2.0), rng.uniform(2, 10), 0.0
        j_max = rng.uniform(0.3, 1.0) * min(a_max / 0.05, v_max / 0.05**2)
        v, a = 0.0, 0.0
        prev_tail = 0.0
        for _ in range(100):
            lo, hi = lim.valid_accel_bounds(v, a, v_max, a_max, j_max, 0.05,
                                            correction_enabled=True)
            a1 = float(lo + rng.uniform() * (hi - lo))
            _, vv, aa = ref_substep_profile(0.0, v, a, a1, 0.05, 10)
            worst_norm = max(worst_norm,
                             float(np.max(np.abs(vv))) / v_max,
                             float(np.max(np.abs(aa))) / a_max,
                             abs(a1 - a) / (0.05 * j_max))
            # velocity continuity: substep-to-substep jumps stay O(a_max*h)
            jumps = np.abs(np.diff(np.concatenate([[prev_tail], vv])))
            worst_vjump = max(worst_vjump, float(np.max(jumps)) / (a_max * 0.005))
            prev_tail = float(vv[-1])
            _, [v1] = lim.integrate_step([0.0], [v], [a], [a1], 0.05)
            v, a = v1, a1
    ok = worst_norm <= 1.0 + 1e-9 and worst_vjump <= 1.0 + 1e-9
    _report("criterion 4: random traces bounded and continuous", ok,
            f"worst limit norm={worst_norm:.12f} (<= 1+1e-9), "
            f"worst velocity jump / (a_max*h)={worst_vjump:.3f} (<= 1)")


def test_criterion_05_reward_algebra():
    checks = []
    checks.append(ad.accel_penalty([0.8], 0.8) == 0.0)
    checks.append(ad.accel_penalty([1.0], 0.8) == 1.0)
    checks.append(ad.jerk_penalty([0.5], [1.0], 4.0) == 1.0)   # j_p == j_sat
    low, high = np.deg2rad(2.0), np.deg2rad(10.0)
    checks.append(ad.deviation_penalty(low, low, high) == 0.0)
    checks.append(ad.deviation_penalty(high, low, high)
                  == pytest.approx(1.0, abs=1e-12))
    # continuity at each threshold to 1e-12
    for edge, f in ((0.8, lambda x: ad.accel_penalty([x], 0.8)),
                    (low, lambda x: ad.deviation_penalty(x, low, high)),
                    (high, lambda x: ad.deviation_penalty(x, low, high)),
                    (0.5, lambda x: ad.jerk_penalty([x], [1.0], 4.0))):
        gap = abs(f(np.nextafter(edge, 0.0)) - f(np.nextafter(edge, edge + 1.0)))
        checks.append(gap < 1e-12)
    rng = np.random.default_rng(0)
    rt, pa, pj, pd = rng.uniform(size=(4, 100_000))
    ps = 0.5 * (pa + pj)
    total = rt * (1.0 - ps) * (1.0 - pd)
    checks.append(bool(np.all((total >= 0.0) & (total <= 1.0))))
    ok = all(checks)
    _report("criterion 5: reward algebra", ok,
            f"boundary values, threshold continuity (1e-12) and reward range "
            f"over 1e5 random inputs: {sum(checks)}/{len(checks)} checks")


def test_criterion_06_integration_exactness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        p0, v0, a0, a1 = rng.uniform(-3, 3, 4)
        dt = rng.uniform(0.01, 0.2)
        # step-halved quadrature: Simpson on n and 2n points agrees with the
        # closed form at 1e-10
        for n in (500, 1000):
            tau = np.linspace(0.0, dt, n + 1)
            a = a0 + (a1 - a0) * tau / dt
            v_prof = v0 + a0 * tau + (a1 - a0) * tau**2 / (2 * dt)
            v_num = v0 + simpson(a, x=tau)
            p_num = p0 + simpson(v_prof, x=tau)
            [p1], [v1] = lim.integrate_step([p0], [v0], [a0], [a1], dt)
            worst = max(worst, abs(v1 - v_num), abs(p1 - p_num))
    params = StepParams(dt=0.05, control_dt=0.005)
    worst_end = 0.0
    for _ in range(100):
        p0, v0, a0, a1 = rng.uniform(-3, 3, (4, 1))
        series = lim.substep_profile(p0, v0, a0, a1, params.dt,
                                     params.substeps)[1:]
        p1, _ = lim.integrate_step(p0, v0, a0, a1, params.dt)
        worst_end = max(worst_end, float(abs(series[-1, 0] - p1[0])))
    ok = worst <= 1e-10 and worst_end <= 1e-12
    _report("criterion 6: integration exactness", ok,
            f"quadrature gap={worst:.2e} (<= 1e-10), "
            f"substep endpoint gap={worst_end:.2e} (<= 1e-12)")


def test_criterion_07_ball_physics():
    rot = Rotation.from_euler("y", np.deg2rad(5)).as_matrix()
    rots, lin_acc = rot[None], np.zeros((1, 3))
    geometry = envm.PlateGeometry(half_x=100.0, half_y=100.0)
    # one 5 ms tick from rest: the velocity is the acceleration times the tick
    # a ball of radius 0.02 m without rolling friction
    _, velocity, _ = envm.step_ball(np.zeros(2), np.zeros(2), rots, lin_acc, 0.02, 0.0,
                                    0.005, geometry)
    expected = (5.0 / 7.0) * envm.GRAVITY * np.sin(np.deg2rad(5))
    tilt_gap = abs(np.linalg.norm(velocity / 0.005) - expected)

    flat = envm.step_ball(np.zeros(2), np.zeros(2), np.eye(3)[None], lin_acc, 0.02, 0.005,
                          0.005, geometry)
    flat_exact = not np.any(flat[0]) and not np.any(flat[1]) and flat[2]

    g_t = (rot.T @ np.array([0.0, 0.0, -envm.GRAVITY]))[:2]
    position, velocity, _ = envm.step_ball(np.zeros(2), np.zeros(2), rots, lin_acc,
                                           0.02, 0.0, 0.005, geometry)
    e0 = 0.7 * np.dot(velocity, velocity) - np.dot(position, g_t)
    for _ in range(1999):
        position, velocity, _ = envm.step_ball(position, velocity, rots, lin_acc,
                                               0.02, 0.0, 0.005, geometry)
    e1 = 0.7 * np.dot(velocity, velocity) - np.dot(position, g_t)
    drift = abs(e1 - e0) / (0.7 * np.dot(velocity, velocity))

    ok = tilt_gap < 1e-6 and flat_exact and drift < 0.01
    _report("criterion 7: ball physics", ok,
            f"5-degree tilt accel gap={tilt_gap:.2e} (< 1e-6, value "
            f"{expected:.4f}), flat equilibrium exact={flat_exact}, "
            f"10 s energy drift={drift * 100:.3f}% (< 1%)")


def test_criterion_08_pipeline_integrity():
    model, limits = arm_chain()
    areas = tr.SamplingAreas(boxes=(
        ((0.35, -0.28, 0.82), (0.50, -0.15, 0.92)),
        ((0.42, -0.06, 0.82), (0.58, 0.06, 0.92)),
        ((0.35, 0.15, 0.82), (0.50, 0.28, 0.92)),
    ), height_band=(0.82, 0.92))
    cfg = tr.PipelineConfig(dt=0.05)
    worst_ratio = 0.0
    refs = []
    for seed in range(4):
        ref = tr.generate_reference(model, limits, areas, cfg, seed=seed,
                                    traj_id="traj", split="train")
        refs.append(ref)
        r = tr.check_reference_limits(ref, limits)
        worst_ratio = max(worst_ratio, r["vel_ratio"], r["acc_ratio"], r["jerk_ratio"])

    t = np.linspace(0.0, 2.0, 500)
    q = np.linspace(0.0, 1.0, 500)[:, None]
    rows = tr.resample_uniform(tr.TimedTrajectory(t=t, q=q), 0.05, traj_id="traj",
                               split="train").n_steps

    mirrored = tr.mirror_trajectory(refs[0], "xz", model, limits)
    back = tr.mirror_trajectory(mirrored, "xz", model, limits)
    worst_inv = 0.0
    for k in range(refs[0].n_steps):
        p1, _ = kin.fk_transform(model, refs[0].positions[k])
        p2, _ = kin.fk_transform(model, back.positions[k])
        worst_inv = max(worst_inv, float(np.linalg.norm(p1 - p2)))

    ok = worst_ratio <= 1.0 and rows == 41 and worst_inv < 1e-5
    _report("criterion 8: pipeline integrity", ok,
            f"worst FD v/a/j limit ratio={worst_ratio:.3f} (<= 1 with 5% headroom), "
            f"2.0 s / 0.05 s resample rows={rows} (= 41), "
            f"mirror involution error={worst_inv:.2e} m (< 1e-5)")


def test_criterion_09_balancing_demonstration():
    model, limits = kin.gimbal_chain()
    geometry = envm.PlateGeometry()
    task = envm.TaskSpec(kind="in_place", noise_std=0.0, start_offset=(0.02, 0.0))
    params = StepParams(dt=0.05, control_dt=0.005)
    weights = ad.RewardWeights()
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((201, 2)))
    layout = pol.ObservationLayout(2, task.feedback_size, 1)

    successes = 0
    worst_dev = 0.0
    for seed in range(50):
        env = envm.BallPlateEnv(model, geometry, task, envm.BallParams())
        policy = pol.PDBalancePolicy(layout, limits, 0.05, model, geometry,
                                     task, anchor_q=np.zeros(2), mask=(0, 1))
        report, log = ad.rollout(ref, policy, limits, params, weights,
                                 env=env, seed=[seed])
        dists = np.linalg.norm(
            np.column_stack((log.ball_x_m, log.ball_y_m)) - task.target, axis=1)
        worst_dev = max(worst_dev, max(dists))
        successes += bool(report.success and max(dists) < 0.06
                          and report.fraction == 1.0)
    ok = successes == 50
    _report("criterion 9: balancing demonstration", ok,
            f"success {successes}/50 over randomized ball params, worst ball "
            f"deviation={worst_dev * 100:.2f} cm (< 6 cm) for the full 10 s")


def test_criterion_10_realtime_budget():
    limits = lim.JointLimits(p_min=[-2.9] * 7, p_max=[2.9] * 7,
                             v_max=[1.7] * 7, a_max=[10.0] * 7, j_max=[100.0] * 7)
    params = StepParams()
    # far from the velocity limit, and close to it on every joint (upper
    # bound on even joints, lower bound on odd ones) so the ripple
    # correction runs for all seven; (v, a) of each state
    states = {
        "free": ([0.5] * 7, [2.0] * 7),
        "velocity-bound": ([1.6, -1.6] * 3 + [1.6], [0.0] * 7),
    }
    shifted_lo, shifted_hi = np.array(lim.valid_accel_range(*states["velocity-bound"],
                                                            limits, params))
    plain_lo, plain_hi = np.array(lim.valid_accel_range(*states["velocity-bound"], limits,
                                                        StepParams(correction_enabled=False)))
    assert np.all((shifted_hi != plain_hi) | (shifted_lo != plain_lo))
    medians = {}
    for name, (v, a) in states.items():
        lim.valid_accel_range(v, a, limits, params)  # warm-up
        times = []
        for _ in range(2000):
            t0 = time.perf_counter()
            lim.valid_accel_range(v, a, limits, params)
            times.append(time.perf_counter() - t0)
        medians[name] = float(np.median(times)) * 1e3
    # reported, not CI-gated at the 1 ms target; the sanity bound is loose
    ok = max(medians.values()) < 50.0
    _report("criterion 10: real-time budget (reported)", ok,
            "valid range for 7 joints: median "
            + ", ".join(f"{ms:.3f} ms ({name})" for name, ms in medians.items())
            + " over 2000 calls each (target < 1 ms on a desktop CPU; sanity "
            "gate < 50 ms)")


def test_criterion_11_cli_determinism(tmp_path):
    shutil.copy(CONFIG_DIR / "chain_gimbal.json", tmp_path / "chain_gimbal.json")
    cfg = json.loads((CONFIG_DIR / "balance_demo.json").read_text())
    cfg["stationary_steps"] = 41
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        rc1 = cli.main(["rollout", "--config", str(path), "--episodes", "2",
                        "--seed", "5", "--out", str(out)])
        rc2 = cli.main(["eval", "--config", str(path), "--episodes", "2",
                        "--seed", "5", "--out", str(out)])
        assert rc1 == 0 and rc2 == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("episode_0000.csv", "episode_0001.csv", "metrics.json"))
    _report("criterion 11: determinism", same,
            "rollout logs and metrics byte-identical across reruns "
            f"(checked {3} files)")
