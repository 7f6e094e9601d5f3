"""Shared oracles: forward-simulation of bound profiles and the greedy-max
closed loop, kept independent of the closed-form code paths they check;
and a planar test chain."""

import numpy as np

from trajadapt import limits as lim
from trajadapt.kinematics import ChainModel, JointRow


def planar_chain(lengths, v_max=2.0, a_max=10.0, j_max=100.0):
    """n-link planar arm in the x-y plane (all joints about z) and its limits."""
    joints = []
    offset = [0.0, 0.0, 0.0]
    for length in lengths:
        joints.append(JointRow(axis=[0, 0, 1], origin_xyz=offset, origin_rpy=[0, 0, 0]))
        offset = [float(length), 0.0, 0.0]
    model = ChainModel(joints=tuple(joints), plate_xyz=offset, name="planar")
    n = len(lengths)
    limits = lim.JointLimits(p_min=[-np.pi] * n, p_max=[np.pi] * n,
                             v_max=[v_max] * n, a_max=[a_max] * n, j_max=[j_max] * n)
    return model, limits


def profile_peak_velocity(v0, a0, a1, j_max, dt, n=512):
    """Peak velocity of: linear ramp a0->a1 over dt, then slope -j_max until
    the acceleration reaches zero.

    Forward simulation by cumulative trapezoid integration, with the in-ramp
    zero crossing of the acceleration evaluated explicitly (velocity
    extremum).  Vectorized over 1-d inputs.
    """
    v0, a0, a1, j_max = np.broadcast_arrays(
        np.atleast_1d(np.asarray(v0, float)), np.asarray(a0, float),
        np.asarray(a1, float), np.asarray(j_max, float))
    tau = np.linspace(0.0, 1.0, n + 1) * dt
    a = a0[:, None] + (a1 - a0)[:, None] * (tau / dt)
    dv = 0.5 * (a[:, 1:] + a[:, :-1]) * (dt / n)
    v = np.concatenate([v0[:, None], v0[:, None] + np.cumsum(dv, axis=1)], axis=1)
    peak = v.max(axis=1)

    crossing = (a0 > 0) & (a1 < 0)
    if np.any(crossing):
        t_star = np.where(crossing, a0 * dt / np.where(a0 != a1, a0 - a1, 1.0), 0.0)
        k = np.clip((t_star / (dt / n)).astype(int), 0, n - 1)
        rows = np.arange(a.shape[0])
        t_k = k * (dt / n)
        a_k = a[rows, k]
        v_k = v[rows, k]
        v_star = v_k + 0.5 * a_k * (t_star - t_k)  # a(t_star) = 0
        peak = np.where(crossing, np.maximum(peak, v_star), peak)

    brake = a1 > 0
    if np.any(brake):
        tb = np.where(brake, a1 / j_max, 0.0)
        tau2 = np.linspace(0.0, 1.0, n + 1)[None, :] * tb[:, None]
        a2 = a1[:, None] - j_max[:, None] * tau2
        dv2 = 0.5 * (a2[:, 1:] + a2[:, :-1]) * (tb[:, None] / n)
        v2 = v[:, -1][:, None] + np.cumsum(dv2, axis=1)
        peak = np.where(brake, np.maximum(peak, v2.max(axis=1)), peak)
    return peak


def bisect_max_accel_velocity(v0, a0, v_max, j_max, dt, iters=80):
    """Largest a1 whose accelerate-then-brake profile peaks at <= v_max."""
    v0, a0, v_max, j_max = np.broadcast_arrays(
        np.atleast_1d(np.asarray(v0, float)), np.asarray(a0, float),
        np.asarray(v_max, float), np.asarray(j_max, float))
    lo = np.minimum(a0, 0.0) - 2.0 * j_max * dt - 2.0 * np.abs(a0) - 1.0
    hi = np.maximum(a0, 0.0) + 4.0 * np.maximum(v_max - v0, 0.0) / dt + j_max * dt + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = profile_peak_velocity(v0, a0, mid, j_max, dt) <= v_max
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo


def random_limit_tuples(rng, n):
    """States on or inside the velocity-safe set, in the supported regime."""
    dt = rng.uniform(0.02, 0.1, n)
    v_max = rng.uniform(0.3, 3.0, n)
    a_max = rng.uniform(1.0, 15.0, n)
    j_max = rng.uniform(0.5, 1.0, n) * np.minimum(a_max / dt, v_max / dt**2)
    a0 = rng.uniform(-1.0, 1.0, n) * np.minimum(a_max, np.sqrt(1.9 * j_max * v_max))
    budget = v_max - a0**2 / (2.0 * j_max)
    v0 = rng.uniform(-1.0, 1.0, n) * np.maximum(budget, 0.0) * 0.999
    return v0, a0, v_max, a_max, j_max, dt


def greedy_rollout(v0, a0, v_max, a_max, j_max, dt, steps, correction):
    """Scalar greedy-max closed loop; returns knot arrays and substep peak v."""
    v, a = float(v0), float(a0)
    vs, accs = [v], [a]
    peak = v
    for _ in range(steps):
        lo, hi = lim.valid_accel_bounds(v, a, v_max, a_max, j_max, dt,
                                        correction_enabled=correction)
        a1 = float(hi)
        _, vv, _ = lim.substep_profile(0.0, v, a, a1, dt, 10)
        peak = max(peak, float(np.max(vv)))
        if a > 0.0 > a1:
            t_star = a * dt / (a - a1)
            peak = max(peak, v + a * t_star + (a1 - a) * t_star**2 / (2 * dt))
        _, v1 = lim.integrate_step(0.0, v, a, a1, dt)
        v, a = float(v1), a1
        vs.append(v)
        accs.append(a)
    return np.asarray(vs), np.asarray(accs), peak
