"""Reference-trajectory generation: waypoints -> spline -> joint space ->
minimum-jerk time scaling -> uniform resampling, plus mirroring and dataset
IO.

References are produced with a configurable limit headroom (default 5 %) on
velocity, acceleration and jerk, so the online adaptation layer retains some
authority; set it to 0 for references that ride the limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BELOW_ONE, ConfigurationError, IKConvergenceError, PathRejectedError,
                     at_least, check_fields, setting)
from .kinematics import ChainModel, fk_transform, inverse_kinematics
from .limits import JointLimits

MIRROR_PLANES = {
    "xz": np.array([1.0, -1.0, 1.0]),   # flips y
    "yz": np.array([-1.0, 1.0, 1.0]),   # flips x
}
# Largest joint change between consecutive IK samples of a path (rad); a
# larger one is a branch flip.
MAX_JOINT_JUMP = 0.2


@dataclass(frozen=True)
class SamplingAreas:
    """Ordered axis-aligned boxes (start, vias, end) with an optional shared
    height band that overrides the boxes' z per trajectory."""

    boxes: tuple = setting("boxes_m", kind="boxes", domain=(
        lambda boxes: len(boxes) >= 2 and all(
            np.shape(lo) == np.shape(hi) == (3,) and np.all(np.less_equal(lo, hi))
            for lo, hi in boxes),
        "be a start box, any via boxes and an end box, each [lo, hi] with lo <= hi in R^3"))
    height_band: tuple | None = setting("height_band_m", None, "band", (
        lambda band: band is None or len(band) == 2 and band[0] <= band[1],
        "be null or [z0, z1] with z0 <= z1"))

    def __post_init__(self):
        check_fields(self, "sampling")
        object.__setattr__(self, "boxes", tuple(
            (np.asarray(lo, float), np.asarray(hi, float)) for lo, hi in self.boxes))
        if self.height_band is not None:
            object.__setattr__(self, "height_band", tuple(map(float, self.height_band)))


@dataclass
class ReferenceTrajectory:
    """Joint positions uniformly sampled at the decision period."""

    dt: float
    positions: np.ndarray           # (T, n_joints)
    traj_id: str = "traj"
    split: str = "train"

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.split not in ("train", "test"):
            raise ConfigurationError("split must be 'train' or 'test'")

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0]

    @property
    def n_joints(self) -> int:
        return self.positions.shape[1]


@dataclass
class TimedTrajectory:
    t: np.ndarray
    q: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.t[-1])


def sample_waypoints(areas: SamplingAreas, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw per box, ordered; deterministic for a seeded rng."""
    pts = np.array([rng.uniform(lo, hi) for lo, hi in areas.boxes])
    if areas.height_band is not None:
        z0, z1 = areas.height_band
        pts[:, 2] = rng.uniform(z0, z1)
    return pts


class NaturalSpline:
    """C2 cubic spline through knots ``x`` (m,), strictly increasing, and
    values ``y`` (m, k), with zero second derivative at both ends.

    The interior second derivatives solve the spline's tridiagonal system.
    Interval i keeps the coefficients of y_i + b t + c t^2 + d t^3 in
    t = x - x_i; a point outside the knots uses the nearest end interval.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(self.x)
        slope = np.diff(y, axis=0) / h[:, None]
        m2 = np.zeros_like(y)
        if len(self.x) > 2:
            system = (np.diag(2.0 * (h[:-1] + h[1:]))
                      + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1))
            m2[1:-1] = np.linalg.solve(system, 6.0 * np.diff(slope, axis=0))
        h = h[:, None]
        self.coef = np.stack([y[:-1], slope - h * (2.0 * m2[:-1] + m2[1:]) / 6.0,
                              m2[:-1] / 2.0, np.diff(m2, axis=0) / (6.0 * h)])

    def __call__(self, x, nu=0):
        """Value (``nu`` 0) or first, second or third derivative (1, 2, 3) at
        ``x``; the third is constant on each interval."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, len(self.x) - 2)
        t = (x - self.x[i])[..., None]
        a, b, c, d = self.coef[:, i]
        if nu == 0:
            return a + t * (b + t * (c + t * d))
        if nu == 1:
            return b + t * (2.0 * c + t * (3.0 * d))
        if nu == 2:
            return 2.0 * c + t * (6.0 * d)
        if nu == 3:
            return 6.0 * d
        raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {nu}")


class CartesianPath:
    """C2 cubic spline through waypoints, natural end conditions, chord-length
    parameter normalized to [0, 1]."""

    def __init__(self, waypoints):
        waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
        if waypoints.shape[0] < 2:
            raise ConfigurationError("path needs at least 2 waypoints")
        seglen = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
        if np.any(seglen < 1e-12):
            raise ConfigurationError("duplicate consecutive waypoints make a degenerate segment")
        u = np.concatenate([[0.0], np.cumsum(seglen)])
        u /= u[-1]
        self._spline = NaturalSpline(u, waypoints)

    def __call__(self, u):
        return self._spline(np.clip(u, 0.0, 1.0))


def _walk_to(model: ChainModel, q, target_pos, target_rot, limits) -> np.ndarray:
    """IK from ``q`` to ``target_pos`` along the straight line from the
    plate position at ``q``, in five substeps, so that a distant seed
    posture cannot derail the solve; raises IKConvergenceError."""
    from_pos, _ = fk_transform(model, q)
    for alpha in np.linspace(0.2, 1.0, 5):
        q = inverse_kinematics(model, from_pos + alpha * (target_pos - from_pos), q,
                               target_rot, limits)
    return q


def path_to_joint_space(path: CartesianPath, model: ChainModel, samples: int,
                        limits: JointLimits) -> np.ndarray:
    """Dense IK along the path with seed continuation from the home posture.

    The plate is held horizontal.  Rejects the path on IK failure or on an
    inter-sample joint jump above ``MAX_JOINT_JUMP`` (a branch flip).
    """
    if samples < 2:
        raise ConfigurationError("need at least 2 path samples")
    target_rot = np.eye(3)
    try:
        q = _walk_to(model, np.asarray(model.q_home, dtype=float), path(0.0),
                     target_rot, limits)
    except IKConvergenceError as exc:
        raise PathRejectedError(f"cannot reach path start: {exc}") from exc

    us = np.linspace(0.0, 1.0, samples)
    out = np.empty((samples, model.n_joints))
    for k, u in enumerate(us):
        try:
            qk = inverse_kinematics(model, path(u), q, target_rot, limits)
        except IKConvergenceError as exc:
            raise PathRejectedError(f"IK failed at sample {k}: {exc}") from exc
        if k > 0 and np.max(np.abs(qk - out[k - 1])) > MAX_JOINT_JUMP:
            raise PathRejectedError(f"joint-space discontinuity at sample {k}")
        out[k] = qk
        q = qk
    return out


def time_parameterize(q_path, limits: JointLimits, headroom: float,
                      grid: int) -> TimedTrajectory:
    """Minimum-jerk time scaling of a joint path (Flash & Hogan, 1985).

    The natural spline through the path samples is traversed as
    s = 10 tau^3 - 15 tau^4 + 6 tau^5 of the normalized time tau = t / T,
    which starts and ends at rest with zero acceleration.  The k-th time
    derivative scales as T^-k, so the shortest T that keeps per-joint
    velocity, acceleration and jerk within (1 - headroom) of their limits
    at the ``grid`` instants has a closed form.
    """
    q_path = np.atleast_2d(np.asarray(q_path, dtype=float))
    m = q_path.shape[0]
    if m < 2 or np.max(np.abs(q_path - q_path[0])) < 1e-12:
        return TimedTrajectory(t=np.zeros(1), q=q_path[:1].copy())

    spl = NaturalSpline(np.linspace(0.0, 1.0, m), q_path)
    tau = np.linspace(0.0, 1.0, grid)
    s = tau**3 * (10.0 - tau * (15.0 - 6.0 * tau))
    # the first three derivatives of s by tau
    s1 = (30.0 * tau**2 * (1.0 - tau) ** 2)[:, None]
    s2 = (60.0 * tau * (1.0 - tau) * (1.0 - 2.0 * tau))[:, None]
    s3 = (60.0 - 360.0 * tau * (1.0 - tau))[:, None]
    q1, q2, q3 = spl(s, 1), spl(s, 2), spl(s, 3)
    # velocity, acceleration and jerk per joint at T = 1 (chain rule)
    vel = q1 * s1
    acc = q2 * s1**2 + q1 * s2
    jerk = q3 * s1**3 + 3.0 * q2 * s1 * s2 + q1 * s3
    keep = 1.0 - headroom
    duration = max(np.max(np.abs(vel) / (keep * limits.v_max)),
                   np.sqrt(np.max(np.abs(acc) / (keep * limits.a_max))),
                   np.cbrt(np.max(np.abs(jerk) / (keep * limits.j_max))))
    return TimedTrajectory(t=duration * tau, q=spl(s))


def resample_uniform(timed: TimedTrajectory, dt: float, traj_id: str,
                     split: str) -> ReferenceTrajectory:
    """Rows at t = 0, dt, ..., floor(T/dt)*dt (final instant clamped into range)."""
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    duration = timed.duration
    count = int(np.floor(duration / dt + 1e-9)) + 1
    ts = np.minimum(np.arange(count) * dt, duration)
    if timed.t.size == 1:
        rows = np.repeat(timed.q[:1], count, axis=0)
    else:
        rows = np.column_stack([
            np.interp(ts, timed.t, timed.q[:, j]) for j in range(timed.q.shape[1])
        ])
    return ReferenceTrajectory(dt=dt, positions=rows, traj_id=traj_id, split=split)


def check_reference_limits(traj: ReferenceTrajectory, limits: JointLimits) -> dict:
    """Finite-difference velocity/acceleration/jerk ratios of a sampled
    reference.

    Returns max |v|/v_max (consecutive differences), max |a|/a_max (central
    differences) and max |j|/j_max (third differences, 0.0 below 4 rows);
    all must be <= 1 for a usable reference.
    """
    p = traj.positions
    if p.shape[0] < 3:
        return {"vel_ratio": 0.0, "acc_ratio": 0.0, "jerk_ratio": 0.0}
    v = np.diff(p, axis=0) / traj.dt
    a = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / traj.dt**2
    j = np.diff(p, 3, axis=0) / traj.dt**3
    return {
        "vel_ratio": float(np.max(np.abs(v) / limits.v_max)),
        "acc_ratio": float(np.max(np.abs(a) / limits.a_max)),
        "jerk_ratio": float(np.max(np.abs(j) / limits.j_max, initial=0.0)),
    }


def _mirror_start_seed(model: ChainModel, limits: JointLimits, source_row,
                       target_pos) -> np.ndarray:
    """Seed candidate closest (in plate position) to the mirrored start."""
    candidates = [np.clip(c, limits.p_min, limits.p_max)
                  for c in (np.asarray(model.q_home, dtype=float),
                            -np.asarray(model.q_home, dtype=float),
                            -np.asarray(source_row, dtype=float))]
    dists = [np.linalg.norm(fk_transform(model, c)[0] - target_pos) for c in candidates]
    return candidates[int(np.argmin(dists))]


def mirror_trajectory(traj: ReferenceTrajectory, plane: str, model: ChainModel,
                      limits: JointLimits) -> ReferenceTrajectory:
    """Mirror a reference across a workspace symmetry plane, re-solved via IK.

    The Cartesian plate path of the reference is reflected and converted back
    to joint space sample by sample (same timing), so the result is a real
    joint trajectory rather than a sign-flipped copy.
    """
    if plane not in MIRROR_PLANES:
        raise ConfigurationError(f"unknown mirror plane {plane!r}; use one of {sorted(MIRROR_PLANES)}")
    mirror = MIRROR_PLANES[plane]
    m_mat = np.diag(mirror)

    rows = traj.positions
    out = np.empty_like(rows)
    q = None
    for k in range(rows.shape[0]):
        pos, rot = fk_transform(model, rows[k])
        target_pos = mirror * pos
        target_rot = m_mat @ rot @ m_mat
        if q is None:
            try:
                q = _walk_to(model, _mirror_start_seed(model, limits, rows[0], target_pos),
                             target_pos, target_rot, limits)
            except IKConvergenceError as exc:
                raise PathRejectedError(f"mirror start unreachable: {exc}") from exc
        try:
            q = inverse_kinematics(model, target_pos, q, target_rot, limits)
        except IKConvergenceError as exc:
            raise PathRejectedError(f"mirror IK failed at row {k}: {exc}") from exc
        out[k] = q
    return ReferenceTrajectory(dt=traj.dt, positions=out,
                               traj_id=f"{traj.traj_id}-m{plane}", split=traj.split)


# ---------------------------------------------------------------------------
# pipeline driver

@dataclass
class PipelineConfig:
    dt: float
    headroom: float = setting("headroom", 0.05, domain=BELOW_ONE)
    ik_samples: int = setting("ik_samples", 100, domain=at_least(2))
    grid: int = setting("grid", 600, domain=at_least(2))
    test_fraction: float = setting("test_fraction", 0.2, domain=(
        lambda v: 0.0 <= v <= 1.0, "be in [0, 1]"))
    max_attempts: int = setting("max_attempts", 5, domain=at_least(1))

    def __post_init__(self):
        check_fields(self, "generate")


def generate_reference(model: ChainModel, limits: JointLimits, areas: SamplingAreas,
                       cfg: PipelineConfig, seed, traj_id: str,
                       split: str) -> ReferenceTrajectory:
    """Run the full pipeline once; raises PathRejectedError on a bad draw,
    which includes a path too short to give the 2 rows a run needs."""
    rng = np.random.default_rng(seed)
    path = CartesianPath(sample_waypoints(areas, rng))
    q_path = path_to_joint_space(path, model, cfg.ik_samples, limits)
    timed = time_parameterize(q_path, limits, headroom=cfg.headroom, grid=cfg.grid)
    traj = resample_uniform(timed, cfg.dt, traj_id=traj_id, split=split)
    if traj.n_steps < 2:
        raise PathRejectedError(f"reference has {traj.n_steps} row; a run needs at least 2")
    ratios = check_reference_limits(traj, limits)
    if max(ratios.values()) > 1.0:
        raise PathRejectedError(
            f"reference exceeds limits after parameterization: {ratios}")
    return traj


# The ``generate`` config key besides ``PipelineConfig``'s: a keyword
# argument of ``generate_dataset``.
DATASET_SETTINGS = (setting("count", None, domain=at_least(1)),)


def generate_dataset(model: ChainModel, limits: JointLimits, areas: SamplingAreas,
                     cfg: PipelineConfig, count: int, seed: int):
    """Deterministic dataset of ``count`` references plus rejection stats.

    Each trajectory gets its own derived seed, so generation order and worker
    layout cannot change the output.
    """
    trajs = []
    rejections = []
    for idx in range(count):
        split_rng = np.random.default_rng([int(seed), idx, 0xA5])
        split = "test" if split_rng.uniform() < cfg.test_fraction else "train"
        produced = None
        for attempt in range(cfg.max_attempts):
            try:
                produced = generate_reference(
                    model, limits, areas, cfg, seed=[int(seed), idx, attempt],
                    traj_id=f"traj-{idx:05d}", split=split)
                break
            except PathRejectedError as exc:
                rejections.append((idx, attempt, str(exc)))
        if produced is not None:
            trajs.append(produced)
    return trajs, rejections


# ---------------------------------------------------------------------------
# dataset files

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_dataset(path, trajs) -> None:
    """Plain-text dataset: per record an H line (id, split, dt, n_joints,
    n_rows) then P lines with one joint position row each."""
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajs:
            fh.write(f"H,{traj.traj_id},{traj.split},{_fmt(traj.dt)},"
                     f"{traj.n_joints},{traj.n_steps}\n")
            for row in traj.positions:
                fh.write("P," + ",".join(_fmt(v) for v in row) + "\n")


def load_dataset(path):
    """The records of a ``save_dataset`` file.  Blank lines are skipped; any
    other line that does not fit the format raises ``ConfigurationError``
    naming the file and the line."""
    trajs = []
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            parts = line.strip().split(",")
            where = f"dataset {path} line {number}"
            if parts[0] == "H":
                if header is not None:
                    trajs.append(_finish_record(header, rows))
                header = _read_header(parts, where)
                rows = []
            elif parts[0] == "P":
                if header is None:
                    raise ConfigurationError(f"{where}: P row before the first H line")
                rows.append(_finite_floats(parts[1:], where))
            elif parts != [""]:
                raise ConfigurationError(f"{where}: line is tagged neither H nor P")
    if header is not None:
        trajs.append(_finish_record(header, rows))
    return trajs


def _finite_floats(fields, where: str) -> list:
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{where}: value is not finite")
    return values


def _read_header(parts, where: str) -> tuple:
    """(id, split, dt, n_joints, n_rows, where) of an H line."""
    if len(parts) != 6:
        raise ConfigurationError(f"{where}: H line needs 6 fields "
                                 f"(H,id,split,dt,n_joints,n_rows), got {len(parts)}")
    _, traj_id, split, dt, n_joints, n_rows = parts
    try:
        n_joints, n_rows = int(n_joints), int(n_rows)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    if n_joints < 1 or n_rows < 0:
        raise ConfigurationError(f"{where}: needs n_joints >= 1 and n_rows >= 0")
    return traj_id, split, _finite_floats([dt], where)[0], n_joints, n_rows, where


def _finish_record(header, rows) -> ReferenceTrajectory:
    traj_id, split, dt, n_joints, n_rows, where = header
    if len(rows) != n_rows or any(len(row) != n_joints for row in rows):
        raise ConfigurationError(f"{where}: record {traj_id} does not hold the "
                                 f"{n_rows} rows of {n_joints} positions it declares")
    positions = np.asarray(rows, dtype=float).reshape(n_rows, n_joints)
    try:
        return ReferenceTrajectory(dt=dt, positions=positions, traj_id=traj_id,
                                   split=split)
    except ConfigurationError as exc:  # the split
        raise ConfigurationError(f"{where}: {exc}") from None
