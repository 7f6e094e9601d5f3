"""Per-step valid acceleration ranges and piecewise-linear acceleration integration.

At each decision step the commanded acceleration for the next step is clipped
into a range that provably cannot violate the jerk, acceleration or velocity
limit of any joint, no matter what later commands do.  Accelerations are
linearly interpolated between decision steps, so jerk is piecewise constant
and positions are cubic polynomials per step.

All bound functions broadcast over leading axes: scalars, (n_joints,) vectors
or (batch, n_joints) arrays all work, which keeps large validation campaigns
vectorized.

The lower velocity bound is the sign reflection of the upper one, so
``valid_accel_bounds`` evaluates both sides in one ``max_accel_velocity`` call
on the stacked states (v0, a0) and (-v0, -a0).  The ripple correction is
evaluated only on the entries where the velocity bound binds, and not at all
when none does.

Supported limit regime
----------------------
The step-to-step safety guarantee additionally requires

    j_max * dt <= a_max      and      j_max * dt**2 <= v_max

per joint (``check_limit_regime``).  Outside this envelope a state adjacent
to the velocity boundary can have an empty valid range, which raises
:class:`~trajadapt.errors.LimitConsistencyError` instead of silently
violating a limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, LimitConsistencyError, NonFiniteStateError

# Absolute tolerance for all limit assertions (double precision throughout).
LIMIT_EPS = 1e-9


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class JointLimits:
    """Symmetric per-joint kinematic bounds.

    ``v_max``, ``a_max`` and ``j_max`` are magnitudes; the lower bounds are
    their negations.  ``p_min``/``p_max`` are only used for normalization and
    (indirectly) by the deviation-based episode termination.
    """

    p_min: np.ndarray
    p_max: np.ndarray
    v_max: np.ndarray
    a_max: np.ndarray
    j_max: np.ndarray

    def __post_init__(self):
        for name in ("p_min", "p_max", "v_max", "a_max", "j_max"):
            object.__setattr__(self, name, np.atleast_1d(_as_float_array(getattr(self, name))))
        n = self.p_min.shape[0]
        for name in ("p_min", "p_max", "v_max", "a_max", "j_max"):
            if getattr(self, name).shape[0] != n:
                raise ConfigurationError(f"JointLimits field {name} has wrong length")
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"JointLimits field {name} must be finite")
        if not np.all(self.p_min < self.p_max):
            raise ConfigurationError("JointLimits requires p_min < p_max per joint")
        for name in ("v_max", "a_max", "j_max"):
            if not np.all(getattr(self, name) > 0.0):
                raise ConfigurationError(f"JointLimits requires {name} > 0 per joint")

    @property
    def n_joints(self) -> int:
        return self.p_min.shape[0]

    @property
    def p_mid(self) -> np.ndarray:
        return 0.5 * (self.p_min + self.p_max)

    @property
    def p_half_range(self) -> np.ndarray:
        return 0.5 * (self.p_max - self.p_min)


@dataclass(frozen=True)
class StepParams:
    """Decision period, position-controller period and the ripple correction flag."""

    dt: float = 0.05
    control_dt: float = 0.005
    correction_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ConfigurationError("dt must be finite and > 0")
        if not 0.0 < self.control_dt < np.inf:
            raise ConfigurationError("control_dt must be finite and > 0")
        ratio = self.dt / self.control_dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigurationError(
                f"dt ({self.dt}) must be an integer multiple of control_dt ({self.control_dt})"
            )

    @property
    def substeps(self) -> int:
        return int(round(self.dt / self.control_dt))


@dataclass
class JointState:
    """Setpoint position/velocity/acceleration vectors at one decision step."""

    p: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_1d(_as_float_array(self.p))
        self.v = np.atleast_1d(_as_float_array(self.v))
        self.a = np.atleast_1d(_as_float_array(self.a))

    @classmethod
    def at_rest(cls, p) -> "JointState":
        p = np.atleast_1d(_as_float_array(p))
        return cls(p=p.copy(), v=np.zeros_like(p), a=np.zeros_like(p))

    def copy(self) -> "JointState":
        return JointState(self.p.copy(), self.v.copy(), self.a.copy())


@dataclass(frozen=True)
class AccelRange:
    """Per-joint closed interval of admissible next-step accelerations."""

    lo: np.ndarray
    hi: np.ndarray


def check_limit_regime(limits: JointLimits, dt: float) -> None:
    """Reject limit/period combinations outside the supported safety envelope."""
    jd = limits.j_max * dt
    if np.any(jd > limits.a_max * (1.0 + 1e-12)):
        raise ConfigurationError(
            "unsupported regime: j_max * dt exceeds a_max for some joint"
        )
    if np.any(jd * dt > limits.v_max * (1.0 + 1e-12)):
        raise ConfigurationError(
            "unsupported regime: j_max * dt**2 exceeds v_max for some joint"
        )


def max_accel_velocity(v0, a0, v_max, j_max, dt):
    """Largest next-step acceleration that cannot overshoot +v_max.

    Model: ramp linearly from a0 to the returned value over one decision
    period, then decelerate at constant -j_max until the acceleration is
    zero.  The returned value makes the peak velocity of that profile equal
    v_max; anything smaller is safe, anything larger is not.

    Case split on v0 + a0*dt/2 (the end-of-step velocity if the acceleration
    were ramped straight to zero): below v_max the peak lies in the braking
    phase; at or above it the peak must occur inside the current step, which
    forces a sign change of the acceleration within the step.

    Degenerate inputs: a0 == 0 with v0 >= v_max returns 0 (the analytic
    limit); v0 == v_max with a0 != 0 falls back to the braking-phase formula,
    whose denominator never vanishes.
    """
    v0 = _as_float_array(v0)
    a0, v_max, j_max = np.broadcast_arrays(
        _as_float_array(a0), _as_float_array(v_max), _as_float_array(j_max)
    )
    v0 = np.broadcast_to(v0, a0.shape)

    # Braking-phase solution: quadratic in a1, root chosen so smaller a1 is safer.
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = 1.0 + (8.0 * (v0 - v_max) + 4.0 * a0 * dt) / (-j_max * dt * dt)
        disc = np.maximum(disc, 0.0)
        brake = (-j_max * dt / 2.0) * (1.0 - np.sqrt(disc))

        # In-step-peak solution; denominator guarded, selection below avoids it.
        gap = v_max - v0
        safe_gap = np.where(gap != 0.0, gap, 1.0)
        instep = a0 * (1.0 - (a0 * dt) / (2.0 * safe_gap))

    past_threshold = v0 + 0.5 * a0 * dt >= v_max
    use_instep = past_threshold & (a0 != 0.0) & (gap > 0.0)
    rest_at_limit = past_threshold & (a0 == 0.0)

    out = np.where(use_instep, instep, brake)
    out = np.where(rest_at_limit, 0.0, out)
    return out if out.ndim else float(out)


def _correction_shift(v0, a0, a_unc, v_max, a_max, j_max, dt):
    """Shifted velocity bound that lands (v = v_max, a = 0) on a step boundary.

    The continuation assumed by the plain velocity bound reaches v_max at a
    point that is generally not a decision-step boundary, so a discrete-time
    controller riding the bound oscillates just below v_max.  Lowering the
    bound to ``a*`` with a continuation of slope -j_max followed by one
    shallower final segment makes the velocity gain land exactly on v_max at
    a boundary with zero acceleration (equal swept area, shifted shape).

    For a continuation with n intervals on the -j_max line the trapezoid sum
    gives a* in closed form; candidate interval counts around the plain
    bound's zero-crossing step are tried and the largest admissible shift is
    returned.  Where no candidate is admissible the plain bound is returned
    unchanged (it is always safe).

    All array arguments have the same shape: ``valid_accel_bounds`` passes
    only the entries where the velocity bound binds.
    """
    jd = j_max * dt
    dv = v_max - v0

    with np.errstate(invalid="ignore", divide="ignore"):
        n0 = np.ceil(np.maximum(a_unc, 0.0) / jd)
    n0 = np.clip(np.nan_to_num(n0, nan=1.0), 1.0, 1e6)

    # Candidate interval counts; the settle chain steps n down by exactly one.
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    n = np.maximum(n0[..., None] + offsets, 1.0)

    c = (dv / dt - 0.5 * a0)[..., None]
    a_star = c / n + 0.5 * jd[..., None] * (n - 1.0)
    a_tail = a_star - jd[..., None] * (n - 1.0)

    tol = 1e-9
    lower = np.maximum(a0 - jd, -a_max)[..., None]
    admissible = (
        (a_star >= -tol)
        & (a_star <= a_unc[..., None] + tol)
        & (a_star >= lower - tol)
        & (a_tail >= -tol)
        & (a_tail <= jd[..., None] + tol)
    )

    a_star = np.where(admissible, a_star, -np.inf)
    best = np.max(a_star, axis=-1)
    shifted = np.where(np.isfinite(best), np.minimum(np.maximum(best, 0.0), a_unc), a_unc)
    return shifted


def _reflected(x, shape):
    """(2, *shape) stack of ``x`` and ``-x``, broadcast to ``shape``."""
    out = np.empty((2,) + shape)
    out[0] = x
    out[1] = -x
    return out


def valid_accel_bounds(v0, a0, v_max, a_max, j_max, dt, correction_enabled=False):
    """(lo, hi) arrays of the per-joint valid acceleration range.

    hi = min(jerk bound, acceleration limit, velocity bound); lo symmetric.
    With the correction enabled, a velocity bound that is the binding
    constraint is shifted so that saturation lands exactly on the limit.
    A NaN or infinite ``v0`` or ``a0`` raises ``NonFiniteStateError``; the
    limits are not checked here, ``JointLimits`` rejects non-finite ones.
    """
    v0 = _as_float_array(v0)
    a0 = _as_float_array(a0)
    v_max = _as_float_array(v_max)
    a_max = _as_float_array(a_max)
    j_max = _as_float_array(j_max)
    shape = np.broadcast(v0, a0, v_max, a_max, j_max).shape
    if not (np.isfinite(v0).all() and np.isfinite(a0).all()):
        raise NonFiniteStateError("valid acceleration range needs a finite "
                                  "joint velocity and acceleration")

    # Row 0 is the upper velocity bound, row 1 the upper bound of the
    # sign-reflected state, i.e. minus the lower bound.
    v_refl = _reflected(v0, shape)
    a_refl = _reflected(a0, shape)
    vel = max_accel_velocity(v_refl, a_refl, v_max, j_max, dt)

    hi_jerk = a0 + j_max * dt
    lo_jerk = a0 - j_max * dt

    if correction_enabled:
        binding = np.stack((
            vel[0] <= np.minimum(hi_jerk, a_max) + LIMIT_EPS,
            -vel[1] >= np.maximum(lo_jerk, -a_max) - LIMIT_EPS,
        ))
        if binding.any():
            vel[binding] = _correction_shift(
                v_refl[binding], a_refl[binding], vel[binding],
                *(np.broadcast_to(x, vel.shape)[binding] for x in (v_max, a_max, j_max)),
                dt,
            )

    hi = np.minimum(np.minimum(hi_jerk, a_max), vel[0])
    lo = np.maximum(np.maximum(lo_jerk, -a_max), -vel[1])

    bad = lo - hi > LIMIT_EPS
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        joint = idx[-1] if idx.size else 0
        raise LimitConsistencyError(joint, lo[tuple(idx)], hi[tuple(idx)])
    lo = np.minimum(lo, hi)
    return lo, hi


def valid_accel_range(state: JointState, limits: JointLimits,
                      params: StepParams) -> AccelRange:
    """Valid next-step acceleration interval for every joint of ``state``."""
    lo, hi = valid_accel_bounds(
        state.v, state.a, limits.v_max, limits.a_max, limits.j_max,
        params.dt, correction_enabled=params.correction_enabled,
    )
    return AccelRange(lo=np.atleast_1d(lo), hi=np.atleast_1d(hi))


def clip_action(raw, accel_range: AccelRange) -> np.ndarray:
    """Componentwise clamp of a raw acceleration command into the valid range."""
    return np.clip(_as_float_array(raw), accel_range.lo, accel_range.hi)


def integrate_step(p0, v0, a0, a1, dt):
    """Exact integral of one step of linearly interpolated acceleration.

    Returns (p1, v1) at the end of the step.
    """
    p0 = _as_float_array(p0)
    v0 = _as_float_array(v0)
    a0 = _as_float_array(a0)
    a1 = _as_float_array(a1)
    v1 = v0 + 0.5 * (a0 + a1) * dt
    p1 = p0 + v0 * dt + (2.0 * a0 + a1) * dt * dt / 6.0
    return p1, v1


def substep_profile(p0, v0, a0, a1, dt, substeps: int):
    """Positions, velocities and accelerations at every control tick of a step.

    Includes the step's start (tick 0) through its end (tick ``substeps``),
    so arrays have leading length substeps + 1.
    """
    if substeps < 1:
        raise ConfigurationError("substeps must be >= 1")
    p0 = _as_float_array(p0)
    v0 = _as_float_array(v0)
    a0 = _as_float_array(a0)
    a1 = _as_float_array(a1)
    tau = (np.arange(substeps + 1, dtype=float) * (dt / substeps))
    tau = tau.reshape((-1,) + (1,) * p0.ndim)
    slope = (a1 - a0) / dt
    a = a0 + slope * tau
    v = v0 + a0 * tau + 0.5 * slope * tau**2
    p = p0 + v0 * tau + 0.5 * a0 * tau**2 + slope * tau**3 / 6.0
    return p, v, a
