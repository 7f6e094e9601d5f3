"""Per-step valid acceleration ranges and piecewise-linear acceleration integration.

At each decision step the commanded acceleration for the next step is clipped
into a range that provably cannot violate the jerk, acceleration or velocity
limit of any joint, no matter what later commands do.  Accelerations are
linearly interpolated between decision steps, so jerk is piecewise constant
and positions are cubic polynomials per step.

``valid_accel_bounds`` takes states and limits of one shape: scalars,
(n_joints,) vectors or (batch, n_joints) arrays all work, which keeps large
validation campaigns vectorized; ``profile_peaks`` audits such a campaign's
steps (see "Profile peaks").  ``valid_accel_range``,
``clip_action``, ``integrate_step`` and ``substep_profile`` serve one
episode's decision step and take float sequences of one entry per joint
(see "Single-state kernel").

The lower velocity bound is the sign reflection of the upper one, so
``valid_accel_bounds`` evaluates both sides at once on the stacked (2, ...)
states (v0, a0) and (-v0, -a0).  It never stacks a limit: a flat index
into the stacked states, modulo the limits' size (``take`` with
``mode="wrap"``), indexes them.  It calls
the internal ``_velocity_bound`` and ``_shifted_bound`` (j_max * dt
precomputed) under one errstate.
The ripple correction runs only on the k entries where the velocity bound
binds: ``nonzero`` gives their flat indices, ``take`` gathers them and
``put`` writes the shifted bounds back, with the six candidate interval
counts as (6, k) rows.  The in-step root is likewise evaluated only past
its threshold, and the boundary and thin-range tests only where lo > hi.  On (n_joints,) arrays numpy's
Python-level wrappers cost more than the arithmetic, so the kernels call
ufuncs and C-level array methods alone, and test a mask with
``np.count_nonzero`` rather than ``.any()`` or ``.all()``, which go through
``numpy._core._methods``.

Single-state kernel
-------------------
``valid_accel_range`` serves one episode's state of n_joints velocities and
accelerations, once per decision step.  Even ufuncs alone cost more per
call than its arithmetic, so it loops over the joints on Python floats,
with the operations of ``valid_accel_bounds`` in the same order: both
velocity bounds with the in-step root, the jerk ceiling and floor, the
ripple correction with the same six candidate interval counts, and the
thin-range brake.  IEEE doubles round each operation alike in both, so the
results are the same bits, provided every min and max follows numpy's tie
rule: ``np.maximum(x, y)`` returns ``y`` on a tie (which decides the sign
of a zero), Python's ``max`` returns ``x``, so each is a comparison that
picks ``y`` on a tie, as in ``x if x > y else y``.  A non-finite state, or
a state whose range is empty by more than ``LIMIT_EPS`` (a boundary state),
hands the whole call to ``valid_accel_bounds``, the one implementation of
the boundary re-evaluation and of both errors.  The tests hold the two
kernels to the same bits.

The rest of the step's elementwise arithmetic runs on floats the same way:
``clip_action`` and ``clamp`` are numpy's clamp with its tie rule and with
NaN propagating, and ``integrate_step`` evaluates numpy's expressions in
numpy's order.  The same operations in the same order give the same bits.
Three kinds of operation stay in numpy, because a float copy can differ in
the last bit: BLAS products (``@`` and ``dot`` may fuse a multiply-add),
the SIMD-dispatched transcendental functions (``sin``, ``cos``, ``**3``,
with their own rounding) and pairwise sums (``np.sum`` and ``np.mean`` add
in a different order than a loop).  ``substep_profile`` therefore takes
the powers tau, tau**2 and tau**3 of the tick times from numpy, once per
(dt, substeps), and evaluates each joint's cubic on floats; it returns the
tick positions as one (substeps + 1, n_joints) array for the plate
kinematics' ``sin`` and ``cos``.

Profile peaks
-------------
``profile_peaks`` checks a batch of executed steps against all three
limits over their whole continuous profile.  Over one step the
acceleration is linear in time and the velocity quadratic, so |a| peaks at
a step end and |v| at a step end or at the turning point t* = -a0/slope,
where the acceleration crosses zero, if 0 < t* < dt.  t* is a plain
division under errstate: a zero slope gives +-inf or NaN, which fails that
test as the -1 did that a masked division used to leave there.  The
velocity at t* is evaluated on the entries with their turning point inside
the step alone, gathered with ``take`` and written back with ``put``
(about two in five entries of a random campaign).  Each peak is the
maximum of the unnormalized candidates, divided by its limit once.
Correctly rounded division by a positive limit is monotone, so
fl(max(x, y) / c) is max(fl(x / c), fl(y / c)) bit for bit (the
candidates are magnitudes, and a NaN propagates either way): normalizing
every candidate first would give the same bits in more passes.  The limits enter
only in those whole-array divisions, so they may have the states' shape
or that of its trailing axes.

In-place evaluation
-------------------
The batch kernels (``valid_accel_bounds``, ``_velocity_bound``,
``_shifted_bound``, ``profile_peaks``) write each expression as a chain of
ufunc calls with ``out=``: the same operations on the same operands in the
same order, so the same bits, written into the one or two arrays that the
chain allocates for itself and never into an argument.  The only rewrites
are exact ones, a commuted product or sum (``8.0 * x`` as ``x *= 8.0``,
``1.0 + x`` as ``x += 1.0``); nothing is reassociated.  A limit term such
as -jd * dt gets a buffer of the limits' shape.  The reason is the heap.
With a fresh temporary per operation, a campaign step on (episodes, joints)
arrays allocated and freed tens of (2, E, n), (E, n) and (6, k) arrays of
up to 112 kB; glibc's malloc trimmed the freed top of its heap and took
page faults to grow it again on the next step, a cost that grew with the
campaign and moved with how the interpreter was started.  A chain's first
call allocates with ``out=np.empty(shape)``, because a ufunc of 0-d arrays
returns a numpy scalar, which ``out=`` rejects; ``valid_accel_bounds``
returns ``x[()]``, numpy scalars for 0-d states as before.  Only the
gathers stay expressions of fresh (k,) arrays: the k correction entries,
the in-step entries and the few thin ranges of each campaign step, whose
brake ``put`` writes into lo and hi.

Supported limit regime
----------------------
The step-to-step safety guarantee additionally requires

    j_max * dt <= a_max      and      j_max * dt**2 <= v_max

per joint (``check_limit_regime``).  Outside this envelope a state adjacent
to the velocity boundary can have an empty valid range, which raises
:class:`~trajadapt.errors.LimitConsistencyError` instead of silently
violating a limit.

Boundary states
---------------
A joint that rode its velocity bound sits on the boundary of the viable set:
it must now brake at full jerk.  There the velocity bound is very sensitive
to v0 (d(bound)/dv0 = -a0**2 * dt / (2 * (v_max - v0)**2), about -1e7 for
a0 = 0.012 near v_max = 2.44), so the one ulp of v0 that integration leaves
can put the bound more than ``LIMIT_EPS`` below the jerk floor, an empty
range.  ``valid_accel_bounds`` then evaluates the velocity bound again at
v0 moved ``BOUNDARY_ULPS`` ulp toward safety, delta = BOUNDARY_ULPS *
ulp(v0).  If that range is non-empty, the joint brakes at full jerk: the
range is the floor max(a0 - j_max*dt, -a_max) alone (its mirror image on the
lower side).  The velocity profile of a command is v0 plus terms free of
v0, and the floor is safe from v0 - delta, so the peak velocity exceeds
v_max by at most delta <= 128 * 2**-52 * |v0| < 2.9e-14 * |v0|, about 7e-14
at v_max = 2.44: four orders below ``LIMIT_EPS``.  The jerk and
acceleration bounds hold exactly.  If the range stays empty, the state is
further out than rounding can carry it, and the call raises as before.

Thin ranges
-----------
Rounding can also leave a range empty by less than ``LIMIT_EPS``: the
velocity bound lies up to LIMIT_EPS beyond the jerk floor (or ceiling on
the lower side).  Such a joint brakes at full jerk too, so every state with
lo > hi gets the brake value of the boundary branch and the jerk and
acceleration bounds hold exactly.  The peak velocity of a command rises
with it at the rate dt/2 + max(a1, 0)/j_max, so the floor overshoots v_max
by at most LIMIT_EPS * (dt/2 + a_max/j_max).  Collapsing the range onto the
velocity bound instead would exceed the jerk bound by up to LIMIT_EPS, a
normalized jerk of 1 + LIMIT_EPS / (j_max * dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import (POSITIVE, ConfigurationError, LimitConsistencyError, NonFiniteStateError,
                     check_fields, setting)

# Absolute tolerance for all limit assertions (double precision throughout).
LIMIT_EPS = 1e-9
# How far toward safety ``valid_accel_bounds`` moves a velocity, in ulp, to
# tell a state left just past the viable boundary by rounding from one
# outside the supported regime (see "Boundary states" above).
BOUNDARY_ULPS = 128


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite, counted in C: on small arrays
    ``np.isfinite(x).all()`` costs several times more in Python wrappers."""
    return np.count_nonzero(np.isfinite(x)) == x.size


@dataclass(frozen=True)
class JointLimits:
    """Symmetric per-joint kinematic bounds.

    ``v_max``, ``a_max`` and ``j_max`` are magnitudes; the lower bounds are
    their negations.  ``p_min``/``p_max`` normalize the observation's joint
    positions, ``kinematics.inverse_kinematics`` clamps every iterate into
    [p_min, p_max], and ``trajectory._mirror_start_seed`` clips its seeds to
    that range.  A field's key names its number in each joint row of a chain
    file (``kinematics.load_chain``).
    """

    p_min: np.ndarray = setting("p_min_rad")
    p_max: np.ndarray = setting("p_max_rad")
    v_max: np.ndarray = setting("v_max_rad_per_s")
    a_max: np.ndarray = setting("a_max_rad_per_s2")
    j_max: np.ndarray = setting("j_max_rad_per_s3")

    def __post_init__(self):
        for f in fields(self):
            x = np.atleast_1d(_as_float_array(getattr(self, f.name)))
            object.__setattr__(self, f.name, x)
            if x.shape[0] != self.n_joints:
                raise ConfigurationError(f"JointLimits field {f.name} has wrong length")
            self._require(f, np.isfinite(x), "be finite")
        p_min, _, *magnitudes = fields(self)
        self._require(p_min, self.p_min < self.p_max, "be < p_max")
        for f in magnitudes:
            self._require(f, getattr(self, f.name) > 0.0, "be > 0")

    def _require(self, f, ok: np.ndarray, need: str) -> None:
        """Reject field ``f`` unless ``ok`` holds for every joint."""
        if not ok.all():
            j = int(ok.argmin())
            raise ConfigurationError(
                f"JointLimits {f.name} ({f.metadata['key']}) must {need} per joint, "
                f"got {float(getattr(self, f.name)[j])!r} at joint {j}")

    @property
    def n_joints(self) -> int:
        return self.p_min.shape[0]

    @cached_property
    def p_mid(self) -> np.ndarray:
        return 0.5 * (self.p_min + self.p_max)

    @cached_property
    def p_half_range(self) -> np.ndarray:
        return 0.5 * (self.p_max - self.p_min)

    @cached_property
    def observation_scalings(self) -> dict:
        """``adaptation.build_observation``'s (offset, scale) arrays by
        (feedback size, future rows), filled on first use."""
        return {}

    @cached_property
    def float_rows(self) -> list:
        """(v_max, a_max, j_max) of each joint as Python floats."""
        return list(zip(self.v_max.tolist(), self.a_max.tolist(), self.j_max.tolist()))


@dataclass(frozen=True)
class StepParams:
    """Decision period, position-controller period and the ripple correction flag."""

    dt: float = setting("dt_s", 0.05, domain=POSITIVE)
    control_dt: float = setting("control_dt_s", 0.005, domain=POSITIVE)
    correction_enabled: bool = setting("correction_enabled", True, "flag")

    def __post_init__(self):
        check_fields(self, "step")
        ratio = self.dt / self.control_dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigurationError(
                f"step control_dt_s must divide dt_s ({self.dt}), got {self.control_dt!r}")

    @property
    def substeps(self) -> int:
        return int(round(self.dt / self.control_dt))


def check_limit_regime(limits: JointLimits, dt: float) -> None:
    """Reject limit/period combinations outside the supported safety envelope."""
    jd = limits.j_max * dt
    for value, what, bound, name in ((jd, "j_max * dt", limits.a_max, "a_max"),
                                     (jd * dt, "j_max * dt**2", limits.v_max, "v_max")):
        over = value > bound * (1.0 + 1e-12)
        if over.any():
            j = int(over.argmax())
            raise ConfigurationError(
                f"unsupported regime at joint {j}: {what} = {value[j]:g} exceeds "
                f"{name} = {bound[j]:g} at step dt_s {dt:g}")


def _velocity_bound(v0, a0, v_max, jd, dt):
    """Largest next-step acceleration that cannot overshoot +v_max, for
    float arrays of states ``v0``, ``a0`` under limits ``v_max`` and ``jd`` =
    j_max * dt of their shape or of their trailing axes: an entry's flat
    index modulo the limits' size picks its limit.  Runs under the caller's
    errstate (invalid and divide ignored).

    Model: ramp linearly from a0 to the returned value over one decision
    period, then decelerate at constant -j_max until the acceleration is
    zero.  The returned value makes the peak velocity of that profile equal
    v_max; anything smaller is safe, anything larger is not.

    Case split on v0 + a0*dt/2 (the end-of-step velocity if the acceleration
    were ramped straight to zero): below v_max the peak lies in the braking
    phase; at or above it the peak must occur inside the current step, which
    forces a sign change of the acceleration within the step.  The in-step
    root is evaluated only on the entries past that threshold.

    Degenerate inputs: a0 == 0 with v0 >= v_max returns 0 (the analytic
    limit); v0 == v_max with a0 != 0 falls back to the braking-phase formula,
    whose denominator never vanishes.
    """
    # Braking-phase solution: quadratic in a1, root chosen so smaller a1 is
    # safer.  With neg_jd = -jd: disc = 1.0 + (8.0 * (v0 - v_max) + 4.0 * a0
    # * dt) / (neg_jd * dt) and out = (neg_jd / 2.0) * (1.0 - sqrt(max(disc,
    # 0.0))); ``neg`` holds the limit terms neg_jd * dt, then neg_jd / 2.0.
    out = np.subtract(v0, v_max, out=np.empty(v0.shape))
    out *= 8.0
    term = np.multiply(a0, 4.0, out=np.empty(v0.shape))
    term *= dt
    out += term
    neg = np.negative(jd, out=np.empty(jd.shape))
    neg *= dt
    out /= neg
    out += 1.0
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.subtract(1.0, out, out=out)
    np.negative(jd, out=neg)
    neg /= 2.0
    out *= neg

    # the threshold v0 + 0.5 * a0 * dt >= v_max
    np.multiply(a0, 0.5, out=term)
    term *= dt
    term += v0
    past = np.greater_equal(term, v_max).ravel().nonzero()[0]
    if past.size:
        # In-step-peak solution a0 * (1.0 - (a0 * dt) / (2.0 * gap)) on the
        # entries past the threshold alone; a zero gap divides by zero but is
        # never selected.
        a0_p = a0.take(past)
        gap = v_max.take(past, mode="wrap")
        gap -= v0.take(past)
        instep = np.multiply(a0_p, dt)
        instep /= np.multiply(gap, 2.0)
        np.subtract(1.0, instep, out=instep)
        instep *= a0_p
        out.put(past, np.where(a0_p == 0.0, 0.0,
                               np.where(gap > 0.0, instep, out.take(past))))
    return out


# Candidate interval counts around the plain bound's zero-crossing step, one
# row each; the settle chain steps n down by exactly one.
_CANDIDATE_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])[:, None]


def _shifted_bound(v0, a0, a_unc, v_max, a_max, jd, dt):
    """Shifted velocity bound that lands (v = v_max, a = 0) on a step boundary.

    The continuation assumed by the plain velocity bound ``a_unc`` reaches
    v_max at a point that is generally not a decision-step boundary, so a
    discrete-time controller riding the bound oscillates just below v_max.
    Lowering the bound to ``a*`` with a continuation of slope -j_max
    followed by one shallower final segment makes the velocity gain land
    exactly on v_max at a boundary with zero acceleration (equal swept area,
    shifted shape).

    For a continuation with n intervals on the -j_max line the trapezoid sum
    gives a* in closed form; candidate interval counts around the plain
    bound's zero-crossing step are tried and the largest admissible shift is
    returned.  Where no candidate is admissible the plain bound is returned
    unchanged (it is always safe).

    ``valid_accel_bounds`` gathers only the entries where the velocity bound
    binds, as (k,) vectors, with ``jd`` = j_max * dt, and calls this under
    its errstate.  The candidates are laid out (6, k), one row per
    interval-count offset.
    """
    # n0 = ceil(max(a_unc, 0) / jd), clipped to [1, 1e6], NaN to 1
    buf = np.maximum(a_unc, 0.0, out=np.empty(a_unc.shape))
    buf /= jd
    np.ceil(buf, out=buf)
    np.fmax(buf, 1.0, out=buf)
    np.fmin(buf, 1e6, out=buf)
    n = np.add(buf, _CANDIDATE_OFFSETS)
    np.maximum(n, 1.0, out=n)

    # n - 1 intervals on the -j_max line: m = jd * (n - 1.0), a_tail = a* -
    # m, and the trapezoid sum gives a* = c / n + 0.5 * m with c = (v_max -
    # v0) / dt - 0.5 * a0.
    m = np.subtract(n, 1.0)
    m *= jd
    c = np.subtract(v_max, v0, out=buf)
    c /= dt
    half = np.multiply(a0, 0.5, out=np.empty(a_unc.shape))
    c -= half
    a_star = np.divide(c, n, out=n)
    a_tail = np.multiply(m, 0.5)
    a_star += a_tail
    np.subtract(a_star, m, out=a_tail)

    # floor = max(max(a0 - jd, -a_max) - LIMIT_EPS, -LIMIT_EPS)
    floor = np.subtract(a0, jd, out=half)
    np.maximum(floor, np.negative(a_max, out=buf), out=floor)
    floor -= LIMIT_EPS
    np.maximum(floor, -LIMIT_EPS, out=floor)
    admissible = np.greater_equal(a_star, floor)
    test = np.empty(admissible.shape, dtype=bool)
    admissible &= np.less_equal(a_star, np.add(a_unc, LIMIT_EPS, out=buf), out=test)
    admissible &= np.greater_equal(a_tail, -LIMIT_EPS, out=test)
    admissible &= np.less_equal(a_tail, np.add(jd, LIMIT_EPS, out=buf), out=test)

    # an inadmissible candidate is -inf
    np.putmask(a_star, np.logical_not(admissible, out=admissible), -np.inf)
    best = np.maximum.reduce(a_star, axis=0)
    finite = np.isfinite(best)
    np.maximum(best, 0.0, out=best)
    np.minimum(best, a_unc, out=best)
    return np.where(finite, best, a_unc)


def _reflected(x):
    """(2, *x.shape) stack of ``x`` and ``-x``."""
    out = np.empty((2,) + x.shape)
    out[0] = x
    np.negative(x, out=out[1, ...])
    return out


def valid_accel_bounds(v0, a0, v_max, a_max, j_max, dt, *, correction_enabled):
    """(lo, hi) arrays of the per-joint valid acceleration range of states
    ``v0``, ``a0`` under limits of their shape.

    hi = min(jerk bound, acceleration limit, velocity bound); lo symmetric.
    With the correction enabled, a velocity bound that is the binding
    constraint is shifted so that saturation lands exactly on the limit.
    A NaN or infinite ``v0`` or ``a0`` raises ``NonFiniteStateError``; the
    limits are not checked here, ``JointLimits`` rejects non-finite ones.
    """
    v0, a0, v_max, a_max, j_max = (_as_float_array(x) for x in (v0, a0, v_max, a_max, j_max))
    if not (all_finite(v0) and all_finite(a0)):
        raise NonFiniteStateError("valid acceleration range needs a finite "
                                  "joint velocity and acceleration")
    jd = j_max * dt

    # Row 0 is the upper velocity bound, row 1 the upper bound of the
    # sign-reflected state, i.e. minus the lower bound.
    v_refl = _reflected(v0)
    a_refl = _reflected(a0)
    with np.errstate(invalid="ignore", divide="ignore"):
        vel = _velocity_bound(v_refl, a_refl, v_max, jd, dt)

        # the jerk ceiling and floor; ``edge`` holds -a_max, then the
        # binding tests' edges, and ``lo`` -vel[1] for the test first
        shape = v0.shape
        ceil = np.add(a0, jd, out=np.empty(shape))
        np.minimum(ceil, a_max, out=ceil)
        edge = np.negative(a_max, out=np.empty(shape))
        floor = np.subtract(a0, jd, out=np.empty(shape))
        np.maximum(floor, edge, out=floor)
        lo = np.empty(shape)

        if correction_enabled:
            binding = np.empty(vel.shape, dtype=bool)
            np.less_equal(vel[0], np.add(ceil, LIMIT_EPS, out=edge), out=binding[0, ...])
            np.greater_equal(np.negative(vel[1], out=lo),
                             np.subtract(floor, LIMIT_EPS, out=edge), out=binding[1, ...])
            at = binding.ravel().nonzero()[0]
            if at.size:
                vel.put(at, _shifted_bound(
                    v_refl.take(at), a_refl.take(at), vel.take(at),
                    *(x.take(at, mode="wrap") for x in (v_max, a_max, jd)), dt))

        hi = np.minimum(ceil, vel[0], out=np.empty(shape))
        np.negative(vel[1], out=lo)
        np.maximum(floor, lo, out=lo)

        # boundary states and thin ranges (module docstring) have lo > hi,
        # and lo <= hi gives fl(lo - hi) <= 0, so only those can be bad
        at = (lo > hi).ravel().nonzero()[0]
        if not at.size:
            return lo[()], hi[()]
        bad = at.compress(lo.take(at) - hi.take(at) > LIMIT_EPS)
        if bad.size:
            # Boundary states (module docstring): brake at full jerk on the
            # binding side if the state moved toward safety has a range.
            v_b = v_refl.reshape(2, -1).take(bad, axis=1)
            vel_b = _velocity_bound(v_b - BOUNDARY_ULPS * np.abs(np.spacing(v_b)),
                                    a_refl.reshape(2, -1).take(bad, axis=1),
                                    v_max.take(bad), jd.take(bad), dt)
            ceil_b, floor_b = ceil.take(bad), floor.take(bad)
            empty = np.maximum(floor_b, -vel_b[1]) > np.minimum(ceil_b, vel_b[0])
            if np.count_nonzero(empty):
                idx = np.unravel_index(bad[empty.argmax()], shape)
                raise LimitConsistencyError(idx[-1] if idx else 0, lo[idx], hi[idx])
    # the brake on those entries: where(vel[0] < ceil, floor, ceil)
    ceil_o = ceil.take(at)
    brake = np.where(vel.take(at) < ceil_o, floor.take(at), ceil_o)
    lo.put(at, brake)
    hi.put(at, brake)
    return lo[()], hi[()]


def profile_peaks(v0, a0, a1, v_max, a_max, j_max, dt):
    """(velocity, acceleration, jerk) peaks of the steps from states ``v0``,
    ``a0`` with the acceleration ramped linearly to ``a1`` over ``dt``,
    each normalized by its limit: float arrays of the states' shape, under
    limits of that shape or of its trailing axes (module docstring,
    "Profile peaks")."""
    shape = v0.shape
    da = np.subtract(a1, a0, out=np.empty(shape))
    slope = np.divide(da, dt, out=np.empty(shape))
    jerk = np.abs(da, out=da)
    # ``acc`` holds j_max * dt first, ``vel`` |a0| and ``half`` |v0|
    acc = np.multiply(j_max, dt, out=np.empty(shape))
    jerk /= acc
    # |a| peaks at a step end, |v| at a step end or where a crosses zero
    vel = np.abs(a0, out=np.empty(shape))
    np.multiply(slope, dt, out=acc)
    acc += a0
    np.maximum(vel, np.abs(acc, out=acc), out=acc)
    acc /= a_max
    np.multiply(a0, dt, out=vel)
    vel += v0
    half = np.multiply(slope, 0.5, out=np.empty(shape))
    half *= dt * dt
    vel += half
    np.maximum(np.abs(v0, out=half), np.abs(vel, out=vel), out=vel)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.negative(a0, out=half)
        t /= slope
    inside = t > 0.0
    inside &= t < dt
    at = inside.ravel().nonzero()[0]
    if at.size:
        # v0 + a0 * t + 0.5 * slope * t**2 at t = t*
        t_in = t.take(at)
        v_in = a0.take(at)
        v_in *= t_in
        v_in += v0.take(at)
        curve = slope.take(at)
        curve *= 0.5
        curve *= np.square(t_in, out=t_in)
        v_in += curve
        vel.put(at, np.maximum(vel.take(at), np.abs(v_in, out=v_in), out=v_in))
    vel /= v_max
    return vel, acc, jerk


def _float_velocity_bound(v0, a0, v_max, jd, dt):
    """``_velocity_bound`` of one state on Python floats."""
    neg_jd = -jd
    disc = 1.0 + (8.0 * (v0 - v_max) + 4.0 * a0 * dt) / (neg_jd * dt)
    out = (neg_jd / 2.0) * (1.0 - math.sqrt(0.0 if disc <= 0.0 else disc))
    if v0 + 0.5 * a0 * dt >= v_max:
        gap = v_max - v0
        if a0 == 0.0:
            return 0.0
        if gap > 0.0:
            return a0 * (1.0 - (a0 * dt) / (2.0 * gap))
    return out


def _float_shifted_bound(v0, a0, a_unc, v_max, a_max, jd, dt):
    """``_shifted_bound`` of one state on Python floats."""
    q = (a_unc if a_unc > 0.0 else 0.0) / jd
    n0 = 1e6 if q >= 1e6 else float(max(math.ceil(q), 1))
    c = (v_max - v0) / dt - 0.5 * a0
    floor = a0 - jd if a0 - jd > -a_max else -a_max
    floor = floor - LIMIT_EPS if floor - LIMIT_EPS > -LIMIT_EPS else -LIMIT_EPS
    best = -math.inf
    for offset in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        n = n0 + offset if n0 + offset > 1.0 else 1.0
        m = jd * (n - 1.0)
        a_star = c / n + 0.5 * m
        if (a_star > best and floor <= a_star <= a_unc + LIMIT_EPS
                and -LIMIT_EPS <= a_star - m <= jd + LIMIT_EPS):
            best = a_star
    if not math.isfinite(best):
        return a_unc
    best = best if best > 0.0 else 0.0
    return best if best < a_unc else a_unc


def valid_accel_range(v, a, limits: JointLimits, params: StepParams):
    """(lo, hi) lists of the valid next-step accelerations of every joint at
    velocities ``v`` and accelerations ``a``, float sequences of n_joints
    entries: the single-state kernel (module docstring), bit-identical to
    ``valid_accel_bounds``, which serves its rare cases."""
    if len(v) != limits.n_joints or len(a) != limits.n_joints:
        raise ValueError(f"valid acceleration range of {limits.n_joints} joints needs "
                         f"{limits.n_joints} velocities and accelerations, got "
                         f"shapes {np.shape(v)} and {np.shape(a)}")
    dt, correct = params.dt, params.correction_enabled
    lo, hi = [], []
    for v0, a0, (v_max, a_max, j_max) in zip(v, a, limits.float_rows):
        if not (math.isfinite(v0) and math.isfinite(a0)):
            break
        jd = j_max * dt
        up = _float_velocity_bound(v0, a0, v_max, jd, dt)
        down = _float_velocity_bound(-v0, -a0, v_max, jd, dt)
        # np.minimum and np.maximum return the second operand on a tie
        ceil = a0 + jd if a0 + jd < a_max else a_max
        floor = a0 - jd if a0 - jd > -a_max else -a_max
        if correct:
            if up <= ceil + LIMIT_EPS:
                up = _float_shifted_bound(v0, a0, up, v_max, a_max, jd, dt)
            if -down >= floor - LIMIT_EPS:
                down = _float_shifted_bound(-v0, -a0, down, v_max, a_max, jd, dt)
        h = ceil if ceil < up else up
        low = floor if floor > -down else -down
        if low - h > LIMIT_EPS:
            break
        if low > h:  # a thin range: brake at full jerk
            low = h = floor if up < ceil else ceil
        lo.append(low)
        hi.append(h)
    else:
        return lo, hi
    # a non-finite state or a boundary state: raise or re-evaluate there
    lo, hi = valid_accel_bounds(v, a, limits.v_max, limits.a_max, limits.j_max,
                                dt, correction_enabled=correct)
    return lo.tolist(), hi.tolist()


def clamp(x: float, lo: float, hi: float) -> float:
    """``np.minimum(np.maximum(x, lo), hi)`` of floats, bit for bit: a NaN
    operand propagates, and a tie returns the bound (numpy returns the
    second operand on a tie)."""
    x = x if x > lo or x != x else lo
    return x if x < hi or x != x else hi


def clip_action(raw, lo, hi) -> list:
    """Componentwise clamp of raw acceleration commands into [lo, hi], float
    sequences of one entry per joint: the same values, NaN and signed zeros
    included, as ``np.clip``."""
    return [clamp(x, low, high) for x, low, high in zip(raw, lo, hi)]


def integrate_step(p0, v0, a0, a1, dt):
    """Exact integral of one step of linearly interpolated acceleration.

    Takes float sequences of one entry per joint and returns the lists
    (p1, v1) at the end of the step.
    """
    v1 = [v + 0.5 * (a + b) * dt for v, a, b in zip(v0, a0, a1)]
    p1 = [p + v * dt + (2.0 * a + b) * dt * dt / 6.0
          for p, v, a, b in zip(p0, v0, a0, a1)]
    return p1, v1


@lru_cache(maxsize=16)
def _tick_powers(dt: float, substeps: int) -> list:
    """(tau, tau**2, tau**3) of every control tick of a step, as floats:
    numpy's powers, once per (dt, substeps)."""
    tau = np.arange(substeps + 1, dtype=float) * (dt / substeps)
    return list(zip(tau.tolist(), (tau**2).tolist(), (tau**3).tolist()))


def substep_profile(p0, v0, a0, a1, dt, substeps: int) -> np.ndarray:
    """Joint positions at every control tick of a step, (substeps + 1,
    n_joints): the step's start (tick 0) through its end (tick
    ``substeps``).

    Takes float sequences of one entry per joint.  Each position is the
    step's cubic p0 + v0*tau + (0.5*a0)*tau**2 + slope*tau**3/6, evaluated on
    floats in numpy's order on numpy's powers of tau (module docstring).
    """
    if substeps < 1:
        raise ConfigurationError("substeps must be >= 1")
    joints = [(p, v, 0.5 * a, (b - a) / dt) for p, v, a, b in zip(p0, v0, a0, a1)]
    return np.array([p + v * t + h * t2 + s * t3 / 6.0
                     for t, t2, t3 in _tick_powers(dt, substeps)
                     for p, v, h, s in joints]).reshape(substeps + 1, len(joints))
