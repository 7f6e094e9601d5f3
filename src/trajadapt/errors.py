"""Exception types shared across the toolkit, and the declaration and the
domain check of a config value."""

import math
from dataclasses import MISSING, field, fields


class ConfigurationError(ValueError):
    """A config value or file is inconsistent or out of its valid domain."""


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON integer or a finite float (``json`` reads NaN and Infinity)."""
    return is_integer(value) or isinstance(value, float) and math.isfinite(value)


# Domains of config values: (test, what a value must do, for the message).
POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and > 0")
NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
BELOW_ONE = (lambda v: 0.0 <= v < 1.0, "be in [0, 1)")
POSITIVE_RANGE = (lambda r: 0.0 < r[0] <= r[1], "satisfy 0 < lo <= hi")


def at_least(least: int):
    """The domain of a count: an integer (a bool is not one) >= ``least``."""
    return (lambda v: is_integer(v) and v >= least, f"be an integer >= {least}")


def check_domain(value, name: str, domain) -> None:
    """Reject a ``value`` outside ``domain``, naming it ``name``."""
    test, need = domain
    if not test(value):
        shown = list(value) if isinstance(value, tuple) else value
        raise ConfigurationError(f"{name} must {need}, got {shown!r}")


def setting(key: str, default=MISSING, kind: str = "number", domain=None):
    """A dataclass field that config key ``key`` sets: a JSON value of
    ``kind`` (a ``config.VALUE_CHECKS`` name) within ``domain``, if any."""
    return field(default=default, metadata={"key": key, "kind": kind, "domain": domain})


def check_fields(obj, section: str) -> None:
    """Reject a ``setting`` field of dataclass ``obj`` outside its domain,
    naming it by its key in config section ``section``."""
    for f in fields(obj):
        if f.metadata.get("domain"):
            check_domain(getattr(obj, f.name), f"{section} {f.metadata['key']}",
                         f.metadata["domain"])


class LimitConsistencyError(RuntimeError):
    """The valid acceleration range collapsed (lo > hi) for some joint.

    Unreachable from states produced by this toolkit within the supported
    limit regime; indicates corrupted state or limits outside that regime.
    """

    def __init__(self, joint, lo, hi):
        self.joint = int(joint)
        self.lo = float(lo)
        self.hi = float(hi)
        super().__init__(
            f"empty acceleration range for joint {self.joint}: "
            f"lo={self.lo:.9g} > hi={self.hi:.9g}"
        )

    def __reduce__(self):
        # pickle by constructor arguments, so it survives a worker process
        return type(self), (self.joint, self.lo, self.hi)


class NonFiniteStateError(RuntimeError):
    """A joint state handed to the valid-range kernel has a NaN or infinite
    velocity or acceleration, so no range can be guaranteed for it."""


class IKConvergenceError(RuntimeError):
    """Inverse kinematics failed to reach the target within max iterations."""


class PathRejectedError(RuntimeError):
    """A Cartesian path could not be converted into a usable joint path."""
