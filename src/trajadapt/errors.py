"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """A config value or file is inconsistent or out of its valid domain."""


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
