"""Exception types shared across the toolkit, and the declaration and the
reading of a key in an input file: a run config or a chain file.  Every key
is declared once, by ``setting``, and every object of either file is read
by ``read_settings``."""

import json
import math
from dataclasses import MISSING, field, fields
from pathlib import Path


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


def _is_list(value, length, item) -> bool:
    """A JSON list of ``length`` (any length if None) values, each ``item``."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(item(v) for v in value))


# What a value of each kind must be: the domain of a JSON value.
VALUE_CHECKS = {
    "number": (is_number, "be a number"),
    "flag": (lambda v: isinstance(v, bool), "be true or false"),
    "text": (lambda v: isinstance(v, str), "be a string"),
    "pair": (lambda v: _is_list(v, 2, is_number), "be a list of 2 numbers"),
    "triple": (lambda v: _is_list(v, 3, is_number), "be a list of 3 numbers"),
    "numbers": (lambda v: _is_list(v, None, is_number), "be a list of numbers"),
    "band": (lambda v: v is None or _is_list(v, 2, is_number),
             "be a list of 2 numbers or null"),
    "indices": (lambda v: _is_list(v, None, is_integer), "be a list of integers"),
    "boxes": (lambda v: _is_list(v, None, lambda box: _is_list(
        box, 2, lambda corner: _is_list(corner, 3, is_number))),
              "be a list of [lo, hi] boxes with corners of 3 numbers"),
    "objects": (lambda v: _is_list(v, None, lambda item: isinstance(item, dict)),
                "be a list of objects"),
}


def check_domain(value, name: str, domain) -> None:
    """Reject a ``value`` outside ``domain``, naming it ``name``."""
    test, need = domain
    if not test(value):
        shown = list(value) if isinstance(value, tuple) else value
        raise ConfigurationError(f"{name} must {need}, got {shown!r}")


def read_object(path, what: str) -> dict:
    """The JSON object in file ``path``, which a message calls a ``what``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} {path} must be a JSON object")
    return raw


def setting(key: str, default=MISSING, kind: str | None = "number", domain=None):
    """The declaration of input-file key ``key``: a JSON value of ``kind``
    (a ``VALUE_CHECKS`` name) within ``domain``, if any, required unless it
    has a ``default``.  Kind None checks no JSON kind: a count's domain is
    its whole check, and a config section is read by its own declarations.
    On a dataclass field the key sets that field, whose default it is;
    free-standing it sets the keyword argument named ``key``, which keeps
    its own default, so ``default`` is None there."""
    return field(default=default, metadata={"key": key, "kind": kind, "domain": domain})


def read_settings(raw, declared, name: str, where: str | None = None) -> dict:
    """The keyword arguments that input-file object ``raw`` gives the
    ``setting`` declarations among ``declared``, by field name (a
    free-standing one's is its key); JSON lists become tuples.  ``raw``
    must be an object of declared keys that holds every required key, each
    value of its kind and in its domain.  A message calls a value
    "``name`` <key>" and the object ``where`` (by default ``name``)."""
    where = where or name
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be an object")
    declared = {f.metadata["key"]: f for f in declared if f.metadata}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = [key for key, f in declared.items() if f.default is MISSING and key not in raw]
    if missing:
        raise ConfigurationError(f"{where} is missing key(s): {', '.join(missing)}")
    args = {}
    for key, value in raw.items():
        f = declared[key]
        label = f"{name} {key}" if name else key
        if f.metadata["kind"]:
            check_domain(value, label, VALUE_CHECKS[f.metadata["kind"]])
        if f.metadata["domain"]:
            check_domain(value, label, f.metadata["domain"])
        args[f.name or key] = tuple(value) if isinstance(value, list) else value
    return args


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
