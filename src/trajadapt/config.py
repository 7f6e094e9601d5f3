"""Run configuration: one JSON file with units in the key names.

``load_config`` resolves and checks the whole file once, for every command,
and the commands in ``cli`` read only the typed ``RunConfig``.  Every run
value comes from a command-line flag if one is given, else from the file,
else from its one default.  ``SECTION_KEYS`` and ``POLICY_KEYS`` map each
key onto the argument it sets, so an absent key leaves that argument's
default, written only where the argument is declared; the keys mapped to
None, and the top-level keys, are resolved here with the fallbacks listed
in the README.  ``VALUE_KINDS`` gives the JSON value of every key that
does not take a number; a value of the wrong kind is a configuration error
naming its key.  Relative paths are taken from the config file's directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import environment as envm
from .adaptation import RewardWeights
from .errors import ConfigurationError, check_count
from .kinematics import ChainModel, load_chain
from .limits import JointLimits, StepParams, check_limit_regime
from .policy import BALANCE_MASK, LinearPolicy, ObservationLayout, balance_mask, check_gains
from .trajectory import PipelineConfig, SamplingAreas

# Every key of each config section, mapped to the argument it sets: of the
# section's constructor, of ``BallPlateEnv`` (``start_offset_xy_m``,
# ``randomize``) or of ``adaptation.run_limit_campaign`` (``validate``).
# Keys mapped to None are resolved by ``load_config`` itself.
SECTION_KEYS = {
    "step": {"dt_s": "dt", "control_dt_s": "control_dt",
             "correction_enabled": "correction_enabled"},
    "task": {"kind": "kind", "target_xy_m": "initial_position",
             "success_bound_m": "success_bound", "noise_std_m": "noise_std",
             "reward_exponent": "reward_exponent", "start_offset_xy_m": "start_offset"},
    "plate": {"half_x_m": "half_x", "half_y_m": "half_y"},
    "ball": {"radius_m": "radius", "rolling_friction": "rolling_friction",
             "radius_range_m": "radius_range", "friction_range": "friction_range",
             "randomize": "randomize"},
    "reward": {"accel_threshold_norm": "accel_threshold", "jerk_weight": "jerk_weight",
               "deviation_low_rad": "deviation_low",
               "deviation_high_rad": "deviation_high",
               "termination_rad": "termination", "future_positions": "n_future"},
    "sampling": {"boxes_m": "boxes", "height_band_m": "height_band"},
    "generate": {"count": None, "headroom": "headroom", "ik_samples": "ik_samples",
                 "grid": "grid", "test_fraction": "test_fraction",
                 "max_attempts": "max_attempts"},
    "validate": {"episodes": None, "steps": "steps", "v_max_range": "v_max_range",
                 "a_max_range": "a_max_range", "jerk_fill_range": "jerk_fill_range"},
}
TOP_LEVEL_KEYS = set(SECTION_KEYS) | {
    "chain_file", "policy", "seed", "episodes", "workers", "out_dir",
    "dataset_file", "use_environment", "stationary_steps"}

# The ``policy`` keys of each kind, mapped like ``SECTION_KEYS`` onto the
# kind's constructor; ``weights_file`` becomes the ``weights`` read from it.
POLICY_KEYS = {"random": {"kind": None}, "greedy_max": {"kind": None},
               "tracking": {"kind": None, "kp": "kp", "kd": "kd"},
               "pd_balance": {"kind": None, "mask": "mask", "ball_kp": "ball_kp",
                              "ball_kd": "ball_kd"},
               "linear": {"kind": None, "weights_file": None}}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON integer or a finite float (``json`` reads NaN and Infinity)."""
    return _is_integer(value) or isinstance(value, float) and math.isfinite(value)


def _is_list(value, length, item) -> bool:
    """A JSON list of ``length`` (any length if None) values, each ``item``."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(item(v) for v in value))


# What a value of each kind must be: (test, description for the message).
VALUE_CHECKS = {
    "number": (_is_number, "a number"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "text": (lambda v: isinstance(v, str), "a string"),
    "pair": (lambda v: _is_list(v, 2, _is_number), "a list of 2 numbers"),
    "band": (lambda v: v is None or _is_list(v, 2, _is_number),
             "a list of 2 numbers or null"),
    "indices": (lambda v: _is_list(v, None, _is_integer), "a list of integers"),
    "boxes": (lambda v: _is_list(v, None, lambda box: _is_list(
        box, 2, lambda corner: _is_list(corner, 3, _is_number))),
              "a list of [lo, hi] boxes with corners of 3 numbers"),
}
# The kind of every section, policy and top-level path or flag key that
# does not take a number; counts are further checked with ``check_count``.
VALUE_KINDS = {
    "correction_enabled": "flag", "randomize": "flag", "use_environment": "flag",
    "kind": "text", "weights_file": "text",
    "chain_file": "text", "out_dir": "text", "dataset_file": "text",
    "target_xy_m": "pair", "start_offset_xy_m": "pair", "radius_range_m": "pair",
    "friction_range": "pair", "height_band_m": "band", "v_max_range": "pair",
    "a_max_range": "pair", "jerk_fill_range": "pair",
    "mask": "indices", "boxes_m": "boxes",
}


def check_value(value, key: str, name: str) -> None:
    """Reject a ``value`` of config key ``key`` that is not of its kind in
    ``VALUE_KINDS`` (by default a number), naming it ``name``."""
    test, need = VALUE_CHECKS[VALUE_KINDS.get(key, "number")]
    if not test(value):
        raise ConfigurationError(f"{name} must be {need}, got {value!r}")


def check_keys(mapping: dict, known, where: str) -> None:
    """Reject keys of ``mapping`` outside ``known``, naming them."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(raw: dict, name: str, keys=None, where=None):
    """(section, keyword arguments) of config section ``name`` under
    ``keys``, by default its ``SECTION_KEYS``; JSON lists become tuples."""
    section = raw.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    keys = keys or SECTION_KEYS[name]
    check_keys(section, keys, where or f"config section {name!r}")
    for key, value in section.items():
        check_value(value, key, f"{name} {key}")
    return section, {keys[k]: tuple(v) if isinstance(v, list) else v
                     for k, v in section.items() if keys[k]}


def _check_ranges(validate: dict) -> None:
    """Each configured campaign range is [lo, hi] with 0 < lo <= hi; the
    jerk fraction also hi <= 1, the supported limit regime."""
    for key, top in (("v_max_range", math.inf), ("a_max_range", math.inf),
                     ("jerk_fill_range", 1.0)):
        if key in validate:
            lo, hi = validate[key]
            if not 0.0 < lo <= hi <= top:
                bound = "" if top == math.inf else f" <= {top:g}"
                raise ConfigurationError(f"validate {key} must satisfy 0 < lo <= hi{bound}, "
                                         f"got {list(validate[key])}")


def _policy(raw: dict, base: Path, layout: ObservationLayout, use_environment: bool):
    """(kind, constructor keyword arguments) of the ``policy`` section."""
    section = raw.get("policy") or {}
    kind = (section if isinstance(section, dict) else {}).get("kind", "tracking")
    if not isinstance(kind, str) or kind not in POLICY_KEYS:
        raise ConfigurationError(f"unknown policy kind {kind!r}")
    section, args = _section(raw, "policy", POLICY_KEYS[kind], f"{kind!r} policy")
    if kind == "pd_balance" and not use_environment:
        raise ConfigurationError(
            '"kind": "pd_balance" balances on ball feedback and cannot run '
            'with "use_environment": false')
    # the values the constructors check; tilt authority needs the reference
    check_gains(**args)
    if kind == "pd_balance":
        balance_mask(args.get("mask", BALANCE_MASK), layout.n_joints)
    if kind == "linear":
        if not section.get("weights_file"):
            raise ConfigurationError("linear policy needs a weights_file entry")
        path = base / section["weights_file"]
        expected = (layout.n_joints, layout.size + 1)
        try:
            args["weights"] = LinearPolicy.load(path).weights
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read linear policy weights {path} "
                                     f"(expected shape {expected}): {exc}") from exc
        if args["weights"].shape != expected:
            raise ConfigurationError(f"linear policy weights {path} have shape "
                                     f"{args['weights'].shape}, expected {expected}")
    return kind, args


@dataclass
class RunConfig:
    raw: dict
    model: ChainModel
    limits: JointLimits
    step: StepParams
    task: envm.TaskSpec
    geometry: envm.PlateGeometry
    ball: envm.BallParams
    env_args: dict          # further ``BallPlateEnv`` keyword arguments
    reward: RewardWeights
    layout: ObservationLayout
    policy_kind: str
    policy_args: dict       # keyword arguments of the kind's constructor
    areas: SamplingAreas | None
    pipeline: PipelineConfig
    generate_count: int
    validate: dict          # ``adaptation.run_limit_campaign`` keyword arguments
    seed: int
    episodes: int
    workers: int
    out_dir: Path
    dataset_file: Path | None
    use_environment: bool
    stationary_steps: int

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def load_config(path, seed=None, episodes=None, workers=None, out=None) -> RunConfig:
    """The run of config file ``path``; each keyword is a command-line flag
    that, when not None, takes the place of the config value."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    check_keys(raw, TOP_LEVEL_KEYS, f"config {path}")
    for key in ("chain_file", "out_dir", "dataset_file", "use_environment"):
        if key in raw:
            check_value(raw[key], key, key)
    base = path.parent

    if not raw.get("chain_file"):
        raise ConfigurationError("config needs a chain_file entry")
    model, limits = load_chain(base / raw["chain_file"])

    step = StepParams(**_section(raw, "step")[1])
    check_limit_regime(limits, step.dt)
    task_args = _section(raw, "task")[1]
    ball_args = _section(raw, "ball")[1]
    env_args = {"randomize": ball_args.pop("randomize", True)}
    if "start_offset" in task_args:
        env_args["start_offset"] = task_args.pop("start_offset")
    task = envm.TaskSpec(**task_args)
    reward = RewardWeights(**_section(raw, "reward")[1])
    use_environment = raw.get("use_environment", True)
    layout = ObservationLayout(limits.n_joints,
                               task.feedback_size if use_environment else 0,
                               reward.n_future)
    policy_kind, policy_args = _policy(raw, base, layout, use_environment)

    sampling_args = _section(raw, "sampling")[1]
    if sampling_args and "boxes" not in sampling_args:
        raise ConfigurationError("config section 'sampling' needs boxes_m")
    generate_raw, generate_args = _section(raw, "generate")

    seed = raw.get("seed", 0) if seed is None else seed
    validate_raw, validate = _section(raw, "validate")
    _check_ranges(validate)
    if episodes is None:
        episodes = raw.get("episodes", 10)
        validate["episodes"] = validate_raw.get("episodes", episodes)
    else:
        validate["episodes"] = episodes
    workers = raw.get("workers", 1) if workers is None else workers
    generate_count = generate_raw.get("count", episodes)
    stationary_steps = raw.get("stationary_steps", 201)
    for value, key, least in ((seed, "seed", 0), (episodes, "episodes", 1),
                              (workers, "workers", 1),
                              (generate_count, "generate count", 1),
                              (validate["episodes"], "validate episodes", 1),
                              (stationary_steps, "stationary_steps", 2)):
        check_count(value, key, least)
    if "steps" in validate:
        check_count(validate["steps"], "validate steps", 1)
    out = raw.get("out_dir", "out") if out is None else out

    dataset_file = raw.get("dataset_file")
    return RunConfig(
        raw=raw, model=model, limits=limits, step=step, task=task,
        geometry=envm.PlateGeometry(**_section(raw, "plate")[1]),
        ball=envm.BallParams(**ball_args), env_args=env_args, reward=reward,
        layout=layout, policy_kind=policy_kind, policy_args=policy_args,
        areas=SamplingAreas(**sampling_args) if sampling_args else None,
        pipeline=PipelineConfig(dt=step.dt, **generate_args),
        generate_count=generate_count,
        validate=validate, seed=seed, episodes=episodes, workers=workers,
        out_dir=base / out,
        dataset_file=None if dataset_file is None else base / dataset_file,
        use_environment=use_environment,
        stationary_steps=stationary_steps,
    )
