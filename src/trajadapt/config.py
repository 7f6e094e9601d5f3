"""Run configuration: one JSON file with units in the key names.

``load_config`` resolves and checks the whole file once, for every command,
and the commands in ``cli`` read only the typed ``RunConfig``.  Every run
value comes from a command-line flag if one is given, else from the file,
else from its one default.  The fields of the section dataclasses declare
each key with its JSON kind and domain (``errors.setting``); ``SECTION_KEYS``
and ``VALUE_KINDS`` are read from them, and only the ``validate`` and
``policy`` keys, ``generate.count`` and the top-level keys are written here.
An absent key leaves its argument's default, written only where the argument
is declared; keys mapped to None, and the top-level keys, are resolved here
with the fallbacks listed in the README.  Relative paths are taken from the
config file's directory.  The unknown-key and kind checks live in
``errors``, shared with ``kinematics.load_chain``, which reads the chain
file the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import environment as envm
from .adaptation import CAMPAIGN_COUNTS, RewardWeights
from .errors import (POSITIVE_RANGE, ConfigurationError, at_least, check_domain, check_keys,
                     check_value, read_object)
from .kinematics import ChainModel, load_chain
from .limits import JointLimits, StepParams, check_limit_regime
from .policy import BALANCE_MASK, LinearPolicy, ObservationLayout, balance_mask, check_gains
from .trajectory import PipelineConfig, SamplingAreas

# The dataclass of each config section; its fields declare the keys.
SECTION_CLASSES = {"step": StepParams, "task": envm.TaskSpec, "plate": envm.PlateGeometry,
                   "ball": envm.BallParams, "reward": RewardWeights,
                   "sampling": SamplingAreas, "generate": PipelineConfig}
# Every key of each config section, mapped to the argument it sets: of the
# section's dataclass or of ``adaptation.run_limit_campaign`` (``validate``).
# Keys mapped to None are resolved by ``load_config`` itself.
SECTION_KEYS = {name: {f.metadata["key"]: f.name for f in fields(cls) if f.metadata}
                for name, cls in SECTION_CLASSES.items()}
SECTION_KEYS["generate"]["count"] = None
SECTION_KEYS["validate"] = {"episodes": None, "steps": "steps", "v_max_range": "v_max_range",
                            "a_max_range": "a_max_range", "jerk_fill_range": "jerk_fill_range"}
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

# The kind of every key, named "<section> <key>" or, at the top level, by
# itself; a key not listed takes a number.
VALUE_KINDS = {f"{name} {f.metadata['key']}": f.metadata["kind"]
               for name, cls in SECTION_CLASSES.items() for f in fields(cls) if f.metadata}
VALUE_KINDS.update({
    "validate v_max_range": "pair", "validate a_max_range": "pair",
    "validate jerk_fill_range": "pair", "policy kind": "text", "policy weights_file": "text",
    "policy mask": "indices", "chain_file": "text", "out_dir": "text",
    "dataset_file": "text", "use_environment": "flag"})
# The domain of every count and campaign range that no field declares.
DOMAINS = {"seed": at_least(0), "episodes": at_least(1), "workers": at_least(1),
           "stationary_steps": at_least(2), "generate count": at_least(1),
           **CAMPAIGN_COUNTS,
           "validate v_max_range": POSITIVE_RANGE, "validate a_max_range": POSITIVE_RANGE,
           "validate jerk_fill_range": (lambda r: 0.0 < r[0] <= r[1] <= 1.0,
                                        "satisfy 0 < lo <= hi <= 1")}


def _section(raw: dict, name: str, keys=None, where=None):
    """(section, keyword arguments) of config section ``name`` under
    ``keys``, by default its ``SECTION_KEYS``; JSON lists become tuples."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    keys = keys or SECTION_KEYS[name]
    check_keys(section, keys, where or f"config section {name!r}")
    for key, value in section.items():
        check_value(value, f"{name} {key}", VALUE_KINDS.get(f"{name} {key}", "number"))
    return section, {keys[k]: tuple(v) if isinstance(v, list) else v
                     for k, v in section.items() if keys[k]}


def _policy(raw: dict, base: Path, layout: ObservationLayout, use_environment: bool):
    """(kind, constructor keyword arguments) of the ``policy`` section."""
    section = raw.get("policy", {})
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
        if not np.isfinite(args["weights"]).all():
            row, col = np.argwhere(~np.isfinite(args["weights"]))[0]
            raise ConfigurationError(f"linear policy weights {path} hold "
                                     f"{args['weights'][row, col]} at row {row}, column "
                                     f"{col} (from 0), not a finite number")
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
    raw = read_object(path, "config")
    check_keys(raw, TOP_LEVEL_KEYS, f"config {path}")
    for key in ("chain_file", "out_dir", "dataset_file", "use_environment"):
        if key in raw:
            check_value(raw[key], key, VALUE_KINDS[key])
    base = path.parent

    if not raw.get("chain_file"):
        raise ConfigurationError("config needs a chain_file entry")
    chain_path = base / raw["chain_file"]
    model, limits = load_chain(chain_path)

    step = StepParams(**_section(raw, "step")[1])
    try:
        check_limit_regime(limits, step.dt)
    except ConfigurationError as exc:
        raise ConfigurationError(f"chain file {chain_path} has limits outside the "
                                 f"supported regime: {exc}") from None
    use_environment = raw.get("use_environment", True)
    if use_environment and step.substeps < 2:
        # the finite-difference plate acceleration needs 3 control ticks
        raise ConfigurationError(
            "step control_dt_s must be at most dt_s / 2 with the environment, "
            f"got {step.control_dt} for dt_s {step.dt}")
    task = envm.TaskSpec(**_section(raw, "task")[1])
    geometry = envm.PlateGeometry(**_section(raw, "plate")[1])
    ball = envm.BallParams(**_section(raw, "ball")[1])
    envm.check_start(task, geometry, ball)
    reward = RewardWeights(**_section(raw, "reward")[1])
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
    if episodes is None:
        episodes = raw.get("episodes", 10)
        validate["episodes"] = validate_raw.get("episodes", episodes)
    else:
        validate["episodes"] = episodes
    workers = raw.get("workers", 1) if workers is None else workers
    generate_count = generate_raw.get("count", episodes)
    stationary_steps = raw.get("stationary_steps", 201)
    for name, value in {"seed": seed, "episodes": episodes, "workers": workers,
                        "generate count": generate_count, "stationary_steps": stationary_steps,
                        **{f"validate {key}": v for key, v in validate.items()}}.items():
        check_domain(value, name, DOMAINS[name])
    # a path typed on the command line is taken from the working directory
    out_dir = base / raw.get("out_dir", "out") if out is None else Path(out)

    dataset_file = raw.get("dataset_file")
    return RunConfig(
        raw=raw, model=model, limits=limits, step=step, task=task,
        geometry=geometry, ball=ball, reward=reward,
        layout=layout, policy_kind=policy_kind, policy_args=policy_args,
        areas=SamplingAreas(**sampling_args) if sampling_args else None,
        pipeline=PipelineConfig(dt=step.dt, **generate_args),
        generate_count=generate_count,
        validate=validate, seed=seed, episodes=episodes, workers=workers,
        out_dir=out_dir,
        dataset_file=None if dataset_file is None else base / dataset_file,
        use_environment=use_environment,
        stationary_steps=stationary_steps,
    )
