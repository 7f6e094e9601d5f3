"""Run configuration: a single JSON file with units in the key names.

Resolution order for the scalar overrides (seed, episodes, workers, output
directory): command-line flag, then TRAJADAPT_* environment variable, then
the config file value.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import environment as envm
from .adaptation import RewardWeights
from .errors import ConfigurationError
from .kinematics import ChainModel, load_chain
from .limits import JointLimits, StepParams, check_limit_regime
from .trajectory import PipelineConfig, SamplingAreas

ENV_PREFIX = "TRAJADAPT_"

# Every key of each config section, mapped to the constructor argument it
# sets (an absent key leaves that argument's default).  Keys mapped to None
# are read by ``load_config`` itself or by the commands in ``cli``.  The
# ``policy`` keys depend on the policy kind and are checked by ``cli``.
SECTION_KEYS = {
    "step": {"dt_s": "dt", "control_dt_s": "control_dt",
             "correction_enabled": "correction_enabled"},
    "task": {"kind": "kind", "target_xy_m": "initial_position",
             "success_bound_m": "success_bound", "noise_std_m": "noise_std",
             "reward_exponent": "reward_exponent", "start_offset_xy_m": None},
    "plate": {"half_x_m": "half_x", "half_y_m": "half_y"},
    "ball": {"radius_m": "radius", "rolling_friction": "rolling_friction",
             "radius_range_m": "radius_range", "friction_range": "friction_range",
             "randomize": None},
    "reward": {"accel_threshold_norm": "accel_threshold", "jerk_weight": "jerk_weight",
               "deviation_low_rad": "deviation_low",
               "deviation_high_rad": "deviation_high",
               "termination_rad": "termination", "future_positions": "n_future"},
    "sampling": dict.fromkeys(("boxes_m", "height_band_m")),
    "generate": {"count": None, "headroom": "headroom", "ik_samples": "ik_samples",
                 "grid": "grid", "test_fraction": "test_fraction",
                 "max_attempts": "max_attempts"},
    "validate": dict.fromkeys(("episodes", "steps", "v_max_range", "a_max_range",
                               "jerk_fill_range")),
}
TOP_LEVEL_KEYS = set(SECTION_KEYS) | {
    "chain_file", "policy", "seed", "episodes", "workers", "out_dir",
    "dataset_file", "use_environment", "stationary_steps"}


def check_keys(mapping: dict, known, where: str) -> None:
    """Reject keys of ``mapping`` outside ``known``, naming them."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(raw: dict, name: str):
    """(section, constructor keyword arguments) of config section ``name``;
    JSON lists become tuples."""
    section = raw.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    keys = SECTION_KEYS[name]
    check_keys(section, keys, f"config section {name!r}")
    return section, {keys[k]: tuple(v) if isinstance(v, list) else v
                     for k, v in section.items() if keys[k]}


def _env_override(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad value for {ENV_PREFIX}{name.upper()}: {raw!r}") from exc


@dataclass
class RunConfig:
    raw: dict
    base_dir: Path
    model: ChainModel
    limits: JointLimits
    step: StepParams
    task: envm.TaskSpec
    geometry: envm.PlateGeometry
    ball: envm.BallParams
    reward: RewardWeights
    areas: SamplingAreas | None
    pipeline: PipelineConfig
    policy_spec: dict
    seed: int
    episodes: int
    episodes_overridden: bool
    workers: int
    out_dir: Path
    out_overridden: bool
    dataset_file: Path | None
    use_environment: bool
    randomize_ball: bool
    start_offset: tuple
    validate: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def load_config(path, seed=None, episodes=None, workers=None, out=None) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    check_keys(raw, TOP_LEVEL_KEYS, f"config {path}")
    base = path.parent

    chain_file = raw.get("chain_file")
    if not chain_file:
        raise ConfigurationError("config needs a chain_file entry")
    chain_path = (base / chain_file).resolve() if not Path(chain_file).is_absolute() \
        else Path(chain_file)
    if not chain_path.exists():
        raise ConfigurationError(f"chain file {chain_path} does not exist")
    model, limits = load_chain(chain_path)

    step = StepParams(**_section(raw, "step")[1])
    check_limit_regime(limits, step.dt)
    task_raw, task_args = _section(raw, "task")
    task = envm.TaskSpec(**task_args)
    geometry = envm.PlateGeometry(**_section(raw, "plate")[1])
    ball_raw, ball_args = _section(raw, "ball")
    ball = envm.BallParams(**ball_args)
    reward = RewardWeights(**_section(raw, "reward")[1])
    pipeline = PipelineConfig(dt=step.dt, **_section(raw, "generate")[1])

    areas = None
    sampling_raw = _section(raw, "sampling")[0]
    if sampling_raw:
        band = sampling_raw.get("height_band_m")
        areas = SamplingAreas(
            boxes=tuple((b[0], b[1]) for b in sampling_raw["boxes_m"]),
            height_band=tuple(band) if band else None,
        )

    seed_val = seed if seed is not None else _env_override(
        "seed", int, raw.get("seed", 0))
    episodes_overridden = episodes is not None \
        or (ENV_PREFIX + "EPISODES") in os.environ
    episodes_val = episodes if episodes is not None else _env_override(
        "episodes", int, raw.get("episodes", 10))
    workers_val = workers if workers is not None else _env_override(
        "workers", int, raw.get("workers", 1))
    out_raw = out if out is not None else os.environ.get(ENV_PREFIX + "OUT")
    out_overridden = out_raw is not None
    out_val = Path(out_raw) if out_overridden else Path(raw.get("out_dir", "out"))
    if not out_val.is_absolute():
        out_val = base / out_val
    if episodes_val < 1:
        raise ConfigurationError("episodes must be >= 1")
    if workers_val < 1:
        raise ConfigurationError("workers must be >= 1")

    dataset_file = raw.get("dataset_file")
    if dataset_file is not None:
        dataset_file = Path(dataset_file)
        if not dataset_file.is_absolute():
            dataset_file = base / dataset_file

    return RunConfig(
        raw=raw, base_dir=base, model=model, limits=limits, step=step,
        task=task, geometry=geometry, ball=ball, reward=reward, areas=areas,
        pipeline=pipeline, policy_spec=raw.get("policy", {"kind": "tracking"}),
        seed=seed_val, episodes=episodes_val,
        episodes_overridden=episodes_overridden, workers=workers_val,
        out_dir=out_val, out_overridden=out_overridden,
        dataset_file=dataset_file,
        use_environment=raw.get("use_environment", True),
        randomize_ball=ball_raw.get("randomize", True),
        start_offset=tuple(task_raw.get("start_offset_xy_m", (0.0, 0.0))),
        validate=_section(raw, "validate")[0],
    )
