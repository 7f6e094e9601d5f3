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

import numpy as np

from . import environment as envm
from .adaptation import RewardWeights
from .errors import ConfigurationError
from .kinematics import ChainModel, load_chain
from .limits import JointLimits, StepParams, check_limit_regime
from .trajectory import PipelineConfig, SamplingAreas

ENV_PREFIX = "TRAJADAPT_"


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
    base = path.parent

    chain_file = raw.get("chain_file")
    if not chain_file:
        raise ConfigurationError("config needs a chain_file entry")
    chain_path = (base / chain_file).resolve() if not Path(chain_file).is_absolute() \
        else Path(chain_file)
    if not chain_path.exists():
        raise ConfigurationError(f"chain file {chain_path} does not exist")
    model, limits = load_chain(chain_path)

    step_raw = raw.get("step", {})
    step = StepParams(dt=step_raw.get("dt_s", 0.05),
                      control_dt=step_raw.get("control_dt_s", 0.005),
                      correction_enabled=step_raw.get("correction_enabled", True))
    check_limit_regime(limits, step.dt)

    task_raw = raw.get("task", {})
    task = envm.TaskSpec(
        kind=task_raw.get("kind", "in_place"),
        initial_position=tuple(task_raw.get("target_xy_m", (0.0, 0.0))),
        success_bound=task_raw.get("success_bound_m", 0.06),
        noise_std=task_raw.get("noise_std_m", 0.001),
        reward_exponent=task_raw.get("reward_exponent", 2.0),
    )
    start_offset = tuple(task_raw.get("start_offset_xy_m", (0.0, 0.0)))

    plate_raw = raw.get("plate", {})
    geometry = envm.PlateGeometry(half_x=plate_raw.get("half_x_m", 0.17),
                                  half_y=plate_raw.get("half_y_m", 0.135))

    ball_raw = raw.get("ball", {})
    ball = envm.BallParams(
        radius=ball_raw.get("radius_m", 0.02),
        rolling_friction=ball_raw.get("rolling_friction", 0.005),
        radius_range=tuple(ball_raw.get("radius_range_m", (0.012, 0.030))),
        friction_range=tuple(ball_raw.get("friction_range", (0.001, 0.010))),
    )

    reward_raw = raw.get("reward", {})
    reward = RewardWeights(
        accel_threshold=reward_raw.get("accel_threshold_norm", 0.8),
        jerk_weight=reward_raw.get("jerk_weight", 4.0),
        deviation_low=reward_raw.get("deviation_low_rad", np.deg2rad(2.0)),
        deviation_high=reward_raw.get("deviation_high_rad", np.deg2rad(10.0)),
        termination=reward_raw.get("termination_rad", np.deg2rad(10.0)),
        n_future=reward_raw.get("future_positions", 1),
    )

    areas = None
    sampling_raw = raw.get("sampling")
    if sampling_raw:
        band = sampling_raw.get("height_band_m")
        areas = SamplingAreas(
            boxes=tuple((b[0], b[1]) for b in sampling_raw["boxes_m"]),
            height_band=tuple(band) if band else None,
        )

    gen_raw = raw.get("generate", {})
    pipeline = PipelineConfig(
        dt=step.dt,
        headroom=gen_raw.get("headroom", 0.05),
        ik_samples=gen_raw.get("ik_samples", 100),
        grid=gen_raw.get("grid", 600),
        test_fraction=gen_raw.get("test_fraction", 0.2),
        max_attempts=gen_raw.get("max_attempts", 5),
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
        start_offset=start_offset,
        validate=raw.get("validate", {}),
    )
