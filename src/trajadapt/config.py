"""Run configuration: one JSON file with units in the key names.

``load_config`` resolves and checks the whole file once, for every command,
and the commands in ``cli`` read only the typed ``RunConfig``.  Every run
value comes from a command-line flag if one is given, else from the file,
else from its one default.  Each key is declared once, by
``errors.setting``, with its JSON kind and domain: a top-level key on the
``RunConfig`` field it sets, with its default; a section key on the field
of the section's dataclass that it sets, or, when it sets a keyword
argument, next to the function (``validate``:
``adaptation.CAMPAIGN_SETTINGS``; ``generate`` ``count``:
``trajectory.DATASET_SETTINGS``) or on the class of its policy kind
(``SETTINGS``).  ``errors.read_settings`` reads every object of the file
by these declarations, as it reads the chain file for
``kinematics.load_chain``.  An absent key leaves its argument's default,
written only where the argument is declared.  Relative paths are taken
from the config file's directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import environment as envm
from .adaptation import CAMPAIGN_SETTINGS, RewardWeights
from .errors import ConfigurationError, at_least, read_object, read_settings, setting
from .kinematics import ChainModel, load_chain
from .limits import JointLimits, StepParams, check_limit_regime
from .policy import (BALANCE_MASK, GreedyMaxPolicy, LinearPolicy, ObservationLayout,
                     PDBalancePolicy, RandomPolicy, TrackingPolicy, balance_mask)
from .trajectory import DATASET_SETTINGS, PipelineConfig, SamplingAreas

# The policy kinds by name.  The ``SETTINGS`` of each class declare the keys
# of its ``policy`` section besides ``kind``: keyword arguments of its
# constructor, and the ``weights_file`` that ``linear`` reads its weights from.
POLICY_CLASSES = {"random": RandomPolicy, "greedy_max": GreedyMaxPolicy,
                  "tracking": TrackingPolicy, "pd_balance": PDBalancePolicy,
                  "linear": LinearPolicy}
POLICY_KIND = setting("kind", "tracking", "text")


def _policy(raw: dict, base: Path, layout: ObservationLayout, use_environment: bool):
    """(kind, constructor keyword arguments) of the ``policy`` section."""
    section = raw.get("policy", {})
    if not isinstance(section, dict):
        raise ConfigurationError("config section 'policy' must be an object")
    kind = section.get("kind", POLICY_KIND.default)
    if not isinstance(kind, str) or kind not in POLICY_CLASSES:
        raise ConfigurationError(f"unknown policy kind {kind!r}")
    args = read_settings(section, (POLICY_KIND, *POLICY_CLASSES[kind].SETTINGS), "policy",
                         f"{kind!r} policy")
    args.pop("kind", None)
    if kind == "pd_balance" and not use_environment:
        raise ConfigurationError(
            '"kind": "pd_balance" balances on ball feedback and cannot run '
            'with "use_environment": false')
    # the mask the constructor checks; its tilt authority needs the reference
    if kind == "pd_balance":
        balance_mask(args.get("mask", BALANCE_MASK), layout.n_joints)
    if kind == "linear":
        if not args.get("weights_file"):
            raise ConfigurationError("linear policy needs a weights_file entry")
        path = base / args.pop("weights_file")
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


@dataclass(kw_only=True)
class RunConfig:
    """A run, resolved from its config file by ``load_config``.  A
    ``setting`` field declares the top-level key that sets it, with the
    value an absent key takes; a section's (kind None) keys are declared
    by its own object."""

    raw: dict
    chain_file: Path = setting("chain_file", None, "text")
    model: ChainModel
    limits: JointLimits
    step: StepParams = setting("step", None, kind=None)
    task: envm.TaskSpec = setting("task", None, kind=None)
    geometry: envm.PlateGeometry = setting("plate", None, kind=None)
    ball: envm.BallParams = setting("ball", None, kind=None)
    reward: RewardWeights = setting("reward", None, kind=None)
    layout: ObservationLayout
    policy_kind: str = setting("policy", None, kind=None)
    policy_args: dict       # keyword arguments of the kind's constructor
    areas: SamplingAreas | None = setting("sampling", None, kind=None)
    pipeline: PipelineConfig = setting("generate", None, kind=None)
    generate_count: int
    # ``adaptation.run_limit_campaign`` keyword arguments
    validate: dict = setting("validate", None, kind=None)
    seed: int = setting("seed", 0, kind=None, domain=at_least(0))
    episodes: int = setting("episodes", 10, kind=None, domain=at_least(1))
    workers: int = setting("workers", 1, kind=None, domain=at_least(1))
    out_dir: Path = setting("out_dir", "out", "text")
    dataset_file: Path | None = setting("dataset_file", None, "text")
    use_environment: bool = setting("use_environment", True, "flag")
    stationary_steps: int = setting("stationary_steps", 201, kind=None, domain=at_least(2))

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def load_config(path, seed=None, episodes=None, workers=None, out=None) -> RunConfig:
    """The run of config file ``path``; each keyword is a command-line flag
    that, when not None, takes the place of the config value (``episodes``
    also of ``validate`` ``episodes``).  Every value is checked: the file's
    as the file is read, and a flag as the value it replaces."""
    path = Path(path)
    raw = read_object(path, "config")
    flags = {key: value for key, value in (("seed", seed), ("episodes", episodes),
                                           ("workers", workers)) if value is not None}
    top = {f.name: f.default for f in fields(RunConfig) if f.metadata}
    for values in (raw, flags):
        top.update(read_settings(values, fields(RunConfig), "", f"config {path}"))
    base = path.parent

    def section(name: str, declared) -> dict:
        return read_settings(raw.get(name, {}), declared, name, f"config section {name!r}")

    if not top["chain_file"]:
        raise ConfigurationError("config needs a chain_file entry")
    chain_file = base / top["chain_file"]
    model, limits = load_chain(chain_file)

    step = StepParams(**section("step", fields(StepParams)))
    try:
        check_limit_regime(limits, step.dt)
    except ConfigurationError as exc:
        raise ConfigurationError(f"chain file {chain_file} has limits outside the "
                                 f"supported regime: {exc}") from None
    use_environment = top["use_environment"]
    if use_environment and step.substeps < 2:
        # the finite-difference plate acceleration needs 3 control ticks
        raise ConfigurationError(
            "step control_dt_s must be at most dt_s / 2 with the environment, "
            f"got {step.control_dt} for dt_s {step.dt}")
    task = envm.TaskSpec(**section("task", fields(envm.TaskSpec)))
    geometry = envm.PlateGeometry(**section("plate", fields(envm.PlateGeometry)))
    ball = envm.BallParams(**section("ball", fields(envm.BallParams)))
    envm.check_start(task, geometry, ball)
    reward = RewardWeights(**section("reward", fields(RewardWeights)))
    layout = ObservationLayout(limits.n_joints,
                               task.feedback_size if use_environment else 0,
                               reward.n_future)
    policy_kind, policy_args = _policy(raw, base, layout, use_environment)

    # an empty sampling section is none
    areas = None if raw.get("sampling", {}) == {} else SamplingAreas(
        **section("sampling", fields(SamplingAreas)))
    generate = section("generate", fields(PipelineConfig) + DATASET_SETTINGS)
    generate_count = generate.pop("count", top["episodes"])
    validate = section("validate", CAMPAIGN_SETTINGS)
    if episodes is not None or "episodes" not in validate:
        validate["episodes"] = top["episodes"]
    # a path typed on the command line is taken from the working directory
    out_dir = base / top["out_dir"] if out is None else Path(out)
    dataset_file = None if top["dataset_file"] is None else base / top["dataset_file"]
    return RunConfig(
        raw=raw, chain_file=chain_file, model=model, limits=limits, step=step, task=task,
        geometry=geometry, ball=ball, reward=reward, layout=layout, policy_kind=policy_kind,
        policy_args=policy_args, areas=areas, pipeline=PipelineConfig(dt=step.dt, **generate),
        generate_count=generate_count, validate=validate, seed=top["seed"],
        episodes=top["episodes"], workers=top["workers"], out_dir=out_dir,
        dataset_file=dataset_file, use_environment=use_environment,
        stationary_steps=top["stationary_steps"])
