"""Command-line interface: generate / validate-limits / rollout / eval.

Exit codes: 0 success, 1 validation or violation failure, 2 configuration
error.  All commands are deterministic under a fixed config and seed; file
outputs use repr-precision floats so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import adaptation as ad
from . import environment as envm
from . import policy as pol
from . import trajectory as tr
from .config import RunConfig, load_config
from .errors import ConfigurationError, LimitConsistencyError, NonFiniteStateError
from .trajectory import load_dataset, save_dataset

LOG_SCHEMA_VERSION = 1


def build_policy(cfg: RunConfig, reference: tr.ReferenceTrajectory):
    """A fresh policy of the configured kind and arguments for an episode
    on ``reference``."""
    kind, args = cfg.policy_kind, cfg.policy_args
    if kind == "random":
        return pol.RandomPolicy(cfg.limits.n_joints)
    if kind == "greedy_max":
        return pol.GreedyMaxPolicy(cfg.limits.n_joints)
    if kind == "linear":
        return pol.LinearPolicy(**args)
    tracking = (cfg.layout, cfg.limits, cfg.step.dt)
    if kind == "tracking":
        return pol.TrackingPolicy(*tracking, **args)
    return pol.PDBalancePolicy(*tracking, cfg.model, cfg.geometry, cfg.task,
                               anchor_q=reference.positions[0], **args)


def _references_for_run(cfg: RunConfig):
    """The records of the configured ``dataset_file``, which must exist, hold
    at least 2 rows each and match the run's decision period and joint
    count; without one, a stationary reference."""
    path = cfg.dataset_file
    if path is not None:
        if not path.exists():
            raise ConfigurationError(f"dataset file {path} does not exist")
        refs = load_dataset(path)
        if not refs:
            raise ConfigurationError(f"dataset {path} is empty")
        for ref in refs:
            if ref.dt != cfg.step.dt or ref.n_joints != cfg.limits.n_joints:
                raise ConfigurationError(
                    f"dataset {path} record {ref.traj_id} has dt {ref.dt} s and "
                    f"{ref.n_joints} joints; the run needs dt {cfg.step.dt} s "
                    f"and {cfg.limits.n_joints} joints")
            if ref.n_steps < 2:
                raise ConfigurationError(
                    f"dataset {path} record {ref.traj_id} has {ref.n_steps} rows; "
                    "the run needs at least 2")
        return refs
    # stationary reference at the home posture (balancing demo default)
    rows = np.tile(np.asarray(cfg.model.q_home), (cfg.stationary_steps, 1))
    return [tr.ReferenceTrajectory(dt=cfg.step.dt, positions=rows,
                                   traj_id="stationary", split="test")]


def run_episode(cfg: RunConfig, reference, episode_idx: int):
    policy = build_policy(cfg, reference)
    env = None
    if cfg.use_environment:
        env = envm.BallPlateEnv(cfg.model, cfg.geometry, cfg.task, cfg.ball)
    seed = [int(cfg.seed), int(episode_idx)]
    return ad.rollout(reference, policy, cfg.limits, cfg.step, cfg.reward,
                      env=env, seed=seed)


def log_header(n_joints: int) -> str:
    """The ``StepLog`` field names in order, a per-joint field as one name
    per joint (``p0``, ``p1``, ...)."""
    cols = []
    for f in fields(ad.StepLog):
        if f.name in ad.JOINT_COLUMNS:
            cols += [f"{f.name}{j}" for j in range(n_joints)]
        else:
            cols.append(f.name)
    return ",".join(cols)


def write_step_log(path, log: ad.StepLog, n_joints: int) -> None:
    """The version line, ``log_header(n_joints)`` and one row per step."""
    columns = np.column_stack([getattr(log, f.name) for f in fields(log)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# trajadapt step log v{LOG_SCHEMA_VERSION}\n{log_header(n_joints)}\n")
        np.savetxt(fh, columns, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: RunConfig) -> int:
    if cfg.areas is None:
        raise ConfigurationError("generate needs a sampling section in the config")
    count = cfg.generate_count
    trajs, rejections = tr.generate_dataset(cfg.model, cfg.limits, cfg.areas,
                                            cfg.pipeline, count=count,
                                            seed=cfg.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = cfg.out_dir / "dataset.csv"
    save_dataset(dataset_path, trajs)

    manifest = {
        "seed": int(cfg.seed),
        "config_sha256": cfg.config_hash(),
        "requested": count,
        "generated": len(trajs),
        "train": sum(1 for t in trajs if t.split == "train"),
        "test": sum(1 for t in trajs if t.split == "test"),
        "dt_s": cfg.step.dt,
        "n_joints": cfg.limits.n_joints,
        "rejections": [{"index": i, "attempt": a, "reason": m}
                       for i, a, m in rejections],
    }
    manifest_path = cfg.out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"dataset: {dataset_path} ({len(trajs)}/{count} trajectories, "
          f"{manifest['train']} train / {manifest['test']} test)")
    print(f"manifest: {manifest_path}")
    if len(trajs) < count:
        print(f"generation fell short: {len(rejections)} rejections", file=sys.stderr)
        return 1
    return 0


def cmd_validate_limits(cfg: RunConfig) -> int:
    # the configured-limits campaign ignores the limit ranges
    v = cfg.validate
    campaigns = (
        ("randomized-limits", dict(v, seed=cfg.seed)),
        ("configured-limits", dict(v, episodes=min(v["episodes"], 1000),
                                   seed=cfg.seed + 1, fixed_limits=cfg.limits)),
    )

    passed = True
    for name, kwargs in campaigns:
        try:
            rep = ad.run_limit_campaign(
                n_joints=cfg.limits.n_joints, dt=cfg.step.dt,
                correction_enabled=cfg.step.correction_enabled, **kwargs)
        except LimitConsistencyError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            passed = False
            continue
        print(f"{name}: episodes={rep.episodes} steps={rep.steps} "
              f"joints={rep.n_joints} violations={rep.violations}")
        print(f"  max normalized |v|={rep.max_velocity_norm:.12f} "
              f"|a|={rep.max_accel_norm:.12f} |j|={rep.max_jerk_norm:.12f}")
        if rep.first_violation is not None:
            step, ep, joint = rep.first_violation
            print(f"  first violation: step={step} episode={ep} joint={joint}",
                  file=sys.stderr)
        passed = passed and rep.ok()
    if passed:
        print("limit validation: PASS")
        return 0
    print("limit validation: FAIL", file=sys.stderr)
    return 1


def _step_log_path(log_dir: Path, idx: int) -> Path:
    return log_dir / f"episode_{idx:04d}.csv"


def _episode(cfg: RunConfig, refs, log_dir, idx: int):
    """Run episode ``idx``; with a ``log_dir``, write its step log there."""
    reference = refs[idx % len(refs)]
    report, log = run_episode(cfg, reference, idx)
    if log_dir is not None:
        write_step_log(_step_log_path(log_dir, idx), log, cfg.limits.n_joints)
    return idx, reference.traj_id, asdict(report)


def _run_episodes(cfg: RunConfig, log_dir=None):
    """(index, trajectory id, metrics row) of ``cfg.episodes`` episodes, in
    order, on references loaded once; each step log goes to ``log_dir``."""
    episode = functools.partial(_episode, cfg, _references_for_run(cfg), log_dir)
    indices = range(cfg.episodes)
    if cfg.workers == 1:
        return [episode(i) for i in indices]
    with multiprocessing.Pool(cfg.workers) as pool:
        return pool.map(episode, indices)


def cmd_rollout(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for idx, traj_id, row in _run_episodes(cfg, cfg.out_dir):
        print(f"episode {idx:04d} [{traj_id}]: success={row['success']} "
              f"fraction={row['fraction']:.3f} -> {_step_log_path(cfg.out_dir, idx)}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    rows = [row for _, _, row in _run_episodes(cfg)]
    # an episode measures no error distance without an in_place task or steps
    errors = [r["error_distance_m"] for r in rows if r["error_distance_m"] is not None]
    error = float(np.mean(errors)) if errors else None
    summary = {
        "episodes": len(rows),
        "success_rate": float(np.mean([r["success"] for r in rows])),
        "trajectory_fraction": float(np.mean([r["fraction"] for r in rows])),
        "error_distance_m": error,
        "mean_norm_accel": float(np.mean([r["mean_norm_accel"] for r in rows])),
        "mean_norm_jerk": float(np.mean([r["mean_norm_jerk"] for r in rows])),
        "config_sha256": cfg.config_hash(),
        "seed": int(cfg.seed),
        "per_episode": rows,
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "metrics.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")

    table = (
        "Success rate | Trajectory fraction | Error distance | Acceleration | Jerk\n"
        f"{summary['success_rate'] * 100:11.1f}% | "
        f"{summary['trajectory_fraction'] * 100:18.1f}% | "
        f"{'n/a' if error is None else f'{error * 100:12.2f}cm':>14} | "
        f"{summary['mean_norm_accel'] * 100:11.1f}% | "
        f"{summary['mean_norm_jerk'] * 100:4.1f}%\n"
    )
    (cfg.out_dir / "metrics.txt").write_text(table)
    print(table, end="")
    print(f"metrics: {cfg.out_dir / 'metrics.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trajadapt",
        description="reference generation, limit validation, rollouts and "
                    "evaluation for bounded-jerk online trajectory adaptation")
    parser.add_argument("command",
                        choices=["generate", "validate-limits", "rollout", "eval"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "episodes": args.episodes,
                 "workers": args.workers, "out": args.out}
    try:
        cfg = load_config(args.config, **overrides)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "validate-limits":
            return cmd_validate_limits(cfg)
        if args.command == "rollout":
            return cmd_rollout(cfg)
        return cmd_eval(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (LimitConsistencyError, NonFiniteStateError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
