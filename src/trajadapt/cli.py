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
from pathlib import Path

import numpy as np

from . import adaptation as ad
from . import environment as envm
from . import policy as pol
from . import trajectory as tr
from .config import RunConfig, check_keys, load_config
from .errors import ConfigurationError, LimitConsistencyError, NonFiniteStateError
from .trajectory import load_dataset, save_dataset

LOG_SCHEMA_VERSION = 1


# The ``policy`` keys ``build_policy`` reads, per policy kind.
POLICY_KEYS = {"random": {"kind"}, "greedy_max": {"kind"},
               "tracking": {"kind", "kp", "kd"},
               "pd_balance": {"kind", "mask", "ball_kp", "ball_kd"},
               "linear": {"kind", "weights_file"}}


def build_policy(cfg: RunConfig, reference: tr.ReferenceTrajectory):
    spec = dict(cfg.policy_spec)
    kind = spec.get("kind", "tracking")
    n = cfg.limits.n_joints
    feedback_size = cfg.task.feedback_size if cfg.use_environment else 0
    layout = pol.ObservationLayout(n, feedback_size, cfg.reward.n_future)
    if kind == "random":
        return pol.RandomPolicy(n)
    if kind == "greedy_max":
        return pol.GreedyMaxPolicy(n)
    if kind == "tracking":
        return pol.TrackingPolicy(layout, cfg.limits, cfg.step.dt,
                                  kp=spec.get("kp", 60.0), kd=spec.get("kd", 14.0))
    if kind == "pd_balance":
        return pol.PDBalancePolicy(
            layout, cfg.limits, cfg.step.dt, cfg.model, cfg.geometry, cfg.task,
            anchor_q=reference.positions[0], mask=tuple(spec.get("mask", (-2, -1))),
            ball_kp=spec.get("ball_kp", 6.0), ball_kd=spec.get("ball_kd", 4.5))
    if kind == "linear":
        weights_file = spec.get("weights_file")
        if not weights_file:
            raise ConfigurationError("linear policy needs a weights_file entry")
        path = Path(weights_file)
        if not path.is_absolute():
            path = cfg.base_dir / path
        expected = (n, layout.size + 1)
        try:
            policy = pol.LinearPolicy.load(path)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read linear policy weights {path} "
                                     f"(expected shape {expected}): {exc}") from exc
        if policy.weights.shape != expected:
            raise ConfigurationError(f"linear policy weights {path} have shape "
                                     f"{policy.weights.shape}, expected {expected}")
        return policy
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def _references_for_run(cfg: RunConfig):
    """A configured ``dataset_file`` must exist; without one, the run uses
    ``<out_dir>/dataset.csv`` if present, else a stationary reference."""
    path = cfg.dataset_file
    if path is None and (cfg.out_dir / "dataset.csv").exists():
        path = cfg.out_dir / "dataset.csv"
    if path is not None:
        if not path.exists():
            raise ConfigurationError(f"dataset file {path} does not exist")
        refs = load_dataset(path)
        if not refs:
            raise ConfigurationError(f"dataset {path} is empty")
        return refs
    # stationary reference at the home posture (balancing demo default)
    steps = int(cfg.raw.get("stationary_steps", 201))
    rows = np.tile(np.asarray(cfg.model.q_home), (steps, 1))
    return [tr.ReferenceTrajectory(dt=cfg.step.dt, positions=rows,
                                   traj_id="stationary", split="test")]


def run_episode(cfg: RunConfig, reference, episode_idx: int):
    policy = build_policy(cfg, reference)
    env = None
    if cfg.use_environment:
        env = envm.BallPlateEnv(cfg.model, cfg.geometry, cfg.task, cfg.ball,
                                control_dt=cfg.step.control_dt,
                                randomize=cfg.randomize_ball,
                                start_offset=cfg.start_offset)
    seed = [int(cfg.seed), int(episode_idx)]
    return ad.rollout(reference, policy, cfg.limits, cfg.step, cfg.reward,
                      env=env, seed=seed)


def log_header(n_joints: int) -> str:
    cols = ["t_s"]
    for tag in ("p", "v", "a", "jerk", "raw", "act"):
        cols += [f"{tag}{j}" for j in range(n_joints)]
    cols += ["r_task", "p_accel", "p_jerk", "p_smooth", "p_deviation",
             "reward", "deviation_rad", "ball_x_m", "ball_y_m", "ball_on_plate"]
    return ",".join(cols)


def write_step_log(path, log: ad.StepLog, n_joints: int) -> None:
    """The version line, ``log_header(n_joints)`` and one row per step."""
    columns = np.column_stack((
        log.time, log.p, log.v, log.accel, log.jerk, log.raw, log.act,
        log.r_task, log.p_accel, log.p_jerk, log.p_smooth, log.p_deviation,
        log.reward, log.deviation, log.ball_x, log.ball_y, log.on_plate))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# trajadapt step log v{LOG_SCHEMA_VERSION}\n{log_header(n_joints)}\n")
        np.savetxt(fh, columns, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: RunConfig) -> int:
    if cfg.areas is None:
        raise ConfigurationError("generate needs a sampling section in the config")
    count = int((cfg.raw.get("generate") or {}).get("count", cfg.episodes))
    trajs, rejections = tr.generate_dataset(cfg.model, cfg.limits, cfg.areas,
                                            cfg.pipeline, count=count,
                                            seed=cfg.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.dataset_file is not None and not cfg.out_overridden:
        dataset_path = cfg.dataset_file
    else:
        dataset_path = cfg.out_dir / "dataset.csv"
    Path(dataset_path).parent.mkdir(parents=True, exist_ok=True)
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
    v = cfg.validate
    if cfg.episodes_overridden:
        episodes = cfg.episodes
    else:
        episodes = int(v.get("episodes", cfg.episodes))
    steps = int(v.get("steps", 200))
    campaigns = (
        ("randomized-limits", dict(
            episodes=episodes, n_joints=cfg.limits.n_joints, seed=cfg.seed,
            v_max_range=tuple(v.get("v_max_range", (0.5, 3.0))),
            a_max_range=tuple(v.get("a_max_range", (2.0, 15.0))),
            jerk_fill_range=tuple(v.get("jerk_fill_range", (0.3, 1.0))))),
        ("configured-limits", dict(
            episodes=min(episodes, 1000), seed=cfg.seed + 1,
            fixed_limits=cfg.limits)),
    )

    passed = True
    for name, kwargs in campaigns:
        try:
            rep = ad.run_limit_campaign(
                steps=steps, dt=cfg.step.dt,
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


def _episode(cfg: RunConfig, refs, idx: int):
    reference = refs[idx % len(refs)]
    report, log = run_episode(cfg, reference, idx)
    return idx, reference.traj_id, report.row(), log


def _run_episodes(cfg: RunConfig):
    """Results of ``cfg.episodes`` episodes, in order, on references loaded once."""
    spec = cfg.policy_spec
    kind = spec.get("kind", "tracking")
    if kind in POLICY_KEYS:  # build_policy reports an unknown kind
        check_keys(spec, POLICY_KEYS[kind], f"{kind!r} policy")
    episode = functools.partial(_episode, cfg, _references_for_run(cfg))
    indices = range(cfg.episodes)
    if cfg.workers == 1:
        return [episode(i) for i in indices]
    with multiprocessing.Pool(cfg.workers) as pool:
        return pool.map(episode, indices)


def cmd_rollout(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_episodes(cfg)
    n = cfg.limits.n_joints
    for idx, traj_id, row, log in results:
        path = cfg.out_dir / f"episode_{idx:04d}.csv"
        write_step_log(path, log, n)
        print(f"episode {idx:04d} [{traj_id}]: success={row['success']} "
              f"fraction={row['fraction']:.3f} -> {path}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    results = _run_episodes(cfg)
    rows = [row for _, _, row, _ in results]
    summary = {
        "episodes": len(rows),
        "success_rate": float(np.mean([r["success"] for r in rows])),
        "trajectory_fraction": float(np.mean([r["fraction"] for r in rows])),
        "error_distance_m": float(np.mean([r["error_distance_m"] for r in rows])),
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
        f"{summary['error_distance_m'] * 100:12.2f}cm | "
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
