"""The benchmark's tracer replaces program functions by name; every name it
hooks must exist where it looks it up, and be called as often as its step
clocks assume, or its spans and clocks would quietly measure something
else."""

import importlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from trajadapt import adaptation, cli, limits
from trajadapt.config import load_config
from trajadapt.trajectory import ReferenceTrajectory, generate_reference

from conftest import count_calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_hooked_name_exists_on_its_owner(tracing):
    sites = [(owner, attr) for _, owner, attr in tracing.SPAN_SITES]
    for clock in (tracing.ROLLOUT_CLOCK, tracing.CAMPAIGN_CLOCK):
        sites += clock[:2]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in sites if attr not in vars(owner)]
    assert sites
    assert not missing


def _arm_tracking_config(tmp_path):
    shutil.copy(CONFIGS / "chain_7dof.json", tmp_path)
    arm = json.loads((CONFIGS / "arm_dataset.json").read_text())
    arm["policy"] = {"kind": "tracking"}
    (tmp_path / "arm.json").write_text(json.dumps(arm))
    return load_config(tmp_path / "arm.json")


def test_rollout_calls_each_hooked_layer_once_per_step(monkeypatch, tmp_path):
    cfg = load_config(CONFIGS / "balance_demo.json")
    reference = ReferenceTrajectory(
        dt=cfg.step.dt, positions=np.tile(cfg.model.q_home, (41, 1)))
    per_step = ("build_observation", "valid_accel_range", "clip_action",
                "integrate_step", "substep_profile", "plate_motion")
    counts = count_calls(monkeypatch, adaptation, per_step + ("episode_metrics",))
    report, log = cli.run_episode(cfg, reference, 0)
    assert report.success and len(log) == report.total_steps == 40
    assert counts == {**dict.fromkeys(per_step, 40), "episode_metrics": 1}

    # an arm episode tracking a generated reference, without the environment
    # (the benchmark's ``arm`` workload)
    cfg = _arm_tracking_config(tmp_path)
    reference = generate_reference(cfg.model, cfg.limits, cfg.areas, cfg.pipeline,
                                   seed=[7, 0, 0], traj_id="t", split="test")
    counts.update(dict.fromkeys(counts, 0))
    report, log = cli.run_episode(cfg, reference, 0)
    steps = reference.n_steps - 1
    assert report.success and len(log) == steps
    assert counts == {**dict.fromkeys(per_step[:4], steps), "substep_profile": 0,
                      "plate_motion": 0, "episode_metrics": 1}


def test_campaign_computes_the_valid_range_once_per_step(monkeypatch):
    counts = count_calls(monkeypatch, adaptation, ("valid_accel_bounds",))
    adaptation.run_limit_campaign(episodes=20, steps=7, n_joints=3, dt=0.05, seed=0,
                                  correction_enabled=True)
    assert counts == {"valid_accel_bounds": 7}


def test_episodes_compute_the_valid_range_without_the_batch_kernel(monkeypatch, tmp_path):
    """Traced ``limits.valid_accel_bounds`` spans of the balance and arm
    workloads time only the single-state kernel's delegated rare cases."""
    counts = count_calls(monkeypatch, limits, ("valid_accel_bounds",))
    # the README balance episode
    cfg = load_config(CONFIGS / "balance_demo.json")
    reference = ReferenceTrajectory(
        dt=cfg.step.dt, positions=np.tile(cfg.model.q_home, (cfg.stationary_steps, 1)))
    report, _ = cli.run_episode(cfg, reference, 0)
    assert report.total_steps == 200
    # an arm episode tracking a generated reference
    cfg = _arm_tracking_config(tmp_path)
    reference = generate_reference(cfg.model, cfg.limits, cfg.areas, cfg.pipeline,
                                   seed=[7, 0, 0], traj_id="t", split="test")
    report, log = cli.run_episode(cfg, reference, 0)
    assert report.success and len(log) == reference.n_steps - 1
    assert counts == {"valid_accel_bounds": 0}

    # a boundary state (``limits`` "Boundary states") is the batch kernel's
    # to re-evaluate: one delegated call, which brakes at full jerk
    v0, a0, v_max, a_max, j_max = 2.4399993766775756, 0.012231000853947238, 2.44, 12.0, 120.0
    joints = limits.JointLimits(p_min=[-1.0] * 2, p_max=[1.0] * 2, v_max=[v_max] * 2,
                                a_max=[a_max] * 2, j_max=[j_max] * 2)
    lo, hi = limits.valid_accel_range(np.array([0.0, v0]), np.array([0.0, a0]), joints,
                                      limits.StepParams(dt=0.05))
    assert counts == {"valid_accel_bounds": 1}
    assert lo[1] == hi[1] == a0 - j_max * 0.05
