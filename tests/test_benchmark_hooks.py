"""The benchmark's tracer replaces program functions by name; every name it
hooks must exist where it looks it up, and be called as often as its step
clocks assume, or its spans and clocks would quietly measure something
else."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from trajadapt import adaptation, cli
from trajadapt.config import load_config
from trajadapt.trajectory import ReferenceTrajectory

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


def _count_calls(monkeypatch, owner, names):
    """Wrap ``owner.<name>`` for each name with a call counter."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_rollout_calls_each_hooked_layer_once_per_step(monkeypatch):
    cfg = load_config(CONFIGS / "balance_demo.json")
    reference = ReferenceTrajectory(
        dt=cfg.step.dt, positions=np.tile(cfg.model.q_home, (41, 1)))
    per_step = ("build_observation", "valid_accel_range", "clip_action",
                "integrate_step", "substep_profile", "plate_motion")
    counts = _count_calls(monkeypatch, adaptation, per_step + ("episode_metrics",))
    report, log = cli.run_episode(cfg, reference, 0)
    assert report.success and len(log) == report.total_steps == 40
    assert counts == {**dict.fromkeys(per_step, 40), "episode_metrics": 1}


def test_campaign_computes_the_valid_range_once_per_step(monkeypatch):
    counts = _count_calls(monkeypatch, adaptation, ("valid_accel_bounds",))
    adaptation.run_limit_campaign(episodes=20, steps=7, n_joints=3, dt=0.05, seed=0,
                                  correction_enabled=True)
    assert counts == {"valid_accel_bounds": 7}
