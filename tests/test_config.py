"""The run-config schema: each key lands on the object or call it sets."""

import inspect
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from trajadapt import adaptation as ad
from trajadapt import cli, config
from trajadapt import environment as envm
from trajadapt import policy as pol
from trajadapt.adaptation import RewardWeights
from trajadapt.config import RunConfig, load_config
from trajadapt.kinematics import ChainModel, JointRow
from trajadapt.limits import JointLimits, StepParams
from trajadapt.trajectory import (DATASET_SETTINGS, PipelineConfig, ReferenceTrajectory,
                                  SamplingAreas)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _keys(declared):
    """Each key among the ``setting`` declarations ``declared``, mapped to
    the field or keyword argument it sets."""
    return {f.metadata["key"]: f.name or f.metadata["key"] for f in declared if f.metadata}


# The keys each config section declares, and each policy kind.
SECTION_KEYS = {name: _keys(declared) for name, declared in {
    "step": fields(StepParams), "task": fields(envm.TaskSpec),
    "plate": fields(envm.PlateGeometry), "ball": fields(envm.BallParams),
    "reward": fields(RewardWeights), "sampling": fields(SamplingAreas),
    "generate": fields(PipelineConfig) + DATASET_SETTINGS,
    "validate": ad.CAMPAIGN_SETTINGS}.items()}
POLICY_KEYS = {kind: _keys((config.POLICY_KIND, *cls.SETTINGS))
               for kind, cls in config.POLICY_CLASSES.items()}

# A value for every key of SECTION_KEYS, none of them its default.
SECTIONS = {
    "step": {"dt_s": 0.04, "control_dt_s": 0.004, "correction_enabled": False},
    "task": {"kind": "on_plate", "target_xy_m": [0.01, -0.02], "success_bound_m": 0.05,
             "noise_std_m": 0.002, "reward_exponent": 3.0,
             "start_offset_xy_m": [0.03, 0.01]},
    "plate": {"half_x_m": 0.2, "half_y_m": 0.15},
    "ball": {"radius_range_m": [0.015, 0.028], "friction_range": [0.002, 0.008]},
    "reward": {"accel_threshold_norm": 0.7, "jerk_weight": 3.0,
               "deviation_low_rad": 0.03, "deviation_high_rad": 0.2,
               "termination_rad": 0.25, "future_positions": 2},
    "sampling": {"boxes_m": [[[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]],
                             [[0.3, 0.3, 0.3], [0.4, 0.4, 0.4]]],
                 "height_band_m": [0.1, 0.2]},
    "generate": {"count": 3, "headroom": 0.1, "ik_samples": 50, "grid": 300,
                 "test_fraction": 0.5, "max_attempts": 2},
    "validate": {"episodes": 7, "steps": 9, "v_max_range": [1.0, 2.0],
                 "a_max_range": [3.0, 4.0], "jerk_fill_range": [0.5, 0.6]},
}

# The observation of SECTIONS: 3 * 2 joints, 4 on_plate feedback values and
# 2 future rows of 2, plus the bias column.
WEIGHTS = np.arange(2 * 15, dtype=float).reshape(2, 15) / 100.0
# A value for every key of each policy kind, none of them its default; the
# gimbal's default mask (-2, -1) selects joints [0, 1].
POLICIES = {
    "random": {},
    "greedy_max": {},
    "tracking": {"kp": 50.0, "kd": 12.0},
    "pd_balance": {"mask": [1, 0], "ball_kp": 5.0, "ball_kd": 3.5},
    "linear": {"weights_file": "weights.txt"},
}
POLICY_CLASSES = {"random": pol.RandomPolicy, "greedy_max": pol.GreedyMaxPolicy,
                  "tracking": pol.TrackingPolicy, "pd_balance": pol.PDBalancePolicy,
                  "linear": pol.LinearPolicy}


def _write_config(tmp_path, policy, sections=SECTIONS):
    shutil.copy(CONFIG_DIR / "chain_gimbal.json", tmp_path / "chain_gimbal.json")
    np.savetxt(tmp_path / "weights.txt", WEIGHTS)
    raw = {"chain_file": "chain_gimbal.json", "policy": policy, "episodes": 4,
           "out_dir": "out", **sections}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


def _assert_lands(got, value, default):
    assert np.array_equal(np.asarray(got), np.asarray(value)), (got, value)
    assert not np.array_equal(np.asarray(default), np.asarray(value)), (default, value)


def test_every_section_key_lands_on_its_object(tmp_path, monkeypatch):
    assert {name: set(keys) for name, keys in SECTIONS.items()} \
        == {name: set(keys) for name, keys in SECTION_KEYS.items()}
    cfg = load_config(_write_config(tmp_path, {"kind": "random"}))
    landed = {"step": (cfg.step, StepParams()), "task": (cfg.task, envm.TaskSpec()),
              "plate": (cfg.geometry, envm.PlateGeometry()),
              "ball": (cfg.ball, envm.BallParams()),
              "reward": (cfg.reward, RewardWeights()),
              "generate": (cfg.pipeline, PipelineConfig(dt=0.05))}
    for name, (obj, default) in landed.items():
        for key, arg in SECTION_KEYS[name].items():
            if hasattr(obj, arg):
                _assert_lands(getattr(obj, arg), SECTIONS[name][key], getattr(default, arg))
    # sampling and the generate count
    for (lo, hi), box in zip(cfg.areas.boxes, SECTIONS["sampling"]["boxes_m"]):
        np.testing.assert_array_equal([lo, hi], box)
    assert cfg.areas.height_band == (0.1, 0.2)
    assert cfg.generate_count == 3 != cfg.episodes
    # validate: the keyword arguments of both campaigns
    campaign_defaults = _defaults(ad.run_limit_campaign)
    calls = []
    monkeypatch.setattr(ad, "run_limit_campaign",
                        lambda **kwargs: calls.append(kwargs) or ad.CampaignReport(
                            kwargs["episodes"], kwargs["steps"], 2, 0, 0.0, 0.0, 0.0))
    assert cli.cmd_validate_limits(cfg) == 0
    assert len(calls) == 2
    for kwargs in calls:
        assert kwargs["episodes"] == 7 and kwargs["dt"] == 0.04
        assert kwargs["correction_enabled"] is False
        for key in ("steps", "v_max_range", "a_max_range", "jerk_fill_range"):
            _assert_lands(kwargs[key], SECTIONS["validate"][key], campaign_defaults[key])


@pytest.mark.parametrize("kind", sorted(POLICY_KEYS))
def test_every_policy_key_lands_on_its_policy(tmp_path, kind):
    assert set(POLICIES) == set(POLICY_KEYS)
    assert set(POLICIES[kind]) | {"kind"} == set(POLICY_KEYS[kind])
    cfg = load_config(_write_config(tmp_path, {"kind": kind, **POLICIES[kind]}))
    policy = cli.build_policy(cfg, ReferenceTrajectory(dt=0.04, positions=np.zeros((5, 2))))
    assert type(policy) is POLICY_CLASSES[kind]
    defaults = _defaults(POLICY_CLASSES[kind])
    for key, value in POLICIES[kind].items():
        if key == "mask":
            assert policy.mask == [1, 0] != [int(i) % 2 for i in defaults["mask"]]
        elif key == "weights_file":
            np.testing.assert_array_equal(policy.weights, WEIGHTS)
        else:
            _assert_lands(getattr(policy, key), value, defaults[key])


def test_default_policy_kind_is_tracking(tmp_path):
    cfg = load_config(_write_config(tmp_path, {}))
    assert cfg.policy_kind == "tracking" and cfg.policy_args == {}


# Values the loader rejects: (change to SECTIONS or the top level, command-line
# flags, the "<section> <key>" or top-level key the message starts with).
# The first ones used to load, then ended in a traceback, ran with a
# truncated, misread or meaningless value (negative ball radii, a task reward
# of 0 everywhere), or (the headroom) asked numpy for a huge array when
# generating; the rest give every declared key a value outside its domain,
# or of the wrong JSON kind where the key has no domain.
BAD_VALUES = [
    ({"stationary_steps": 0}, {}, "stationary_steps"),
    ({"stationary_steps": -5}, {}, "stationary_steps"),
    ({"stationary_steps": 20.5}, {}, "stationary_steps"),
    ({"reward": {"future_positions": 1.5}}, {}, "reward future_positions"),
    ({"reward": {"future_positions": True}}, {}, "reward future_positions"),
    ({"seed": -1}, {}, "seed"),
    ({}, {"seed": -1}, "seed"),
    ({"episodes": 2.5}, {}, "episodes"),
    ({"workers": 1.5}, {}, "workers"),
    ({"generate": {"count": -3}}, {}, "generate count"),
    ({"generate": {"grid": 1}}, {}, "generate grid"),
    ({"generate": {"ik_samples": 1}}, {}, "generate ik_samples"),
    ({"generate": {"max_attempts": 0}}, {}, "generate max_attempts"),
    ({"generate": {"test_fraction": 2.0}}, {}, "generate test_fraction"),
    ({"generate": {"headroom": 1.5}}, {}, "generate headroom"),
    ({"validate": {"steps": 2.5}}, {}, "validate steps"),
    ({"validate": {"episodes": 0}}, {}, "validate episodes"),
    ({"use_environment": "no"}, {}, "use_environment"),
    ({"ball": {"radius_range_m": [-0.01, 0.03]}}, {}, "ball radius_range_m"),
    ({"ball": {"friction_range": [-0.05, -0.01]}}, {}, "ball friction_range"),
    ({"task": {"reward_exponent": 0}}, {}, "task reward_exponent"),
    ({"task": {"reward_exponent": -1, "start_offset_xy_m": [0, 0]}}, {},
     "task reward_exponent"),
    ({"step": {"control_dt_s": 0.04}}, {}, "step control_dt_s"),
    ({"step": {"dt_s": 0}}, {}, "step dt_s"),
    ({"step": {"dt_s": 0.05, "control_dt_s": 0.03}}, {}, "step control_dt_s"),
    ({"step": {"control_dt_s": -0.004}}, {}, "step control_dt_s"),
    ({"step": {"correction_enabled": 1}}, {}, "step correction_enabled"),
    ({"task": {"kind": "ring"}}, {}, "task kind"),
    ({"task": {"target_xy_m": [0.01]}}, {}, "task target_xy_m"),
    ({"task": {"success_bound_m": 0}}, {}, "task success_bound_m"),
    ({"task": {"noise_std_m": -0.001}}, {}, "task noise_std_m"),
    ({"task": {"start_offset_xy_m": "0.03"}}, {}, "task start_offset_xy_m"),
    ({"plate": {"half_x_m": 0}}, {}, "plate half_x_m"),
    ({"plate": {"half_y_m": -0.15}}, {}, "plate half_y_m"),
    ({"reward": {"accel_threshold_norm": 1.0}}, {}, "reward accel_threshold_norm"),
    ({"reward": {"jerk_weight": 0}}, {}, "reward jerk_weight"),
    ({"reward": {"deviation_low_rad": "0.03"}}, {}, "reward deviation_low_rad"),
    ({"reward": {"deviation_low_rad": -0.01}}, {}, "reward deviation_low_rad"),
    ({"reward": {"deviation_high_rad": None}}, {}, "reward deviation_high_rad"),
    ({"reward": {"termination_rad": [0.25]}}, {}, "reward termination_rad"),
    ({"sampling": {"boxes_m": [[[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]]}}, {}, "sampling boxes_m"),
    ({"sampling": {"height_band_m": [0.2, 0.1]}}, {}, "sampling height_band_m"),
    ({"validate": {"v_max_range": [2.0, 1.0]}}, {}, "validate v_max_range"),
    ({"validate": {"a_max_range": [0.0, 4.0]}}, {}, "validate a_max_range"),
    ({"validate": {"jerk_fill_range": [0.5, 1.5]}}, {}, "validate jerk_fill_range"),
    ({"chain_file": 5}, {}, "chain_file"),
    ({"out_dir": 5}, {}, "out_dir"),
    ({"dataset_file": 5}, {}, "dataset_file"),
    ({"policy": {"kind": "tracking", "kp": -1.0}}, {}, "policy kp"),
    ({"policy": {"kind": "tracking", "kd": 0.0}}, {}, "policy kd"),
    ({"policy": {"kind": "pd_balance", "ball_kp": -0.5}}, {}, "policy ball_kp"),
    ({"policy": {"kind": "pd_balance", "mask": [0, 1], "ball_kd": -0.5}}, {},
     "policy ball_kd"),
    ({"policy": {"kind": "pd_balance", "mask": [0.5, 1]}}, {}, "policy mask"),
    ({"policy": {"kind": "linear", "weights_file": 5}}, {}, "policy weights_file"),
]


def test_bad_values_cover_every_declared_key():
    # every top-level key but a section (its own object declares its keys),
    # every section key, and every policy kind's key but the kind, which is
    # checked before them and has its own tests
    declared = {f.metadata["key"] for f in fields(RunConfig)
                if f.metadata and (f.metadata["kind"] or f.metadata["domain"])}
    declared |= {f"{name} {key}" for name, keys in SECTION_KEYS.items() for key in keys}
    declared |= {f"policy {key}" for keys in POLICY_KEYS.values() for key in keys
                 if key != "kind"}
    assert {key for _, _, key in BAD_VALUES} >= declared


@pytest.mark.parametrize("change, flags, key", BAD_VALUES,
                         ids=[json.dumps(c or {"load_config": f}) for c, f, _ in BAD_VALUES])
def test_bad_count_or_fraction_is_configuration_error(tmp_path, capsys, change, flags, key):
    sections = {**SECTIONS, **{name: {**SECTIONS[name], **value} if name in SECTIONS
                               else value for name, value in change.items()}}
    path = _write_config(tmp_path, {"kind": "random"}, sections)
    argv = [arg for flag, value in flags.items() for arg in (f"--{flag}", str(value))]
    assert cli.main(["validate-limits", "--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    section, _, name = key.partition(" ")
    value = flags[key] if key in flags else change[section][name] if name else change[key]
    assert err.startswith(f"configuration error: {key} must "), err
    assert f"got {value!r}" in err, err


def _stock_config(tmp_path, name, chain, change):
    """A copy of ``configs/<name>`` and its chain in ``tmp_path``, writing
    under ``tmp_path/out``, with ``change`` merged into its sections."""
    shutil.copy(CONFIG_DIR / chain, tmp_path / chain)
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw["out_dir"] = "out"
    raw.pop("dataset_file", None)
    for key, value in change.items():
        raw[key] = {**raw[key], **value} if isinstance(raw.get(key), dict) else value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# Values of the wrong JSON kind on the balancing config: (change, the name
# the message gives).  Each used to end in a traceback or to load: a string
# flag with the feature on, an infinite bound as given.
WRONG_KINDS = [
    ({"reward": {"jerk_weight": "4"}}, "reward jerk_weight must be a number"),
    ({"step": {"dt_s": "0.05"}}, "step dt_s must be a number"),
    ({"plate": {"half_x_m": None}}, "plate half_x_m must be a number"),
    ({"task": {"noise_std_m": "0"}}, "task noise_std_m must be a number"),
    ({"task": {"success_bound_m": float("inf")}}, "task success_bound_m must be a number"),
    ({"step": {"correction_enabled": "no"}}, "step correction_enabled must be true or false"),
    ({"chain_file": 5}, "chain_file must be a string"),
    ({"out_dir": 5}, "out_dir must be a string"),
    ({"dataset_file": 5}, "dataset_file must be a string"),
]


@pytest.mark.parametrize("change, message", WRONG_KINDS,
                         ids=[json.dumps(c) for c, _ in WRONG_KINDS])
def test_value_of_wrong_kind_is_configuration_error(tmp_path, capsys, change, message):
    path = _stock_config(tmp_path, "balance_demo.json", "chain_gimbal.json", change)
    assert cli.main(["eval", "--config", str(path), "--episodes", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}, got ")


def _break_chain(tmp_path, edit):
    path = tmp_path / "chain_7dof.json"
    path.write_text(edit(path.read_text()))


# Bad chain files and campaign ranges for validate-limits on the arm config:
# (config change, chain file edit, what the message names).  Each used to
# end in a traceback, to load (a limit given as a string or a bool), or (the
# jerk fraction above 1) to draw limits outside the supported regime and pass.
BAD_CAMPAIGN_INPUTS = {
    "chain-not-json": ({}, lambda text: text[:-20], "cannot read chain file"),
    "chain-not-object": ({}, lambda text: f"[{text}]", "chain_7dof.json must be a JSON object\n"),
    "chain-v-max-text": ({}, lambda text: text.replace('"v_max_rad_per_s": 1.71',
                                                       '"v_max_rad_per_s": "fast"', 1),
                         "chain_7dof.json joint 0 v_max_rad_per_s must be a number, got 'fast'\n"),
    "chain-v-max-string": ({}, lambda text: text.replace('"v_max_rad_per_s": 1.71',
                                                         '"v_max_rad_per_s": "1.5"', 1),
                           "chain_7dof.json joint 0 v_max_rad_per_s must be a number, got '1.5'\n"),
    "chain-v-max-bool": ({}, lambda text: text.replace('"v_max_rad_per_s": 1.71',
                                                       '"v_max_rad_per_s": true', 1),
                         "chain_7dof.json joint 0 v_max_rad_per_s must be a number, got True\n"),
    "chain-v-max-zero": ({}, lambda text: text.replace('"v_max_rad_per_s": 1.75',
                                                       '"v_max_rad_per_s": 0', 1),
                         "chain_7dof.json has a bad value: JointLimits v_max (v_max_rad_per_s) "
                         "must be > 0 per joint, got 0.0 at joint 2\n"),
    "chain-j-max-regime": ({}, lambda text: text.replace('"j_max_rad_per_s3": 100.0',
                                                         '"j_max_rad_per_s3": 1000', 1),
                           "chain_7dof.json has limits outside the supported regime: "
                           "unsupported regime at joint 0: j_max * dt = 50 exceeds "
                           "a_max = 10 at step dt_s 0.05\n"),
    "v-max-range-reversed": ({"validate": {"v_max_range": [3.0, 0.5]}}, None,
                             "validate v_max_range must satisfy 0 < lo <= hi, got"),
    "v-max-range-one-number": ({"validate": {"v_max_range": [0.5]}}, None,
                               "validate v_max_range must be a list of 2 numbers"),
    "a-max-range-zero": ({"validate": {"a_max_range": [0.0, 15.0]}}, None,
                         "validate a_max_range must satisfy 0 < lo <= hi, got"),
    "jerk-fill-above-one": ({"validate": {"jerk_fill_range": [0.3, 2.0]}}, None,
                            "validate jerk_fill_range must satisfy 0 < lo <= hi <= 1, got"),
}


@pytest.mark.parametrize("case", sorted(BAD_CAMPAIGN_INPUTS))
def test_bad_chain_file_or_campaign_range_is_configuration_error(tmp_path, capsys, case):
    change, edit, message = BAD_CAMPAIGN_INPUTS[case]
    path = _stock_config(tmp_path, "arm_dataset.json", "chain_7dof.json", change)
    if edit is not None:
        _break_chain(tmp_path, edit)
    assert cli.main(["validate-limits", "--config", str(path), "--episodes", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


# A config section or the policy given as a value that is not an object: each
# used to load as all defaults.
NOT_OBJECTS = [[], 0, False, "", None]


@pytest.mark.parametrize("section", ["ball", "policy"])
@pytest.mark.parametrize("value", NOT_OBJECTS, ids=json.dumps)
def test_section_that_is_not_an_object_is_configuration_error(tmp_path, capsys, section,
                                                              value):
    sections = {**SECTIONS, "ball": value} if section == "ball" else SECTIONS
    path = _write_config(tmp_path, value if section == "policy" else {"kind": "random"},
                         sections)
    assert cli.main(["validate-limits", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: config section {section!r} must be an object\n")


# Bad values in the gimbal chain file: (joint row, or None for the top level,
# key, value or DROP to leave the key out, the message after "configuration
# error: ", where {where} is "chain file <path>").  Every key the chain's
# dataclasses declare has a case.  The unknown key, the 2-number vectors and
# the q_home_rad cases used to load: the typo as a zero plate offset, the
# rest as a traceback or a home posture outside the joint range.
DROP = object()
CHAIN_BAD_VALUES = [
    (None, "plate_offset_xyz", [0.0, 0.0, 0.02],
     "unknown key(s) in {where}: plate_offset_xyz"),
    (0, "axes", [1, 0, 0], "unknown key(s) in {where} joint 0: axes"),
    (None, "joints", DROP, "{where} is missing key(s): joints"),
    (None, "joints", {}, "{where} joints must be a list of objects, got {{}}"),
    (None, "joints", [], "{where} joints must hold at least one joint, got []"),
    (None, "name", 5, "{where} name must be a string, got 5"),
    (None, "plate_offset_xyz_m", [0, 0.02],
     "{where} plate_offset_xyz_m must be a list of 3 numbers, got [0, 0.02]"),
    (None, "plate_offset_rpy_rad", "0",
     "{where} plate_offset_rpy_rad must be a list of 3 numbers, got '0'"),
    (None, "q_home_rad", [float("nan"), 0],
     "{where} q_home_rad must be a list of numbers, got [nan, 0]"),
    (None, "q_home_rad", [0.0],
     "{where} q_home_rad must hold 2 values within [p_min_rad, p_max_rad], got [0.0]"),
    (None, "q_home_rad", [5.0, 0.0],
     "{where} q_home_rad must hold 2 values within [p_min_rad, p_max_rad], got [5.0, 0.0]"),
    (1, "axis", DROP, "{where} joint 1 is missing key(s): axis"),
    (0, "axis", [0, 0, 0], "{where} joint 0 axis must be a nonzero vector, got [0, 0, 0]"),
    (1, "axis", [0, 1], "{where} joint 1 axis must be a list of 3 numbers, got [0, 1]"),
    (0, "origin_xyz_m", [0, 0],
     "{where} joint 0 origin_xyz_m must be a list of 3 numbers, got [0, 0]"),
    (1, "origin_rpy_rad", [0, 0, "0"],
     "{where} joint 1 origin_rpy_rad must be a list of 3 numbers, got [0, 0, '0']"),
    (0, "p_min_rad", "-0.6", "{where} joint 0 p_min_rad must be a number, got '-0.6'"),
    (1, "p_min_rad", 0.7, "{where} has a bad value: JointLimits p_min (p_min_rad) "
                          "must be < p_max per joint, got 0.7 at joint 1"),
    (0, "p_max_rad", None, "{where} joint 0 p_max_rad must be a number, got None"),
    (1, "v_max_rad_per_s", -2.0, "{where} has a bad value: JointLimits v_max "
                                 "(v_max_rad_per_s) must be > 0 per joint, got -2.0 at joint 1"),
    (0, "a_max_rad_per_s2", float("inf"),
     "{where} joint 0 a_max_rad_per_s2 must be a number, got inf"),
    (1, "j_max_rad_per_s3", 0, "{where} has a bad value: JointLimits j_max "
                               "(j_max_rad_per_s3) must be > 0 per joint, got 0.0 at joint 1"),
]


def test_chain_bad_values_cover_every_chain_key():
    declared = {f.metadata["key"] for cls in (ChainModel, JointRow, JointLimits)
                for f in fields(cls) if f.metadata}
    assert {key for _, key, _, _ in CHAIN_BAD_VALUES} >= declared


@pytest.mark.parametrize("joint, key, value, message", CHAIN_BAD_VALUES,
                         ids=[f"{j}-{k}-{'drop' if v is DROP else json.dumps(v)}"
                              for j, k, v, _ in CHAIN_BAD_VALUES])
@pytest.mark.parametrize("command", ["validate-limits", "eval"])
def test_bad_chain_value_is_configuration_error(tmp_path, capsys, command, joint, key, value,
                                                message):
    path = _stock_config(tmp_path, "balance_demo.json", "chain_gimbal.json", {})
    chain_path = tmp_path / "chain_gimbal.json"
    chain = json.loads(chain_path.read_text())
    target = chain if joint is None else chain["joints"][joint]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    chain_path.write_text(json.dumps(chain))
    assert cli.main([command, "--config", str(path), "--episodes", "1"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {message.format(where=f'chain file {chain_path}')}\n")
