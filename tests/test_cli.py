import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajadapt
from trajadapt import adaptation as ad
from trajadapt import cli
from trajadapt import environment as envm
from trajadapt import kinematics as kin
from trajadapt import policy as pol
from trajadapt import trajectory as tr
from trajadapt.errors import ConfigurationError, LimitConsistencyError, NonFiniteStateError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write_balance_config(tmp_path, **extra):
    shutil.copy(CONFIG_DIR / "chain_gimbal.json", tmp_path / "chain_gimbal.json")
    cfg = json.loads((CONFIG_DIR / "balance_demo.json").read_text())
    cfg["out_dir"] = "out"
    cfg["stationary_steps"] = 41  # short episodes keep the tests quick
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _write_arm_config(tmp_path, **extra):
    shutil.copy(CONFIG_DIR / "chain_7dof.json", tmp_path / "chain_7dof.json")
    cfg = json.loads((CONFIG_DIR / "arm_dataset.json").read_text())
    cfg["out_dir"] = "out"
    cfg["dataset_file"] = "out/dataset.csv"
    cfg["generate"]["count"] = 4
    cfg["generate"]["ik_samples"] = 40
    cfg["generate"]["grid"] = 300
    cfg["validate"] = {"episodes": 50, "steps": 40}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_dataset_and_manifest(tmp_path):
    cfg = _write_arm_config(tmp_path)
    rc = cli.main(["generate", "--config", str(cfg), "--seed", "5"])
    assert rc == 0
    dataset = tmp_path / "out" / "dataset.csv"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert dataset.exists()
    assert manifest["generated"] == 4
    assert manifest["train"] + manifest["test"] == 4
    assert manifest["seed"] == 5
    assert len(manifest["config_sha256"]) == 64


def test_generate_byte_identical_under_same_seed(tmp_path):
    cfg = _write_arm_config(tmp_path)
    cli.main(["generate", "--config", str(cfg), "--seed", "9",
              "--out", str(tmp_path / "a")])
    cli.main(["generate", "--config", str(cfg), "--seed", "9",
              "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert a == b


def test_generate_out_relocates_every_output(tmp_path, capsys):
    # the configured dataset_file is an input of rollout/eval, never a
    # place generate writes to
    cfg = _write_arm_config(tmp_path, dataset_file="refs/dataset.csv")
    assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == [Path("chain_7dof.json"), Path("config.json"),
                       Path("x/dataset.csv"), Path("x/manifest.json")]
    assert f"dataset: {tmp_path / 'x' / 'dataset.csv'} " in capsys.readouterr().out
    # without --out, the configured out_dir
    assert cli.main(["generate", "--config", str(cfg)]) == 0
    assert not (tmp_path / "refs").exists()
    assert (tmp_path / "out" / "dataset.csv").read_bytes() \
        == (tmp_path / "x" / "dataset.csv").read_bytes()


def test_generate_runs_without_scipy(tmp_path):
    # the runtime needs numpy alone; scipy serves only the tests
    cfg = _write_arm_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["generate"]["count"] = 2
    cfg.write_text(json.dumps(raw))
    script = ("import sys, trajadapt.cli\n"
              f"rc = trajadapt.cli.main(['generate', '--config', {str(cfg)!r}])\n"
              "print(rc, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(trajadapt.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.stdout.endswith("\n0 False\n"), proc.stderr
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["generated"] == 2


def test_generate_unreachable_boxes_fails_with_report(tmp_path):
    cfg = _write_arm_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["sampling"]["boxes_m"] = [
        [[3.0, 3.0, 3.0], [3.1, 3.1, 3.1]],
        [[4.0, 4.0, 4.0], [4.1, 4.1, 4.1]],
    ]
    raw["sampling"]["height_band_m"] = None
    raw["generate"]["count"] = 2
    raw["generate"]["max_attempts"] = 1
    cfg.write_text(json.dumps(raw))
    rc = cli.main(["generate", "--config", str(cfg)])
    assert rc == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["generated"] == 0
    assert len(manifest["rejections"]) > 0


# ---------------------------------------------------------------------------
# validate-limits

def test_validate_limits_passes(tmp_path, capsys):
    cfg = _write_arm_config(tmp_path)
    rc = cli.main(["validate-limits", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations=0" in out
    assert "PASS" in out


def test_validate_limits_rejects_corrupt_limits(tmp_path):
    cfg = _write_arm_config(tmp_path)
    chain = json.loads((tmp_path / "chain_7dof.json").read_text())
    chain["joints"][0]["a_max_rad_per_s2"] = 0.0
    (tmp_path / "chain_7dof.json").write_text(json.dumps(chain))
    rc = cli.main(["validate-limits", "--config", str(cfg)])
    assert rc == 2


def test_validate_limits_reports_empty_range_as_failure(tmp_path, capsys, monkeypatch):
    # an in-regime state always has a valid range, so the range is emptied
    # where the campaign looks it up: that is a failed validation, not a
    # traceback
    cfg = _write_arm_config(tmp_path)
    monkeypatch.setattr(ad, "valid_accel_bounds", _empty_range)
    rc = cli.main(["validate-limits", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "randomized-limits: empty acceleration range" in err
    assert "limit validation: FAIL" in err


def test_validate_limits_passes_at_the_viable_boundary(capsys):
    # the configured-limits campaign of this seed used to end in an empty
    # range on joint 4 of episode 445, braking from its velocity bound
    rc = cli.main(["validate-limits", "--config", str(CONFIG_DIR / "arm_dataset.json"),
                   "--episodes", "1000", "--seed", "637028892"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "configured-limits: episodes=1000 steps=200 joints=7 violations=0" in out


# ---------------------------------------------------------------------------
# rollout

def test_rollout_writes_logs_with_documented_schema(tmp_path):
    cfg = _write_balance_config(tmp_path)
    rc = cli.main(["rollout", "--config", str(cfg), "--episodes", "2"])
    assert rc == 0
    log = (tmp_path / "out" / "episode_0000.csv").read_text().splitlines()
    assert log[0].startswith("# trajadapt step log v")
    header = log[1].split(",")
    assert header == cli.log_header(2).split(",")
    assert len(log) >= 3
    row = log[2].split(",")
    assert len(row) == len(header)


def test_rollout_greedy_phase_ordering(tmp_path):
    cfg = _write_balance_config(
        tmp_path, policy={"kind": "greedy_max"}, use_environment=False,
        stationary_steps=81,
        reward={"deviation_low_rad": 5.0, "deviation_high_rad": 9.0,
                "termination_rad": 10.0})
    rc = cli.main(["rollout", "--config", str(cfg), "--episodes", "1"])
    assert rc == 0
    rows = np.genfromtxt(tmp_path / "out" / "episode_0000.csv", delimiter=",",
                         names=True, skip_header=1)
    a = rows["a0"]
    v = rows["v0"]
    jerk = rows["jerk0"]
    j_max, a_max, v_max = 200.0, 20.0, 2.0
    jerk_steps = np.where(np.abs(jerk - j_max) < 1e-6)[0]
    plateau = np.where(np.abs(a - a_max) < 1e-9)[0]
    assert jerk_steps.size and plateau.size
    assert jerk_steps[0] < plateau[0]
    assert np.max(v) <= v_max + 1e-9
    assert abs(v[-1] - v_max) < 1e-6


def test_rollout_random_policy_bounded(tmp_path):
    cfg = _write_balance_config(tmp_path, policy={"kind": "random"},
                                use_environment=False)
    rc = cli.main(["rollout", "--config", str(cfg), "--episodes", "1",
                   "--seed", "12"])
    assert rc == 0
    rows = np.genfromtxt(tmp_path / "out" / "episode_0000.csv", delimiter=",",
                         names=True, skip_header=1)
    for j, (v_max, a_max, j_max) in enumerate([(2.0, 20.0, 200.0)] * 2):
        assert np.all(np.abs(rows[f"v{j}"]) <= v_max + 1e-9)
        assert np.all(np.abs(rows[f"a{j}"]) <= a_max + 1e-9)
        assert np.all(np.abs(rows[f"jerk{j}"]) <= j_max + 1e-9)


class _ConstantPolicy:
    def __init__(self, command):
        self.command = np.asarray(command, dtype=float)

    def reset(self):
        pass

    def act(self, obs, rng):
        return self.command


STEP_LOG_HEADER_2 = (
    "t_s,p0,p1,v0,v1,a0,a1,jerk0,jerk1,raw0,raw1,act0,act1,r_task,p_accel,"
    "p_jerk,p_smooth,p_deviation,reward,deviation_rad,ball_x_m,ball_y_m,"
    "ball_on_plate")


def test_log_header_names_every_column_once():
    assert cli.log_header(2) == STEP_LOG_HEADER_2


def _log_column(log, name):
    """The ``StepLog`` column under step-log header ``name``: the field of
    that name, or column j of a per-joint field for ``<field><j>``."""
    if hasattr(log, name):
        return getattr(log, name)
    tag = name.rstrip("0123456789")
    return getattr(log, tag)[:, int(name[len(tag):])]


def _assert_log_round_trip(tmp_path, log, n_joints):
    path = tmp_path / "episode.csv"
    cli.write_step_log(path, log, n_joints)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# trajadapt step log v{cli.LOG_SCHEMA_VERSION}"
    header = cli.log_header(n_joints).split(",")
    assert lines[1].split(",") == header
    assert len(lines) == 2 + len(log)
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    expected = np.column_stack([_log_column(log, name) for name in header])
    parsed = parsed.reshape(expected.shape)
    np.testing.assert_array_equal(parsed, expected)  # NaN equal to NaN
    np.testing.assert_array_equal(np.signbit(parsed), np.signbit(expected))
    return parsed, header


def test_step_log_round_trip_without_environment_keeps_nan_and_signed_zero(tmp_path):
    # a -0.0 command stays -0.0 through the clip, so raw, a and act hold it
    _, limits = kin.gimbal_chain()
    ref = tr.ReferenceTrajectory(dt=0.05, positions=np.zeros((6, 2)))
    _, log = ad.rollout(ref, _ConstantPolicy([-0.0, 0.5]), limits,
                        ad.StepParams(), ad.RewardWeights(termination=1.0))
    assert len(log) == 5
    parsed, header = _assert_log_round_trip(tmp_path, log, 2)
    raw0 = parsed[:, header.index("raw0")]
    assert np.all(raw0 == 0.0) and np.all(np.signbit(raw0))
    ball = parsed[:, header.index("ball_x_m"):]
    assert ball.shape[1] == 3 and np.all(np.isnan(ball))


def test_step_log_round_trip_with_environment(tmp_path):
    model, limits = kin.gimbal_chain()
    task = envm.TaskSpec(kind="in_place", noise_std=0.0, start_offset=(0.01, 0.0))
    env = envm.BallPlateEnv(model, envm.PlateGeometry(), task,
                            envm.BallParams(randomize=False))
    ref = tr.ReferenceTrajectory(dt=0.05, positions=np.zeros((8, 2)))
    _, log = ad.rollout(ref, _ConstantPolicy([0.01, -0.02]), limits,
                        ad.StepParams(), ad.RewardWeights(), env=env, seed=[0])
    assert len(log) == 7
    parsed, header = _assert_log_round_trip(tmp_path, log, 2)
    assert np.all(parsed[:, header.index("ball_on_plate")] == 1.0)


def test_step_log_of_zero_step_episode_is_header_only(tmp_path):
    _, limits = kin.gimbal_chain()
    rows = np.zeros((10, 2))
    rows[1:] = 1.0  # a jump no policy can follow: the first step terminates
    ref = tr.ReferenceTrajectory(dt=0.05, positions=rows)
    report, log = ad.rollout(ref, _ConstantPolicy([0.0, 0.0]), limits,
                             ad.StepParams(), ad.RewardWeights())
    assert report.terminated and report.steps_executed == 0 == len(log)
    _assert_log_round_trip(tmp_path, log, 2)
    assert len((tmp_path / "episode.csv").read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# eval

def test_eval_reports_metrics_table(tmp_path, capsys):
    cfg = _write_balance_config(tmp_path)
    rc = cli.main(["eval", "--config", str(cfg), "--episodes", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Success rate" in out and "Trajectory fraction" in out
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["episodes"] == 3
    assert metrics["success_rate"] == 1.0
    assert metrics["trajectory_fraction"] == 1.0
    assert len(metrics["per_episode"]) == 3


def test_eval_reproduces_readme_baseline_row(tmp_path, capsys):
    row = "      100.0% |              100.0% |         0.90cm |         0.1% |  0.1%"
    readme = (CONFIG_DIR.parent / "README.md").read_text().splitlines()
    assert row in readme
    rc = cli.main(["eval", "--config", str(CONFIG_DIR / "balance_demo.json"),
                   "--episodes", "50", "--seed", "2024", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1] == row


@pytest.mark.parametrize("extra", [
    {"use_environment": False, "policy": {"kind": "tracking"}},
    {"task": {"kind": "on_plate", "noise_std_m": 0.0}},
], ids=["no-environment", "on-plate"])
def test_eval_error_distance_is_null_when_not_measured(tmp_path, capsys, extra):
    cfg = _write_balance_config(tmp_path, **extra)
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "2"]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["error_distance_m"] is None
    assert [r["error_distance_m"] for r in metrics["per_episode"]] == [None, None]
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split(" | ")[2] == "           n/a"
    assert (tmp_path / "out" / "metrics.txt").read_text().splitlines()[1] == row


def test_relative_out_is_taken_from_the_working_directory(tmp_path, monkeypatch):
    config_dir, work = tmp_path / "conf", tmp_path / "work"
    config_dir.mkdir()
    work.mkdir()
    cfg = _write_balance_config(config_dir)
    monkeypatch.chdir(work)
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1",
                     "--out", "results"]) == 0
    assert (work / "results" / "metrics.json").is_file()
    assert not (config_dir / "results").exists()
    # a relative out_dir in the file is still taken from the config's directory
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 0
    assert (config_dir / "out" / "metrics.json").is_file()
    assert not (work / "out").exists()


def test_eval_fraction_is_mean_of_per_episode(tmp_path):
    cfg = _write_arm_config(tmp_path, policy={"kind": "random"},
                            use_environment=False, episodes=3)
    cli.main(["generate", "--config", str(cfg)])
    rc = cli.main(["eval", "--config", str(cfg)])
    assert rc == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    per = [r["fraction"] for r in metrics["per_episode"]]
    assert metrics["trajectory_fraction"] == pytest.approx(np.mean(per))


def test_eval_deterministic_outputs(tmp_path):
    cfg = _write_balance_config(tmp_path)
    cli.main(["eval", "--config", str(cfg), "--episodes", "2",
              "--out", str(tmp_path / "m1"), "--seed", "4"])
    cli.main(["eval", "--config", str(cfg), "--episodes", "2",
              "--out", str(tmp_path / "m2"), "--seed", "4"])
    a = (tmp_path / "m1" / "metrics.json").read_bytes()
    b = (tmp_path / "m2" / "metrics.json").read_bytes()
    assert a == b


def test_eval_workers_match_serial(tmp_path):
    cfg = _write_balance_config(tmp_path)
    cli.main(["eval", "--config", str(cfg), "--episodes", "2",
              "--out", str(tmp_path / "serial"), "--workers", "1"])
    cli.main(["eval", "--config", str(cfg), "--episodes", "2",
              "--out", str(tmp_path / "pool"), "--workers", "2"])
    a = (tmp_path / "serial" / "metrics.json").read_bytes()
    b = (tmp_path / "pool" / "metrics.json").read_bytes()
    assert a == b


def test_rollout_workers_match_serial_on_generated_dataset(tmp_path):
    cfg = _write_arm_config(tmp_path, policy={"kind": "tracking"})
    assert cli.main(["generate", "--config", str(cfg)]) == 0
    for workers in ("1", "2"):
        assert cli.main(["rollout", "--config", str(cfg), "--episodes", "6",
                         "--workers", workers,
                         "--out", str(tmp_path / f"w{workers}")]) == 0
    serial = sorted((tmp_path / "w1").glob("episode_*.csv"))
    assert len(serial) == 6
    for path in serial:
        assert path.read_bytes() == (tmp_path / "w2" / path.name).read_bytes()


def test_rollout_writes_one_step_log_per_episode_and_eval_none(tmp_path, monkeypatch):
    cfg = _write_balance_config(tmp_path, policy={"kind": "random"},
                                use_environment=False)
    written = []
    original = cli.write_step_log

    def counting(path, log, n_joints):
        written.append(Path(path).name)
        return original(path, log, n_joints)

    monkeypatch.setattr(cli, "write_step_log", counting)
    assert cli.main(["rollout", "--config", str(cfg), "--episodes", "3",
                     "--workers", "1"]) == 0
    assert written == [f"episode_{i:04d}.csv" for i in range(3)]
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "3",
                     "--workers", "1"]) == 0
    assert len(written) == 3


def test_eval_loads_config_and_dataset_once(tmp_path, monkeypatch):
    cfg = _write_arm_config(tmp_path, policy={"kind": "tracking"})
    assert cli.main(["generate", "--config", str(cfg)]) == 0
    calls = {"load_config": 0, "load_dataset": 0}

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    rc = cli.main(["eval", "--config", str(cfg), "--episodes", "3",
                   "--workers", "1"])
    assert rc == 0
    assert calls == {"load_config": 1, "load_dataset": 1}


def _empty_range(*args, **kwargs):
    # an in-regime state always has a valid range (limits "Boundary states"),
    # so the tests of how an empty one is reported put this in its place
    raise LimitConsistencyError(0, 1.5, 1.25)


def test_limit_consistency_error_pickles():
    err = pickle.loads(pickle.dumps(LimitConsistencyError(3, 1.5, 1.25)))
    assert isinstance(err, LimitConsistencyError)
    assert (err.joint, err.lo, err.hi) == (3, 1.5, 1.25)
    assert str(err) == str(LimitConsistencyError(3, 1.5, 1.25))


def test_rollout_reports_empty_range_as_failure(tmp_path, capsys, monkeypatch):
    cfg = _write_balance_config(tmp_path)
    monkeypatch.setattr(ad, "valid_accel_range", _empty_range)
    rc = cli.main(["rollout", "--config", str(cfg), "--seed", "5",
                   "--episodes", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "rollout: empty acceleration range for joint 0" in err


def test_pooled_eval_reports_empty_range_instead_of_hanging(tmp_path):
    # a worker's error must come back through the pool; run in a subprocess
    # so that a hang fails the test instead of blocking the suite.  The
    # forked workers inherit the emptied range.
    cfg = _write_balance_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(trajadapt.__file__).parent.parent))
    script = ("import sys\n"
              "from trajadapt import adaptation, cli\n"
              "from trajadapt.errors import LimitConsistencyError\n"
              "def empty(*args, **kwargs):\n"
              "    raise LimitConsistencyError(0, 1.5, 1.25)\n"
              "adaptation.valid_accel_range = empty\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", "--config", str(cfg),
         "--seed", "5", "--episodes", "2", "--workers", "2"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1
    assert "eval: empty acceleration range for joint 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_state_error_pickles():
    err = pickle.loads(pickle.dumps(NonFiniteStateError("bad state")))
    assert isinstance(err, NonFiniteStateError) and str(err) == "bad state"


def test_rollout_reports_non_finite_state_as_failure(tmp_path, capsys, monkeypatch):
    # a NaN velocity reaching the valid-range kernel ends the run, rc 1
    cfg = _write_balance_config(tmp_path, policy={"kind": "random"},
                                use_environment=False)
    integrate = ad.integrate_step

    def nan_velocity(*args):
        p, v = integrate(*args)
        return p, np.full_like(v, np.nan)

    monkeypatch.setattr(ad, "integrate_step", nan_velocity)
    rc = cli.main(["rollout", "--config", str(cfg), "--episodes", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("rollout: valid acceleration range needs a finite")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# config handling

def test_missing_config_is_configuration_error():
    assert cli.main(["eval", "--config", "/does/not/exist.json"]) == 2


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_start_off_plate_for_the_largest_ball_fails_on_every_seed(tmp_path, capsys, seed):
    # 0.145 m is on the plate for the smaller radii a reset may draw, but
    # not for the largest (0.03 m): whether a run starts must not depend on
    # the seed
    task = json.loads((CONFIG_DIR / "balance_demo.json").read_text())["task"]
    cfg = _write_balance_config(tmp_path, task=dict(task, start_offset_xy_m=[0.145, 0.0]))
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "3",
                     "--seed", str(seed)]) == 2
    assert "configuration error: initial ball position is off the plate" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, write", [
    ("validate-limits", _write_balance_config),
    ("generate", _write_arm_config),
], ids=["validate-limits-balance", "generate-arm"])
def test_start_off_plate_fails_on_every_command(tmp_path, capsys, command, write):
    # the arm config has no ball section: the default ball is randomized up
    # to 0.03 m, so 0.145 m is off its 0.17 m half-plate too
    cfg = write(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["task"]["start_offset_xy_m"] = [0.145, 0.0]
    cfg.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(cfg), "--episodes", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial ball position is off the plate")
    assert "(0.145, 0) m, beyond +-(0.14, 0.105) m for a ball of radius 0.03 m" in err


def test_missing_dataset_file_is_configuration_error(tmp_path, capsys):
    cfg = _write_arm_config(tmp_path, dataset_file="nope.csv")
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    assert str(tmp_path / "nope.csv") in capsys.readouterr().err


def test_configured_dataset_file_never_falls_back_to_out_dir(tmp_path, capsys):
    # a dataset.csv left in the output directory by an earlier run
    stale = tr.ReferenceTrajectory(dt=0.05, positions=np.zeros((3, 7)),
                                   traj_id="stale", split="test")
    (tmp_path / "out").mkdir()
    tr.save_dataset(tmp_path / "out" / "dataset.csv", [stale])
    cfg = _write_arm_config(tmp_path, dataset_file="nope.csv")
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    assert str(tmp_path / "nope.csv") in capsys.readouterr().err
    # without a configured dataset_file the run ignores it too
    raw = json.loads(cfg.read_text())
    del raw["dataset_file"]
    cfg.write_text(json.dumps(raw))
    assert cli.main(["rollout", "--config", str(cfg), "--episodes", "1"]) == 0
    out = capsys.readouterr().out
    assert "[stationary]" in out and "[stale]" not in out


_RECORD = "H,r0,test,0.05,2,3\nP,0,0\n\nP,0,0\nP,0,0\n"


@pytest.mark.parametrize("text, where", [
    ("H,r0,test,0.05,2\nP,0,0\nP,0,0\nP,0,0\n", "line 1"),
    ("H,r0,test,0.05,2,3\nP,0,abc\nP,0,0\nP,0,0\n", "line 2"),
    ("H,r0,test,0.05,2,3\nP,0,nan\nP,0,0\nP,0,0\n", "line 2"),
    (_RECORD + "junk\n", "line 6"),
    ("P,0,0\n" + _RECORD, "line 1"),
    (_RECORD.replace("P,0,0\nP,0,0\n", "P,0\nP,0,0\n"), "line 1"),
    (_RECORD.replace("test", "bogus"), "line 1"),
    (_RECORD.replace("0.05", "0.1"), "record r0"),
    (_RECORD.replace(",2,3", ",3,3").replace("P,0,0", "P,0,0,0"), "record r0"),
    ("H,r0,test,0.05,2,1\nP,0,0\n", "record r0"),
], ids=["h-fields", "not-a-float", "non-finite", "untagged-line", "p-before-h",
        "row-width", "split", "dt", "joint-count", "one-row"])
def test_malformed_dataset_is_configuration_error(tmp_path, capsys, text, where):
    (tmp_path / "refs.csv").write_text(text)
    cfg = _write_balance_config(tmp_path, dataset_file="refs.csv")
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{tmp_path / 'refs.csv'} {where}" in err


def test_dataset_blank_lines_are_skipped(tmp_path):
    (tmp_path / "refs.csv").write_text("\n" + _RECORD + "\n")
    cfg = _write_balance_config(tmp_path, dataset_file="refs.csv")
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 0


@pytest.mark.parametrize("edit, key", [
    (lambda raw: raw.update(stepp=raw.pop("step")), "stepp"),
    (lambda raw: raw["reward"].update(termination_radd=0.2), "termination_radd"),
    (lambda raw: raw.update(policy={"kind": "pd_balance", "mask": [0, 1], "kp": 3.0}),
     "kp"),
], ids=["top-level", "section", "policy"])
def test_unknown_config_key_is_configuration_error(tmp_path, capsys, edit, key):
    cfg = _write_balance_config(tmp_path)
    raw = json.loads(cfg.read_text())
    edit(raw)
    cfg.write_text(json.dumps(raw))
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown key") and key in err


def test_sampling_without_boxes_is_configuration_error(tmp_path, capsys):
    cfg = _write_arm_config(tmp_path, sampling={"height_band_m": [0.82, 0.92]})
    assert cli.main(["generate", "--config", str(cfg)]) == 2
    assert "'sampling' needs boxes_m" in capsys.readouterr().err


def test_pd_balance_without_environment_is_configuration_error(tmp_path, capsys):
    cfg = _write_balance_config(tmp_path, use_environment=False)
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert '"kind": "pd_balance"' in err and '"use_environment": false' in err


def test_linear_weights_missing_or_misshapen_is_configuration_error(tmp_path, capsys):
    cfg = _write_balance_config(
        tmp_path, policy={"kind": "linear", "weights_file": "weights.txt"})
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert "weights.txt" in err and "(2, 15)" in err
    np.savetxt(tmp_path / "weights.txt", np.zeros((2, 5)))
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert "shape (2, 5)" in err and "expected (2, 15)" in err
    np.savetxt(tmp_path / "weights.txt", np.zeros((2, 15)))
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "1"]) == 0


def test_policy_kinds_constructible(tmp_path):
    from trajadapt.config import load_config
    from trajadapt.trajectory import ReferenceTrajectory
    ref = ReferenceTrajectory(dt=0.05, positions=np.zeros((5, 2)))
    specs = {"random": {}, "greedy_max": {}, "tracking": {"kp": 50.0},
             "pd_balance": {"mask": [0, 1]}}
    for kind, keys in specs.items():
        cfg = load_config(_write_balance_config(tmp_path, policy={"kind": kind, **keys}))
        policy = cli.build_policy(cfg, ref)
        assert hasattr(policy, "act")
    with pytest.raises(ConfigurationError):
        load_config(_write_balance_config(tmp_path, policy={"kind": "unknown"}))


def test_linear_weights_read_once_per_run(tmp_path, monkeypatch):
    cfg = _write_balance_config(
        tmp_path, policy={"kind": "linear", "weights_file": "weights.txt"})
    np.savetxt(tmp_path / "weights.txt", np.zeros((2, 15)))
    reads = []
    load = pol.LinearPolicy.load
    monkeypatch.setattr(pol.LinearPolicy, "load",
                        lambda path: reads.append(path) or load(path))
    assert cli.main(["eval", "--config", str(cfg), "--episodes", "3",
                     "--workers", "1"]) == 0
    assert len(reads) == 1


def test_generate_rejects_unknown_policy_kind(tmp_path, capsys):
    cfg = _write_arm_config(tmp_path, policy={"kind": "unknown"})
    assert cli.main(["generate", "--config", str(cfg)]) == 2
    assert "unknown policy kind 'unknown'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-limits", "generate"])
def test_bad_tracking_gain_rejected_at_load(tmp_path, capsys, command):
    cfg = _write_arm_config(tmp_path, policy={"kind": "tracking", "kp": -1.0})
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: policy kp must be finite and > 0, got -1.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy, message", [
    ({"kind": "tracking", "kd": 0.0}, "policy kd must be finite and > 0, got 0.0"),
    ({"kind": "pd_balance", "mask": [0, 1], "ball_kd": -0.5},
     "policy ball_kd must be finite and >= 0, got -0.5"),
    ({"kind": "pd_balance", "mask": [1, -1]}, "balance mask must select at least 2 joints"),
], ids=["kd", "ball_kd", "mask"])
def test_bad_policy_values_rejected_for_every_command(tmp_path, capsys, policy, message):
    cfg = _write_balance_config(tmp_path, policy=policy)
    for command in ("validate-limits", "eval"):
        assert cli.main([command, "--config", str(cfg), "--episodes", "1"]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
