"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from trajadapt.cli import log_header  # noqa: E402
from trajadapt.kinematics import gimbal_chain  # noqa: E402
from trajadapt.trajectory import ReferenceTrajectory  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = re.compile(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$")
        assert any(printed.match(line) for line in lines), m["name"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "balance", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _step_log(path: Path, limits, rows) -> None:
    n = limits.n_joints
    width = len(log_header(n).split(","))
    lines = ["# trajadapt step log v1", log_header(n)]
    for p, v, a, jerk in rows:
        vals = [0.05] + [p] * n + [v] * n + [a] * n + [jerk] * n + [0.0] * (width - 1 - 4 * n)
        lines.append(",".join(repr(float(x)) for x in vals))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("over, failed", [(0.0, 0), (1e-6, 1)])
def test_step_log_row_over_a_limit_is_a_failed_operation(tmp_path, over, failed):
    _, limits = gimbal_chain()
    ref = ReferenceTrajectory(dt=0.05, positions=[[0.0, 0.0]] * 3, traj_id="t0")
    v_max = float(limits.v_max[0])
    _step_log(tmp_path / "episode_0000.csv", limits,
              [(0.0, 0.5, 1.0, 10.0), (0.0, v_max + over, 1.0, 10.0)])
    text = "episode 0000 [t0]: success=True fraction=1.000 -> episode_0000.csv\n"
    tally = checks.Tally()
    good = checks.rollout_output(text, tmp_path, [ref], 1, limits, tally)
    assert (tally.attempted, tally.failed) == (1, failed)
    assert len(good) == 1 - failed


def test_campaign_violation_is_a_failed_operation():
    text = ("randomized-limits: episodes=10 steps=5 joints=7 violations=0\n"
            "  max normalized |v|=1.000000000000 |a|=0.9 |j|=1.0\n"
            "configured-limits: episodes=10 steps=5 joints=7 violations=2\n"
            "  max normalized |v|=1.2 |a|=0.9 |j|=1.0\n")
    tally = checks.Tally()
    good = checks.campaign_output(text, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert good == [(10, 5)]
