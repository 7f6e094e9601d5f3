"""Output checks.  Every check counts operations as attempted and failed
instead of dropping the ones that fail."""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from trajadapt.trajectory import check_reference_limits, load_dataset

# Absolute tolerance on a logged value against its limit, as in
# ``limits.LIMIT_EPS``; normalized campaign maxima get the same margin.
LIMIT_TOL = 1e-9

EPISODE_LINE = re.compile(
    r"^episode (\d+) \[([^\]]+)\]: success=(True|False) fraction=([0-9.]+) -> ")
CAMPAIGN_LINE = re.compile(
    r"^(randomized-limits|configured-limits): episodes=(\d+) steps=(\d+) "
    r"joints=(\d+) violations=(\d+)$")
CAMPAIGN_NORMS = re.compile(
    r"^\s+max normalized \|v\|=(\S+) \|a\|=(\S+) \|j\|=(\S+)$")


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)
            print(f"check failed: {reason}", file=sys.stderr)


def _finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return False


def eval_metrics(path: Path, episodes: int, tally: Tally) -> list:
    """Per-episode rows of an ``eval`` metrics.json that passed the checks:
    present, finite and holding the requested episode count."""
    tally.attempt(episodes)
    try:
        summary = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        tally.fail(f"{path}: unreadable ({exc})", episodes)
        return []
    rows = summary.get("per_episode", [])
    if summary.get("episodes") != episodes or len(rows) != episodes:
        tally.fail(f"{path}: {len(rows)} episodes, requested {episodes}", episodes)
        return []
    top = {k: v for k, v in summary.items() if k != "per_episode"}
    if not _finite(top):
        tally.fail(f"{path}: non-finite summary", episodes)
        return []
    good = []
    for i, row in enumerate(rows):
        if _finite(row):
            good.append(row)
        else:
            tally.fail(f"{path}: episode {i} has a non-finite field")
    return good


def reference_failures(refs, limits) -> list:
    """Ids of references that exceed the chain's velocity or acceleration
    limits by ``trajectory.check_reference_limits``."""
    bad = []
    for ref in refs:
        ratios = check_reference_limits(ref, limits)
        if not (ratios["vel_ratio"] <= 1.0 and ratios["acc_ratio"] <= 1.0):
            bad.append(ref.traj_id)
    return bad


def generated_dataset(out_dir: Path, requested: int, max_attempts: int, limits,
                      tally: Tally) -> list:
    """References written by ``generate`` that pass the limit check; every
    requested trajectory is one operation.

    The dataset must hold exactly the trajectories the manifest accounts
    for: index i is missing only when all ``max_attempts`` draws for it were
    rejected, and the splits match the manifest's counts.
    """
    tally.attempt(requested)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        refs = load_dataset(out_dir / "dataset.csv")
    except (OSError, ValueError) as exc:
        tally.fail(f"{out_dir}: dataset or manifest unreadable ({exc})", requested)
        return []
    given_up = {r["index"] for r in manifest.get("rejections", ())
                if r["attempt"] == max_attempts - 1}
    expected = [f"traj-{i:05d}" for i in range(manifest.get("requested", 0))
                if i not in given_up]
    splits = [r.split for r in refs]
    if ([r.traj_id for r in refs] != expected
            or manifest.get("generated") != len(refs)
            or manifest.get("train") != splits.count("train")
            or manifest.get("test") != splits.count("test")):
        tally.fail(f"{out_dir}: dataset does not match its manifest", requested)
        return []
    if len(refs) < requested:
        tally.fail(f"{out_dir}: generated {len(refs)} of {requested}",
                   requested - len(refs))
    bad = reference_failures(refs, limits)
    for traj_id in bad:
        tally.fail(f"{out_dir}: reference {traj_id} exceeds the chain limits")
    return [r for r in refs if r.traj_id not in bad]


def step_log_violations(path: Path, limits) -> tuple:
    """(rows, rows over a limit) of a rollout step log.

    A row is over a limit when some joint's |v|, |a| or |jerk| exceeds the
    chain's v_max, a_max or j_max by more than LIMIT_TOL, or is not finite.
    """
    lines = Path(path).read_text().splitlines()
    header = lines[1].split(",")
    n = limits.n_joints
    cols = {tag: [header.index(f"{tag}{j}") for j in range(n)]
            for tag in ("v", "a", "jerk")}
    bounds = {"v": limits.v_max, "a": limits.a_max, "jerk": limits.j_max}
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    if rows.size == 0:
        return 0, 0
    over = np.zeros(rows.shape[0], dtype=bool)
    for tag, idx in cols.items():
        values = rows[:, idx]
        over |= ~np.all(np.abs(values) <= bounds[tag] + LIMIT_TOL, axis=1)
    return rows.shape[0], int(np.count_nonzero(over))


def rollout_output(text: str, out_dir: Path, refs, episodes: int, limits,
                   tally: Tally) -> list:
    """(success, fraction, steps) per episode of a ``rollout`` that passed the
    checks: the printed trajectory id is the one the CLI cycles to, and every
    step-log row is within the chain's limits."""
    tally.attempt(episodes)
    printed = {}
    for line in text.splitlines():
        m = EPISODE_LINE.match(line)
        if m:
            printed[int(m.group(1))] = (m.group(2), m.group(3) == "True", float(m.group(4)))
    good = []
    for idx in range(episodes):
        if idx not in printed:
            tally.fail(f"{out_dir}: episode {idx} missing from the output")
            continue
        traj_id, success, fraction = printed[idx]
        expected = refs[idx % len(refs)].traj_id if refs else None
        if traj_id != expected:
            tally.fail(f"{out_dir}: episode {idx} ran {traj_id}, expected {expected}")
            continue
        path = out_dir / f"episode_{idx:04d}.csv"
        try:
            rows, over = step_log_violations(path, limits)
        except (OSError, ValueError, IndexError) as exc:
            tally.fail(f"{path}: unreadable ({exc})")
            continue
        if over:
            tally.fail(f"{path}: {over} of {rows} rows exceed a limit")
            continue
        good.append((success, fraction, rows))
    return good


def campaign_output(text: str, rc, tally: Tally) -> list:
    """(episodes, steps) of each campaign that passed: the command succeeded,
    zero violations and every normalized maximum <= 1 + LIMIT_TOL."""
    tally.attempt(2)
    reports = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = CAMPAIGN_LINE.match(line)
        norms = CAMPAIGN_NORMS.match(lines[i + 1]) if m and i + 1 < len(lines) else None
        if m and norms:
            reports.append((m.group(1), int(m.group(2)), int(m.group(3)),
                            int(m.group(5)), [float(x) for x in norms.groups()]))
    if rc != 0 or len(reports) != 2:
        tally.fail(f"validate-limits exited {rc} with {len(reports)} campaign reports", 2)
        return []
    good = []
    for name, episodes, steps, violations, norms in reports:
        if violations or max(norms) > 1.0 + LIMIT_TOL:
            tally.fail(f"{name}: violations={violations} max norms={norms}")
        else:
            good.append((episodes, steps))
    return good
