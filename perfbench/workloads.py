"""The three workloads.  Each is closed loop with one client: one CLI call at
a time, in this process, with ``--workers 1``, each starting when the
previous one has finished.

The first call of every workload (the probe) uses the seed of the config
file it is built from, so its behaviour metrics are the same on every run:
on ``balance`` it is the first episodes of the README baseline run.  Every
later call uses a seed drawn from the benchmark seed.  Calls repeat until
the run has measured for ``seconds`` and holds at least STEP_FLOOR steps.

In a traced run call 1 is the only traced call; the untraced calls around it
give the throughput that ``trace.overhead_frac`` compares it with.

The machine this runs on is shared, and its speed drifts by tens of percent
over minutes.  So a fixed calibration loop (the benchmark's own code, no
program code) runs before and after every call, and the end-to-end times
are scaled to a nominal machine speed: nominal = measured * NOMINAL_CAL_S /
calibration.  A slower program still reads slower; a slower machine does
not.  ``realtime_factor`` and ``step_ms_p50`` scale each call by its own
calibration.  ``step_ms_p99`` scales by the run's mean speed instead: the
tail is set by bursts inside calls that calibration around a call cannot
see, and a per-call factor would only add its own noise to the tail.  The
raw figures are kept in the result record.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from trajadapt import cli
from trajadapt.config import load_config

P99_WINDOW = 1000         # steps per p99 window, so each has >= 10 samples beyond it
STEP_FLOOR = P99_WINDOW   # decision steps a run holds at least
BALANCE_PROBE_EPISODES = 4  # in the first eval call: the README baseline's first four
BALANCE_EPISODES = 1      # per later eval call, so calibration brackets about 1 s
ARM_REFERENCES = 5        # per generate call
ARM_EPISODES = 100        # per rollout call, cycling over the references
CAMPAIGN_EPISODES = 1000  # per validate-limits call: both campaigns run 1000 episodes
TRACED_CALL = 1
CAL_ITERATIONS = 20000
NOMINAL_CAL_S = 0.06      # calibration time at nominal speed (about this box's)


def calibration_s() -> float:
    """Wall time of a fixed loop of small numpy operations, float arithmetic
    and dict stores, the mix of work the program's hot paths do."""
    start = time.perf_counter()
    x = np.arange(7.0)
    acc = 0.0
    table = {}
    for i in range(CAL_ITERATIONS):
        y = np.minimum(x * 1.5, 3.0)
        acc += float(y.sum()) + i * 0.5
        table[i & 255] = acc
    return time.perf_counter() - start


class Run:
    """One workload run: its inputs, calls, clocks, tally and notes."""

    def __init__(self, root: Path, workdir: Path, workload: str, seed: int,
                 seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.tally = checks.Tally()
        self.tracer = tracing.Tracer() if trace else None
        self.notes = []
        self.missing_sites = []
        self.calls = []           # one record per CLI call
        self.started = None
        self._calibration = None

    def config(self, index: int, template: str, **changes) -> tuple:
        """(output dir, config path, seed) of call ``index``: the template
        with its chain file resolved, outputs in the call's own directory."""
        raw = json.loads((self.root / "configs" / template).read_text())
        raw["chain_file"] = str((self.root / "configs" / raw["chain_file"]).resolve())
        seed = raw["seed"] if index == 0 else self.rng.randrange(1, 2**31 - 1)
        out = self.workdir / f"call{index}"
        out.mkdir(parents=True)
        for key, value in changes.items():
            merge = isinstance(value, dict) and isinstance(raw.get(key), dict)
            raw[key] = {**raw[key], **value} if merge else value
        raw["out_dir"] = str(out)
        path = out / template
        path.write_text(json.dumps(raw, indent=2) + "\n")
        return out, path, seed

    def traced(self, index: int) -> bool:
        return self.trace and index == TRACED_CALL

    def more(self, index: int, steps: int) -> bool:
        """Whether another call is due: until measured long enough, with the
        step floor met and, in a traced run, an untraced call after the
        traced one."""
        if self.started is None:
            self.started = time.perf_counter()
        if index == 0 or (self.trace and index <= TRACED_CALL + 1):
            return True
        return time.perf_counter() - self.started < self.seconds or steps < STEP_FLOOR

    def call(self, index: int, command: str, args: list, clock=None) -> dict:
        """Run ``cli.main`` once; the call is one operation, failed unless it
        exits 0.  Returns the call's record: exit code (None if it raised),
        stdout, raw and nominal wall time.  Step durations the clock records
        during the call are scaled to nominal speed into ``clock.nominal``."""
        before = self._calibration or calibration_s()
        recorded = len(clock.durations) if clock is not None else 0
        argv = [command] + [str(a) for a in args] + ["--workers", "1"]
        traced = self.traced(index)
        patcher = tracing.Patcher()
        if traced:
            self.missing_sites = self.tracer.install(patcher)
        elif clock is not None:
            clock.install(patcher)
        out = io.StringIO()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if traced:
                    with self.tracer.root(f"cli.{command}", index):
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
        except Exception:  # a crash is a failed call, reported and counted
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - start
            patcher.restore()
        self._calibration = calibration_s()
        speed = NOMINAL_CAL_S / (0.5 * (before + self._calibration))
        if clock is not None:
            clock.nominal.extend(d * speed for d in clock.durations[recorded:])
        self.tally.attempt()
        if rc != 0:
            self.tally.fail(f"{command} call {index} exited {rc}")
        record = {"index": index, "command": command, "traced": traced, "rc": rc,
                  "wall_s": wall, "speed": speed, "nominal_s": wall * speed}
        self.calls.append(record)
        return dict(record, stdout=out.getvalue())


def percentile_ms(durations, q) -> float:
    return float(np.percentile(np.asarray(durations) * 1e3, q)) if durations else 0.0


def windowed_p99_ms(durations) -> float:
    """Median over consecutive P99_WINDOW-step windows of each window's p99.

    One burst of machine noise moves the p99 of the window it falls in, not
    the median over windows."""
    d = np.asarray(durations) * 1e3
    n = len(d) // P99_WINDOW
    if n == 0:
        return percentile_ms(durations, 99)
    windows = d[:n * P99_WINDOW].reshape(n, P99_WINDOW)
    return float(np.median(np.percentile(windows, 99, axis=1)))


def rate(records, traced, wall="nominal_s") -> float:
    """Simulated seconds per wall second over the calls with this tracing."""
    rows = [r for r in records if r["traced"] == traced]
    total = sum(r[wall] for r in rows)
    return sum(r["sim_s"] for r in rows) / total if total > 0 else 0.0


def timing_metrics(records, clock) -> dict:
    """End-to-end timings at nominal speed, and the raw ones for the record."""
    untraced = [r for r in records if not r["traced"]]
    run_speed = sum(r["nominal_s"] for r in untraced) / sum(r["wall_s"] for r in untraced)
    raw_p99 = windowed_p99_ms(clock.durations)
    return {"realtime_factor": rate(records, False),
            "step_ms_p50": percentile_ms(clock.nominal, 50),
            "step_ms_p99": raw_p99 * run_speed,
            "raw_realtime_factor": rate(records, False, "wall_s"),
            "raw_step_ms_p50": percentile_ms(clock.durations, 50),
            "raw_step_ms_p99": raw_p99,
            "step_samples": len(clock.durations),
            "work": records}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# balance: eval on the gimbal with the ball, README baseline setup

def balance(run: Run) -> dict:
    clock = tracing.StepClock(tracing.ROLLOUT_CLOCK)
    records = []
    probe = []
    index = steps = 0
    while run.more(index, steps):
        out, config, seed = run.config(index, "balance_demo.json")
        episodes = BALANCE_PROBE_EPISODES if index == 0 else BALANCE_EPISODES
        rec = run.call(index, "eval", ["--config", config, "--seed", seed,
                                       "--episodes", episodes], clock)
        rows = checks.eval_metrics(out / "metrics.json", episodes, run.tally)
        executed = sum(r["steps_executed"] for r in rows)
        dt = load_config(config).step.dt
        records.append(dict(rec, sim_s=executed * dt, episodes=episodes, steps=executed))
        steps += 0 if rec["traced"] else executed
        probe = rows if index == 0 else probe
        index += 1

    result = timing_metrics(records, clock)
    result.update(
        success_rate=float(np.mean([r["success"] for r in probe] or [0.0])),
        trajectory_fraction=float(np.mean([r["fraction"] for r in probe] or [0.0])),
        error_distance_cm=100.0 * float(np.mean([r["error_distance_m"] for r in probe]
                                                or [0.0])))
    run.notes.append(
        f"paper: balance step_ms_p99 = {result['step_ms_p99']:.3f} ms over "
        f"{result['step_samples']} steps, against the 50 ms decision period")
    return result


# ---------------------------------------------------------------------------
# arm: generate references for the 7-joint arm, then track them without
# the environment

def arm(run: Run) -> dict:
    clock = tracing.StepClock(tracing.ROLLOUT_CLOCK)
    records = []
    generated = []
    probe = []
    index = steps = 0
    while run.more(index, steps):
        out, config, seed = run.config(
            index, "arm_dataset.json", policy={"kind": "tracking"},
            generate={"count": ARM_REFERENCES}, dataset_file="dataset.csv")
        cfg = load_config(config)
        rec = run.call(index, "generate", ["--config", config, "--seed", seed])
        refs = checks.generated_dataset(out, ARM_REFERENCES, cfg.pipeline.max_attempts,
                                        cfg.limits, run.tally)
        generated.append(dict(rec, count=len(refs)))

        rec = run.call(index, "rollout", ["--config", config, "--seed", seed,
                                          "--episodes", ARM_EPISODES], clock)
        episodes = checks.rollout_output(rec["stdout"], out, refs, ARM_EPISODES,
                                         cfg.limits, run.tally)
        executed = sum(e[2] for e in episodes)
        records.append(dict(rec, sim_s=executed * cfg.step.dt, episodes=ARM_EPISODES,
                            steps=executed))
        steps += 0 if rec["traced"] else executed
        probe = episodes if index == 0 else probe
        index += 1

    untraced = [g for g in generated if not g["traced"]]
    count = sum(g["count"] for g in untraced)
    result = timing_metrics(records, clock)
    result.update(
        success_rate=float(np.mean([e[0] for e in probe] or [0.0])),
        trajectory_fraction=float(np.mean([e[1] for e in probe] or [0.0])),
        generate_s_per_traj=sum(g["nominal_s"] for g in untraced) / count if count else 0.0)
    return result


# ---------------------------------------------------------------------------
# campaign: validate-limits on the arm config, both campaigns

def campaign(run: Run) -> dict:
    clock = tracing.StepClock(tracing.CAMPAIGN_CLOCK)
    records = []
    probe = []
    planned = 0
    index = 0
    while run.more(index, len(clock.durations)):
        _, config, seed = run.config(index, "arm_dataset.json")
        rec = run.call(index, "validate-limits", [
            "--config", config, "--seed", seed, "--episodes", CAMPAIGN_EPISODES], clock)
        passed = checks.campaign_output(rec["stdout"], rec["rc"], run.tally)
        cfg = load_config(config)
        episode_steps = sum(e * s for e, s in passed)
        records.append(dict(rec, sim_s=episode_steps * cfg.step.dt,
                            episode_steps=episode_steps))
        if index == 0:
            probe = passed
            planned = 2 * CAMPAIGN_EPISODES * int(cfg.validate["steps"])
        index += 1

    result = timing_metrics(records, clock)
    result.update(success_rate=len(probe) / 2.0,
                  trajectory_fraction=sum(e * s for e, s in probe) / planned)
    run.notes.append(
        f"campaign_steps_per_s = {result['realtime_factor'] / cfg.step.dt:.0f} "
        f"episode-steps/s at nominal speed "
        f"(raw {result['raw_realtime_factor'] / cfg.step.dt:.0f})")
    return result


WORKLOADS = {"balance": balance, "arm": arm, "campaign": campaign}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced call

def layer_metrics(run: Run, result: dict) -> dict:
    """Per-layer metrics from the spans of the traced call.  A metric whose
    spans never ran on this workload reads 0 and gets a note saying so."""
    s = run.tracer.summary()
    traced = [w for w in result["work"] if w["traced"]]
    episodes = sum(w.get("episodes", 0) for w in traced)
    steps = sum(w.get("steps", 0) for w in traced)
    wall_ns = sum(c["wall_s"] for c in run.calls if c["traced"]) * 1e9

    def us(ns):
        return ns / 1e3

    def per(value, base):
        return value / base if base else 0.0

    ik = "kinematics.inverse_kinematics"
    fk = "kinematics.fk_transform"
    gen = "trajectory.generate_reference"
    command_ns = s.total_ns("cli.eval") + s.total_ns("cli.rollout")
    outside = command_ns - s.total_ns("adaptation.rollout") - s.total_ns("cli.write_step_log")
    m = {
        "limits.valid_accel_range.us_p50": us(s.p50_ns("limits.valid_accel_range")),
        "limits.valid_accel_bounds.us_per_call": us(s.mean_ns("limits.valid_accel_bounds")),
        "limits.substep_profile.us_p50": us(s.p50_ns("limits.substep_profile")),
        "limits.integrate_step.us_p50": us(s.p50_ns("limits.integrate_step")),
        "limits.clip_active_frac": per(run.tracer.clip_changed, run.tracer.clip_total),
        "kinematics.plate_motion.us_p50": us(s.p50_ns("kinematics.plate_motion")),
        "kinematics.plate_motion.self_share": per(s.self_ns["kinematics.plate_motion"], wall_ns),
        "kinematics.fk_transform.calls": s.count(fk),
        "kinematics.fk_transform.us_p50": us(s.p50_ns(fk)),
        "kinematics.inverse_kinematics.calls": s.count(ik),
        "kinematics.inverse_kinematics.fk_per_solve": per(s.children[(ik, fk)], s.count(ik)),
        "environment.step_ball.us_p50": us(s.p50_ns("environment.step_ball")),
        "environment.sensor_feedback.us_p50": us(s.p50_ns("environment.sensor_feedback")),
        "environment.episode_metrics.ms_p50": s.p50_ns("environment.episode_metrics") / 1e6,
        "environment.error_distance_cm": result.get("error_distance_cm", 0.0),
        "adaptation.rollout.self_us_per_step": us(per(s.self_ns["adaptation.rollout"], steps)),
        "adaptation.build_observation.us_p50": us(s.p50_ns("adaptation.build_observation")),
        "adaptation.run_limit_campaign.s": s.p50_ns("adaptation.run_limit_campaign") / 1e9,
        "policy.act.us_p50": us(s.p50_ns("policy.act")),
        "trajectory.path_to_joint_space.ms_p50": s.p50_ns("trajectory.path_to_joint_space") / 1e6,
        "trajectory.time_parameterize.ms_p50": s.p50_ns("trajectory.time_parameterize") / 1e6,
        "trajectory.accept_ratio": per(s.count(gen) - s.failed[gen], s.count(gen)),
        "trajectory.generate_s_per_traj": result.get("generate_s_per_traj", 0.0),
        "trajectory.load_dataset.calls_per_episode": per(s.count("trajectory.load_dataset"),
                                                         episodes),
        "trajectory.load_dataset.ms_p50": s.p50_ns("trajectory.load_dataset") / 1e6,
        "config.load_config.calls_per_episode": per(s.count("config.load_config"), episodes),
        "cli.episode_overhead_ms": per(outside, episodes) / 1e6,
        "cli.write_step_log.ms_per_episode": per(s.total_ns("cli.write_step_log"),
                                                 episodes) / 1e6,
        "trace.overhead_frac": 1.0 - per(rate(result["work"], True), result["realtime_factor"]),
        "trace.unattributed_frac": per(wall_ns - s.root_ns, wall_ns),
    }
    layer_ns = s.layer_self_ns()
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_frac"] = per(ns, wall_ns)

    # the span each metric is measured at, where it is not the name's prefix
    sources = {"limits.clip_active_frac": "limits.clip_action",
               "environment.error_distance_cm": "environment.step_ball",
               "trajectory.accept_ratio": gen,
               "trajectory.generate_s_per_traj": "trajectory.generate_dataset",
               "cli.episode_overhead_ms": "adaptation.rollout"}
    for name in m:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_frac"):
            called = layer_ns[name.split(".", 1)[0]] > 0
        else:
            called = s.count(sources.get(name, name.rsplit(".", 1)[0])) > 0
        if not called:
            run.notes.append(f"absent on {run.workload}: {name} reads 0, "
                             f"its function is not called on this workload")
    if run.missing_sites:
        run.notes.append("span sites not found: " + ", ".join(run.missing_sites))
    if run.workload == "arm":
        run.notes.append(
            f"paper: 7-joint limits.valid_accel_range.us_p50 = "
            f"{m['limits.valid_accel_range.us_p50']:.1f} us (paper ~200 us, "
            f"ROADMAP ceiling 1000 us)")
    return m
