"""Step clocks and layer spans, installed from outside the program.

Both work by replacing a module attribute at the place where its caller
looks the name up (``adaptation.plate_motion`` for the rollout's call into
``kinematics.plate_motion``), and restoring it afterwards.  No source file
of the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

from trajadapt import adaptation, cli, environment, kinematics, limits, policy, trajectory

LAYERS = ("limits", "kinematics", "trajectory", "environment", "adaptation",
          "policy", "cli", "config")

# (span name, owner whose attribute is replaced, attribute).  The span name
# is the layer and public function called; the owner is where the caller
# looks it up, which is not always the defining module.
SPAN_SITES = (
    ("config.load_config", cli, "load_config"),
    ("cli.build_policy", cli, "build_policy"),
    ("cli.run_episode", cli, "run_episode"),
    ("cli.write_step_log", cli, "write_step_log"),
    ("trajectory.load_dataset", cli, "load_dataset"),
    ("trajectory.save_dataset", cli, "save_dataset"),
    ("trajectory.generate_dataset", trajectory, "generate_dataset"),
    ("trajectory.generate_reference", trajectory, "generate_reference"),
    ("trajectory.path_to_joint_space", trajectory, "path_to_joint_space"),
    ("trajectory.time_parameterize", trajectory, "time_parameterize"),
    ("kinematics.inverse_kinematics", trajectory, "inverse_kinematics"),
    ("kinematics.fk_transform", trajectory, "fk_transform"),
    ("kinematics.fk_transform", kinematics, "fk_transform"),
    ("kinematics.plate_motion", adaptation, "plate_motion"),
    ("adaptation.rollout", adaptation, "rollout"),
    ("adaptation.build_observation", adaptation, "build_observation"),
    ("adaptation.run_limit_campaign", adaptation, "run_limit_campaign"),
    ("limits.valid_accel_range", adaptation, "valid_accel_range"),
    ("limits.valid_accel_bounds", limits, "valid_accel_bounds"),
    ("limits.valid_accel_bounds", adaptation, "valid_accel_bounds"),
    ("limits.clip_action", adaptation, "clip_action"),
    ("limits.integrate_step", adaptation, "integrate_step"),
    ("limits.substep_profile", adaptation, "substep_profile"),
    ("environment.episode_metrics", adaptation, "episode_metrics"),
    ("environment.step_ball", environment, "step_ball"),
    ("environment.sensor_feedback", environment, "sensor_feedback"),
    ("environment.BallPlateEnv.reset", environment.BallPlateEnv, "reset"),
    ("environment.BallPlateEnv.step", environment.BallPlateEnv, "step"),
) + tuple(
    ("policy.act", cls, "act") for cls in vars(policy).values()
    if isinstance(cls, type) and "act" in vars(cls)
)

# Where each kind of step starts, and where the last step of a batch ends:
# on entry to or on return from the given function.  A rollout builds one
# observation per decision step and aggregates its metrics right after the
# last one; the campaign computes the valid range of every episode once per
# lockstep step and returns after the last one.
ROLLOUT_CLOCK = ((adaptation, "build_observation"),
                 (adaptation, "episode_metrics"), "entry")
CAMPAIGN_CLOCK = ((adaptation, "valid_accel_bounds"),
                  (adaptation, "run_limit_campaign"), "return")


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make) -> bool:
        original = vars(owner).get(attr)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepClock:
    """One ``perf_counter`` timestamp per step, nothing else.

    ``durations`` holds one entry per step: from the start of a step to the
    start of the next one, or to the end of the batch for the last step.
    ``nominal`` holds them scaled to nominal machine speed by the caller.
    """

    def __init__(self, sites):
        self.start_site, self.end_site, self.end_on = sites
        self.durations = []
        self.nominal = []
        self._last = None

    def _mark(self):
        now = time.perf_counter()
        if self._last is not None:
            self.durations.append(now - self._last)
        self._last = now

    def _close(self):
        if self._last is not None:
            self.durations.append(time.perf_counter() - self._last)
        self._last = None

    def install(self, patcher: Patcher) -> None:
        clock = self

        def at_start(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                clock._mark()
                return fn(*args, **kwargs)
            return wrapper

        def at_end(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if clock.end_on == "entry":
                    clock._close()
                    return fn(*args, **kwargs)
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock._close()
            return wrapper

        patcher.replace(*self.start_site, at_start)
        patcher.replace(*self.end_site, at_end)


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent, call, episode, ok].

    ``parent`` is the index of the enclosing span (-1 for a root), ``call``
    the index of the CLI call the span belongs to and ``episode`` the
    episode index passed to ``cli.run_episode`` (None outside episodes).
    ``ok`` is False when the call raised.
    """

    def __init__(self):
        self.spans = []
        self.call = None
        self.episode = None
        self.clip_changed = 0
        self.clip_total = 0
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.call, self.episode, True]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, ok):
        span[2] = time.perf_counter_ns()
        span[6] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name, call):
        """The span around one CLI call."""
        self.call = call
        span = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(span, ok)
            self.call = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._close(span, ok)
        return wrapper

    def _wrap_episode(self, name, fn):
        inner = self._wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(cfg, reference, episode_idx, *args, **kwargs):
            tracer.episode = int(episode_idx)
            try:
                return inner(cfg, reference, episode_idx, *args, **kwargs)
            finally:
                tracer.episode = None
        return wrapper

    def _wrap_clip(self, name, fn):
        inner = self._wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(raw, accel_range, *args, **kwargs):
            out = inner(raw, accel_range, *args, **kwargs)
            changed = np.asarray(out) != np.asarray(raw, dtype=float)
            tracer.clip_changed += int(np.count_nonzero(changed))
            tracer.clip_total += changed.size
            return out
        return wrapper

    def install(self, patcher: Patcher) -> list:
        """Wrap every span site; returns the names that were not found."""
        missing = []
        for name, owner, attr in SPAN_SITES:
            if name == "cli.run_episode":
                make = functools.partial(self._wrap_episode, name)
            elif name == "limits.clip_action":
                make = functools.partial(self._wrap_clip, name)
            else:
                make = functools.partial(self._wrap, name)
            if not patcher.replace(owner, attr, make):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missing

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "call", "episode", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Durations, self times and parent/child counts per span name."""

    def __init__(self, spans):
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        self.durations = defaultdict(list)
        self.self_ns = defaultdict(int)
        self.failed = defaultdict(int)
        self.children = defaultdict(int)
        self.root_ns = 0
        for i, (name, start, end, parent, _, _, ok) in enumerate(spans):
            self.durations[name].append(end - start)
            self.self_ns[name] += end - start - child_ns[i]
            if not ok:
                self.failed[name] += 1
            if parent >= 0:
                self.children[(spans[parent][0], name)] += 1
            else:
                self.root_ns += end - start

    def count(self, name) -> int:
        return len(self.durations.get(name, ()))

    def total_ns(self, name) -> int:
        return sum(self.durations.get(name, ()))

    def p50_ns(self, name) -> float:
        values = self.durations.get(name)
        return float(np.median(values)) if values else 0.0

    def mean_ns(self, name) -> float:
        values = self.durations.get(name)
        return float(np.mean(values)) if values else 0.0

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return out
