"""trajadapt benchmark.

    python3 perfbench/run.py --workload {balance,arm,campaign} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Prints every metric by name and unit, then
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  Outputs go to a
temporary directory under .perfbench/ that is removed at the end; the result
with its provenance, and the spans of a traced run, stay in
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

# Set-up as a user pays it: import the CLI and load the workload's config,
# in a fresh interpreter (timed from inside it, so interpreter start-up is
# not counted).
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from trajadapt.cli import main
from trajadapt.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""
SETUP_CONFIGS = {"balance": "balance_demo.json", "arm": "arm_dataset.json",
                 "campaign": "arm_dataset.json"}


def measure_setup(config: Path) -> list:
    """Set-up times of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                               str(config)], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "time_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trajadapt" / "cli.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"no trajadapt sources under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # isolation: no TRAJADAPT_* override reaches the program or the set-up runs
    for name in [n for n in os.environ if n.startswith("TRAJADAPT_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    setup = measure_setup(ROOT / "configs" / SETUP_CONFIGS[args.workload])
    bench_dir = ROOT / ".perfbench"
    results = bench_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (bench_dir / "tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir / "tmp"))
    run = workloads.Run(ROOT, workdir, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    try:
        result = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = workloads.layer_metrics(run, result)
        stem = f"{args.workload}-seed{args.seed}"
        run.tracer.write(results / f"{stem}-spans.json.gz")
    else:
        values = dict(result, setup_s=statistics.median(setup),
                      peak_rss_mb=workloads.peak_rss_mb())
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            print(f"metric {name} was not measured", file=sys.stderr)
            return 3
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}

    info = provenance(args)
    calls = run.calls
    speeds = [c["speed"] for c in calls]
    print(f"workload {args.workload}: {len(calls)} CLI calls in "
          f"{sum(c['wall_s'] for c in calls):.2f} s, "
          f"{result['step_samples']} untraced step samples; machine speed "
          f"{min(speeds):.3f}..{max(speeds):.3f} of nominal")
    print(f"raw (not scaled to nominal speed): realtime_factor "
          f"{result['raw_realtime_factor']:.4f}, step_ms_p50 "
          f"{result['raw_step_ms_p50']:.4f}, step_ms_p99 {result['raw_step_ms_p99']:.4f}; "
          f"set-up runs {[round(t, 4) for t in setup]} s")
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for note in run.notes:
        print(f"note: {note}")
    raw = {k: v for k, v in result.items() if k.startswith("raw_")}
    record = {"provenance": info, "metrics": metrics, "notes": run.notes,
              "raw": raw, "setup_runs_s": setup,
              "calls": calls, "attempted": run.tally.attempted,
              "failed": run.tally.failed, "failures": run.tally.reasons}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    correct = run.tally.failed == 0 and run.tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
