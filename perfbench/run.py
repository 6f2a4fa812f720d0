"""Benchmark of the blaschke package: one workload per run, measured in a
closed loop by a single caller with the BLAS/OpenMP thread counts pinned to 1.

Run from the repository root:

    python3 perfbench/run.py --workload recover --seed 1 --seconds 20 --trace 0

With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics from spans recorded around the calls between the package's
modules (spans go to perfbench/out/).  Every item's output is checked; the
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`, and the exit code is 1 if any check failed.  The package is
imported from ./src; without it the command exits 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# set-up is repeated this many times and its median reported
SETUP_REPS = 5

WORKLOADS = ("recover", "approximate", "search", "roundtrip")


def _import_in_fresh_interpreter():
    subprocess.run(
        [sys.executable, "-c", "import blaschke"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120,
    )


def _read_command(cmd, **kwargs):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def environment(seed):
    """What the numbers depend on, read without changing any machine setting."""
    import numpy
    import scipy

    caches = {}
    for line in (_read_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    # stop git at the checkout so it never reports an enclosing repository
    commit = _read_command(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches.get("L2 cache", "unknown"),
        "l3_cache": caches.get("L3 cache", "unknown"),
        "git_commit": commit.strip() if commit else "unknown",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "blaschke" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench
    import workloads
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            with probe.paused():
                _import_in_fresh_interpreter()
            workload = workloads.BY_NAME[args.workload](args.seed)
            workload.warmup()
            setups.append((start, time.perf_counter()))
        plain, traced, tracer = bench.measure(workload, args.seconds, args.trace)
    executions = plain + traced
    failed = bench.failures(executions)
    accuracy = bench.accuracy_report(executions)

    if args.trace:
        values = bench.layer_metrics(plain, traced, probe.seconds)
        metrics = {name: _metric(values[name], unit) for name, unit in bench.PER_LAYER}
        raw = {}
    else:
        wall_raw = bench.pass_seconds(plain)
        values = {
            "wall_s": bench.pass_seconds(plain, probe.seconds),
            "setup_s": statistics.median(probe.seconds(*s) for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in bench.END_TO_END}
        # the unnormalized clock, for reference
        raw = {
            "wall_raw_s": _metric(wall_raw, "s"),
            "setup_raw_s": _metric(statistics.median(e - s for s, e in setups), "s"),
            "probe_speed": _metric(values["wall_s"] / wall_raw, "x"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"spans-{stem}.csv")
    accuracy = {k: _metric(v, bench.ACCURACY_UNITS[k]) for k, v in accuracy.items()}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": metrics,
        "raw_clock": raw,
        "accuracy": accuracy,
        "executions": [
            {
                "id": ex.item_id,
                "raw_s": ex.interval and ex.interval[1] - ex.interval[0],
                "accuracy": ex.accuracy,
                "problems": ex.problems,
            }
            for ex in executions
        ],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"executions {len(executions)}")
    print("environment " + json.dumps(record["environment"]))
    for name, m in {**metrics, **raw, **accuracy}.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for ex in failed:
        print(f"FAILED {ex.item_id}: {'; '.join(ex.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
