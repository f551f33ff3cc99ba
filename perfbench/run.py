"""spagraph's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grow|sweep|analyze|verify|all
        --seed N --seconds S --trace 0|1 [--inject-fault]

Timed mode (`--trace 0`) sets the workload up several times, then repeats
its timed phase in fresh processes for `--seconds` (at least three times),
and reports medians of wall_s, cpu_s, peak_rss_mb and setup_s.
Traced mode (`--trace 1`) runs the timed phase once untraced and twice with
span tracing, and reports the per-layer metrics; their counts must repeat
exactly between the two traced runs. Every repetition's outputs are
checked; any failed check makes the command exit 1. See README.md.
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
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_build" / "perfbench"
WORKER_TIMEOUT_S = 175

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Three repetitions let the median set one slow repetition aside.
MIN_REPS = 3
# analyze's set-up grows its input graph (seconds); the others only import.
SETUP_REPEATS = {"grow": 9, "sweep": 9, "analyze": 3, "verify": 9}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _worker(action: str, name: str, seed: int, work_dir: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(WORKER), action, name, "--seed", str(seed),
           "--dir", str(work_dir), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{action} {name} took over {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{action} {name} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup(name, seed, work_dir, extra, repeats) -> list[float]:
    """Set-up times (fresh process each), rescaled to the reference speed."""
    times = []
    for _ in range(repeats):
        before = calibrate.sample()
        start = time.perf_counter()
        _worker("setup", name, seed, work_dir, *extra)
        elapsed = time.perf_counter() - start
        times.append(elapsed * calibrate.speed_factor(before + calibrate.sample()))
    return times


def timed(name: str, seed: int, seconds: float, work_dir: Path, extra) -> tuple[dict, list]:
    setup_times = _setup(name, seed, work_dir, extra, SETUP_REPEATS[name])
    # At least MIN_REPS, then more while another repetition, as long as the
    # longest so far, still ends within `seconds`.
    reps, longest = [], 0.0
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        reps.append(_worker("run", name, seed, work_dir, *extra))
        longest = max(longest, time.perf_counter() - began)
    metrics = {key: statistics.median(rep[key] * rep["speed"] for rep in reps)
               for key in ("wall_s", "cpu_s")}
    metrics["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in reps)
    metrics["setup_s"] = statistics.median(setup_times)
    print(f"{name}: {len(reps)} repetition(s), setup x{len(setup_times)}; "
          f"unscaled median wall_s {statistics.median(rep['wall_s'] for rep in reps)!r}, "
          f"machine speed {statistics.median(rep['speed'] for rep in reps):.3f} of reference")
    return metrics, [check for rep in reps for check in rep["checks"]]


def traced(name: str, seed: int, work_dir: Path, extra) -> tuple[dict, list]:
    _setup(name, seed, work_dir, extra, 1)
    plain = _worker("run", name, seed, work_dir, *extra)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    runs = [
        _worker("run", name, seed, work_dir, *extra,
                "--trace", str(traces / f"{name}-seed{seed}-{k}.json"))
        for k in (1, 2)
    ]
    layers = {
        key: statistics.median(run["layers"][key] * run["speed"] for run in runs)
        if _layer_unit(key) in ("s", "us") else runs[0]["layers"][key]
        for key in runs[0]["layers"]
    }
    layers["trace.overhead_ratio"] = (
        statistics.median(run["wall_s"] * run["speed"] for run in runs)
        / (plain["wall_s"] * plain["speed"]))
    # Counts of work must repeat exactly for one seed.
    differing = [key for key in layers if _layer_unit(key) == "count"
                 and runs[0]["layers"][key] != runs[1]["layers"][key]]
    checks = [check for rep in (plain, *runs) for check in rep["checks"]]
    checks.append(("trace.counts_repeat", not differing, f"differing: {differing}"))
    print(f"{name}: traces in {traces}")
    return layers, checks


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():   # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "spa_jobs": os.environ.get("SPA_JOBS")}


def _check_environment() -> None:
    if not (ROOT / "src" / "spagraph" / "__init__.py").is_file():
        raise BenchError(f"no spagraph sources under {ROOT / 'src'}")
    jobs = os.environ.get("SPA_JOBS")
    if jobs is not None:
        try:
            many = int(jobs) > 1
        except ValueError:
            many = True
        if many:
            raise BenchError(f"SPA_JOBS={jobs!r}: the benchmark measures one worker; "
                             "unset SPA_JOBS or set it to 1")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-fault", action="store_true",
                        help="generate through a deliberately broken index; checks must fail")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        _check_environment()
        print("env " + json.dumps(environment()))
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        extra = ("--inject-fault",) if args.inject_fault else ()
        work_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            gate = _worker("selfcheck", "grow", args.seed, work_dir / "selfcheck")
            checks = [("selfcheck.fault_detected", gate["detected"],
                       "a broken index must fail the grow checks")]
            if not gate["detected"]:
                print("FAILED selfcheck: grow checks passed a graph from a broken index")
            metrics = {}
            for name in names:
                if args.trace:
                    values, found = traced(name, args.seed, work_dir / name, extra)
                    units = {key: _layer_unit(key) for key in values}
                else:
                    values, found = timed(name, args.seed, args.seconds, work_dir / name, extra)
                    units = END_TO_END_UNITS
                failed = sum(not ok for _, ok, _ in found)
                print(f"{name} error_rate {failed / len(found):.6g} "
                      f"({failed} of {len(found)} checks failed)")
                for check_name, ok, detail in found:
                    if not ok:
                        print(f"{name} FAILED {check_name}: {detail}")
                prefix = f"{name}." if len(names) > 1 else ""
                for key, value in values.items():
                    print(f"{name} {key} {value!r} {units[key]}")
                    metrics[prefix + key] = {"value": value, "unit": units[key]}
                checks += found
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = sum(not ok for _, ok, _ in checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
