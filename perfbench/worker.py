"""One benchmark step in a fresh process: set-up, a timed repetition, or the
fault self-check. `run.py` starts it; it prints one JSON object as its last
line of output.

    python3 perfbench/worker.py setup|run|selfcheck WORKLOAD --seed N --dir D
        [--trace FILE] [--inject-fault]

A fresh process per repetition makes `peak_rss_mb` the high-water mark of
that repetition alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (this directory is on sys.path as the script's own)
import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    """User + system time of this process and any children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run(args) -> dict:
    tracer = None
    index_class = workloads.broken_index_class() if args.inject_fault else None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, index_base=index_class)
    elif index_class is not None:
        workloads.inject_index(index_class)

    with calibrate.SpeedSampler() as sampler:
        paused0, cpu0, wall0 = sampler.paused_s, _cpu_seconds(), time.perf_counter()
        result = workloads.run(args.workload, args.seed, args.dir)
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        paused = sampler.paused_s - paused0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"wall_s": wall - paused, "cpu_s": cpu - paused, "peak_rss_mb": peak_rss_mb,
           "speed": sampler.factor}
    if tracer is not None:
        out["layers"] = tracer.summary()
        with open(args.trace, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "wall_s": out["wall_s"],
                       "speed": out["speed"],
                       "counts": dict(tracer.counts), "spans": tracer.spans()},
                      handle, indent=1)
    out["checks"] = workloads.check(args.workload, args.seed, args.dir, result)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("action", choices=("setup", "run", "selfcheck"))
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", help="write the span trace to this file")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    if args.action == "setup":
        if args.inject_fault:
            workloads.inject_index(workloads.broken_index_class())
        workloads.setup(args.workload, args.seed, args.dir)
        out = {}
    elif args.action == "run":
        out = _run(args)
    else:
        out = {"detected": workloads.selfcheck(args.seed, args.dir)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
