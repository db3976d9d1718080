"""Page faults and CPU time of one benchmark workload run in a fresh process.

Usage (from the repository root):
    python3 tools/fault_probe.py [--workload default12] [--seed 7] [--repeat 5] \
        [--checkout DIR] [--cpu 0] [--rounds N] [--traced]

Each repeat starts a new Python process with every BLAS and OpenMP thread
count set to 1 (as perfbench does), pins it to core ``--cpu``, builds the
workload's config from ``perfbench/workloads.py`` (``--rounds`` overrides
its round count) and runs ``harness.run_experiment`` once. The process then reads
``getrusage(RUSAGE_SELF)`` and prints one JSON line: wall, user and sys
seconds and minor faults of the whole process (interpreter start and
imports included), the same for the run alone, and peak RSS. A last line
gives the median of each figure over the repeats.

``--traced`` runs the experiment under ``tracemalloc`` instead and reports
only ``traced_peak_mb``: the peak of the memory the run itself allocated,
without the interpreter and its imports, which take most of peak RSS.
Tracing slows every allocation, so a traced probe reports no times.

``--checkout DIR`` measures the ``src/`` and ``perfbench/`` of another
checkout, such as a ``git archive`` of the parent commit, with this script.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": ru.ru_utime, "sys_s": ru.ru_stime, "minflt": ru.ru_minflt}


def child(checkout: Path, workload: str, seed: int, rounds: int | None, traced: bool) -> dict:
    """Run one experiment in this process and measure it."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from workloads import WORKLOADS

    from afflsim import config, harness

    preset, args, workload_rounds, _ = WORKLOADS[workload]
    data = getattr(config, preset)(*args, seed)
    data["max_rounds"] = workload_rounds if rounds is None else rounds
    data["target_accuracy"] = None
    cfg = config.config_from_dict(data)
    if traced:
        tracemalloc.start()
        harness.run_experiment(cfg)
        return {"traced_peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
    before, start = _usage(), time.perf_counter()
    harness.run_experiment(cfg)
    wall = time.perf_counter() - start
    after = _usage()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        **{f"process_{k}": v for k, v in after.items()},
        "run_wall_s": wall,
        **{f"run_{k}": after[k] - before[k] for k in after},
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
    }


def child_env(blas_vars: tuple[str, ...]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(dict.fromkeys(blas_vars, "1"))
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="default12")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--cpu", type=int, default=0)
    parser.add_argument("--rounds", type=int, help="override the workload's round count")
    parser.add_argument(
        "--traced", action="store_true", help="report the run's tracemalloc peak, not times"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child:
        os.sched_setaffinity(0, {args.cpu})
        print(json.dumps(child(checkout, args.workload, args.seed, args.rounds, args.traced)))
        return 0
    sys.path.insert(0, str(checkout / "perfbench"))
    from workloads import BLAS_THREAD_VARS

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--checkout", str(checkout), "--cpu", str(args.cpu),
    ]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    if args.traced:
        cmd.append("--traced")
    runs = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, env=child_env(BLAS_THREAD_VARS), capture_output=True, text=True, check=True
        )
        result = json.loads(proc.stdout)
        if not args.traced:
            result = {"wall_s": time.perf_counter() - start, **result}
        runs.append(result)
        print(json.dumps(result), flush=True)
    median = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "median": median}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
