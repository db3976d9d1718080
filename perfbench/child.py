"""Run one afflsim experiment in this process and print its measurements.

Usage: python3 perfbench/child.py WORKLOAD SEED plain|traced SCRATCH_DIR CPU

run.py starts one fresh child per experiment, so each peak
RSS figure belongs to exactly one run. The child runs
``harness.run_experiment`` once and prints one JSON line: wall times, the
sha256 of the run's rounds.jsonl, whether every logged number is finite,
the quality guards, its environment and, when traced, the per-layer
figures of tracer.py.

The child pins itself to core CPU, so that it is not moved between cores
mid-run; run.py spreads the experiments evenly over the cores.

A plain run times only ``init_state`` and ``run_round``, by wrapping the
two harness attributes that ``run_experiment`` looks up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time

from tracer import Tracer, afflsim_modules
from workloads import BLAS_THREAD_VARS, WORKLOADS

THREAD_VARS = ("AFFLSIM_THREADS", *BLAS_THREAD_VARS)


def build_config(workload: str, seed: int):
    from afflsim import config

    preset, args, rounds, _ = WORKLOADS[workload]
    data = getattr(config, preset)(*args, seed)
    data["max_rounds"] = rounds
    data["target_accuracy"] = None
    return config.config_from_dict(data)


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return True


def environment() -> dict:
    import numpy as np

    from afflsim import harness

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "afflsim_threads_effective": harness.thread_count(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _timed(samples: list, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    return wrapper


def run_once(workload: str, seed: int, traced: bool, scratch: str) -> dict:
    from afflsim import harness

    cfg = build_config(workload, seed)
    setup, rounds = [], []
    tracer = Tracer()
    if traced:
        tracer.install(*afflsim_modules())
    else:
        originals = harness.init_state, harness.run_round
        harness.init_state = _timed(setup, originals[0])
        harness.run_round = _timed(rounds, originals[1])
    start = time.perf_counter()
    try:
        log = harness.run_experiment(cfg)
        run_s = time.perf_counter() - start
    finally:
        if traced:
            tracer.uninstall()
        else:
            harness.init_state, harness.run_round = originals
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        paths = harness.write_run_outputs(log, out)
        with open(paths["rounds"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        records = harness.load_records(paths["rounds"])
        with open(paths["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "finite": all_finite(records) and all_finite(summary),
        "final_val_acc": summary["final_val_accuracy"],
        "fairness_gap_final": summary["fairness_gap_final"],
        "env": environment(),
    }
    if traced:
        result["layers"] = tracer.layer_metrics()
    else:
        result["setup_s"] = setup[0]
        result["round_s"] = rounds
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 6 or argv[3] not in ("plain", "traced"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    workload, seed, mode, scratch, cpu = argv[1], int(argv[2]), argv[3], argv[4], int(argv[5])
    os.sched_setaffinity(0, {cpu})
    print(json.dumps(run_once(workload, seed, mode == "traced", scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
