"""afflsim benchmark: end-to-end and per-layer timing of run_experiment.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each experiment is one ``harness.run_experiment`` call in a fresh child
process (child.py), started with ``AFFLSIM_THREADS`` removed, so that the
program's default applies, and with every BLAS and OpenMP thread count set
to 1 (see workloads.BLAS_THREAD_VARS). Experiments run one at a time.

A run measures the workload on the inputs of several workload seeds
(``seed``, ``seed + 1000``, ...; how many is set per workload in
workloads.py), taken in turn, and keeps starting experiments until the
next one would end after ``--seconds``:

* ``--trace 0``: every seed at least twice, plain. Prints run_s, setup_s
  and round_p50_s, medians over the run's experiments and rounds, and
  peak_rss_mb, their mean.
* ``--trace 1``: every seed at least once plain and once traced. Prints
  the per-layer figures of tracer.py, averaged per traced experiment, and
  trace.overhead_frac.

Correctness gate: every experiment must finish and log only finite
numbers, and every experiment of one workload seed, plain or traced, must
give the same rounds.jsonl sha256. Each experiment that does not counts in
``failed``. Whether a digest still equals the one recorded at the commit
that introduced the benchmark is printed for information only.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it are the human-readable
report, including the quality guards and the environment block.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import BLAS_THREAD_VARS, SEED_COMMIT_DIGESTS, WORKLOADS, workload_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "round_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_frac": "ratio"}

# The whole command must end within 180 s.
HARD_LIMIT_S = 165.0


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "AFFLSIM_THREADS" and not k.endswith("_NUM_THREADS")
    }
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, mode: str, cpu: int, deadline: float) -> dict | None:
    """One experiment in a fresh process on core ``cpu``; None if it failed or timed out."""
    cmd = [
        sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(SCRATCH), str(cpu)
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"# {workload} seed {seed} {mode}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# {workload} seed {seed} {mode}: exit {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seeds: list[int], seconds: float, trace: bool):
    """Run steps over the seeds in turn; returns (results, experiments attempted).

    A step runs one seed once per mode. Steps continue until the next one
    would end after ``seconds``, but every seed gets two experiments so
    that its digests can be compared.

    Each step is pinned to one core. Successive steps, and successive
    repeats of one seed, take turns over the cores. A core that the host
    keeps busy then holds a fixed share of the experiments, not a share
    that the scheduler picks anew in every run.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    min_steps = len(seeds) * (1 if trace else 2)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    results, attempted, steps = [], 0, 0
    for seed in itertools.cycle(seeds):
        cycle, index = divmod(steps, len(seeds))
        cpu = cpus[(cycle + index) % len(cpus)]
        for mode in modes:
            attempted += 1
            result = run_child(workload, seed, mode, cpu, deadline)
            if result is not None:
                results.append(result)
        steps += 1
        now = time.monotonic()
        next_end = now + (now - start) / steps
        if next_end > deadline or (steps >= min_steps and next_end - start > seconds):
            return results, attempted


def gate(results: list[dict]) -> list[dict]:
    """Results that are finite and carry their seed's majority digest."""
    majority = {}
    for seed in {r["seed"] for r in results}:
        digests = Counter(r["digest"] for r in results if r["seed"] == seed)
        majority[seed] = digests.most_common(1)[0][0]
    return [r for r in results if r["finite"] and r["digest"] == majority[r["seed"]]]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    return {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "round_p50_s": statistics.median(t for r in plain for t in r["round_s"]),
        # peak RSS barely varies between repeats but does between input seeds
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.fmean(r["layers"][name] for r in traced) for name in LAYER_UNITS
    }
    traced_s = sum(r["run_s"] for r in traced)
    out["trace.overhead_frac"] = traced_s / sum(r["run_s"] for r in plain) - 1.0
    return out


def environment(first: dict) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    replaced = {
        k: v for k, v in os.environ.items() if k == "AFFLSIM_THREADS" or k.endswith("_NUM_THREADS")
    }
    return {
        **first["env"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git,
        "replaced_for_children": replaced,
    }


def report(workload, seeds, results, good, attempted, failed, metrics, units, trace):
    print(f"# afflsim benchmark: workload {workload}, seeds {seeds}, trace {int(trace)}")
    print("# env " + json.dumps(environment(results[0]), sort_keys=True))
    for seed in seeds:
        runs = [r for r in results if r["seed"] == seed]
        if not runs:
            print(f"# seed {seed}: no experiment finished")
            continue
        kept = [r for r in good if r["seed"] == seed]
        digest = (kept or runs)[0]["digest"]
        recorded = SEED_COMMIT_DIGESTS.get(f"{workload}:{seed}")
        match = "none recorded" if recorded is None else ("match" if recorded == digest else "differs")
        print(
            f"# seed {seed}: rounds.jsonl sha256 {digest}, {len(kept)}/{len(runs)} runs"
            f" agree and are finite, seed-commit digest {match},"
            f" final_val_acc {runs[0]['final_val_acc']:.4f},"
            f" fairness_gap_final {runs[0]['fairness_gap_final']:.4f}"
        )
    plain = [r for r in good if not r["traced"]]
    print(f"{'metric':40s} {'value':>14s} unit")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    rounds = sum(len(r["round_s"]) for r in plain)
    print(
        f"# run_s and setup_s are medians and peak_rss_mb the mean of {len(plain)} plain"
        f" runs of {len({r['seed'] for r in plain})} seeds; round_p50_s is the median of"
        f" {rounds} rounds"
    )
    guards = {
        "final_val_acc": statistics.median(r["final_val_acc"] for r in good),
        "fairness_gap_final": statistics.median(r["fairness_gap_final"] for r in good),
        "failed_frac": failed / attempted,
    }
    for name, value in guards.items():
        print(f"{name:40s} {value:14.6g} fraction")
    print("# quality guards: final_val_acc higher is better, fairness_gap_final lower")
    if trace:
        traced_s = statistics.fmean(r["run_s"] for r in good if r["traced"])
        print(f"# layer split, share of traced run_s ({traced_s:.3f} s):")
        for name, value in metrics.items():
            if units[name] == "s":
                print(f"#   {name:40s} {value / traced_s:7.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afflsim" / "__init__.py").is_file():
        print(f"afflsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    seeds = workload_seeds(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    try:
        results, attempted = collect(args.workload, seeds, args.seconds, trace)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    good = gate(results)
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (trace and not traced):
        print("no experiment passed the correctness gate", file=sys.stderr)
        return 1
    failed = attempted - len(good)
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(plain), END_TO_END_UNITS
    report(args.workload, seeds, results, good, attempted, failed, metrics, units, trace)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
