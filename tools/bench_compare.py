"""Interleaved parent/change runs of perfbench, written to a BENCH_*.json file.

Usage (from the repository root):
    python3 tools/bench_compare.py --parent DIR --change DIR --out BENCH_x.json \
        --workload scale160:10 --workload default12:6 [--trace] [--first-seed 301] \
        [--probe default12:30:5] [--note TEXT]

DIR is a checkout (``git clone`` or ``git archive``) holding ``perfbench/``
and ``src/``; each side's ``perfbench/run.py`` runs that side's sources.
``--workload NAME:PAIRS`` runs PAIRS pairs of plain runs of NAME. Pair k
uses workload seed ``first-seed + k`` on both sides, and the side that
runs first alternates from pair to pair. ``--trace`` adds one ``--trace 1``
run per side and workload at ``first-seed``.

``--probe NAME:ROUNDS:PAIRS`` times whole runs of a workload's preset at
another round count, e.g. a 30-round ``preset_default`` as ``default12:30``.
Each run is one ``tools/fault_probe.py`` child of this checkout pointed at
the side's sources: one BLAS thread, pinned to one core. Pair k uses seed
``first-seed + k`` and alternates the side that runs first; the file
records each side's ``run_wall_s`` (``run_experiment`` alone),
``wall_s`` (the whole process) and ``peak_rss_mb``.

For each end-to-end metric the file records every run's value, each
side's median and quartiles, how many pairs the change won (lower is
better for every end-to-end metric; ties count for neither side), and
whether the medians differ by more than the parent's interquartile range
(null for a single pair).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
FAULT_PROBE = Path(__file__).resolve().parent / "fault_probe.py"
PROBED = ("run_wall_s", "wall_s", "peak_rss_mb")


def run_bench(checkout: Path, workload: str, seed: int, trace: bool, seconds: float):
    """(result of one perfbench run, its environment block)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }, env


def run_probe(checkout: Path, workload: str, rounds: int, seed: int) -> dict:
    """One fault_probe run of the workload at the given round count."""
    cmd = [
        sys.executable, str(FAULT_PROBE), "--checkout", str(checkout), "--workload", workload,
        "--rounds", str(rounds), "--seed", str(seed), "--repeat", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[0])
    return {"seed": seed, "metrics": {k: result[k] for k in PROBED}}


def run_pairs(label: str, count: int, first_seed: int, run_side, shown: str) -> list[dict]:
    """Pair k runs run_side(side, first_seed + k) on both sides, alternating which goes first."""
    pairs = []
    for k in range(count):
        seed = first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {s: run_side(s, seed) for s in order}
        pairs.append({"seed": seed, "first": order[0], **pair})
        print(f"# {label} pair {k + 1}/{count} seed {seed}: " + ", ".join(
            f"{s} {shown} {pair[s]['metrics'][shown]:.3f}" for s in SIDES
        ), file=sys.stderr, flush=True)
    return pairs


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; one value is its own median and both quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: quartiles(vals[s]) for s in SIDES}
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            **{s: {**stats[s], "runs": vals[s]} for s in SIDES},
            "change_wins": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            "pairs": len(pairs),
            "median_change_frac": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            # one parent run has no spread to compare the gap with
            "median_gap_exceeds_parent_iqr": None if len(pairs) < 2 else abs(
                stats["change"]["median"] - stats["parent"]["median"]
            ) > iqr,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", default=[], help="NAME:PAIRS")
    parser.add_argument("--probe", action="append", default=[], help="NAME:ROUNDS:PAIRS")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--first-seed", type=int, default=301)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--note", default="", help="free text stored in the file")
    args = parser.parse_args(argv)
    if not args.workload and not args.probe:
        parser.error("give at least one --workload or --probe")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "note": args.note,
        "workload_pairs": args.workload,
        "probe_pairs": args.probe,
        "first_seed": args.first_seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    started = time.time()
    for spec in args.workload:
        name, count = spec.split(":")

        def bench_side(side: str, seed: int) -> dict:
            result, out["env"] = run_bench(dirs[side], name, seed, False, args.seconds)
            return result

        pairs = run_pairs(name, int(count), args.first_seed, bench_side, "round_p50_s")
        entry = {"pairs": pairs, "end_to_end": summarize(pairs)}
        if args.trace:
            entry["traced"] = {
                s: run_bench(dirs[s], name, args.first_seed, True, args.seconds)[0]
                for s in SIDES
            }
        out["workloads"][name] = entry
    for spec in args.probe:
        name, rounds, count = spec.split(":")
        pairs = run_pairs(
            f"{name} x {rounds} rounds", int(count), args.first_seed,
            lambda side, seed: run_probe(dirs[side], name, int(rounds), seed), "run_wall_s",
        )
        out.setdefault("probes", {})[f"{name}:{rounds}"] = {
            "pairs": pairs, "end_to_end": summarize(pairs)
        }
    out["wall_s"] = time.time() - started
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
