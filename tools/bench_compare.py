"""Interleaved parent/change runs of perfbench, written to a BENCH_*.json file.

Usage (from the repository root):
    python3 tools/bench_compare.py --parent DIR --change DIR --out BENCH_x.json \
        --workload scale160:10 --workload default12:6 [--trace] [--first-seed 301] \
        [--note TEXT]

DIR is a checkout (``git clone`` or ``git archive``) holding ``perfbench/``
and ``src/``; each side's ``perfbench/run.py`` runs that side's sources.
``--workload NAME:PAIRS`` runs PAIRS pairs of plain runs of NAME. Pair k
uses workload seed ``first-seed + k`` on both sides, and the side that
runs first alternates from pair to pair. ``--trace`` adds one ``--trace 1``
run per side and workload at ``first-seed``.

For each end-to-end metric the file records every run's value, each
side's median and quartiles, how many pairs the change won (lower is
better for every end-to-end metric; ties count for neither side), and
whether the medians differ by more than the parent's interquartile range.
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


def quartiles(values: list[float]) -> dict:
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
            "median_gap_exceeds_parent_iqr": abs(
                stats["change"]["median"] - stats["parent"]["median"]
            ) > iqr,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, help="NAME:PAIRS")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--first-seed", type=int, default=301)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--note", default="", help="free text stored in the file")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "note": args.note,
        "workload_pairs": args.workload,
        "first_seed": args.first_seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    started = time.time()
    for spec in args.workload:
        name, count = spec.split(":")
        pairs = []
        for k in range(int(count)):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            for s in order:
                pair[s], out["env"] = run_bench(dirs[s], name, seed, False, args.seconds)
            pairs.append({"seed": seed, "first": order[0], **pair})
            print(f"# {name} pair {k + 1}/{count} seed {seed}: " + ", ".join(
                f"{s} round_p50_s {pair[s]['metrics']['round_p50_s']:.3f}" for s in SIDES
            ), file=sys.stderr, flush=True)
        entry = {"pairs": pairs, "end_to_end": summarize(pairs)}
        if args.trace:
            entry["traced"] = {
                s: run_bench(dirs[s], name, args.first_seed, True, args.seconds)[0]
                for s in SIDES
            }
        out["workloads"][name] = entry
    out["wall_s"] = time.time() - started
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
