"""Run the benchmark on two trees in alternating pairs and compare their end-to-end metrics.

Usage: python tools/bench_pairs.py FIRST_TREE SECOND_TREE --workload W [--pairs 10]

The command, the run length and the end-to-end metrics come from SECOND_TREE's
BENCHMARK.json. Pair i runs that command (``python3 perfbench/run.py``) with
``--workload W --seed i --seconds <run_seconds> --trace 0`` in each tree, from
the tree's own directory. Even pairs start with FIRST_TREE and odd pairs with
SECOND_TREE, so drift on a shared machine falls on both sides. The tool prints
one line per run, then one line per end-to-end metric: the median [q1, q3] of
each side over the complete pairs, with the quartiles of
``statistics.quantiles(values, n=4)`` as in perfbench/spread.py, and the
number of pairs SECOND_TREE won. A run that exits non-zero, whose last output
line is not JSON, or that reports incorrect outputs is printed as failed, its
pair is left out, and the tool exits 1.

    python tools/bench_pairs.py ../parent . --workload train --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict | None:
    """End-to-end metrics of one benchmark run in `tree`, or None if it failed."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> str:
    """Median [first quartile, third quartile]."""
    if len(values) == 1:
        return f"{values[0]:.4g} [{values[0]:.4g}, {values[0]:.4g}]"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric over (first, second) metric pairs; `better` maps each
    metric name to "lower" or "higher", which decides who won a pair."""
    lines = []
    for name, direction in better.items():
        first = [a[name] for a, _ in pairs]
        second = [b[name] for _, b in pairs]
        won = sum(b < a if direction == "lower" else b > a for a, b in zip(first, second))
        lines.append(f"{name}: first {spread(first)}  second {spread(second)}  "
                     f"second won {won}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.second / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = (args.first.resolve(), args.second.resolve())
    pairs, failed = [], 0
    for seed in range(args.pairs):
        metrics = [None, None]
        for side in ((0, 1) if seed % 2 == 0 else (1, 0)):
            metrics[side] = run_once(trees[side], bench["command"], args.workload, seed,
                                     bench["run_seconds"])
            label = ("first", "second")[side]
            if metrics[side] is None:
                failed += 1
                print(f"pair {seed} {label}: FAILED", flush=True)
            else:
                values = "  ".join(f"{n}={v:.4g}" for n, v in metrics[side].items())
                print(f"pair {seed} {label}: {values}", flush=True)
        if None not in metrics:
            pairs.append(tuple(metrics))
    if pairs:
        print("\n".join(summarize(pairs, better)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
