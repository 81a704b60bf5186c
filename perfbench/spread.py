"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train,evaluate-gt,sweep-tau \\
        --seeds 0-9 [--trace 0] [--record]

Each (workload, seed) is one ``run.py`` invocation with the ``run_seconds``
of BENCHMARK.json. For every metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the inter-quartile range as a share
of the median, next to the metric's bound. ``--record`` stores the summary
under "end_to_end" in perfbench/seed_commit.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="train,evaluate-gt,sweep-tau")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*bench["command"], "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{wl} seed {seed}: incorrect\n{proc.stdout.splitlines()[-2][:2000]}")
            runs.append(last)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        summary[wl] = {name: summarize([r["metrics"][name]["value"] for r in runs])
                       for name in runs[0]["metrics"]}
        for name, s in summary[wl].items():
            bound = bounds.get(name)
            print(f"  {wl:12s} {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
    if args.record:
        path = HERE / "seed_commit.json"
        record = json.loads(path.read_text()) if path.is_file() else {}
        record.setdefault("end_to_end" if args.trace == 0 else "per_layer", {}).update(summary)
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
