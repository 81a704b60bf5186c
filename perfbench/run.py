"""sprayseg benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload {train,evaluate-gt,sweep-tau} \\
        --seed N --seconds S --trace {0,1}

Set-up generates the workload's dataset with ``sprayseg generate``, timed,
3 to 15 times until 6 s have passed; the median is reported as ``setup_s``. A worker process then runs the
workload's command in a closed loop for ``--seconds`` and checks every
command's outputs. With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced set-up plus traced commands. The line before it is a JSON report:
environment, output-check problems and the exact work counts. The program is
imported from ``src/`` of the current directory; without it the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SECONDS = 6.0         # set-up repeats until this much time has passed,
SETUP_REPEATS = (3, 15)     # within these bounds on the repeat count
BLAS_THREADS = 1            # see README: steadier than 2 on a shared 2-core box
DEADLINE_S = 170.0          # the whole invocation must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "sample_p50_s": "s", "sample_slowest_s": "s", "peak_rss_mb": "MB"}


def blas_record() -> dict:
    """BLAS library, version and thread count numpy is using in this process."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def generate(cli, wl, config_path, out_dir, seed) -> tuple[float, int]:
    t0 = time.perf_counter()
    code = cli.main(wl.generate_argv(config_path, out_dir, seed))
    return time.perf_counter() - t0, code


def exact_counts_report(wl_name: str, seed: int, snaps: list[dict]) -> dict:
    """Exact work counts of each traced command, compared between commands and
    with the counts recorded at the seed commit."""
    import worker
    from workloads import EXACT_COUNTS, REFERENCE_PATH
    per_cmd = [{n: worker.layer_value(n, s) for n in EXACT_COUNTS} for s in snaps]
    report = {"counts": per_cmd[0],
              "mismatch_between_commands": [
                  n for n in EXACT_COUNTS if len({c[n] for c in per_cmd}) > 1]}
    recorded = {}
    if REFERENCE_PATH.is_file():
        recorded = (json.loads(REFERENCE_PATH.read_text())
                    .get("work_counts", {}).get(wl_name, {}).get(str(seed), {}))
    report["recorded_at_seed_commit"] = bool(recorded)
    report["mismatch_vs_seed_commit"] = {
        n: {"recorded": recorded[n], "now": per_cmd[0][n]}
        for n in EXACT_COUNTS if n in recorded and recorded[n] != per_cmd[0][n]}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "sprayseg" / "__init__.py").is_file():
        print(f"error: no sprayseg sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))

    import worker
    from sprayseg import cli
    from tracer import Tracer
    from workloads import EXPECTED_NONZERO, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.txt"
        config_path.write_text(wl.config_text())
        attempted = failed = 0
        problems = []
        setup_times = []
        setup_snap = None
        lo, hi = (1, 1) if args.trace else SETUP_REPEATS
        for k in range(hi):
            if k >= lo and sum(setup_times) >= SETUP_SECONDS:
                break
            data_dir = work / f"data_{k}"
            tracer = Tracer() if args.trace else None
            if tracer:
                tracer.install()
            try:
                dt, code = generate(cli, wl, config_path, data_dir, args.seed)
            finally:
                if tracer:
                    tracer.uninstall()
                    setup_snap = tracer.snapshot()
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"generate exited with code {code}")
            setup_times.append(dt)
            if k > 0:   # only data_0 is used; drop the copies before their writeback
                shutil.rmtree(data_dir, ignore_errors=True)
        data_dir = work / "data_0"
        if failed:
            print(f"error: set-up failed: {problems}", file=sys.stderr)
            return 1

        train_ids, _ = cli.read_split(data_dir)
        spec = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "workdir": str(work), "data_dir": str(data_dir),
                "config_path": str(config_path), "src_dir": str(src),
                "train_samples": len(train_ids),
                "batch_size": cli.load_config(config_path).batch_size}
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps(spec))
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                                   str(result_path)], timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
        if not res["walls"]:
            print(f"error: every command failed: {problems[:5]}", file=sys.stderr)
            return 1

        report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "commands": len(res["walls"]),
                  "traced_commands": len(res["snapshots"]), "problems": problems}
        if args.trace:
            overhead = (statistics.median(res["traced_walls"])
                        / statistics.median(res["walls"]) - 1.0)
            metrics = worker.layer_metrics(setup_snap, res["snapshots"], overhead)
            report["exact_work_counts"] = exact_counts_report(
                wl.name, args.seed, res["snapshots"])
            report["layer_pattern_deviations"] = [
                n for n, nonzero in EXPECTED_NONZERO[wl.name].items()
                if (metrics[n] != 0) != nonzero]
            units = {n: worker.layer_unit(n) for n in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(res["walls"]),
                "samples_per_s": statistics.median(res["rates"]),
                "sample_p50_s": statistics.median(res["p50s"]),
                "sample_slowest_s": statistics.median(res["slowest"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
            report["wall_s_per_command"] = res["walls"]
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
