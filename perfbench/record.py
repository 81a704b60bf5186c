"""Record reference values of the current commit, from the repository root.

    python3 perfbench/record.py reference   # -> perfbench/reference.json
    python3 perfbench/record.py roadmap     # -> "roadmap" in perfbench/seed_commit.json

``reference`` stores what ``run.py`` compares against: the per-sample PCD and
PC of ``evaluate-gt`` (its output check) and the exact work counts of one
traced command per workload for seeds 0-9. ``roadmap`` times the default
configuration (``face_grid`` 6, one test sample per category, dataset seed 0)
to set the benchmark beside the hand-measured ROADMAP baseline. Both were run
at the commit that added the benchmark; re-running them on a later commit
makes that commit the reference, which only a change that alters results on
purpose should do.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def _prepare() -> Path:
    from run import BLAS_THREADS
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(Path.cwd() / "src"))
    work = Path.cwd() / ".bench_work" / f"record-p{os.getpid()}"
    work.mkdir(parents=True)
    return work


def traced_counts(name: str, seed: int, work: Path) -> dict:
    from worker import layer_value, traced_once
    from workloads import EXACT_COUNTS

    _, snap, problems = traced_once(name, seed, work)
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems}")
    return {n: layer_value(n, snap) for n in EXACT_COUNTS}


def record_reference(work: Path) -> None:
    from sprayseg import cli
    from workloads import REFERENCE_PATH, WORKLOADS

    wl = WORKLOADS["evaluate-gt"]
    config = work / "config.txt"
    config.write_text(wl.config_text())
    assert cli.main(wl.generate_argv(config, work / "ref_data", 0)) == 0
    assert cli.main(wl.command_argv(config, work / "ref_data", work / "ref_eval", 0)) == 0
    with open(work / "ref_eval" / "metrics.csv", newline="") as f:
        metrics = {r["sample_id"]: [float(r["pcd_x1e4"]), float(r["pc"])]
                   for r in csv.DictReader(f) if r["sample_id"] != "mean"}
    # no reference yet: the evaluate-gt check of the traced commands below
    # would fail, so write the metrics first
    REFERENCE_PATH.write_text(json.dumps({"evaluate_gt_reference": metrics}, indent=1))
    counts = {name: {str(s): traced_counts(name, s, work) for s in SEEDS}
              for name in WORKLOADS}
    REFERENCE_PATH.write_text(json.dumps(
        {"evaluate_gt_reference": metrics, "work_counts": counts}, indent=1) + "\n")


def record_roadmap(work: Path) -> None:
    from sprayseg import cli, spraysim
    from tracer import Tracer, in_cone_rays
    from worker import layer_value
    from workloads import ALL_CATEGORIES

    out = {}
    data = work / "default"
    assert cli.main(["generate", "--out", str(data), "--categories", ALL_CATEGORIES,
                     "--count", "5", "--seed", "0"]) == 0
    cfg = cli.load_config(None, {})
    _, test_ids = cli.read_split(data)
    per_sample = {}
    for sid in test_ids:
        mesh, _, strokes = cli.load_dataset_sample(data, sid)
        t0 = time.perf_counter()
        spraysim.deposit(mesh, strokes, cfg.gun())
        deposit_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        cli.evaluate_sample(cfg, data, sid, None, concat=True)
        evaluate_s = time.perf_counter() - t0
        rays = in_cone_rays(mesh, strokes, cfg.gun())
        per_sample[sid] = {"evaluate_sample_s": evaluate_s, "gt_deposit_s": deposit_s, "gt_poses": int(sum(map(len, strokes))),
                           "gt_in_cone_rays": rays, "faces": len(mesh.triangles),
                           "gt_ray_face_tests": rays * len(mesh.triangles)}
    out["evaluate_sample_default_config"] = per_sample
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--dataset", str(data), "--out", str(work / "run"),
                         "--epochs", "10"]) == 0
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    out["train_default_config"] = {
        n: layer_value(n, snap) for n in
        ("learner.params", "learner.adam_step.calls", "learner.adam_step.ms_per_call",
         "learner.train.s", "learner.train.self_s", "objective.total_loss.s")}
    seed_commit = HERE / "seed_commit.json"
    record = json.loads(seed_commit.read_text()) if seed_commit.is_file() else {}
    record["roadmap"] = out
    seed_commit.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out, indent=1))


def main(argv: list[str]) -> int:
    if argv not in (["reference"], ["roadmap"]):
        print(__doc__, file=sys.stderr)
        return 2
    work = _prepare()
    try:
        (record_reference if argv[0] == "reference" else record_roadmap)(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
