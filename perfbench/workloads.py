"""The three benchmark workloads: inputs, commands, output checks, expectations.

Each workload is one ``sprayseg`` command run repeatedly in one process
(closed loop, one client). Its dataset is made by ``sprayseg generate`` during
set-up. ``train`` takes its dataset seed from ``--seed``. ``evaluate-gt`` and
``sweep-tau`` deposit paint, whose cost varies about 8x with object geometry,
so their geometry is pinned (dataset seed 0); ``--seed`` sets the training seed
of ``sweep-tau`` and is passed through to ``evaluate-gt``, where ground-truth
mode has no random component.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

ALL_CATEGORIES = "cuboids,windows,shelves,containers"
DEFAULT_MODEL_PARAMS = 1_104_616   # lam=4, overlap=1, budget=480, cloud_points=512

# output-check tolerances for evaluate-gt against the seed-commit values
PCD_REL_TOL = 1e-6      # PCD does not depend on deposit; only float reordering
PC_ABS_TOL = 1.0        # PC in percentage points: about one covered vertex


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    categories: str
    count: int                      # samples per category (>= 5 for a split)
    config: dict = field(default_factory=dict)
    dataset_seed: int | None = None  # None: the benchmark's --seed
    epochs: int = 0
    tau_values: str = ""

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    def generate_argv(self, config_path, out_dir, seed: int) -> list[str]:
        ds = seed if self.dataset_seed is None else self.dataset_seed
        return ["generate", "--config", str(config_path), "--out", str(out_dir),
                "--categories", self.categories, "--count", str(self.count),
                "--seed", str(ds)]

    def command_argv(self, config_path, data_dir, out_dir, seed: int) -> list[str]:
        common = ["--config", str(config_path), "--dataset", str(data_dir),
                  "--out", str(out_dir), "--seed", str(seed)]
        if self.name == "train":
            return ["train", *common, "--epochs", str(self.epochs)]
        if self.name == "evaluate-gt":
            return ["evaluate", *common, "--ground-truth", "--concat"]
        return ["sweep", *common, "--param", "tau", "--values", self.tau_values,
                "--epochs", str(self.epochs)]

    def check(self, out_dir) -> list[str]:
        """Problems found in one command's outputs; empty when they are correct."""
        out_dir = Path(out_dir)
        if self.name == "train":
            return _check_train(out_dir, self.epochs)
        if self.name == "evaluate-gt":
            return _check_evaluate(out_dir)
        return _check_sweep(out_dir, self.tau_values)


WORKLOADS = {
    "train": Workload(
        name="train",
        why="learner and objective do nearly all the work and spraysim none: "
            "Adam and loss changes show here; a deposit change must read unchanged",
        categories=ALL_CATEGORIES, count=10, epochs=10),
    "evaluate-gt": Workload(
        name="evaluate-gt",
        why="ground-truth evaluate --concat: spraysim.deposit is ~99% of the time "
            "and learner does nothing, so occlusion/culling changes show here",
        categories=ALL_CATEGORIES, count=5, config={"face_grid": 3},
        dataset_seed=0),
    "sweep-tau": Workload(
        name="sweep-tau",
        why="tau sweep re-deposits each ground truth per tau value (repeat deposit "
            "calls) and links predicted segments: memoization shows here",
        categories="cuboids,windows,shelves", count=5, config={"face_grid": 3, "budget": 160},
        dataset_seed=0, epochs=10, tau_values="0.05,0.15,0.3"),
}


# ---------------------------------------------------------------------------
# output checks


def _finite_rows(path: Path) -> tuple[list[dict], list[str]]:
    if not path.is_file():
        return [], [f"{path.name} missing"]
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    for row in rows:
        for key, value in row.items():
            if key == "sample_id":
                continue
            try:
                ok = math.isfinite(float(value))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{path.name}: non-finite {key}={value!r}")
    return rows, problems


def _check_train(out_dir: Path, epochs: int) -> list[str]:
    from sprayseg import learner

    rows, problems = _finite_rows(out_dir / "loss.csv")
    if len(rows) != epochs:
        problems.append(f"loss.csv has {len(rows)} rows, expected {epochs}")
    elif not problems and not float(rows[-1]["total"]) < float(rows[0]["total"]):
        problems.append("last epoch loss is not below the first")
    ckpt = out_dir / "checkpoint.ckpt"
    if not ckpt.is_file():
        return problems + ["checkpoint missing"]
    # bypass any tracing wrapper: the check is not part of the workload
    load = getattr(learner.load_checkpoint, "__wrapped__", learner.load_checkpoint)
    n = load(ckpt).flat.size
    if n != DEFAULT_MODEL_PARAMS:
        problems.append(f"checkpoint has {n} parameters, expected {DEFAULT_MODEL_PARAMS}")
    return problems


def reference_metrics() -> dict:
    """Per-sample (pcd_x1e4, pc) of evaluate-gt recorded at the seed commit."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get("evaluate_gt_reference", {})


def _check_evaluate(out_dir: Path) -> list[str]:
    rows, problems = _finite_rows(out_dir / "metrics.csv")
    if not rows or rows[-1]["sample_id"] != "mean":
        return problems + ["metrics.csv has no mean row"]
    reference = reference_metrics()
    samples = {r["sample_id"]: r for r in rows[:-1]}
    if not reference:
        return problems + ["no recorded reference metrics"]
    if sorted(samples) != sorted(reference):
        return problems + [f"evaluated samples {sorted(samples)} != {sorted(reference)}"]
    for sid, (pcd_ref, pc_ref) in reference.items():
        pcd, pc = float(samples[sid]["pcd_x1e4"]), float(samples[sid]["pc"])
        if not abs(pcd - pcd_ref) <= PCD_REL_TOL * abs(pcd_ref):
            problems.append(f"{sid}: pcd_x1e4 {pcd!r} != recorded {pcd_ref!r}")
        if not abs(pc - pc_ref) <= PC_ABS_TOL:
            problems.append(f"{sid}: pc {pc!r} != recorded {pc_ref!r}")
    return problems


def _check_sweep(out_dir: Path, tau_values: str) -> list[str]:
    rows, problems = _finite_rows(out_dir / "sweep.csv")
    want = [float(v) for v in tau_values.split(",")]
    got = [float(r["tau"]) for r in rows] if rows and "tau" in rows[0] else []
    if got != want:
        problems.append(f"sweep.csv tau rows {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# per-layer expectations


# work counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "spraysim.deposit.calls", "spraysim.deposit.poses",
    "spraysim.deposit.in_cone_rays", "spraysim.deposit.ray_face_tests",
    "spraysim.deposit.repeat_calls", "learner.adam_step.calls",
    "objective.total_loss.calls", "linker.edges_committed", "cli.read_meta.calls",
)

_GENERATE = ("synthdata.generate_object.s", "geometry.sample_point_cloud.s",
             "synthdata.save_strokes.s", "cli.cmd_generate.s")
_LOAD = ("cli.read_meta.calls", "cli.load_dataset_sample.calls",
         "cli.load_dataset_sample.s", "geometry.load_mesh.s",
         "geometry.load_point_cloud.s", "synthdata.load_strokes.s")
_DEPOSIT = ("spraysim.deposit.s", "spraysim.deposit.calls", "spraysim.deposit.poses",
            "spraysim.deposit.in_cone_rays", "spraysim.deposit.ray_face_tests")
_EVAL = ("spraysim.pose_chamfer.s", "spraysim.paint_coverage.s",
         "spraysim.save_thickness.s", "cli.cmd_evaluate.s", "cli.evaluate_sample.s")
_LINK = ("linker.concatenate.calls", "linker.concatenate.s", "linker.build_link_graph.s",
         "linker.segments_in", "linker.edges_committed", "linker.strokes_out")
_TRAIN = ("learner.train.s", "learner.train.self_s", "learner.adam_step.calls",
          "learner.adam_step.s", "learner.adam_step.ms_per_call", "learner.params",
          "objective.total_loss.calls", "objective.total_loss.s",
          "objective.chamfer_segments.s", "objective.attraction_loss.s",
          "learner.save_checkpoint.s", "cli.cmd_train.s")
_PREDICT = ("learner.predict.calls", "learner.predict.s", "learner.load_checkpoint.s")
_SWEEP = ("spraysim.deposit.repeat_calls", "cli.cmd_sweep.s", "svgplot.line_plot.s")

# True: the traced run must see work in this layer; False: it must see none
EXPECTED_NONZERO = {
    "train": {**dict.fromkeys(_GENERATE + _LOAD + _TRAIN, True),
              **dict.fromkeys(_DEPOSIT + _EVAL + _LINK + _PREDICT + _SWEEP, False)},
    "evaluate-gt": {**dict.fromkeys(_GENERATE + _LOAD + _DEPOSIT + _EVAL + _LINK, True),
                    **dict.fromkeys(_TRAIN + _PREDICT + _SWEEP, False)},
    "sweep-tau": dict.fromkeys(_GENERATE + _LOAD + _DEPOSIT + _EVAL + _LINK + _TRAIN
                               + _PREDICT + _SWEEP, True),
}
