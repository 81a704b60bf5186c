"""Measured loop of one workload, run in its own process.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``. The spec names the
workload, seed, time budget, trace flag and the prepared dataset; the result
holds per-command timings, output-check problems, peak RSS and, when traced,
per-layer span and counter snapshots. ``run.py`` starts this process after
set-up so that its peak RSS covers the workload alone.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

MIN_REPS = 3            # untraced commands per run, even past the time budget

COUNTERS = ("spraysim.deposit.poses", "spraysim.deposit.in_cone_rays",
            "spraysim.deposit.ray_face_tests", "spraysim.deposit.repeat_calls",
            "learner.params", "linker.segments_in", "linker.edges_committed",
            "linker.strokes_out")

LAYER_METRICS = (
    "spraysim.deposit.s", "spraysim.deposit.calls", "spraysim.deposit.poses",
    "spraysim.deposit.in_cone_rays", "spraysim.deposit.ray_face_tests",
    "spraysim.deposit.repeat_calls", "spraysim.pose_chamfer.s",
    "spraysim.paint_coverage.s", "spraysim.save_thickness.s",
    "learner.train.s", "learner.train.self_s", "learner.adam_step.calls",
    "learner.adam_step.s", "learner.adam_step.ms_per_call", "learner.params",
    "learner.predict.calls", "learner.predict.s", "learner.save_checkpoint.s",
    "learner.load_checkpoint.s",
    "objective.total_loss.calls", "objective.total_loss.s",
    "objective.chamfer_segments.s", "objective.attraction_loss.s",
    "linker.concatenate.calls", "linker.concatenate.s", "linker.build_link_graph.s",
    "linker.segments_in", "linker.edges_committed", "linker.strokes_out",
    "synthdata.generate_object.s", "geometry.sample_point_cloud.s",
    "synthdata.save_strokes.s",
    "cli.read_meta.calls", "cli.load_dataset_sample.calls", "cli.load_dataset_sample.s",
    "geometry.load_mesh.s", "geometry.load_point_cloud.s", "synthdata.load_strokes.s",
    "cli.cmd_generate.s", "cli.cmd_generate.self_s", "cli.cmd_train.s",
    "cli.cmd_train.self_s", "cli.cmd_evaluate.s", "cli.cmd_evaluate.self_s",
    "cli.cmd_sweep.s", "cli.cmd_sweep.self_s", "cli.evaluate_sample.s",
    "cli.evaluate_sample.self_s", "svgplot.line_plot.s",
    "trace.overhead_share",
)


def layer_value(name: str, snap: dict) -> float:
    """One per-layer metric from a tracer snapshot (see ``Tracer.snapshot``)."""
    if name in COUNTERS:
        return snap["counts"].get(name, 0)
    layer, _, kind = name.rpartition(".")
    if kind == "calls":
        return snap["calls"].get(layer, 0)
    if kind == "self_s":
        return snap["self"].get(layer, 0.0)
    if kind == "ms_per_call":
        calls = snap["calls"].get(layer, 0)
        return 1e3 * snap["incl"].get(layer, 0.0) / calls if calls else 0.0
    if kind == "s":
        return snap["incl"].get(layer, 0.0)
    raise KeyError(name)


def layer_unit(name: str) -> str:
    if name in COUNTERS or name.endswith(".calls"):
        return "count"
    if name.endswith(".ms_per_call"):
        return "ms"
    return "share" if name.endswith("_share") else "s"


def layer_metrics(setup_snap: dict, rep_snaps: list[dict], overhead: float) -> dict:
    """Per-layer metrics of one traced set-up plus one traced command.

    Times are the median over the traced commands; counts, which repeat
    exactly, come from the first.
    """
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_share":
            out[name] = overhead
            continue
        values = [layer_value(name, s) for s in rep_snaps]
        exact = isinstance(values[0], int)
        rep = values[0] if exact else statistics.median(values)
        out[name] = layer_value(name, setup_snap) + rep
    return out


def epoch_times(step_t: list[float], n: int, batch_size: int) -> list[float]:
    """Per-sample time of each whole epoch after the first, from Adam step times.

    An epoch runs from the last step of the previous epoch to its own last
    step, so it covers batching, forward, loss, backward and Adam. Whole
    epochs, not single steps, keep one stalled step from setting the tail.
    """
    bs = batch_size if 0 < batch_size < n else n
    per_epoch = -(-n // bs)
    return [(step_t[i + per_epoch] - step_t[i]) / n
            for i in range(per_epoch - 1, len(step_t) - per_epoch, per_epoch)]


class Probe:
    """The only hooks on untraced commands: per-sample and per-step clocks."""

    def __init__(self) -> None:
        from sprayseg import cli, learner

        self._orig = {"evaluate_sample": cli.evaluate_sample,
                      "cmd_evaluate": cli.cmd_evaluate,
                      "train": learner.train, "adam_step": learner.adam_step}
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.sample_s: list[float] = []     # cli.evaluate_sample durations
        self.evaluate_s = 0.0               # summed cli.cmd_evaluate durations
        self.step_t: list[float] = []       # Adam step return times, one train call

    def install(self) -> None:
        from tracer import rebind
        orig = self._orig

        def evaluate_sample(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig["evaluate_sample"](*args, **kwargs)
            finally:
                self.sample_s.append(time.perf_counter() - t0)

        def cmd_evaluate(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig["cmd_evaluate"](*args, **kwargs)
            finally:
                self.evaluate_s += time.perf_counter() - t0

        def train(*args, **kwargs):
            self.step_t = []
            return orig["train"](*args, **kwargs)

        def adam_step(*args, **kwargs):
            result = orig["adam_step"](*args, **kwargs)
            self.step_t.append(time.perf_counter())
            return result

        self._undo = rebind({orig["evaluate_sample"]: evaluate_sample,
                             orig["cmd_evaluate"]: cmd_evaluate,
                             orig["train"]: train, orig["adam_step"]: adam_step})

    def uninstall(self) -> None:
        from tracer import restore
        restore(self._undo)
        self._undo = []


class Runner:
    """Runs the workload's command in this process and checks its outputs."""

    def __init__(self, spec: dict) -> None:
        from workloads import WORKLOADS
        self.wl = replace(WORKLOADS[spec["workload"]], **spec.get("overrides", {}))
        self.seed = spec["seed"]
        self.work = Path(spec["workdir"])
        self.data = Path(spec["data_dir"])
        self.config = Path(spec["config_path"])
        self.n = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, clock=time.perf_counter) -> float:
        """One command; returns its wall time on ``clock``."""
        from sprayseg import cli
        self.n += 1
        out = self.work / f"cmd_{self.n:03d}"
        argv = self.wl.command_argv(self.config, self.data, out, self.seed)
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception as exc:   # keep measuring; the failure is reported
            code = f"{type(exc).__name__}: {exc}"
        wall = clock() - t0
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            problems = self.wl.check(out)
        if problems:
            self.failed += 1
            self.problems.extend(f"command {self.n}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        return wall


def traced_once(workload: str, seed: int, work: Path, **overrides) -> tuple[dict, dict, list]:
    """Traced set-up and one traced command in this process.

    Returns the set-up snapshot, the command snapshot and the output-check
    problems. ``overrides`` replace fields of the workload, to size it down.
    """
    from sprayseg import cli
    from tracer import Tracer

    spec = {"workload": workload, "seed": seed, "workdir": str(work),
            "data_dir": str(work / "data"), "config_path": str(work / "config.txt"),
            "overrides": overrides}
    runner = Runner(spec)
    runner.config.write_text(runner.wl.config_text())
    tracer = Tracer()
    snaps = []
    for step in ("setup", "command"):
        tracer.reset()
        tracer.install()
        try:
            if step == "setup":
                code = cli.main(runner.wl.generate_argv(runner.config, runner.data, seed))
                if code != 0:
                    runner.problems.append(f"generate exited with code {code}")
            else:
                runner.run(clock=tracer.clock)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    shutil.rmtree(runner.data, ignore_errors=True)
    return snaps[0], snaps[1], runner.problems


def measure(spec: dict) -> dict:
    """Commands in a closed loop for the time budget.

    With tracing, untraced and traced commands alternate, so that a slow
    phase of a shared machine does not land on one side of the overhead
    comparison.
    """
    from tracer import Tracer

    runner = Runner(spec)
    probe, tracer = Probe(), Tracer()
    walls, rates, p50s, slowest = [], [], [], []
    traced_walls, snaps = [], []
    start, untraced = time.perf_counter(), 0
    while (time.perf_counter() - start < spec["seconds"]
           or (len(walls) < MIN_REPS and untraced < 2 * MIN_REPS)):
        untraced += 1
        probe.reset()
        probe.install()
        failed = runner.failed
        try:
            wall = runner.run()
        finally:
            probe.uninstall()
        if runner.failed == failed:
            walls.append(wall)
            if runner.wl.name == "train":
                per = epoch_times(probe.step_t, spec["train_samples"], spec["batch_size"])
                rates.append(spec["train_samples"] * runner.wl.epochs / wall)
            else:
                per = probe.sample_s
                rates.append(len(per) / probe.evaluate_s)
            p50s.append(statistics.median(per))
            slowest.append(max(per))
        if spec["trace"]:
            tracer.reset()
            tracer.install()
            try:
                traced_walls.append(runner.run(clock=tracer.clock))
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
    return {"walls": walls, "rates": rates, "p50s": p50s, "slowest": slowest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "traced_walls": traced_walls, "snapshots": snaps,
            "attempted": runner.n, "failed": runner.failed, "problems": runner.problems}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, spec["src_dir"])
    result = measure(spec)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
