import builtins
import errno
import hashlib
import inspect
import io
import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sprayseg import cli, objective, spraysim, synthdata
from sprayseg.cli import ExperimentConfig, load_config

from conftest import spread_over


def tiny_overrides(**extra):
    base = {
        "categories": "cuboids",
        "count": 6,
        "budget": 96,
        "cloud_points": 48,
        "lam": 4,
        "overlap": 1,
        "latent_dim": 16,
        "encoder_hidden": "12,16",
        "head_hidden": "24",
        "epochs": 15,
        "batch_size": 0,
        "seed": 0,
    }
    base.update(extra)
    return base


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = load_config(None, tiny_overrides())
    out = root / "dataset"
    cli.cmd_generate(cfg, out)
    return cfg, out


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_dataset, tmp_path_factory):
    cfg, data = tiny_dataset
    out = tmp_path_factory.mktemp("run")
    ckpt = cli.cmd_train(cfg, cli.Dataset(data), out)
    return cfg, data, ckpt


@pytest.fixture(scope="module")
def pointwise_checkpoint(tiny_dataset, tmp_path_factory):
    """A model that predicts single-pose segments, which cannot be linked."""
    _, data = tiny_dataset
    cfg = load_config(None, tiny_overrides(mode="pointwise", epochs=1))
    return cfg, data, cli.cmd_train(cfg, cli.Dataset(data), tmp_path_factory.mktemp("pw"))


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class HalfWriter(io.FileIO):
    """A file that stores half of what it is given, then fails as a full disk does."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_part_way(monkeypatch, failure):
    """Make every file write fail after half its bytes, or every rename fail."""
    if failure == "write":
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda file, mode="r", *args, **kwargs:
                            HalfWriter(file, "w") if "w" in mode
                            else real_open(file, mode, *args, **kwargs))
    else:
        def fail(*args):
            raise OSError(errno.EIO, "rename failed")
        monkeypatch.setattr(os, "replace", fail)


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("epochs = 5\nlam = 6\ncategories = windows,shelves\n")
        cfg = load_config(path, {"lam": "2"})
        assert cfg.epochs == 5
        assert cfg.lam == 2  # flags win over the file
        assert cfg.categories == ("windows", "shelves")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("nonsense = 1\n")
        with pytest.raises(cli.CliError):
            load_config(path, {})

    def test_bad_category(self):
        with pytest.raises(cli.CliError):
            load_config(None, {"categories": "spheres"})


class TestGenerate:
    def test_split_manifest(self, tiny_dataset):
        _, out = tiny_dataset
        train_ids, test_ids = cli.read_split(out)
        assert len(train_ids) == 5 and len(test_ids) == 1
        assert (out / "meta.txt").exists()
        for sid in train_ids + test_ids:
            d = out / "samples" / sid
            assert (d / "mesh.txt").exists()
            assert (d / "cloud.txt").exists()
            assert (d / "strokes.txt").exists()

    def test_five_sample_split(self, tmp_path):
        cfg = load_config(None, tiny_overrides(count=5))
        out = cli.cmd_generate(cfg, tmp_path / "d5")
        train_ids, test_ids = cli.read_split(out)
        assert len(train_ids) == 4 and len(test_ids) == 1

    def test_rerun_identical_bytes(self, tiny_dataset, tmp_path):
        cfg, out = tiny_dataset
        again = cli.cmd_generate(cfg, tmp_path / "again")
        assert tree_bytes(out) == tree_bytes(again)

    def test_scale_factor_covers_training_coordinates(self, tiny_dataset):
        _, out = tiny_dataset
        meta = cli.read_meta(out)
        train_ids, _ = cli.read_split(out)
        for sid in train_ids:
            _, cloud, strokes = cli.load_dataset_sample(out, sid)
            c = cloud.mean(axis=0)
            assert np.abs(cloud - c).max() <= meta["scale_factor"] + 1e-12
            for s in strokes:
                assert np.abs(s[:, :3] - c).max() <= meta["scale_factor"] + 1e-12


class TestTrainPredict:
    def test_train_outputs(self, tiny_checkpoint):
        _, _, ckpt = tiny_checkpoint
        run_dir = ckpt.parent
        loss_lines = (run_dir / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,total,y2s,b2e"
        assert len(loss_lines) == 16
        assert (run_dir / "train_info.txt").exists()

    def test_train_bytes_do_not_depend_on_worker_count(self, tiny_dataset, tmp_path,
                                                        monkeypatch):
        _, data = tiny_dataset
        # 74k parameters, so 3 Adam chunks; minibatches of 2 samples
        cfg = load_config(None, tiny_overrides(head_hidden="96", epochs=3, batch_size=2))
        outputs = []
        for workers in (1, 3):
            helped = spread_over(monkeypatch, workers)
            ckpt = cli.cmd_train(cfg, cli.Dataset(data), tmp_path / str(workers))
            outputs.append((ckpt.read_bytes(), (ckpt.parent / "loss.csv").read_bytes()))
            assert bool(helped) == (workers > 1)
        assert outputs[1] == outputs[0]

    def test_fraction_subset(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        cfg = load_config(None, tiny_overrides(fraction=0.4, epochs=2))
        out = tmp_path / "frac"
        cli.cmd_train(cfg, cli.Dataset(data), out)
        info = dict(line.split(" = ") for line in
                    (out / "train_info.txt").read_text().splitlines())
        assert len(info["train_ids"].split(",")) == 2

    def test_predict_and_concat(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        pred_dir = cli.cmd_predict(cfg, ckpt, cli.Dataset(data), tmp_path / "pred")
        _, test_ids = cli.read_split(data)
        segments = synthdata.load_strokes(pred_dir / f"{test_ids[0]}.txt")
        meta = cli.read_meta(data)
        slots = synthdata.output_slot_count(meta["budget"], cfg.lam, cfg.overlap)
        assert len(segments) == slots
        linked_dir = cli.cmd_concat(cfg, pred_dir, cli.Dataset(data), tmp_path / "linked")
        strokes = synthdata.load_strokes(linked_dir / f"{test_ids[0]}.txt")
        assert sum(len(s) for s in strokes) <= slots * cfg.lam

    def test_pretrained_shape_mismatch(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        bad = load_config(None, tiny_overrides(latent_dim=8, epochs=1))
        with pytest.raises(cli.CliError, match="pretrained checkpoint does not match") as info:
            cli.cmd_train(bad, cli.Dataset(data), tmp_path / "bad", pretrained=ckpt)
        assert str(info.value).startswith(f"{ckpt}: ")

    def test_pretrained_warm_start(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        warm = load_config(None, tiny_overrides(epochs=2))
        out = cli.cmd_train(warm, cli.Dataset(data), tmp_path / "warm", pretrained=ckpt)
        assert out.exists()

    def test_train_predict_concat_read_no_file_they_do_not_use(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        for mesh in copy.glob("samples/*/mesh.txt"):
            mesh.unlink()
        out = cli.cmd_train(cfg, cli.Dataset(copy), tmp_path / "run")
        assert out.read_bytes() == ckpt.read_bytes()
        pred = cli.cmd_predict(cfg, ckpt, cli.Dataset(copy), tmp_path / "pred")
        assert tree_bytes(pred) == tree_bytes(cli.cmd_predict(cfg, ckpt, cli.Dataset(data),
                                                              tmp_path / "pred_full"))
        for strokes in copy.glob("samples/*/strokes.txt"):
            strokes.unlink()
        linked = cli.cmd_concat(cfg, pred, cli.Dataset(copy), tmp_path / "linked")
        assert tree_bytes(linked) == tree_bytes(cli.cmd_concat(cfg, pred, cli.Dataset(data),
                                                               tmp_path / "linked_full"))

    def test_pipeline_rerun_identical_bytes(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        for run in ("a", "b"):
            out = tmp_path / run
            ckpt = cli.cmd_train(cfg, cli.Dataset(data), out / "run")
            pred = cli.cmd_predict(cfg, ckpt, cli.Dataset(data), out / "pred")
            cli.cmd_concat(cfg, pred, cli.Dataset(data), out / "linked")
            cli.cmd_evaluate(cfg, cli.Dataset(data), out / "eval", checkpoint=ckpt, concat=True)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestEvaluate:
    def test_ground_truth_passthrough(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        rows = cli.cmd_evaluate(cfg, cli.Dataset(data), tmp_path / "gt", ground_truth=True)
        for row in rows:
            assert row.pcd < 1.0  # only trailing-pose truncation remains
            assert row.pc == 100.0

    def test_metrics_csv_mean_recomputable(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        rows = cli.cmd_evaluate(cfg, cli.Dataset(data), tmp_path / "ev", checkpoint=ckpt)
        lines = (tmp_path / "ev" / "metrics.csv").read_text().splitlines()
        body = [line.split(",") for line in lines[1:-1]]
        mean_line = lines[-1].split(",")
        assert mean_line[0] == "mean"
        assert float(mean_line[1]) == pytest.approx(np.mean([float(r[1]) for r in body]))
        assert float(mean_line[2]) == pytest.approx(np.mean([float(r[2]) for r in body]))
        assert len(body) == len(rows)

    def test_concat_artifacts(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        rows = cli.cmd_evaluate(cfg, cli.Dataset(data), tmp_path / "evc", checkpoint=ckpt,
                                concat=True)
        _, test_ids = cli.read_split(data)
        d = tmp_path / "evc" / test_ids[0]
        assert (d / "gt_thickness.txt").exists()
        assert (d / "pred_thickness.txt").exists()
        assert rows[0].strokes <= rows[0].segments

    def test_train_reads_dataset_metadata_once(self, tiny_dataset, tmp_path, monkeypatch):
        _, data = tiny_dataset
        read_meta = cli.read_meta
        calls = []
        monkeypatch.setattr(cli, "read_meta", lambda d: calls.append(d) or read_meta(d))
        cli.cmd_train(load_config(None, tiny_overrides(epochs=1)), cli.Dataset(data),
                      tmp_path / "run")
        assert len(calls) == 1

    def test_reads_dataset_metadata_once(self, tiny_checkpoint, tmp_path, monkeypatch):
        cfg, _, ckpt = tiny_checkpoint
        two = load_config(None, tiny_overrides(categories="cuboids,windows", face_grid=3))
        data = cli.cmd_generate(two, tmp_path / "data")
        train_ids, test_ids = cli.read_split(data)
        assert len(test_ids) > 1
        read_meta = cli.read_meta
        calls = []
        monkeypatch.setattr(cli, "read_meta", lambda d: calls.append(d) or read_meta(d))
        cli.cmd_evaluate(two, cli.Dataset(data), tmp_path / "gt", ground_truth=True)
        cli.cmd_predict(cfg, ckpt, cli.Dataset(data), tmp_path / "pred", ids=train_ids)
        assert len(calls) == 2   # one per command, not one per sample
        tau = load_config(None, tiny_overrides(categories="cuboids,windows", epochs=1))
        cli.cmd_sweep(tau, cli.Dataset(data), tmp_path / "sweep", "tau", [0.05, 0.3])
        assert len(calls) == 3   # one per command, not one per tau value

    def test_direct_calls_with_a_dataset_directory(self, tiny_dataset):
        # perfbench/record.py makes these two calls with the dataset's path
        cfg, data = tiny_dataset
        sid = cli.read_split(data)[1][0]
        mesh, _, strokes = cli.load_dataset_sample(data, sid)
        assert len(mesh.vertices) > 0 and len(strokes) > 0
        row = cli.evaluate_sample(cfg, data, sid, None, concat=True)
        assert row.sample_id == sid and row.pc == 100.0

    def test_ground_truth_concat_calls_no_training_loss(self, tiny_dataset, tmp_path,
                                                         monkeypatch):
        # The benchmark's layer pattern expects every public `objective` function to read zero
        # here: the PCD takes `objective._chamfer`. Every alias is refused, as a tracer sees them.
        losses = {objective.chamfer_segments, objective.attraction_loss, objective.total_loss,
                  objective.regression_loss}

        def refuse(*args, **kwargs):
            raise AssertionError("a training loss was called")

        for name, module in list(sys.modules.items()):
            if name == "sprayseg" or name.startswith("sprayseg."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in losses:
                        monkeypatch.setattr(module, attr, refuse)
        cfg, data = tiny_dataset
        rows = cli.cmd_evaluate(cfg, cli.Dataset(data), tmp_path / "gt", ground_truth=True,
                                concat=True)
        assert rows and all(np.isfinite(row.pcd) for row in rows)

    @pytest.mark.parametrize("pcd", [float("nan"), float("inf")])
    def test_non_finite_pcd_rejected(self, pcd):
        with pytest.raises(ValueError, match="pcd"):
            cli.MetricsRow(sample_id="s", pcd=pcd, pc=50.0, segments=1, strokes=1)

    def test_needs_checkpoint_or_flag(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        for given in ({"checkpoint": ckpt, "ground_truth": True},
                      {"checkpoint": tmp_path / "nonexistent.ckpt", "ground_truth": True}, {}):
            with pytest.raises(cli.CliError, match="exactly one of"):
                cli.cmd_evaluate(cfg, cli.Dataset(data), tmp_path / "no", **given)
            assert not (tmp_path / "no").exists()


class TestAtomicWrites:
    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_keeps_previous_outputs(self, tiny_checkpoint, tmp_path,
                                                 monkeypatch, failure):
        cfg, data, ckpt = tiny_checkpoint
        out = tmp_path / "out"
        cli.cmd_train(load_config(None, tiny_overrides(epochs=1)), cli.Dataset(data), out / "run")
        cli.cmd_evaluate(cfg, cli.Dataset(data), out / "eval", ground_truth=True)
        before = tree_bytes(out)
        assert {"run/checkpoint.ckpt", "eval/metrics.csv"} <= before.keys()
        with monkeypatch.context() as m:
            fail_part_way(m, failure)
            with pytest.raises(OSError):
                cli.cmd_train(load_config(None, tiny_overrides(epochs=2)), cli.Dataset(data),
                              out / "run")
            assert tree_bytes(out) == before
            with pytest.raises(OSError):
                cli.cmd_evaluate(cfg, cli.Dataset(data), out / "eval", checkpoint=ckpt)
        assert tree_bytes(out) == before   # same names too: no temporary file is left


class TestMultipath:
    def test_train_and_evaluate(self, tiny_dataset, tmp_path):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        overrides = tiny_overrides(epochs=2)
        conf.write_text("\n".join(f"{k} = {v}" for k, v in overrides.items()) + "\n")
        run, ev = tmp_path / "run", tmp_path / "eval"
        assert cli.main(["train", "--config", str(conf), "--dataset", str(data),
                         "--mode", "multipath_regression", "--out", str(run)]) == 0
        assert cli.load_checkpoint(run / "checkpoint.ckpt").config.slots == 6
        assert cli.main(["evaluate", "--config", str(conf), "--dataset", str(data),
                         "--checkpoint", str(run / "checkpoint.ckpt"), "--out", str(ev)]) == 0
        lines = (ev / "metrics.csv").read_text().splitlines()
        table = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
        assert len(table) == len(cli.read_split(data)[1]) + 1
        assert np.isfinite(table).all()

    def test_mixed_stroke_counts_rejected(self, tmp_path, capsys):
        cfg = load_config(None, tiny_overrides(categories="cuboids,windows", count=5,
                                               face_grid=3))
        data = cli.cmd_generate(cfg, tmp_path / "data")
        argv = ["train", "--dataset", str(data), "--mode", "multipath_regression",
                "--epochs", "1", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "uniform stroke count" in err
        # the message names the first train sample whose count differs from the first's
        train_ids, _ = cli.read_split(data)
        counts = [len(synthdata.load_strokes(data / "samples" / sid / "strokes.txt"))
                  for sid in train_ids]
        odd = next(sid for sid, n in zip(train_ids, counts) if n != counts[0])
        assert f"{data / 'samples' / odd / 'strokes.txt'}:" in err


class TestSweep:
    def test_tau_sweep_stroke_counts_non_increasing(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        out = tmp_path / "sweep"
        cli.cmd_sweep(cfg, cli.Dataset(data), out, "tau", [0.0, 0.15, 1.0])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,pcd_x1e4,pc,segments,strokes"
        strokes = [float(line.split(",")[4]) for line in lines[1:]]
        assert strokes == sorted(strokes, reverse=True)
        assert (out / "sweep.svg").read_text().startswith("<svg")

    def test_tau_sweep_deposits_each_ground_truth_once(self, tiny_dataset, tmp_path,
                                                       monkeypatch):
        cfg, data = tiny_dataset
        _, test_ids = cli.read_split(data)
        deposit = spraysim.deposit
        calls = []
        monkeypatch.setattr(spraysim, "deposit",
                            lambda *args: calls.append(args) or deposit(*args))
        out = tmp_path / "sweep"
        cli.cmd_sweep(cfg, cli.Dataset(data), out, "tau", [0.05, 0.3])
        assert len(calls) == len(test_ids) * 3   # one ground truth + two predictions
        for sid in test_ids:
            gt = [(out / f"tau_{v:g}" / sid / "gt_thickness.txt").read_bytes()
                  for v in (0.05, 0.3)]
            assert gt[0] == gt[1]

    def test_tau_sweep_loads_the_model_and_predicts_each_sample_once(self, tiny_dataset, tmp_path,
                                                                     monkeypatch):
        cfg, data = tiny_dataset
        _, test_ids = cli.read_split(data)
        calls = {"predict": [], "load_checkpoint": []}
        for name, calls_of in calls.items():
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real, calls_of=calls_of:
                                calls_of.append(args) or real(*args))
        cli.cmd_sweep(cfg, cli.Dataset(data), tmp_path / "sweep", "tau", [0.05, 0.3])
        assert len(calls["predict"]) == len(test_ids)
        assert len(calls["load_checkpoint"]) == 1

    @pytest.mark.parametrize("param,values", [("overlap", [0.0, 2.0]), ("lambda", [1.0, 3.0])])
    def test_model_sweep_deposits_each_ground_truth_once(self, tiny_dataset, tmp_path,
                                                         monkeypatch, param, values):
        cfg, data = tiny_dataset
        _, test_ids = cli.read_split(data)
        deposit = spraysim.deposit
        calls = []
        monkeypatch.setattr(spraysim, "deposit",
                            lambda *args: calls.append(args) or deposit(*args))
        out = tmp_path / "sweep"
        cli.cmd_sweep(cfg, cli.Dataset(data), out, param, values)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == f"{param},pcd_x1e4,pc,segments,strokes"
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert table[:, 0].tolist() == values
        assert np.isfinite(table).all()
        # one ground truth per sample plus one prediction per sample and value
        assert len(calls) == len(test_ids) * (1 + len(values))
        if param == "overlap":   # slot count pinned at its overlap=1 value
            slots = synthdata.output_slot_count(cli.read_meta(data)["budget"], cfg.lam, 1)
            assert table[:, 3].tolist() == [slots] * len(values)

    @pytest.mark.parametrize("param,values", [("tau", "0.1,0.1"),
                                              ("tau", "0.1234567,0.1234568"),
                                              ("lambda", "1,1")])
    def test_values_sharing_a_run_directory_rejected(self, tiny_dataset, tmp_path, capsys,
                                                     param, values):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in tiny_overrides(epochs=1).items()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(conf), "--dataset", str(data),
                         "--param", param, "--values", values, "--out", str(out)]) == 1
        assert str([float(v) for v in values.split(",")]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values,key", [("lambda", "0,-2", "lam"),
                                                  ("tau", "0.1,-1", "tau"),
                                                  ("overlap", "0,4", "overlap")])
    def test_invalid_run_config_rejected_before_any_work(self, tiny_dataset, tmp_path, capsys,
                                                         param, values, key):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in tiny_overrides(epochs=1).items()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(conf), "--dataset", str(data),
                         "--param", param, "--values", values, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["lambda", "overlap"])
    def test_non_integer_values_rejected(self, tiny_dataset, tmp_path, param):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError, match="integer"):
            cli.cmd_sweep(cfg, cli.Dataset(data), tmp_path / "s", param, [1.5])

    def test_empty_values(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError):
            cli.cmd_sweep(cfg, cli.Dataset(data), tmp_path / "s", "tau", [])

    def test_bad_param(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError):
            cli.cmd_sweep(cfg, cli.Dataset(data), tmp_path / "s", "flux", [1.0])


class TestMainEntry:
    def test_generate_and_rerun_bytes(self, tmp_path):
        args = ["generate", "--out", str(tmp_path / "a"), "--count", "5", "--seed", "3"]
        overrides = tiny_overrides(count=5, seed=3)
        conf = tmp_path / "conf.txt"
        conf.write_text("\n".join(f"{k} = {v}" for k, v in overrides.items()) + "\n")
        assert cli.main(["generate", "--config", str(conf), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["generate", "--config", str(conf), "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_validation_error_exit_code(self, tmp_path):
        code = cli.main(["generate", "--out", str(tmp_path / "x"),
                         "--categories", "spheres"])
        assert code == 1

    @pytest.mark.parametrize("key,value", [
        ("half_angle_deg", "120"), ("max_range", "-1"), ("flux", "nan"),
        ("learning_rate", "nan"), ("alpha", "-1"), ("latent_dim", "0"), ("lam", "0"),
        ("overlap", "7"), ("categories", "cuboids,cuboids"), ("face_grid", "0"),
        ("count", "4"), ("budget", "3"), ("encoder_hidden", "0"), ("head_hidden", "0"),
        ("cloud_points", "0"), ("batch_size", "-3"), ("epochs", "0"), ("tau", "-1"),
        ("fraction", "0"), ("seed", "-1"),
    ])
    def test_invalid_config_fails_naming_the_key_before_any_work(self, tmp_path, capsys,
                                                                 key, value):
        conf = tmp_path / "conf.txt"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in tiny_overrides(**{key: value}).items()))
        out = tmp_path / "out"
        # train names a dataset that does not exist: it must fail before reading it
        for argv in (["generate"], ["train", "--dataset", str(tmp_path / "no_dataset")]):
            assert cli.main([*argv, "--config", str(conf), "--out", str(out)]) == 1
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_missing_subcommand_is_validation_error(self):
        assert cli.main([]) == 1

    def test_io_error_exit_code(self, tmp_path):
        target = tmp_path / "file.txt"
        target.write_text("occupied\n")
        code = cli.main(["generate", "--out", str(target / "nested"), "--count", "5"])
        assert code == 2

    def test_simulate_rejects_nan_pose(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        train_ids, _ = cli.read_split(data)
        sample = data / "samples" / train_ids[0]
        strokes = synthdata.load_strokes(sample / "strokes.txt")
        strokes[0][1, 0] = np.nan
        synthdata.save_strokes(strokes, tmp_path / "strokes.txt")
        out = tmp_path / "thick.txt"
        code = cli.main(["simulate", "--mesh", str(sample / "mesh.txt"),
                         "--strokes", str(tmp_path / "strokes.txt"), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_cloud_fails_naming_the_file(self, tiny_checkpoint, tmp_path,
                                                     command, capsys):
        _, data, ckpt = tiny_checkpoint
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        _, test_ids = cli.read_split(copy)
        cloud = copy / "samples" / test_ids[0] / "cloud.txt"
        lines = cloud.read_text().splitlines()
        out = tmp_path / "out"
        if command == "predict":
            argv = ["predict", "--dataset", str(copy), "--checkpoint", str(ckpt)]
        else:
            argv = ["evaluate", "--dataset", str(copy), "--ground-truth", "--concat"]
        for bad_lines in (["nan nan nan"], ["1 2"], ["1 x 2"], []):   # [] drops a point
            cloud.write_text("\n".join(lines[:1] + bad_lines + lines[2:]) + "\n")
            assert cli.main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert str(cloud) in err
            if not bad_lines:
                assert f"47 points, but {copy / 'meta.txt'} has cloud_points = 48" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_checkpoint_for_another_cloud_size_fails_naming_both(self, tiny_checkpoint,
                                                                 tmp_path, command, capsys,
                                                                 monkeypatch):
        _, _, ckpt = tiny_checkpoint
        conf, data = tmp_path / "conf.txt", tmp_path / "dataset"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in
                                tiny_overrides(count=5, cloud_points=64).items()))
        assert cli.main(["generate", "--config", str(conf), "--out", str(data)]) == 0
        meta = data / "meta.txt"
        monkeypatch.setattr(cli, "load_dataset_sample",
                            lambda *args: pytest.fail("a sample was read"))
        out = tmp_path / "out"
        argv = [command, "--dataset", str(data), "--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(argv) == 1
        assert (f"error: {ckpt}: input_points = 48, but {meta} has cloud_points = 64"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_mesh_fails_naming_the_file(self, tiny_dataset, tmp_path, capsys):
        _, data = tiny_dataset
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        _, test_ids = cli.read_split(copy)
        mesh = copy / "samples" / test_ids[0] / "mesh.txt"
        lines = mesh.read_text().splitlines()
        lines[0] = "v nan 1 0"
        mesh.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--dataset", str(copy), "--ground-truth", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert "mesh.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("file, edit", [
        ("meta.txt", lambda text: "".join(line for line in text.splitlines(True)
                                          if not line.startswith("budget"))),
        ("meta.txt", lambda text: text.replace("budget = 96", "budget = 4x0")),
        ("split.txt", lambda text: text.replace(" train\n", "\n", 1)),
        ("split.txt", lambda text: text.replace(" train\n", " tset\n", 1)),
        ("split.txt", lambda text: text + text.split()[0] + " test\n"),
        ("meta.txt", lambda text: re.sub(r"scale_factor = .*", "scale_factor = nan", text)),
        ("meta.txt", lambda text: text.replace("cloud_points = 48", "cloud_points = 0")),
        ("meta.txt", lambda text: text.replace("budget = 96", "budget = 0")),
        ("meta.txt", lambda text: text.replace("budget = 96", "budget = 95")),
        ("split.txt", lambda text: text.replace(" train\n", " test\n")),
    ], ids=["missing_budget", "bad_budget", "missing_label", "unknown_label", "duplicate_id",
            "nan_scale_factor", "zero_cloud_points", "zero_budget", "budget_below_poses",
            "no_train_sample"])
    def test_bad_dataset_metadata_fails_naming_the_file(self, tiny_dataset, tmp_path,
                                                        file, edit, capsys):
        _, data = tiny_dataset
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        path = copy / file
        before = path.read_text()
        path.write_text(edit(before))
        after = path.read_text()
        assert after != before
        argv = ["train", "--dataset", str(copy), "--epochs", "1", "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err
        if file == "split.txt" and "train" in after:   # the first edited line is at fault
            lineno = next(i for i, (old, new) in enumerate(
                itertools.zip_longest(before.splitlines(), after.splitlines()), start=1)
                if old != new)
            assert f"{path}:{lineno}:" in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--ground-truth"],
        ["evaluate", "--checkpoint"],
        ["sweep", "--param", "tau", "--values", "0.1,0.2"],
        ["sweep", "--param", "lambda", "--values", "2,4"],
        ["sweep", "--param", "overlap", "--values", "0,1"],
    ], ids=["evaluate_ground_truth", "evaluate_checkpoint", "sweep_tau", "sweep_lambda",
            "sweep_overlap"])
    def test_split_with_no_test_sample_fails_before_any_work(self, tiny_checkpoint, tmp_path,
                                                             argv, capsys):
        _, data, ckpt = tiny_checkpoint
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        split = copy / "split.txt"
        lines = split.read_text().splitlines(True)
        split.write_text("".join(line for line in lines if not line.endswith(" test\n")))
        conf = tmp_path / "conf.txt"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in tiny_overrides(epochs=1).items()))
        out = tmp_path / "out"
        argv = [*argv, str(ckpt)] if argv[-1] == "--checkpoint" else argv
        assert cli.main([*argv, "--config", str(conf), "--dataset", str(copy),
                         "--out", str(out)]) == 1
        assert f"{split}: no sample is labelled test" in capsys.readouterr().err
        assert not out.exists()

    def test_extra_stroke_over_the_budget_fails_naming_both_files(self, tiny_dataset,
                                                                  tmp_path, capsys):
        _, data = tiny_dataset
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        train_ids, _ = cli.read_split(copy)
        strokes, meta = copy / "samples" / train_ids[0] / "strokes.txt", copy / "meta.txt"
        lines = strokes.read_text().splitlines()   # `budget` poses: one more stroke exceeds it
        last = [line.split() for line in lines if line.split()[0] == lines[-1].split()[0]]
        extra = [" ".join([str(int(row[0]) + 1)] + row[1:]) for row in last]
        strokes.write_text("\n".join(lines + extra) + "\n")
        argv = ["train", "--dataset", str(copy), "--epochs", "1", "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert str(strokes) in err and str(meta) in err
        assert not (tmp_path / "r").exists()

    def test_stroke_shorter_than_lambda_fails_naming_the_sample(self, tiny_dataset, tmp_path,
                                                                capsys):
        _, data = tiny_dataset
        train_ids, _ = cli.read_split(data)
        argv = ["train", "--dataset", str(data), "--lambda", "20", "--epochs", "1",
                "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 1   # every stroke of the tiny dataset has 16 poses
        err = capsys.readouterr().err
        assert str(data / "samples" / train_ids[0] / "strokes.txt") in err
        assert "shorter than lam=20" in err

    def test_ground_truth_stroke_shorter_than_lambda_fails_naming_the_file(self, tiny_dataset,
                                                                          tmp_path, capsys):
        _, data = tiny_dataset
        _, test_ids = cli.read_split(data)
        argv = ["evaluate", "--dataset", str(data), "--ground-truth", "--lambda", "20",
                "--out", str(tmp_path / "e")]
        assert cli.main(argv) == 1
        strokes = data / "samples" / test_ids[0] / "strokes.txt"
        assert (f"error: {strokes}: stroke of 16 poses is shorter than lam=20"
                in capsys.readouterr().err)

    def test_concat_of_single_pose_segments_fails_naming_the_file(self, pointwise_checkpoint,
                                                                  tmp_path, capsys):
        cfg, data, ckpt = pointwise_checkpoint
        pred = cli.cmd_predict(cfg, ckpt, cli.Dataset(data), tmp_path / "pred")
        out = tmp_path / "linked"
        argv = ["concat", "--dataset", str(data), "--pred", str(pred), "--out", str(out)]
        assert cli.main(argv) == 1
        first = sorted(pred.glob("*.txt"))[0]
        assert (f"error: {first}: linking needs segments of at least 2 poses"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_concat_of_ragged_segments_fails_naming_the_file(self, tiny_checkpoint, tmp_path,
                                                            capsys):
        cfg, data, ckpt = tiny_checkpoint
        pred = cli.cmd_predict(cfg, ckpt, cli.Dataset(data), tmp_path / "pred")
        first = sorted(pred.glob("*.txt"))[0]
        first.write_text("".join(first.read_text().splitlines(True)[1:]))   # segment 0 loses one
        out = tmp_path / "linked"
        argv = ["concat", "--dataset", str(data), "--pred", str(pred), "--out", str(out)]
        assert cli.main(argv) == 1
        assert (f"error: {first}: segment 1 has 4 poses, segment 0 has 3"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["checkpoint", "lam"])
    def test_evaluate_concat_of_single_pose_segments_fails_before_any_sample(
            self, pointwise_checkpoint, tmp_path, capsys, monkeypatch, source):
        _, data, ckpt = pointwise_checkpoint
        monkeypatch.setattr(cli, "load_dataset_sample",
                            lambda *args: pytest.fail("a sample was read"))
        out = tmp_path / "e"
        argv = ["evaluate", "--dataset", str(data), "--concat", "--out", str(out)]
        argv += (["--checkpoint", str(ckpt)] if source == "checkpoint"
                 else ["--ground-truth", "--lambda", "1", "--overlap", "0"])
        assert cli.main(argv) == 1
        named = ckpt if source == "checkpoint" else "lam"
        assert (f"error: {named}: linking needs segments of at least 2 poses"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tau_sweep_of_a_pointwise_model_fails_before_training(self, tiny_dataset, tmp_path,
                                                                  capsys):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in
                                tiny_overrides(mode="pointwise", epochs=1).items()))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(conf), "--dataset", str(data), "--param", "tau",
                         "--values", "0.1,0.2", "--out", str(out)]) == 1
        assert ("error: mode, lam: linking needs segments of at least 2 poses"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["", "..", ".", "nonexistent"])
    def test_predict_rejects_an_id_not_in_the_split(self, tiny_checkpoint, tmp_path, bad,
                                                    capsys):
        _, data, ckpt = tiny_checkpoint
        train_ids, test_ids = cli.read_split(data)
        out = tmp_path / "pred"
        argv = ["predict", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--ids", f"{test_ids[0]},{bad},{train_ids[0]}", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert repr(bad) in err and str(data / "split.txt") in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["..txt", "...txt", "nonexistent.txt"])
    def test_concat_rejects_a_file_not_in_the_split(self, tiny_checkpoint, tmp_path, name,
                                                    capsys):
        cfg, data, ckpt = tiny_checkpoint
        pred = cli.cmd_predict(cfg, ckpt, cli.Dataset(data), tmp_path / "pred")
        first = sorted(pred.iterdir())[0]
        shutil.copyfile(first, pred / name)
        out = tmp_path / "linked"
        argv = ["concat", "--dataset", str(data), "--pred", str(pred), "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert str(pred / name) in err and str(data / "split.txt") in err
        assert not out.exists()

    def test_lambda_over_the_dataset_budget_fails_naming_meta(self, tiny_dataset, tmp_path,
                                                              capsys):
        _, data = tiny_dataset
        out = tmp_path / "r"
        argv = ["train", "--dataset", str(data), "--lambda", "100", "--epochs", "1",
                "--out", str(out)]
        assert cli.main(argv) == 1   # config budget 480, the tiny dataset's 96
        err = capsys.readouterr().err
        assert "lam = 100 exceeds the budget of 96" in err and str(data / "meta.txt") in err
        assert not out.exists()

    def test_diverging_training_fails_naming_the_epoch(self, tiny_dataset, tmp_path, capsys):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        conf.write_text("learning_rate = 1e200\nepochs = 5\n")
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["train", "--config", str(conf), "--dataset", str(data),
                             "--out", str(out)])
        assert code == 1
        assert "epoch 1" in capsys.readouterr().err
        assert not (out / "checkpoint.ckpt").exists()

    def test_negative_batch_size_fails(self, tiny_dataset, tmp_path, capsys):
        _, data = tiny_dataset
        conf = tmp_path / "conf.txt"
        conf.write_text("batch_size = -3\nepochs = 1\n")
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(conf), "--dataset", str(data),
                         "--out", str(out)])
        assert code == 1
        assert "batch_size must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_checkpoint_fails_naming_the_file(self, tiny_checkpoint, tmp_path,
                                                        capsys):
        _, data, ckpt = tiny_checkpoint
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(ckpt.read_bytes()[:-8])
        argv = ["predict", "--dataset", str(data), "--checkpoint", str(bad),
                "--out", str(tmp_path / "pred")]
        assert cli.main(argv) == 1
        assert "truncated.ckpt" in capsys.readouterr().err

    def test_non_unit_orientation_fails_naming_the_file(self, tiny_dataset, tmp_path, capsys):
        _, data = tiny_dataset
        copy = tmp_path / "dataset"
        shutil.copytree(data, copy)
        train_ids, _ = cli.read_split(copy)
        stroke = copy / "samples" / train_ids[0] / "strokes.txt"
        lines = stroke.read_text().splitlines()
        lines[1] = "0 0 0 0.5 0 0 2"
        stroke.write_text("\n".join(lines) + "\n")
        argv = ["train", "--dataset", str(copy), "--epochs", "1", "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 1
        assert stroke.name in capsys.readouterr().err

    def test_simulate_command(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        train_ids, _ = cli.read_split(data)
        sample = data / "samples" / train_ids[0]
        out = tmp_path / "thick.txt"
        colored = tmp_path / "colored.txt"
        code = cli.main(["simulate", "--mesh", str(sample / "mesh.txt"),
                         "--strokes", str(sample / "strokes.txt"), "--out", str(out),
                         "--colored", str(colored)])
        assert code == 0
        field = spraysim.load_thickness(out)
        assert field.max() > 0
        assert len(colored.read_text().splitlines()) > 0


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shell_env(openblas_threads=None):
    """This environment with the tested sources first on the path and no BLAS thread
    setting, except OPENBLAS_NUM_THREADS when given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


class TestBlasThreads:
    def test_import_pins_one_blas_thread(self):
        code = "import os, sprayseg; print(os.environ['OPENBLAS_NUM_THREADS'])"
        run = subprocess.run([sys.executable, "-c", code], env=shell_env("2"),
                             capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["1"]

    def test_train_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # tools/pipeline_digest.py's config: unpinned, its trained weights differ
        # between one and two BLAS threads
        (tmp_path / "config.txt").write_text(
            "categories = cuboids,windows,shelves,containers\ncount = 5\nface_grid = 3\n"
            "budget = 160\nepochs = 5\nseed = 0\n")

        def sprayseg(*argv, openblas_threads=None):
            subprocess.run([sys.executable, "-m", "sprayseg.cli", *argv, "--config", "config.txt"],
                           cwd=tmp_path, env=shell_env(openblas_threads), check=True)

        sprayseg("generate", "--out", "data")
        digests = {}
        for threads in ("1", "2", None):
            sprayseg("train", "--dataset", "data", "--out", f"run_{threads}",
                     openblas_threads=threads)
            ckpt = tmp_path / f"run_{threads}" / "checkpoint.ckpt"
            digests[threads] = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert len(set(digests.values())) == 1, digests
