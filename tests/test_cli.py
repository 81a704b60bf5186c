import shutil

import numpy as np
import pytest

from sprayseg import cli, spraysim, synthdata
from sprayseg.cli import ExperimentConfig, load_config


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
    ckpt = cli.cmd_train(cfg, data, out)
    return cfg, data, ckpt


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
            assert sorted(d.glob("stroke_*.txt"))

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

    def test_fraction_subset(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        cfg = load_config(None, tiny_overrides(fraction=0.4, epochs=2))
        out = tmp_path / "frac"
        cli.cmd_train(cfg, data, out)
        info = dict(line.split(" = ") for line in
                    (out / "train_info.txt").read_text().splitlines())
        assert len(info["train_ids"].split(",")) == 2

    def test_predict_and_concat(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        pred_dir = cli.cmd_predict(cfg, ckpt, data, tmp_path / "pred")
        _, test_ids = cli.read_split(data)
        seg_files = sorted((pred_dir / test_ids[0]).glob("segment_*.txt"))
        meta = cli.read_meta(data)
        slots = synthdata.output_slot_count(meta["budget"], cfg.lam, cfg.overlap)
        assert len(seg_files) == slots
        linked_dir = cli.cmd_concat(cfg, pred_dir, data, tmp_path / "linked")
        strokes = synthdata.load_strokes(linked_dir / test_ids[0])
        assert sum(len(s) for s in strokes) <= slots * cfg.lam

    def test_pretrained_shape_mismatch(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        bad = load_config(None, tiny_overrides(latent_dim=8, epochs=1))
        with pytest.raises(cli.CliError):
            cli.cmd_train(bad, data, tmp_path / "bad", pretrained=ckpt)

    def test_pretrained_warm_start(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        warm = load_config(None, tiny_overrides(epochs=2))
        out = cli.cmd_train(warm, data, tmp_path / "warm", pretrained=ckpt)
        assert out.exists()


class TestEvaluate:
    def test_ground_truth_passthrough(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        rows = cli.cmd_evaluate(cfg, data, tmp_path / "gt", ground_truth=True)
        for row in rows:
            assert row.pcd < 1.0  # only trailing-pose truncation remains
            assert row.pc == 100.0

    def test_metrics_csv_mean_recomputable(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        rows = cli.cmd_evaluate(cfg, data, tmp_path / "ev", checkpoint=ckpt)
        lines = (tmp_path / "ev" / "metrics.csv").read_text().splitlines()
        body = [line.split(",") for line in lines[1:-1]]
        mean_line = lines[-1].split(",")
        assert mean_line[0] == "mean"
        assert float(mean_line[1]) == pytest.approx(np.mean([float(r[1]) for r in body]))
        assert float(mean_line[2]) == pytest.approx(np.mean([float(r[2]) for r in body]))
        assert len(body) == len(rows)

    def test_concat_artifacts(self, tiny_checkpoint, tmp_path):
        cfg, data, ckpt = tiny_checkpoint
        rows = cli.cmd_evaluate(cfg, data, tmp_path / "evc", checkpoint=ckpt, concat=True)
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
        cli.cmd_train(load_config(None, tiny_overrides(epochs=1)), data, tmp_path / "run")
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
        cli.cmd_evaluate(two, data, tmp_path / "gt", ground_truth=True)
        cli.cmd_predict(cfg, ckpt, data, tmp_path / "pred", ids=train_ids)
        assert len(calls) == 2   # one per command, not one per sample

    def test_needs_checkpoint_or_flag(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError):
            cli.cmd_evaluate(cfg, data, tmp_path / "no")


class TestSweep:
    def test_tau_sweep_stroke_counts_non_increasing(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        out = tmp_path / "sweep"
        cli.cmd_sweep(cfg, data, out, "tau", [0.0, 0.15, 1.0])
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
        cli.cmd_sweep(cfg, data, out, "tau", [0.05, 0.3])
        assert len(calls) == len(test_ids) * 3   # one ground truth + two predictions
        for sid in test_ids:
            gt = [(out / f"tau_{v:g}" / sid / "gt_thickness.txt").read_bytes()
                  for v in (0.05, 0.3)]
            assert gt[0] == gt[1]

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
        cli.cmd_sweep(cfg, data, out, param, values)
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

    @pytest.mark.parametrize("param", ["lambda", "overlap"])
    def test_non_integer_values_rejected(self, tiny_dataset, tmp_path, param):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError, match="integer"):
            cli.cmd_sweep(cfg, data, tmp_path / "s", param, [1.5])

    def test_empty_values(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError):
            cli.cmd_sweep(cfg, data, tmp_path / "s", "tau", [])

    def test_bad_param(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        with pytest.raises(cli.CliError):
            cli.cmd_sweep(cfg, data, tmp_path / "s", "flux", [1.0])


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
        strokes = synthdata.load_strokes(sample)
        strokes[0][1, 0] = np.nan
        synthdata.save_strokes(strokes, tmp_path / "strokes")
        out = tmp_path / "thick.txt"
        code = cli.main(["simulate", "--mesh", str(sample / "mesh.txt"),
                         "--strokes", str(tmp_path / "strokes"), "--out", str(out)])
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
        lines[1] = "nan nan nan"
        cloud.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "predict":
            argv = ["predict", "--dataset", str(copy), "--checkpoint", str(ckpt)]
        else:
            argv = ["evaluate", "--dataset", str(copy), "--ground-truth", "--concat"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "cloud.txt" in capsys.readouterr().err

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

    def test_simulate_command(self, tiny_dataset, tmp_path):
        cfg, data = tiny_dataset
        train_ids, _ = cli.read_split(data)
        sample = data / "samples" / train_ids[0]
        out = tmp_path / "thick.txt"
        colored = tmp_path / "colored.txt"
        code = cli.main(["simulate", "--mesh", str(sample / "mesh.txt"),
                         "--strokes", str(sample), "--out", str(out),
                         "--colored", str(colored)])
        assert code == 0
        field = spraysim.load_thickness(out)
        assert field.max() > 0
        assert len(colored.read_text().splitlines()) > 0
