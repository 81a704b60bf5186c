"""Command-line pipeline: generate, train, predict, concat, simulate, evaluate, sweep.

Configuration comes from a flat key-value file plus flag overrides (flags win).
All serialized poses and paths are in world coordinates; normalization happens
internally using the scale factor stored in the dataset metadata. Every command
is reproducible: identical config and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import geometry, linker, spraysim, svgplot, synthdata
from .kvio import read_keyvalues, write_keyvalues
from .learner import (
    MODES,
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainingSample,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .objective import LossWeights


class CliError(ValueError):
    """Invalid configuration or arguments (exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    categories: tuple[str, ...] = ("cuboids",)
    count: int = 20
    budget: int = 480
    cloud_points: int = 512
    lam: int = 4
    overlap: int = 1
    latent_dim: int = 128
    encoder_hidden: tuple[int, ...] = (64, 128)
    head_hidden: tuple[int, ...] = (256, 256)
    mode: str = "segments"
    learning_rate: float = 1e-3
    lr_final: float = 0.0
    epochs: int = 800
    alpha: float = 0.5
    orientation_weight: float = 0.25
    batch_size: int = 8
    fraction: float = 1.0
    tau: float = 0.15
    half_angle_deg: float = 45.0
    max_range: float = 0.5
    flux: float = 1.0
    standoff_frac: float = 0.28
    face_grid: int = 6
    seed: int = 0

    def weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, orientation_weight=self.orientation_weight)

    def gun(self) -> spraysim.SprayGunModel:
        return spraysim.SprayGunModel(cone_half_angle=np.deg2rad(self.half_angle_deg),
                                      max_range=self.max_range, flux=self.flux)

    def generator(self) -> synthdata.GeneratorConfig:
        return synthdata.GeneratorConfig(standoff_frac=self.standoff_frac,
                                         face_grid=self.face_grid)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                           alpha=self.alpha, orientation_weight=self.orientation_weight,
                           seed=self.seed, batch_size=self.batch_size,
                           lr_final=self.lr_final)


def _parse_value(name: str, text: str, default):
    """Parse `text` to the type of the field's default; tuples split on commas."""
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(t.strip()) for t in text.split(",") if t.strip())
        return type(default)(text)
    except ValueError as exc:
        raise CliError(f"bad value for {name}: {text!r}") from exc


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then key-value file entries, then flag overrides."""
    defaults = ExperimentConfig()
    names = {f.name for f in fields(ExperimentConfig)}
    entries = list(read_keyvalues(path).items()) if path is not None else []
    entries += [(k, v) for k, v in (overrides or {}).items() if v is not None]
    values: dict = {}
    for key, value in entries:
        if key not in names:
            raise CliError(f"unknown config key {key!r}")
        values[key] = (_parse_value(key, value, getattr(defaults, key))
                       if isinstance(value, str) else value)
    cfg = ExperimentConfig(**values)
    for cat in cfg.categories:
        if cat not in synthdata.CATEGORIES:
            raise CliError(f"unknown category {cat!r}")
    if cfg.mode not in MODES:
        raise CliError(f"unknown mode {cfg.mode!r}")
    return cfg


def config_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = ",".join(str(x) for x in v) if isinstance(v, tuple) else v
    return out


def _sample_seed(seed: int, cat_index: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, cat_index, index, stream)).generate_state(1)[0])


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# dataset handling


def cmd_generate(cfg: ExperimentConfig, out_dir) -> Path:
    """Write a dataset directory: samples, split manifest, metadata."""
    out_dir = Path(out_dir)
    samples_dir = out_dir / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    gen = cfg.generator()
    split_lines = []
    train_ids = []
    records = {}
    for cat in cfg.categories:
        cat_index = synthdata.CATEGORIES.index(cat)
        ids = []
        for i in range(cfg.count):
            rec = synthdata.generate_object(cat, _sample_seed(cfg.seed, cat_index, i, 0), gen)
            rec = replace(rec, strokes=synthdata.downsample_strokes(rec.strokes, cfg.budget))
            cloud = geometry.sample_point_cloud(
                rec.mesh, cfg.cloud_points, seed=_sample_seed(cfg.seed, cat_index, i, 1))
            sid = f"{cat}_{i:04d}"
            ids.append(sid)
            records[sid] = (rec, cloud)
        cat_train, cat_test = synthdata.split_dataset(ids, seed=cfg.seed)
        train_ids.extend(cat_train)
        split_lines.extend(f"{sid} train" for sid in cat_train)
        split_lines.extend(f"{sid} test" for sid in cat_test)
    scale = 0.0
    for sid in train_ids:
        rec, cloud = records[sid]
        centroid = cloud.mean(axis=0)
        scale = max(scale, float(np.abs(cloud - centroid).max()))
        for s in rec.strokes:
            scale = max(scale, float(np.abs(s[:, :3] - centroid).max()))
    for sid, (rec, cloud) in records.items():
        synthdata.save_sample(rec, samples_dir / sid)
        geometry.save_point_cloud(cloud, samples_dir / sid / "cloud.txt")
    (out_dir / "split.txt").write_text("\n".join(sorted(split_lines)) + "\n")
    write_keyvalues(out_dir / "meta.txt", {
        "categories": ",".join(cfg.categories),
        "count": cfg.count,
        "budget": cfg.budget,
        "cloud_points": cfg.cloud_points,
        "seed": cfg.seed,
        "scale_factor": _fmt(scale),
    })
    write_keyvalues(out_dir / "config.txt", config_dict(cfg))
    return out_dir


def read_split(dataset_dir) -> tuple[list[str], list[str]]:
    train_ids, test_ids = [], []
    for line in (Path(dataset_dir) / "split.txt").read_text().splitlines():
        if not line.strip():
            continue
        sid, part = line.split()
        (train_ids if part == "train" else test_ids).append(sid)
    return sorted(train_ids), sorted(test_ids)


def read_meta(dataset_dir) -> dict:
    meta = read_keyvalues(Path(dataset_dir) / "meta.txt")
    return {"budget": int(meta["budget"]), "cloud_points": int(meta["cloud_points"]),
            "scale_factor": float(meta["scale_factor"]),
            "categories": meta["categories"].split(","), "seed": int(meta["seed"])}


def load_dataset_sample(dataset_dir, sid: str):
    d = Path(dataset_dir) / "samples" / sid
    if not d.is_dir():
        raise CliError(f"sample {sid!r} not found under {dataset_dir}")
    mesh, _ = geometry.load_mesh(d / "mesh.txt")
    cloud = geometry.load_point_cloud(d / "cloud.txt")
    strokes = synthdata.load_strokes(d)
    return mesh, cloud, strokes


def _multipath_shape(dataset_dir, ids, budget) -> tuple[int, int]:
    counts, lengths = set(), []
    for sid in ids:
        _, _, strokes = load_dataset_sample(dataset_dir, sid)
        counts.add(len(strokes))
        lengths.append(min(len(s) for s in strokes))
    if len(counts) != 1:
        raise CliError("multipath_regression needs a uniform stroke count per sample")
    n_strokes = counts.pop()
    return n_strokes, min(budget // n_strokes, min(lengths))


def build_model_config(cfg: ExperimentConfig, dataset_dir, train_ids,
                       meta: dict) -> ModelConfig:
    if cfg.mode == "pointwise":
        lam, overlap = 1, 0
        slots = synthdata.output_slot_count(meta["budget"], lam, overlap)
    elif cfg.mode == "multipath_regression":
        slots, lam = _multipath_shape(dataset_dir, train_ids, meta["budget"])
        overlap = 0
    else:
        lam, overlap = cfg.lam, cfg.overlap
        slots = synthdata.output_slot_count(meta["budget"], lam, overlap)
    return ModelConfig(input_points=meta["cloud_points"], lam=lam, slots=slots,
                       latent_dim=cfg.latent_dim, encoder_hidden=cfg.encoder_hidden,
                       head_hidden=cfg.head_hidden, mode=cfg.mode)


def build_training_samples(cfg: ExperimentConfig, dataset_dir, ids,
                           model_cfg: ModelConfig, meta: dict) -> list[TrainingSample]:
    samples = []
    for sid in ids:
        _, cloud, strokes = load_dataset_sample(dataset_dir, sid)
        ncloud, nstrokes, _ = geometry.normalize(cloud, strokes, meta["scale_factor"])
        if model_cfg.mode == "multipath_regression":
            target = np.stack([
                s[np.linspace(0, len(s) - 1, model_cfg.lam).astype(int)]
                for s in nstrokes])
        else:
            overlap = 0 if model_cfg.mode == "pointwise" else cfg.overlap
            target = synthdata.decompose_segments(nstrokes, model_cfg.lam, overlap)
        samples.append(TrainingSample(cloud=ncloud, target=target))
    return samples


def _select_fraction(ids: list[str], fraction: float, seed: int) -> list[str]:
    if not 0.0 < fraction <= 1.0:
        raise CliError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return list(ids)
    n = max(1, int(round(fraction * len(ids))))
    order = np.random.default_rng([19, seed]).permutation(len(ids))
    return sorted(ids[i] for i in order[:n])


def cmd_train(cfg: ExperimentConfig, dataset_dir, out_dir,
              pretrained=None, require_coverage: bool = True,
              model_cfg: ModelConfig | None = None) -> Path:
    """Train on the dataset's train split; write checkpoint, loss CSV, run info."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ids, _ = read_split(dataset_dir)
    train_ids = _select_fraction(train_ids, cfg.fraction, cfg.seed)
    meta = read_meta(dataset_dir)
    if model_cfg is None:
        model_cfg = build_model_config(cfg, dataset_dir, train_ids, meta)
    samples = build_training_samples(cfg, dataset_dir, train_ids, model_cfg, meta)
    initial = None
    if pretrained is not None:
        initial = load_checkpoint(pretrained)
        if initial.config != model_cfg:
            raise CliError("pretrained checkpoint does not match the model shape "
                           "this dataset/config produces")
    params, history = train(samples, model_cfg, cfg.train_config(),
                            initial=initial, require_coverage=require_coverage)
    save_checkpoint(out_dir / "checkpoint.ckpt", params)
    rows = ["epoch,total,y2s,b2e"]
    rows += [f"{i},{_fmt(t)},{_fmt(y)},{_fmt(b)}" for i, (t, y, b) in enumerate(history)]
    (out_dir / "loss.csv").write_text("\n".join(rows) + "\n")
    info = dict(config_dict(cfg))
    info["train_ids"] = ",".join(train_ids)
    info["pretrained"] = "" if pretrained is None else str(pretrained)
    write_keyvalues(out_dir / "train_info.txt", info)
    return out_dir / "checkpoint.ckpt"


def cmd_predict(cfg: ExperimentConfig, checkpoint, dataset_dir, out_dir, ids=None) -> Path:
    out_dir = Path(out_dir)
    params = load_checkpoint(checkpoint)
    if ids is None:
        _, ids = read_split(dataset_dir)
    scale = read_meta(dataset_dir)["scale_factor"]
    for sid in ids:
        _, cloud, _ = load_dataset_sample(dataset_dir, sid)
        ncloud, _, tf = geometry.normalize(cloud, [], scale)
        synthdata.save_strokes(geometry.denormalize(predict(params, ncloud), tf),
                               out_dir / sid, stem="segment")
    return out_dir


def cmd_concat(cfg: ExperimentConfig, pred_dir, dataset_dir, out_dir) -> Path:
    """Link predicted segments into strokes; files stay in world coordinates."""
    pred_dir = Path(pred_dir)
    out_dir = Path(out_dir)
    scale = read_meta(dataset_dir)["scale_factor"]
    link_cfg = linker.LinkConfig(tau=cfg.tau, weights=cfg.weights())
    sample_dirs = sorted(d for d in pred_dir.iterdir() if d.is_dir())
    if not sample_dirs:
        raise CliError(f"no prediction directories under {pred_dir}")
    for d in sample_dirs:
        _, cloud, _ = load_dataset_sample(dataset_dir, d.name)
        segments = synthdata.load_strokes(d, stem="segment")
        _, nsegments, tf = geometry.normalize(cloud, segments, scale)
        strokes = linker.concatenate(np.stack(nsegments), link_cfg)
        synthdata.save_strokes(geometry.denormalize(strokes, tf), out_dir / d.name)
    return out_dir


def cmd_simulate(cfg: ExperimentConfig, mesh_path, strokes_dir, out_path,
                 colored=None) -> Path:
    mesh, _ = geometry.load_mesh(mesh_path)
    strokes = synthdata.load_strokes(strokes_dir)
    field = spraysim.deposit(mesh, strokes, cfg.gun())
    spraysim.save_thickness(field, out_path)
    if colored is not None:
        geometry.save_mesh(mesh, colored, vertex_scalars=field)
    return Path(out_path)


@dataclass
class MetricsRow:
    sample_id: str
    pcd: float          # pose-wise Chamfer distance, already scaled by 1e4
    pc: float           # paint coverage percentage
    segments: int
    strokes: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.pc <= 100.0:
            raise ValueError("pc must lie in [0, 100]")


def evaluate_sample(cfg: ExperimentConfig, dataset_dir, sid: str,
                    params: ModelParams | None, concat: bool,
                    artifacts_dir=None, gt_fields: dict | None = None,
                    scale_factor: float | None = None) -> MetricsRow:
    """Metrics for one test sample; params=None evaluates ground truth against itself.

    ``gt_fields`` maps sample id to its ground-truth thickness field; a missing
    entry is deposited and stored. The caller owns it and must keep dataset and
    gun fixed while it is in use. ``scale_factor`` is the dataset's; when None it
    is read from the dataset metadata.
    """
    if scale_factor is None:
        scale_factor = read_meta(dataset_dir)["scale_factor"]
    mesh, cloud, strokes = load_dataset_sample(dataset_dir, sid)
    ncloud, nstrokes, tf = geometry.normalize(cloud, strokes, scale_factor)
    weights = cfg.weights()
    if params is None:
        pred = synthdata.decompose_segments(nstrokes, cfg.lam, cfg.overlap)
    else:
        pred = predict(params, ncloud)
    gt_poses = np.concatenate(nstrokes)
    pcd = spraysim.pose_chamfer(pred.reshape(-1, 6), gt_poses, weights) * 1e4
    if concat:
        if pred.shape[1] < 2:
            raise CliError("cannot concatenate single-pose segments (lam == 1)")
        linked = linker.concatenate(pred, linker.LinkConfig(tau=cfg.tau, weights=weights))
    else:
        linked = list(pred)
    exec_strokes = geometry.denormalize(linked, tf)
    gun = cfg.gun()
    if gt_fields is None:
        gt_fields = {}
    if sid not in gt_fields:
        gt_fields[sid] = spraysim.deposit(mesh, strokes, gun)
    gt_field = gt_fields[sid]
    pred_field = spraysim.deposit(mesh, exec_strokes, gun)
    pc = spraysim.paint_coverage(pred_field, gt_field).pc
    if artifacts_dir is not None:
        d = Path(artifacts_dir) / sid
        d.mkdir(parents=True, exist_ok=True)
        spraysim.save_thickness(gt_field, d / "gt_thickness.txt")
        spraysim.save_thickness(pred_field, d / "pred_thickness.txt")
        if concat:
            synthdata.save_strokes(exec_strokes, d / "linked")
    return MetricsRow(sample_id=sid, pcd=float(pcd), pc=float(pc),
                      segments=len(pred), strokes=len(linked))


def _means(rows: list[MetricsRow]) -> list[float]:
    """Mean pcd, pc, segments and strokes over metrics rows."""
    return [float(np.mean([getattr(r, k) for r in rows]))
            for k in ("pcd", "pc", "segments", "strokes")]


def _write_metrics(rows: list[MetricsRow], path) -> None:
    lines = ["sample_id,pcd_x1e4,pc,segments,strokes"]
    for r in rows:
        lines.append(f"{r.sample_id},{_fmt(r.pcd)},{_fmt(r.pc)},{r.segments},{r.strokes}")
    lines.append(",".join(["mean", *map(_fmt, _means(rows))]))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_evaluate(cfg: ExperimentConfig, dataset_dir, out_dir, checkpoint=None,
                 ground_truth: bool = False, concat: bool = False,
                 gt_fields: dict | None = None) -> list[MetricsRow]:
    """Evaluate the test split; writes metrics.csv plus per-sample artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not ground_truth and checkpoint is None:
        raise CliError("evaluate needs --checkpoint or --ground-truth")
    params = None if ground_truth else load_checkpoint(checkpoint)
    _, test_ids = read_split(dataset_dir)
    scale = read_meta(dataset_dir)["scale_factor"]
    rows = [evaluate_sample(cfg, dataset_dir, sid, params, concat, artifacts_dir=out_dir,
                            gt_fields=gt_fields, scale_factor=scale)
            for sid in test_ids]
    _write_metrics(rows, out_dir / "metrics.csv")
    return rows


def cmd_sweep(cfg: ExperimentConfig, dataset_dir, out_dir, param: str,
              values: list[float]) -> Path:
    """Train/evaluate per parameter value; emits sweep.csv and sweep.svg.

    A tau sweep links the predictions of one model; lambda and overlap train
    one model per value. No swept parameter changes the ground truth or the gun,
    so each ground-truth field is deposited once per sweep.
    """
    if param not in ("lambda", "overlap", "tau"):
        raise CliError("sweep parameter must be one of: lambda, overlap, tau")
    if not values:
        raise CliError("sweep needs a non-empty value list")
    if param != "tau" and not all(float(v).is_integer() for v in values):
        raise CliError(f"{param} values must be integers")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = cmd_train(cfg, dataset_dir, out_dir / "model") if param == "tau" else None
    model_cfg = None
    if param == "overlap":
        # fixed prediction budget: slot count pinned at the overlap=1 value so
        # PCD comparisons happen at a fixed number of predicted poses; larger
        # overlaps then cut more target segments than there are slots
        model_cfg = build_model_config(replace(cfg, overlap=1, mode="segments"),
                                       dataset_dir, [], read_meta(dataset_dir))
    gt_fields: dict = {}
    results = []
    for v in values:
        if param == "tau":
            run_cfg, run_dir = replace(cfg, tau=float(v)), out_dir / f"tau_{v:g}"
        else:
            v = int(v)
            run_cfg = (replace(cfg, overlap=v) if param == "overlap" else
                       replace(cfg, lam=v, overlap=min(cfg.overlap, v - 1),
                               mode="segments" if v > 1 else "pointwise"))
            run_dir = out_dir / f"{param}_{v}"
            ckpt = cmd_train(run_cfg, dataset_dir, run_dir / "model",
                             require_coverage=model_cfg is None, model_cfg=model_cfg)
        rows = cmd_evaluate(run_cfg, dataset_dir, run_dir, checkpoint=ckpt,
                            concat=param == "tau", gt_fields=gt_fields)
        results.append([float(v), *_means(rows)])
    lines = [f"{param},pcd_x1e4,pc,segments,strokes"]
    lines += [",".join(map(_fmt, r)) for r in results]
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    xs, pcds, pcs = ([r[i] for r in results] for i in range(3))
    svgplot.line_plot(out_dir / "sweep.svg", xs, {"PCD (x1e4)": pcds, "PC (%)": pcs},
                      xlabel=param, ylabel="metric", title=f"{param} sweep")
    return out_dir / "sweep.csv"


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _add_common(p):
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--overlap", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--fraction", type=float)
    p.add_argument("--out", required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="sprayseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--categories")
    p.add_argument("--count", type=int)

    p = sub.add_parser("train", help="train a model on a dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode")
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrained")

    p = sub.add_parser("predict", help="write predicted segments for test samples")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ids", help="comma-separated sample ids (default: test split)")

    p = sub.add_parser("concat", help="link predicted segments into strokes")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pred", required=True)

    p = sub.add_parser("simulate", help="deposit strokes onto a mesh")
    _add_common(p)
    p.add_argument("--mesh", required=True)
    p.add_argument("--strokes", required=True)
    p.add_argument("--colored", help="also write a color-mapped mesh")

    p = sub.add_parser("evaluate", help="metrics over the test split")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--ground-truth", action="store_true",
                   help="evaluate the ground truth against itself")
    p.add_argument("--concat", action="store_true")

    p = sub.add_parser("sweep", help="sweep lambda, overlap, or tau")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--epochs", type=int)
    return parser


_OVERRIDE_KEYS = ("seed", "lam", "overlap", "tau", "fraction", "categories",
                  "count", "mode", "epochs")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: getattr(args, k) for k in _OVERRIDE_KEYS if hasattr(args, k)}
        cfg = load_config(args.config, overrides)
        if args.command == "generate":
            cmd_generate(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.dataset, args.out, pretrained=args.pretrained)
        elif args.command == "predict":
            ids = args.ids.split(",") if args.ids else None
            cmd_predict(cfg, args.checkpoint, args.dataset, args.out, ids=ids)
        elif args.command == "concat":
            cmd_concat(cfg, args.pred, args.dataset, args.out)
        elif args.command == "simulate":
            cmd_simulate(cfg, args.mesh, args.strokes, args.out, colored=args.colored)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.dataset, args.out, checkpoint=args.checkpoint,
                         ground_truth=args.ground_truth, concat=args.concat)
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            cmd_sweep(cfg, args.dataset, args.out, args.param, values)
        return 0
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
