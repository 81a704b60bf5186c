"""Command-line pipeline: generate, train, predict, concat, simulate, evaluate, sweep.

Configuration comes from a flat key-value file plus flag overrides (flags win).
All serialized poses and paths are in world coordinates; normalization happens
internally using the scale factor stored in the dataset metadata. Every command
is reproducible: identical config and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import geometry, linker, spraysim, svgplot, synthdata
from .kvio import format_rows, read_keyvalues, write_file, write_keyvalues
from .learner import (
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
    epochs: int = 800
    alpha: float = 0.5
    orientation_weight: float = 0.25
    batch_size: int = 8
    fraction: float = 1.0
    tau: float = 0.15
    half_angle_deg: float = 45.0
    max_range: float = 0.5
    flux: float = 1.0
    face_grid: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        """Check every value by building the objects that own it, before any file is read or
        written; an error whose owner names a value otherwise is prefixed with its keys."""
        known = set(self.categories) & set(synthdata.CATEGORIES)
        if not self.categories or len(known) < len(self.categories):
            raise CliError(f"categories must be distinct names from {synthdata.CATEGORIES}")
        if self.face_grid < 1:
            raise CliError("face_grid must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise CliError("fraction must lie in (0, 1]")
        self.train_config()
        self.link_config()
        for keys, build in (
                ("seed", lambda: np.random.SeedSequence(self.seed)),
                ("count", lambda: synthdata.split_dataset(range(self.count), self.seed)),
                ("budget, lam, overlap",
                 lambda: synthdata.output_slot_count(self.budget, self.lam, self.overlap)),
                ("half_angle_deg, max_range, flux", self.gun),
                ("cloud_points, latent_dim, encoder_hidden, head_hidden, mode",
                 lambda: ModelConfig(self.cloud_points, lam=1, slots=1, latent_dim=self.latent_dim,
                                     encoder_hidden=self.encoder_hidden,
                                     head_hidden=self.head_hidden, mode=self.mode))):
            try:
                build()
            except ValueError as exc:
                raise CliError(f"{keys}: {exc}") from exc

    def weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, orientation_weight=self.orientation_weight)

    def gun(self) -> spraysim.SprayGunModel:
        return spraysim.SprayGunModel(cone_half_angle=np.deg2rad(self.half_angle_deg),
                                      max_range=self.max_range, flux=self.flux)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                           weights=self.weights(), seed=self.seed,
                           batch_size=self.batch_size)

    def link_config(self) -> linker.LinkConfig:
        return linker.LinkConfig(tau=self.tau, weights=self.weights())


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


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
    entries = list(read_keyvalues(path).items()) if path is not None else []
    entries += [(k, v) for k, v in (overrides or {}).items() if v is not None]
    values: dict = {}
    for key, value in entries:
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        values[key] = (_parse_value(key, value, getattr(defaults, key))
                       if isinstance(value, str) else value)
    return ExperimentConfig(**values)


def config_dict(cfg: ExperimentConfig) -> dict[str, str]:
    """Each config value as the text a config file would give it."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
    return out


def _sample_seed(seed: int, cat_index: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, cat_index, index, stream)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# dataset handling


def cmd_generate(cfg: ExperimentConfig, out_dir) -> Path:
    """Write a dataset directory: samples, split manifest, metadata."""
    out_dir = Path(out_dir)
    samples_dir = out_dir / "samples"
    split_lines = []
    train_ids = []
    records = {}
    for cat in cfg.categories:
        cat_index = synthdata.CATEGORIES.index(cat)
        ids = []
        for i in range(cfg.count):
            rec = synthdata.generate_object(cat, _sample_seed(cfg.seed, cat_index, i, 0),
                                            cfg.face_grid)
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
    write_file(out_dir / "split.txt", "\n".join(sorted(split_lines)) + "\n")
    write_keyvalues(out_dir / "meta.txt", {
        "categories": ",".join(cfg.categories),
        "count": cfg.count,
        "budget": cfg.budget,
        "cloud_points": cfg.cloud_points,
        "seed": cfg.seed,
        "scale_factor": scale,
    })
    write_keyvalues(out_dir / "config.txt", config_dict(cfg))
    return out_dir


def read_split(dataset_dir, required: dict | None = None) -> tuple[list[str], list[str]]:
    """Sorted train and test ids from the dataset's split.txt. `required` maps
    sample ids that must be listed there to where each came from, for the error."""
    path = Path(dataset_dir) / "split.txt"
    parts: dict[str, list[str]] = {"train": [], "test": []}
    listed: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[1] not in parts:
            raise CliError(f"{path}:{lineno}: expected '<sample id> train|test'")
        if tokens[0] in listed:
            raise CliError(f"{path}:{lineno}: sample {tokens[0]!r} is listed twice")
        listed.add(tokens[0])
        parts[tokens[1]].append(tokens[0])
    for sid, source in (required or {}).items():
        if sid not in listed:
            raise CliError(f"{source}: sample id {sid!r} is not listed in {path}")
    return sorted(parts["train"]), sorted(parts["test"])


def read_meta(dataset_dir) -> dict:
    path = Path(dataset_dir) / "meta.txt"
    meta = read_keyvalues(path)
    try:
        values = {"budget": int(meta["budget"]), "cloud_points": int(meta["cloud_points"]),
                  "scale_factor": float(meta["scale_factor"])}
    except KeyError as exc:
        raise CliError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    for key in ("budget", "cloud_points"):
        if values[key] < 1:
            raise CliError(f"{path}: {key} must be >= 1, got {values[key]}")
    if not 0.0 < values["scale_factor"] < np.inf:
        raise CliError(f"{path}: scale_factor must be positive and finite")
    return values


def load_dataset_sample(dataset_dir, sid: str):
    d = Path(dataset_dir) / "samples" / sid
    if not d.is_dir():
        raise CliError(f"sample {sid!r} not found under {dataset_dir}")
    mesh, _ = geometry.load_mesh(d / "mesh.txt")
    cloud = geometry.load_point_cloud(d / "cloud.txt")
    strokes = synthdata.load_strokes(d / "strokes.txt")
    return mesh, cloud, strokes


def build_model_config(cfg: ExperimentConfig, train_strokes, meta: dict,
                       dataset_dir) -> ModelConfig:
    if cfg.mode == "multipath_regression":
        slots = len(train_strokes[0])   # uniform: cmd_train checks each sample
        lam = min(meta["budget"] // slots, *(len(s) for ss in train_strokes for s in ss))
    else:
        lam, overlap = (1, 0) if cfg.mode == "pointwise" else (cfg.lam, cfg.overlap)
        if lam > meta["budget"]:
            raise CliError(f"lam = {lam} exceeds the budget of {meta['budget']} "
                           f"in {Path(dataset_dir) / 'meta.txt'}")
        slots = synthdata.output_slot_count(meta["budget"], lam, overlap)
    return ModelConfig(input_points=meta["cloud_points"], lam=lam, slots=slots,
                       latent_dim=cfg.latent_dim, encoder_hidden=cfg.encoder_hidden,
                       head_hidden=cfg.head_hidden, mode=cfg.mode)


def build_training_samples(cfg: ExperimentConfig, loaded,
                           model_cfg: ModelConfig, meta: dict) -> list[TrainingSample]:
    """Normalized samples from (strokes path, cloud, strokes) triples."""
    samples = []
    for path, cloud, strokes in loaded:
        ncloud, nstrokes, _ = geometry.normalize(cloud, strokes, meta["scale_factor"])
        if model_cfg.mode == "multipath_regression":
            target = np.stack([
                s[np.linspace(0, len(s) - 1, model_cfg.lam).astype(int)]
                for s in nstrokes])
        else:
            overlap = 0 if model_cfg.mode == "pointwise" else cfg.overlap
            try:
                target = synthdata.decompose_segments(nstrokes, model_cfg.lam, overlap)
            except ValueError as exc:
                raise CliError(f"{path}: {exc}") from exc
        samples.append(TrainingSample(cloud=ncloud, target=target))
    return samples


def _select_fraction(ids: list[str], fraction: float, seed: int) -> list[str]:
    n = max(1, int(round(fraction * len(ids))))
    order = np.random.default_rng([19, seed]).permutation(len(ids))
    return sorted(ids[i] for i in order[:n])


def cmd_train(cfg: ExperimentConfig, dataset_dir, out_dir,
              pretrained=None, model_cfg: ModelConfig | None = None) -> Path:
    """Train on the dataset's train split; write checkpoint, loss CSV, run info.

    Each training sample holds at most `meta.txt`'s `budget` poses, so its targets
    fit the slots built from that budget; a given `model_cfg` (the overlap sweep)
    may face more target segments than slots.
    """
    out_dir = Path(out_dir)
    train_ids, _ = read_split(dataset_dir)
    if not train_ids:
        raise CliError(f"{Path(dataset_dir) / 'split.txt'}: no sample is labelled train")
    train_ids = _select_fraction(train_ids, cfg.fraction, cfg.seed)
    meta = read_meta(dataset_dir)
    loaded = []
    for sid in train_ids:
        _, cloud, strokes = load_dataset_sample(dataset_dir, sid)
        path = Path(dataset_dir) / "samples" / sid / "strokes.txt"
        poses = sum(len(s) for s in strokes)
        if poses > meta["budget"]:
            raise CliError(f"{path}: {poses} poses exceed the budget of {meta['budget']} "
                           f"in {Path(dataset_dir) / 'meta.txt'}")
        if cfg.mode == "multipath_regression" and loaded and len(strokes) != len(loaded[0][2]):
            first_path, _, first = loaded[0]
            raise CliError(f"{path}: {len(strokes)} strokes, {len(first)} in {first_path}; "
                           "multipath_regression needs a uniform stroke count per sample")
        loaded.append((path, cloud, strokes))
    if model_cfg is None:
        model_cfg = build_model_config(cfg, [strokes for *_, strokes in loaded], meta, dataset_dir)
    samples = build_training_samples(cfg, loaded, model_cfg, meta)
    initial = None
    if pretrained is not None:
        initial = load_checkpoint(pretrained)
        if initial.config != model_cfg:
            raise CliError("pretrained checkpoint does not match the model shape "
                           "this dataset/config produces")
    params, history = train(samples, model_cfg, cfg.train_config(), initial=initial)
    save_checkpoint(out_dir / "checkpoint.ckpt", params)
    write_file(out_dir / "loss.csv", "epoch,total,y2s,b2e\n" + format_rows(
        [(i, *losses) for i, losses in enumerate(history.tolist())], "dfff", sep=","))
    info = dict(config_dict(cfg))
    info["train_ids"] = ",".join(train_ids)
    info["pretrained"] = "" if pretrained is None else str(pretrained)
    write_keyvalues(out_dir / "train_info.txt", info)
    return out_dir / "checkpoint.ckpt"


def cmd_predict(cfg: ExperimentConfig, checkpoint, dataset_dir, out_dir, ids=None) -> Path:
    """Predict the listed samples (default: the test split) into `out_dir`."""
    out_dir = Path(out_dir)
    params = load_checkpoint(checkpoint)
    _, test_ids = read_split(dataset_dir, dict.fromkeys(ids or (), "--ids"))
    scale = read_meta(dataset_dir)["scale_factor"]
    for sid in test_ids if ids is None else ids:
        _, cloud, _ = load_dataset_sample(dataset_dir, sid)
        ncloud, _, tf = geometry.normalize(cloud, [], scale)
        synthdata.save_strokes(geometry.denormalize(predict(params, ncloud), tf),
                               out_dir / f"{sid}.txt")
    return out_dir


def cmd_concat(cfg: ExperimentConfig, pred_dir, dataset_dir, out_dir) -> Path:
    """Link predicted segments into strokes; files stay in world coordinates."""
    pred_dir = Path(pred_dir)
    out_dir = Path(out_dir)
    scale = read_meta(dataset_dir)["scale_factor"]
    link_cfg = cfg.link_config()
    paths = sorted(pred_dir.glob("*.txt"))
    if not paths:
        raise CliError(f"no prediction files under {pred_dir}")
    read_split(dataset_dir, {path.stem: path for path in paths})
    for path in paths:
        _, cloud, _ = load_dataset_sample(dataset_dir, path.stem)
        segments = synthdata.load_strokes(path)
        _, nsegments, tf = geometry.normalize(cloud, segments, scale)
        strokes = linker.concatenate(np.stack(nsegments), link_cfg)
        synthdata.save_strokes(geometry.denormalize(strokes, tf), out_dir / path.name)
    return out_dir


def cmd_simulate(cfg: ExperimentConfig, mesh_path, strokes_path, out_path,
                 colored=None) -> Path:
    mesh, _ = geometry.load_mesh(mesh_path)
    strokes = synthdata.load_strokes(strokes_path)
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
        if not np.isfinite(self.pcd):
            raise ValueError(f"{self.sample_id}: non-finite pcd {self.pcd}")


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
    if params is None:
        pred = synthdata.decompose_segments(nstrokes, cfg.lam, cfg.overlap)
    else:
        pred = predict(params, ncloud)
    gt_poses = np.concatenate(nstrokes)
    pcd = spraysim.pose_chamfer(pred.reshape(-1, 6), gt_poses, cfg.weights()) * 1e4
    if concat:
        linked = linker.concatenate(pred, cfg.link_config())
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
        spraysim.save_thickness(gt_field, d / "gt_thickness.txt")
        spraysim.save_thickness(pred_field, d / "pred_thickness.txt")
        if concat:
            synthdata.save_strokes(exec_strokes, d / "linked.txt")
    return MetricsRow(sample_id=sid, pcd=float(pcd), pc=float(pc),
                      segments=len(pred), strokes=len(linked))


def _means(rows: list[MetricsRow]) -> list[float]:
    """Mean pcd, pc, segments and strokes over metrics rows."""
    return [float(np.mean([getattr(r, k) for r in rows]))
            for k in ("pcd", "pc", "segments", "strokes")]


def _write_metrics(rows: list[MetricsRow], path) -> None:
    write_file(path, "sample_id,pcd_x1e4,pc,segments,strokes\n"
               + format_rows([astuple(r) for r in rows], "sffdd", sep=",")
               + format_rows([("mean", *_means(rows))], "sffff", sep=","))


def cmd_evaluate(cfg: ExperimentConfig, dataset_dir, out_dir, checkpoint=None,
                 ground_truth: bool = False, concat: bool = False,
                 gt_fields: dict | None = None) -> list[MetricsRow]:
    """Evaluate the test split; writes metrics.csv plus per-sample artifacts."""
    out_dir = Path(out_dir)
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
    names = [f"tau_{v:g}" if param == "tau" else f"{param}_{int(v)}" for v in values]
    if len(set(names)) < len(names):
        raise CliError(f"{param} values {values} share run directories {names}")
    if param == "tau":
        run_cfgs = [replace(cfg, tau=float(v)) for v in values]
    elif param == "overlap":
        run_cfgs = [replace(cfg, overlap=int(v)) for v in values]
    else:
        run_cfgs = [replace(cfg, lam=int(v), overlap=min(cfg.overlap, int(v) - 1),
                            mode="segments" if v > 1 else "pointwise") for v in values]
    out_dir = Path(out_dir)
    ckpt = cmd_train(cfg, dataset_dir, out_dir / "model") if param == "tau" else None
    model_cfg = None
    if param == "overlap":
        # fixed prediction budget: slot count pinned at the overlap=1 value so
        # PCD comparisons happen at a fixed number of predicted poses; larger
        # overlaps then cut more target segments than there are slots
        model_cfg = build_model_config(replace(cfg, overlap=1, mode="segments"), [],
                                       read_meta(dataset_dir), dataset_dir)
    gt_fields: dict = {}
    results = []
    for v, name, run_cfg in zip(values, names, run_cfgs):
        run_dir = out_dir / name
        if param != "tau":
            ckpt = cmd_train(run_cfg, dataset_dir, run_dir / "model", model_cfg=model_cfg)
        rows = cmd_evaluate(run_cfg, dataset_dir, run_dir, checkpoint=ckpt,
                            concat=param == "tau", gt_fields=gt_fields)
        results.append([float(v), *_means(rows)])
    write_file(out_dir / "sweep.csv", f"{param},pcd_x1e4,pc,segments,strokes\n"
               + format_rows(results, "fffff", sep=","))
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
    p.add_argument("--strokes", required=True, help="stroke file (one pose per line)")
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
