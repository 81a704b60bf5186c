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
from functools import cached_property
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
    scale = 0.0   # the largest train coordinate in the model frame at scale 1
    for sid in train_ids:
        rec, cloud = records[sid]
        ncloud, nstrokes, _ = geometry.normalize(cloud, rec.strokes, 1.0)
        scale = max(scale, *(float(np.abs(a[:, :3]).max()) for a in (ncloud, *nstrokes)))
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


def read_split(dataset_dir) -> tuple[list[str], list[str]]:
    """Sorted train and test ids from the dataset's split.txt; each part must have one."""
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
    for part, ids in parts.items():
        if not ids:
            raise CliError(f"{path}: no sample is labelled {part}")
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


@dataclass
class Sample:
    """One sample directory; each of its files is parsed on first use, then kept."""

    path: Path
    mesh = cached_property(lambda self: geometry.load_mesh(self.path / "mesh.txt")[0])
    cloud = cached_property(lambda self: geometry.load_point_cloud(self.path / "cloud.txt"))
    strokes = cached_property(lambda self: synthdata.load_strokes(self.path / "strokes.txt"))

    def __iter__(self):   # perfbench/record.py unpacks (mesh, cloud, strokes)
        return iter((self.mesh, self.cloud, self.strokes))


def load_dataset_sample(dataset_dir, sid: str) -> Sample:
    d = Path(dataset_dir) / "samples" / sid
    if not d.is_dir():
        raise CliError(f"sample {sid!r} not found under {dataset_dir}")
    return Sample(d)


class Dataset:
    """A dataset directory as one command reads it: split.txt and meta.txt when it is
    opened, each sample's files on first use, each ground-truth paint field once per
    gun, and each test sample's prediction once per checkpoint."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.train_ids, self.test_ids = read_split(self.root)
        self.meta, self.meta_path = read_meta(self.root), self.root / "meta.txt"
        self._samples: dict[str, Sample] = {}
        self._gt_fields: dict[tuple[str, spraysim.SprayGunModel], np.ndarray] = {}
        self._checkpoint, self._params, self._predictions = None, None, {}

    def check_listed(self, sources: dict) -> None:
        """`sources` maps sample ids that split.txt must list to where each came from."""
        for sid, source in sources.items():
            if sid not in self.train_ids + self.test_ids:
                raise CliError(f"{source}: sample id {sid!r} is not listed in "
                               f"{self.root / 'split.txt'}")

    def sample(self, sid: str) -> Sample:
        if sid not in self._samples:
            self._samples[sid] = load_dataset_sample(self.root, sid)
        return self._samples[sid]

    def normalize(self, sid: str, strokes=()):
        """`sid`'s cloud and `strokes` in the model's frame, and the transform back."""
        sample = self.sample(sid)
        if len(sample.cloud) != self.meta["cloud_points"]:
            raise CliError(f"{sample.path / 'cloud.txt'}: {len(sample.cloud)} points, but "
                           f"{self.meta_path} has cloud_points = {self.meta['cloud_points']}")
        return geometry.normalize(sample.cloud, strokes, self.meta["scale_factor"])

    def gt_field(self, sid: str, gun: spraysim.SprayGunModel) -> np.ndarray:
        """The paint field of `sid`'s expert strokes under `gun`, deposited once."""
        if (sid, gun) not in self._gt_fields:
            sample = self.sample(sid)
            self._gt_fields[sid, gun] = spraysim.deposit(sample.mesh, sample.strokes, gun)
        return self._gt_fields[sid, gun]

    def model(self, checkpoint) -> ModelParams:
        """The checkpoint's parameters; the last checkpoint asked for stays loaded, with
        its predictions."""
        if self._checkpoint != str(checkpoint):
            params = load_checkpoint(checkpoint)
            if params.config.input_points != self.meta["cloud_points"]:
                raise CliError(f"{checkpoint}: input_points = {params.config.input_points}, but "
                               f"{self.meta_path} has cloud_points = {self.meta['cloud_points']}")
            self._checkpoint, self._params, self._predictions = str(checkpoint), params, {}
        return self._params

    def prediction(self, sid: str, checkpoint) -> np.ndarray:
        """The normalized segments that `checkpoint` predicts for `sid`, computed once."""
        params = self.model(checkpoint)
        if sid not in self._predictions:
            self._predictions[sid] = predict(params, self.normalize(sid)[0])
        return self._predictions[sid]


def build_model_config(cfg: ExperimentConfig, train_strokes, dataset: Dataset) -> ModelConfig:
    budget = dataset.meta["budget"]
    if cfg.mode == "multipath_regression":
        slots = len(train_strokes[0])   # uniform: cmd_train checks each sample
        lam = min(budget // slots, *(len(s) for ss in train_strokes for s in ss))
    else:
        lam, overlap = (1, 0) if cfg.mode == "pointwise" else (cfg.lam, cfg.overlap)
        if lam > budget:
            raise CliError(f"lam = {lam} exceeds the budget of {budget} in {dataset.meta_path}")
        slots = synthdata.output_slot_count(budget, lam, overlap)
    return ModelConfig(input_points=dataset.meta["cloud_points"], lam=lam, slots=slots,
                       latent_dim=cfg.latent_dim, encoder_hidden=cfg.encoder_hidden,
                       head_hidden=cfg.head_hidden, mode=cfg.mode)


def _decompose(path, strokes, lam: int, overlap: int) -> np.ndarray:
    """`decompose_segments` of the strokes read from `path`; its errors name the file."""
    try:
        return synthdata.decompose_segments(strokes, lam, overlap)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _check_linkable(lam: int, source) -> None:
    if lam < 2:
        raise CliError(f"{source}: linking needs segments of at least 2 poses, got lam = {lam}")


def _select_fraction(ids: list[str], fraction: float, seed: int) -> list[str]:
    n = max(1, int(round(fraction * len(ids))))
    order = np.random.default_rng([19, seed]).permutation(len(ids))
    return sorted(ids[i] for i in order[:n])


def cmd_train(cfg: ExperimentConfig, dataset: Dataset, out_dir,
              pretrained=None, model_cfg: ModelConfig | None = None) -> Path:
    """Train on the dataset's train split; write checkpoint, loss CSV, run info.

    Each training sample holds at most `meta.txt`'s `budget` poses, so its targets
    fit the slots built from that budget; a given `model_cfg` (the overlap sweep)
    may face more target segments than slots.
    """
    out_dir = Path(out_dir)
    train_ids = _select_fraction(dataset.train_ids, cfg.fraction, cfg.seed)
    if model_cfg is None:
        model_cfg = build_model_config(
            cfg, [dataset.sample(sid).strokes for sid in train_ids], dataset)
    budget, first = dataset.meta["budget"], dataset.sample(train_ids[0])
    samples = []
    for sid in train_ids:
        strokes, path = dataset.sample(sid).strokes, dataset.sample(sid).path / "strokes.txt"
        poses = sum(len(s) for s in strokes)
        if poses > budget:
            raise CliError(f"{path}: {poses} poses exceed the budget of {budget} "
                           f"in {dataset.meta_path}")
        ncloud, nstrokes, _ = dataset.normalize(sid, strokes)
        if model_cfg.mode == "multipath_regression":
            if len(strokes) != len(first.strokes):
                raise CliError(f"{path}: {len(strokes)} strokes, {len(first.strokes)} in "
                               f"{first.path / 'strokes.txt'}; multipath_regression needs "
                               "a uniform stroke count per sample")
            target = np.stack([
                s[np.linspace(0, len(s) - 1, model_cfg.lam).astype(int)]
                for s in nstrokes])
        else:
            overlap = 0 if model_cfg.mode == "pointwise" else cfg.overlap
            target = _decompose(path, nstrokes, model_cfg.lam, overlap)
        samples.append(TrainingSample(cloud=ncloud, target=target))
    initial = None
    if pretrained is not None:
        initial = load_checkpoint(pretrained)
        if initial.config != model_cfg:
            raise CliError(f"{pretrained}: pretrained checkpoint does not match the model "
                           "shape this dataset/config produces")
    params, history = train(samples, model_cfg, cfg.train_config(), initial=initial)
    save_checkpoint(out_dir / "checkpoint.ckpt", params)
    write_file(out_dir / "loss.csv", "epoch,total,y2s,b2e\n" + format_rows(
        [(i, *losses) for i, losses in enumerate(history.tolist())], "dfff", sep=","))
    info = dict(config_dict(cfg))
    info["train_ids"] = ",".join(train_ids)
    info["pretrained"] = "" if pretrained is None else str(pretrained)
    write_keyvalues(out_dir / "train_info.txt", info)
    return out_dir / "checkpoint.ckpt"


def cmd_predict(cfg: ExperimentConfig, checkpoint, dataset: Dataset, out_dir,
                ids=None) -> Path:
    """Predict the listed samples (default: the test split) into `out_dir`."""
    out_dir = Path(out_dir)
    dataset.check_listed(dict.fromkeys(ids or (), "--ids"))
    for sid in dataset.test_ids if ids is None else ids:
        segments = dataset.prediction(sid, checkpoint)   # the checkpoint loads first
        synthdata.save_strokes(geometry.denormalize(segments, dataset.normalize(sid)[2]),
                               out_dir / f"{sid}.txt")
    return out_dir


def cmd_concat(cfg: ExperimentConfig, pred_dir, dataset: Dataset, out_dir) -> Path:
    """Link predicted segments into strokes; files stay in world coordinates."""
    pred_dir = Path(pred_dir)
    out_dir = Path(out_dir)
    link_cfg = cfg.link_config()
    paths = sorted(pred_dir.glob("*.txt"))
    if not paths:
        raise CliError(f"no prediction files under {pred_dir}")
    dataset.check_listed({path.stem: path for path in paths})
    for path in paths:
        _, nsegments, tf = dataset.normalize(path.stem, synthdata.load_strokes(path))
        lengths = [len(s) for s in nsegments]
        for k, n in enumerate(lengths):
            if n != lengths[0]:
                raise CliError(f"{path}: segment {k} has {n} poses, segment 0 has {lengths[0]}")
        _check_linkable(lengths[0], path)
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


def evaluate_sample(cfg: ExperimentConfig, dataset: Dataset, sid: str, checkpoint,
                    concat: bool, artifacts_dir=None) -> MetricsRow:
    """Metrics for one test sample; checkpoint=None evaluates ground truth against itself.

    The dataset deposits each ground truth once per gun and predicts each sample
    once per checkpoint, so calls that differ only in `tau` repeat neither.
    """
    if not isinstance(dataset, Dataset):   # perfbench/record.py passes the directory
        dataset = Dataset(dataset)
    sample = dataset.sample(sid)
    _, nstrokes, tf = dataset.normalize(sid, sample.strokes)
    if checkpoint is None:
        pred = _decompose(sample.path / "strokes.txt", nstrokes, cfg.lam, cfg.overlap)
    else:
        pred = dataset.prediction(sid, checkpoint)
    gt_poses = np.concatenate(nstrokes)
    pcd = spraysim.pose_chamfer(pred.reshape(-1, 6), gt_poses, cfg.weights()) * 1e4
    if concat:
        linked = linker.concatenate(pred, cfg.link_config())
    else:
        linked = list(pred)
    exec_strokes = geometry.denormalize(linked, tf)
    gun = cfg.gun()
    gt_field = dataset.gt_field(sid, gun)
    pred_field = spraysim.deposit(sample.mesh, exec_strokes, gun)
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


def cmd_evaluate(cfg: ExperimentConfig, dataset: Dataset, out_dir, checkpoint=None,
                 ground_truth: bool = False, concat: bool = False) -> list[MetricsRow]:
    """Evaluate the test split; writes metrics.csv plus per-sample artifacts."""
    out_dir = Path(out_dir)
    if ground_truth == (checkpoint is not None):
        raise CliError("evaluate takes exactly one of --checkpoint and --ground-truth")
    # a bad checkpoint, or segments too short to link, fail before any sample is read
    lam = cfg.lam if checkpoint is None else dataset.model(checkpoint).config.lam
    if concat:
        _check_linkable(lam, "lam" if checkpoint is None else checkpoint)
    rows = [evaluate_sample(cfg, dataset, sid, checkpoint, concat, artifacts_dir=out_dir)
            for sid in dataset.test_ids]
    _write_metrics(rows, out_dir / "metrics.csv")
    return rows


def cmd_sweep(cfg: ExperimentConfig, dataset: Dataset, out_dir, param: str,
              values: list[float]) -> Path:
    """Train/evaluate per parameter value; emits sweep.csv and sweep.svg.

    A tau sweep links the predictions of one model; lambda and overlap train
    one model per value. The one dataset object reads each sample once, deposits
    each ground truth once, and in a tau sweep predicts each test sample once.
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
    if param == "tau" and cfg.mode != "multipath_regression":
        _check_linkable(1 if cfg.mode == "pointwise" else cfg.lam, "mode, lam")
    out_dir = Path(out_dir)
    ckpt = cmd_train(cfg, dataset, out_dir / "model") if param == "tau" else None
    model_cfg = None
    if param == "overlap":
        # fixed prediction budget: slot count pinned at the overlap=1 value so
        # PCD comparisons happen at a fixed number of predicted poses; larger
        # overlaps then cut more target segments than there are slots
        model_cfg = build_model_config(replace(cfg, overlap=1, mode="segments"), [], dataset)
    results = []
    for v, name, run_cfg in zip(values, names, run_cfgs):
        run_dir = out_dir / name
        if param != "tau":
            ckpt = cmd_train(run_cfg, dataset, run_dir / "model", model_cfg=model_cfg)
        rows = cmd_evaluate(run_cfg, dataset, run_dir, checkpoint=ckpt, concat=param == "tau")
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


def _add_command(sub, name: str, help_text: str, dataset: bool = True) -> _Parser:
    """A subcommand with the options every command takes, and --dataset unless told not to."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--overlap", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--fraction", type=float)
    p.add_argument("--out", required=True)
    if dataset:
        p.add_argument("--dataset", required=True)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="sprayseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate", "generate a synthetic dataset", dataset=False)
    p.add_argument("--categories")
    p.add_argument("--count", type=int)

    p = _add_command(sub, "train", "train a model on a dataset")
    p.add_argument("--mode")
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrained")

    p = _add_command(sub, "predict", "write predicted segments for test samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ids", help="comma-separated sample ids (default: test split)")

    p = _add_command(sub, "concat", "link predicted segments into strokes")
    p.add_argument("--pred", required=True)

    p = _add_command(sub, "simulate", "deposit strokes onto a mesh", dataset=False)
    p.add_argument("--mesh", required=True)
    p.add_argument("--strokes", required=True, help="stroke file (one pose per line)")
    p.add_argument("--colored", help="also write a color-mapped mesh")

    p = _add_command(sub, "evaluate", "metrics over the test split")
    p.add_argument("--checkpoint")
    p.add_argument("--ground-truth", action="store_true",
                   help="evaluate the ground truth against itself")
    p.add_argument("--concat", action="store_true")

    p = _add_command(sub, "sweep", "sweep lambda, overlap, or tau")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--epochs", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
        cfg = load_config(args.config, overrides)
        dataset = Dataset(args.dataset) if "dataset" in args else None
        if args.command == "generate":
            cmd_generate(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, dataset, args.out, pretrained=args.pretrained)
        elif args.command == "predict":
            ids = args.ids.split(",") if args.ids else None
            cmd_predict(cfg, args.checkpoint, dataset, args.out, ids=ids)
        elif args.command == "concat":
            cmd_concat(cfg, args.pred, dataset, args.out)
        elif args.command == "simulate":
            cmd_simulate(cfg, args.mesh, args.strokes, args.out, colored=args.colored)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, dataset, args.out, checkpoint=args.checkpoint,
                         ground_truth=args.ground_truth, concat=args.concat)
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            cmd_sweep(cfg, dataset, args.out, args.param, values)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
