"""Run a pinned small sprayseg pipeline and print the sha256 of every output file.

Usage: python tools/pipeline_digest.py [--tree DIR] > digest.txt

The pipeline is 4 categories x 5 objects at face_grid = 3, budget = 160 and
5 epochs: generate, train, predict, concat, simulate --colored, evaluate with
the checkpoint and with --ground-truth (each with and without --concat), tau,
lambda and overlap sweeps, a pointwise model, a warm start on half the train
split, and a multipath_regression model trained and evaluated on a
cuboids-only dataset. sprayseg is imported from DIR/src (default: the tree
holding this script), and the commands run in a temporary directory with
relative paths, so the output is one "sha256  path" line per file and two
trees compare with a plain diff. Importing sprayseg pins one BLAS thread, so
trained weights do not depend on the shell; the tool still sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before it
imports sprayseg, for --tree checkouts older than that pin, whose trained
weights depend on the BLAS thread count. The digests then do not depend on
the calling shell's settings (they still depend on the numpy/BLAS build):

    python tools/pipeline_digest.py --tree old_checkout > old.txt
    python tools/pipeline_digest.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

CONFIG = """\
categories = cuboids,windows,shelves,containers
count = 5
face_grid = 3
budget = 160
epochs = 5
seed = 0
"""

COMMANDS = [
    ["generate", "--out", "data"],
    ["train", "--dataset", "data", "--out", "run"],
    ["predict", "--dataset", "data", "--checkpoint", "run/checkpoint.ckpt", "--out", "pred"],
    ["concat", "--dataset", "data", "--pred", "pred", "--out", "linked"],
    ["simulate", "--mesh", "data/samples/{sid}/mesh.txt", "--strokes", "linked/{sid}.txt",
     "--out", "thickness.txt", "--colored", "colored_mesh.txt"],
    ["evaluate", "--dataset", "data", "--checkpoint", "run/checkpoint.ckpt", "--out", "eval"],
    ["evaluate", "--dataset", "data", "--checkpoint", "run/checkpoint.ckpt", "--concat",
     "--out", "eval_concat"],
    ["evaluate", "--dataset", "data", "--ground-truth", "--out", "eval_gt"],
    ["evaluate", "--dataset", "data", "--ground-truth", "--concat", "--out", "eval_gt_concat"],
    ["sweep", "--dataset", "data", "--param", "tau", "--values", "0.05,0.3", "--out", "sweep"],
    ["sweep", "--dataset", "data", "--param", "lambda", "--values", "1,3", "--out",
     "sweep_lambda"],
    ["sweep", "--dataset", "data", "--param", "overlap", "--values", "0,2", "--out",
     "sweep_overlap"],
    ["train", "--dataset", "data", "--mode", "pointwise", "--out", "run_pointwise"],
    ["train", "--dataset", "data", "--fraction", "0.5", "--pretrained", "run/checkpoint.ckpt",
     "--out", "run_warm"],
    ["generate", "--categories", "cuboids", "--out", "data_cuboids"],
    ["train", "--dataset", "data_cuboids", "--mode", "multipath_regression",
     "--out", "run_multipath"],
    ["evaluate", "--dataset", "data_cuboids", "--checkpoint", "run_multipath/checkpoint.ckpt",
     "--out", "eval_multipath"],
]


def run_pipeline(work: Path, config: str = CONFIG) -> None:
    """Run COMMANDS in `work` (which becomes the working directory) with the
    given config.txt text; {sid} stands for the first test sample."""
    from sprayseg import cli

    os.chdir(work)
    Path("config.txt").write_text(config)
    sid = None
    for argv in COMMANDS:
        argv = [a.format(sid=sid) for a in argv]
        if cli.main([*argv, "--config", "config.txt"]) != 0:
            raise SystemExit(f"command failed: sprayseg {' '.join(argv)}")
        if argv[0] == "generate":
            sid = cli.read_split("data")[1][0]


def digest(work: Path) -> list[str]:
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
            for p in sorted(work.rglob("*")) if p.is_file()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree whose src/ holds the sprayseg to run")
    args = parser.parse_args()
    src = args.tree.resolve() / "src"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import sprayseg

    if Path(sprayseg.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported sprayseg from {sprayseg.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        run_pipeline(work)
        print("\n".join(digest(work)))


if __name__ == "__main__":
    main()
