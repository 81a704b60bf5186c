"""tools/pipeline_digest.py runs every command of its pipeline and digests the outputs."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pipeline_digest.py"

TINY_CONFIG = """\
categories = cuboids
count = 5
face_grid = 3
budget = 96
cloud_points = 48
latent_dim = 16
encoder_hidden = 12,16
head_hidden = 24
epochs = 1
seed = 0
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("pipeline_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_covers_every_command_and_repeats(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.chdir(tmp_path)  # run_pipeline changes directory; restored on teardown
    digests = []
    for run in ("a", "b"):
        work = tmp_path / run
        work.mkdir()
        tool.run_pipeline(work, TINY_CONFIG)
        digests.append(tool.digest(work))
    lines = digests[0]
    assert digests[1] == lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    tops = {p.split("/", 1)[0] for p in paths}
    assert tops == {"config.txt", "data", "run", "pred", "linked", "thickness.txt",
                    "colored_mesh.txt", "eval", "eval_concat", "eval_gt",
                    "eval_gt_concat", "sweep", "sweep_lambda", "sweep_overlap",
                    "run_pointwise", "run_warm", "data_cuboids", "run_multipath",
                    "eval_multipath"}


def test_digest_pins_one_blas_thread_before_numpy_loads(tmp_path):
    # README's contract: the digests do not depend on the calling shell's BLAS
    # thread count. A stand-in sprayseg reports what the tool set before importing it.
    package = tmp_path / "src" / "sprayseg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "import os, sys\n"
        "print(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',"
        " 'MKL_NUM_THREADS')), 'numpy' in sys.modules)\n"
        "raise SystemExit\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2"}
    run = subprocess.run([sys.executable, str(TOOL), "--tree", str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["1", "1", "1", "False"]
