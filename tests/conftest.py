"""Shared fixtures and independent oracles used across the test modules."""

import contextlib
import sys

import sprayseg  # first: its one-thread BLAS pin must come before numpy loads

import numpy as np
import pytest

CUBE_MESH_TEXT = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3
f 1 3 4
f 5 7 6
f 5 8 7
f 1 6 2
f 1 5 6
f 3 8 4
f 3 7 8
f 1 4 8
f 1 8 5
f 2 6 7
f 2 7 3
"""


@pytest.fixture
def cube_mesh_path(tmp_path):
    path = tmp_path / "cube.txt"
    path.write_text(CUBE_MESH_TEXT)
    return path


def malformed_rows(valid_line):
    """Texts of a numeric row file that every row loader must reject, by case id."""
    tokens = valid_line.split()
    return {"non_numeric": " ".join(tokens[:-1] + ["x"]) + "\n",
            "ragged": f"{valid_line}\n{valid_line} 0\n",
            "wrong_width": f"{valid_line} 0\n{valid_line} 0\n",
            "empty": ""}


MALFORMED = tuple(malformed_rows("0"))


def finite_difference_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def random_unit_vectors(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_segments(rng, count, lam, spread=1.0):
    """Random segment set with unit orientations."""
    pos = rng.normal(scale=spread, size=(count, lam, 3))
    ori = random_unit_vectors(rng, (count, lam))
    return np.concatenate([pos, ori], axis=-1)


def min_gap(matrix):
    """Smallest gap between the two lowest entries of any row or column."""
    gaps = []
    for axis in (0, 1):
        part = np.sort(matrix, axis=axis)
        take = part[:2] if axis == 0 else part[:, :2].T
        finite = np.isfinite(take[1])
        if finite.any():
            gaps.append((take[1] - take[0])[finite].min())
    return min(gaps) if gaps else np.inf


def spread_over(monkeypatch, workers):
    """Make `parallel.spread` use `workers` threads; returns the list to which
    every task handed to a helper thread is appended."""
    from sprayseg import parallel

    helped = []

    class CountingPool(parallel.ThreadPoolExecutor):
        def submit(self, fn, *args):
            helped.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
    return helped


@contextlib.contextmanager
def fast_switching():
    """Switch threads as often as the interpreter allows inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
