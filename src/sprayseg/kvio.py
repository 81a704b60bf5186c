"""Flat text files: "key = value" files with '#' comments, and numeric rows."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np


def read_keyvalues(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def write_keyvalues(path, values: dict) -> None:
    lines = [f"{k} = {v}" for k, v in values.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def save_rows(path, rows) -> None:
    """One line per row (one value per line for a 1-D array), floats as "%.17g"."""
    rows = np.asarray(rows, dtype=np.float64)
    # one %-format over all values: np.savetxt formats each row apart, which is slower
    line = " ".join(["%.17g"] * (rows.shape[1] if rows.ndim == 2 else 1)) + "\n"
    Path(path).write_text((line * len(rows)) % tuple(rows.ravel().tolist()))


def load_rows(path, width: int) -> np.ndarray:
    """A non-empty (N, width) float array of finite values; errors name the path."""
    try:
        # an open file, not a path, spares loadtxt's DataSource layer (3x faster)
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input, rejected below
            rows = np.loadtxt(fh, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if rows.size == 0 or rows.shape[1] != width:
        raise ValueError(f"{path}: expected lines of {width} values")
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: non-finite value")
    return rows
