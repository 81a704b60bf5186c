"""Flat text files ("key = value" with '#' comments, numeric rows); every file is written here."""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np

_FORMATS = {"f": "%.17g", "d": "%d", "s": "%s"}  # "%.17g" reads back bit-exact


def write_file(path, data: str | bytes) -> None:
    """Write `path` whole, through a temporary file beside it renamed over it: a failing
    or killed process leaves the old file or the new one (no fsync, so not a power loss).
    Missing parent directories are made."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_rows(rows, kinds: str, sep: str = " ", prefix: str = "") -> str:
    """One line per row of `rows` (an array or equal-length tuples); `kinds[i]` says
    whether column i is a float ("f"), an integer ("d") or a string ("s")."""
    line = prefix + sep.join(_FORMATS[k] for k in kinds) + "\n"
    values = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
              else [v for row in rows for v in row])
    # one %-format over all values: formatting row by row is about 2x slower
    return (line * len(rows)) % tuple(values)


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
    """One "key = value" line per entry: floats as "%.17g", anything else as str()."""
    lines = [f"{k} = {_FORMATS['f'] % v if isinstance(v, float) else v}"
             for k, v in values.items()]
    write_file(path, "\n".join(lines) + "\n")


def save_rows(path, rows) -> None:
    """One line per row (one value per line for a 1-D array), floats as "%.17g"."""
    rows = np.asarray(rows, dtype=np.float64)
    write_file(path, format_rows(rows, "f" * (rows.shape[1] if rows.ndim == 2 else 1)))


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
