import warnings

import numpy as np
import pytest

from sprayseg.kvio import load_rows, save_rows

EDGE_VALUES = [-0.0, 5e-324, 0.1, 1.7976931348623157e308]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_rows_are_written_as_17g_and_read_back_bit_exact(tmp_path):
    path = tmp_path / "rows.txt"
    save_rows(path, np.array([EDGE_VALUES, EDGE_VALUES[::-1]]))
    assert path.read_text() == "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n" for row in (EDGE_VALUES, EDGE_VALUES[::-1]))
    assert np.array_equal(bits(load_rows(path, 4)), bits([EDGE_VALUES, EDGE_VALUES[::-1]]))


def test_a_vector_is_written_one_value_per_line(tmp_path):
    path = tmp_path / "column.txt"
    save_rows(path, np.array(EDGE_VALUES))
    assert path.read_text() == "".join(f"{x:.17g}\n" for x in EDGE_VALUES)
    assert np.array_equal(bits(load_rows(path, 1)[:, 0]), bits(EDGE_VALUES))


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("1 2\n\n  \n3 4\n")
    assert np.array_equal(load_rows(path, 2), [[1.0, 2.0], [3.0, 4.0]])


def test_empty_file_fails_naming_it_without_a_warning(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty.txt"):
            load_rows(path, 3)
