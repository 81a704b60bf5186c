import stat
import warnings

import numpy as np
import pytest

from sprayseg.kvio import format_rows, load_rows, save_rows, write_file, write_keyvalues

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


def test_format_rows_formats_each_column_by_kind():
    assert format_rows(np.array([[1, 2, 3], [4, 5, 6]]), "ddd", prefix="f ") == \
        "f 1 2 3\nf 4 5 6\n"
    rows = [("a", 0.1, 7), ("b", -0.0, 8)]
    assert format_rows(rows, "sfd", sep=",") == "a,0.10000000000000001,7\nb,-0,8\n"


def test_keyvalue_floats_are_17g_and_other_values_str(tmp_path):
    path = tmp_path / "kv.txt"
    write_keyvalues(path, {"scale": 0.1, "count": 5, "rate": "0.1"})
    assert path.read_text() == "scale = 0.10000000000000001\ncount = 5\nrate = 0.1\n"


def test_write_file_replaces_whole_with_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w"):
        pass
    path = tmp_path / "out.txt"
    write_file(path, "old text\n")
    write_file(path, b"new\n")
    assert path.read_bytes() == b"new\n"
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]
