import numpy as np
import pytest

from bsann.csvio import read_csv, read_numeric_csv, write_csv


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [
        (np.float64(0.1), 1.0 / 3.0, 7),
        (float("inf"), "", "done"),
        (np.int64(-2), -0.0, np.float64(1e-300)),
    ])
    assert path.read_bytes() == (
        b"a,b,c\n"
        b"0.1,0.3333333333333333,7\n"
        b"inf,,done\n"
        b"-2,-0.0,1e-300\n"
    )


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["S"], [])
    assert path.read_bytes() == b"S\n"
    assert read_csv(path) == (("S",), ())


def test_read_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(0)
    values = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-200, 200, (5, 3))
    write_csv(path, ("x", "y", "z"), values.tolist())
    header, mat = read_numeric_csv(path)
    assert header == ("x", "y", "z")
    assert np.array_equal(mat, values)
    write_csv(path, ("name", "status", "n"), [("adam", "completed", 3), ("sgd", "", 0)])
    assert read_csv(path) == (
        ("name", "status", "n"), (("adam", "completed", "3"), ("sgd", "", "0"))
    )


@pytest.mark.parametrize("cell", ["a,b", "two\nlines"])
def test_write_csv_rejects_separators_in_cells(tmp_path, cell):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a",), [(cell,)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", (cell,), [])
