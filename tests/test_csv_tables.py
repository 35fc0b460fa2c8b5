"""CSV tables: SHA-256 pins of whole run artifacts, and the column-wise
writer against a per-cell reference writer, byte for byte."""

import hashlib
import math

import numpy as np
import pytest

from smalltime import reports
from smalltime.cli import main
from smalltime.reports import format_value, write_csv


# ------------------------------------------------------------- artifact pins

# digests of artifacts written by the per-cell writer, before tables were
# handed over column-wise; (experiment, overrides, artifact) at seed 11
ARTIFACT_DIGESTS = {
    "surface_banded": (
        ("dpe-price", "--nx=64", "--lower=-0.5", "--upper=0.5"), "surface.csv",
        "b7b4dd15967ffb46ed00710650953dc32e6cf11571080ebb6fbaa8b78f54beb9"),
    # unbanded: holds -0.0 cells
    "surface_unbanded": (
        ("dpe-price", "--nx=64"), "surface.csv",
        "1ffe3d60b6776c6e782c4115a238b79a91a8619d2e4b85b965560aa86af10857"),
    # one-sided bands: the solver's loop skips the clamp side at +-inf
    "surface_lower_only": (
        ("dpe-price", "--nx=64", "--lower=0.2"), "surface.csv",
        "db98a5b66fbfb61f73f4b274239dc86e197de9ce1eb85484e6a8dd5e7bacbf40"),
    "surface_upper_only": (
        ("dpe-price", "--nx=64", "--upper=0.5"), "surface.csv",
        "6ca1f51e914d9c7fc95280a1a3cd8744edc7982b7822c3fc264f5dd57bdf856b"),
    # the benchmark's grid size, digests of the solver before its loop
    # stepped only the interior nodes
    "surface_banded_400": (
        ("dpe-price", "--nx=400", "--lower=-0.5", "--upper=0.5"), "surface.csv",
        "b8fd3d287214d2ea8863a7c12d83646112119fbba6de341e31893d19f3355e17"),
    "surface_unbanded_400": (
        ("dpe-price", "--nx=400"), "surface.csv",
        "64a2e3359e25b8431db4d79f1a900f584bc1d565b3a2980548df9dfa84c8e06d"),
    "shortfall": (
        ("hedge", "--nx=64", "--paths=100", "--steps=50", "--chunk=50",
         "--lower=-0.5"), "shortfall.csv",
        "ed9604e1236d9720dd1ef8fc282770034791fdfc14b5e1e3e1fd2880d8e26aca"),
    "lil_sup": (
        ("lil-sup", "--paths=200", "--levels=10"), "lil_sup.csv",
        "1f42c924a69b44ad77aefaed3ac835809412373dfb3cb9baaa8bd405df198b6c"),
    # the rest of the small-time artifacts; uneven chunks of 70 paths
    "example36": (
        ("example36", "--paths=200", "--levels=40", "--chunk=70",
         "--refinements=2"), "example36.csv",
        "1668499cb334609dd23e167e7eee0d8cb0c027e9f5672c707345ce0ec63ff6fe"),
    "ergodic_paths": (
        ("ergodic", "--d=2", "--paths=300", "--levels=20"), "ergodic_paths.csv",
        "0a1a858a79f6671d23e7772e8ecbc7df343f279906426c5681b21b34c5836501"),
    "ergodic_freq": (
        ("ergodic", "--d=2", "--paths=300", "--levels=20"), "ergodic_freq.csv",
        "57d9cf4d98aece8a7dd3826b7e6b5613974cb26ee59cf5f4f22381cdfb22ab54"),
    "prop39": (
        ("prop39", "--paths=200", "--levels=30"), "prop39.csv",
        "dd0a54ad3164b8b49d7265471c695070bbb0ad29ddb3cc0897398da8ba6f6297"),
    # bool cells
    "tail_bound": (
        ("tail-bound", "--paths=300", "--steps=50", "--chunk=100"), "tail_bound.csv",
        "de6ccb736701ca15cae561a8651942ed3f58a489c76668269cd5d3f49933d40b"),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_DIGESTS))
def test_artifact_bytes_are_pinned(tmp_path, case):
    (experiment, *args), name, digest = ARTIFACT_DIGESTS[case]
    out = tmp_path / case
    assert main(["run", f"--experiment={experiment}", "--seed=11",
                 f"--out={out}", *args]) in (0, 1)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# -------------------------------------------------- the column-wise writer

def _per_cell_csv(path, header, rows) -> None:
    """The writer before tables were column-wise: one format_value per cell,
    rows of Python scalars."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _as_python(col):
    return col.tolist() if isinstance(col, np.ndarray) else list(col)


def _same_as_per_cell(tmp_path, header, *columns) -> bytes:
    write_csv(tmp_path / "cols.csv", header, *columns)
    rows = list(zip(*map(_as_python, columns)))
    _per_cell_csv(tmp_path / "cells.csv", header, rows)
    got = (tmp_path / "cols.csv").read_bytes()
    assert got == (tmp_path / "cells.csv").read_bytes()
    return got


SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, -1e-300,
            0.1, 1.0 / 3.0, 1e16, 123456789.0, -2.5]


def test_float_columns_match_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(3)
    # longer than two blocks of rows
    n = 2 * reports._BLOCK_ROWS + 77
    col = np.array(SPECIALS)[rng.integers(0, len(SPECIALS), n)]
    # every special value at least once, several repeated
    col[:len(SPECIALS)] = SPECIALS
    other_nan = np.array([0x7ff8000000000001], dtype=np.int64).view(np.float64)
    col[-1] = other_nan[0]
    fresh = rng.standard_normal(n)
    got = _same_as_per_cell(tmp_path, ["a", "b"], col, fresh)
    lines = got.decode().splitlines()
    assert lines[1:3] == [f"-0.0,{float(fresh[0])!r}", f"0.0,{float(fresh[1])!r}"]
    assert {"nan", "inf", "-inf", "5e-324", "1e-300"} <= {
        line.split(",")[0] for line in lines[1:]}
    # a strided view formats like its contiguous copy
    _same_as_per_cell(tmp_path, ["a"], col[::3])


def test_integer_bool_and_list_columns_match_the_per_cell_writer(tmp_path):
    n = 7
    _same_as_per_cell(
        tmp_path, ["i8", "i64", "flag", "py_bool", "py_int", "py_float", "text"],
        np.array([-128, -1, 0, 1, 2, 127, 5], dtype=np.int8),
        np.array([-2 ** 63, -1, 0, 1, 2 ** 40, 2 ** 63 - 1, 3], dtype=np.int64),
        np.arange(n) % 3 == 0,
        [True, False, True, True, False, False, True],
        [0, -1, 2 ** 70, 3, 4, 5, 6],
        [0.0, -0.0, math.nan, math.inf, 1e-300, 5e-324, 2.5],
        ["a", "b", "c", "d", "e", "f", "g"])


def test_one_row_and_zero_row_tables(tmp_path):
    got = _same_as_per_cell(tmp_path, ["x", "flag", "n"],
                            np.array([0.5]), np.array([True]), [3])
    assert got == b"x,flag,n\n0.5,true,3\n"
    got = _same_as_per_cell(tmp_path, ["x", "flag", "n"],
                            np.array([]), np.array([], dtype=bool), [])
    assert got == b"x,flag,n\n"


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [1, 2], [1.0, 2.0, 3.0])
    # equal within the first blocks, longer after them
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], np.zeros(reports._BLOCK_ROWS),
                  np.zeros(reports._BLOCK_ROWS + 1))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b", "c"], [1], [2.0])
