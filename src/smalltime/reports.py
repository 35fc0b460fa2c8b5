"""Deterministic CSV and JSON emission shared by the diagnostics and the CLI.

Artifacts must be byte-identical across reruns and worker counts, so floats
are written with repr (shortest round-trip), CSV uses '.' decimals, LF line
endings and a mandatory header, and JSON keys are sorted.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# the text of one distinct value of an integer or bool array column
_INTEGER_TEXT = {"i": str, "u": str, "b": ("false", "true").__getitem__}


def _cells(col) -> list:
    """The text of every cell of one column.  A float64, integer or bool
    array formats each distinct value once and gathers: floats through repr,
    keyed on their bits so that -0.0, 0.0 and each NaN keep their own text;
    integers through str; bools as true/false.  Anything else goes through
    format_value cell by cell."""
    if not isinstance(col, np.ndarray):
        return list(map(format_value, col))
    if col.dtype == np.float64:
        keys, text = col.view(np.int64), repr
    elif col.dtype.kind in _INTEGER_TEXT:
        keys, text = col, _INTEGER_TEXT[col.dtype.kind]
    else:
        return list(map(format_value, col.tolist()))
    distinct, where = np.unique(keys, return_inverse=True)
    texts = list(map(text, distinct.view(col.dtype).tolist()))
    return np.array(texts, dtype=object)[where].tolist()


# rows formatted and written at a time: the text of a long table is never
# in memory whole, only the cells of one block (well under a megabyte)
_BLOCK_ROWS = 2048


def write_csv(path, header, *columns) -> None:
    """A table is its header and its columns (arrays or lists, one per
    header name, all of one length).  Each block of rows is formatted one
    column at a time and written as one piece."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns of unequal length {[len(col) for col in columns]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, _BLOCK_ROWS):
            cells = [_cells(col[i:i + _BLOCK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _reject_nan(value, where: str) -> None:
    """Raise on a NaN anywhere in a JSON payload; +-inf are written as
    +-Infinity (band edges may be infinite), a NaN never is."""
    if isinstance(value, float) and math.isnan(value):
        raise ValueError(f"NaN at {where} of a JSON artifact")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_nan(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_nan(item, f"{where}[{i}]")


def write_json(path, payload) -> None:
    _reject_nan(payload, "top level")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")


def config_hash(params: dict) -> str:
    canonical = "\n".join(f"{k}={format_value(params[k])}" for k in sorted(params))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
