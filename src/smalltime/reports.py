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


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


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
