"""Deterministic CSV/JSON output: fixed 17-significant-digit formatting so
identical configs produce byte-identical files.  format_rows is the one cell
format, printed by write_csv's small tables and by phi.write_phi_csv."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_rows(values, width=1):
    """values (floats, row after row) as one string of CSV lines of width
    cells, each "%.17g": a whole number below 1e17 as its digits, -0.0 as -0."""
    row = ",".join(["%.17g"] * width) + "\n"
    return row * (len(values) // width) % tuple(values)


def write_csv(path, header, rows):
    """A CSV table: rows (an array, or rows of ints and floats) as floats,
    formatted and written 1024 rows at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for k in range(0, len(table), 1024):
            f.write(format_rows(table[k:k + 1024].ravel().tolist(), len(header)))
    return path


def write_json(path, obj):
    """obj as strict JSON: a nan or infinite float raises ValueError, and
    then nothing is written."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
