"""Deterministic CSV/JSON output: fixed 17-significant-digit formatting so
identical configs produce byte-identical files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_csv(path, header, rows):
    """A CSV table: rows (an array, or rows of ints and floats) as floats,
    each printed "%.17g" (a whole number below 1e17 as its digits, -0.0 as
    -0)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    row_fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    # in blocks: a whole-table list of Python floats would raise the peak memory
    for k in range(0, len(table), 1024):
        lines.extend(map(row_fmt.__mod__, zip(*table[k:k + 1024].T.tolist())))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path
