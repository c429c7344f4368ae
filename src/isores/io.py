"""Deterministic CSV/JSON output: fixed 17-significant-digit formatting so
identical configs produce byte-identical files.  A CSV column prints each of
its distinct values (by their bits) once, and rows are written in blocks."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_csv(path, header, rows):
    """A CSV table: rows (an array, or rows of ints and floats) as floats,
    each printed "%.17g" (a whole number below 1e17 as its digits, -0.0 as
    -0).  Each distinct value of a column, told apart by its bits so that
    -0.0 and 0.0 stay apart, is formatted once; rows are joined and written
    1024 at a time, so the whole text is never held in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    columns = []
    for column in table.T.view(np.int64):
        bits, inverse = np.unique(column, return_inverse=True)
        # one "%" over every distinct value is quicker than one call each
        values = tuple(bits.view(float).tolist())
        text = np.array(("%.17g\n" * len(values) % values).split(), dtype=object)
        columns.append((text, inverse))
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for k in range(0, len(table), 1024):
            cells = [text[inverse[k:k + 1024]].tolist() for text, inverse in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path
