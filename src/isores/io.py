"""Deterministic CSV/JSON output: fixed 17-significant-digit formatting so
identical configs produce byte-identical files."""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    if isinstance(value, float):     # float and numpy.float64: skip the ABC checks
        return f"{float(value):.17g}"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.17g}"
    if isinstance(value, numbers.Complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        # one format per row ("%.17g" prints a float as fmt does), in blocks:
        # a whole-table list of Python floats would raise the peak memory
        row_fmt = ",".join(["%.17g"] * rows.shape[1])
        for k in range(0, len(rows), 1024):
            lines.extend(map(row_fmt.__mod__, zip(*rows[k:k + 1024].T.tolist())))
    else:
        lines.extend(",".join(map(fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def default(o):
        if isinstance(o, numbers.Integral):
            return int(o)
        if isinstance(o, numbers.Real):
            return float(o)
        if hasattr(o, "tolist"):
            return o.tolist()
        raise TypeError(f"not JSON serializable: {type(o)}")

    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n")
    return path
