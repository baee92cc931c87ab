"""Deterministic file output: the float format, a CSV table writer and a JSON writer.

Every output file of the package goes through this module. Floats carry
17 significant digits, so they round-trip exactly; JSON keys are sorted
with a two-space indent. Nothing depends on the clock or the thread count,
so reruns are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["FLOAT_FMT", "write_table", "write_json"]

FLOAT_FMT = ".17g"


def _write_text(path, text: str) -> Path:
    path = Path(path)
    try:
        path.write_text(text)
    except FileNotFoundError:
        # the first file of a new output directory creates it
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return path


def write_table(path, header: str, columns) -> Path:
    """Write a CSV table from whole columns, one row per column entry.

    ``columns`` holds equal-length 1-D sequences. A float column is written
    with FLOAT_FMT; any other column (integers, strings) with ``str``.
    Values come from ``tolist()``, so they format as Python numbers.
    """
    columns = [np.asarray(column) for column in columns]
    # %-formatting a float with .17g gives the same text as format(x, ".17g")
    row = ",".join("%" + FLOAT_FMT if c.dtype.kind == "f" else "%s" for c in columns)
    lines = [row % values for values in zip(*(c.tolist() for c in columns), strict=True)]
    return _write_text(path, "\n".join([header, *lines]) + "\n")


def write_json(path, document) -> Path:
    """Write ``document`` as JSON with sorted keys and a two-space indent."""
    return _write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
