"""The one CSV format of every table the package writes: a header row, then
unquoted comma-separated cells, LF line endings, UTF-8. Floats are written
with `repr`, so `float` reads them back bit-exactly. Feed the writer Python
scalars (`ndarray.tolist()`); formatting numpy scalars one by one is slower.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Sequence, Tuple

import numpy as np

# rows per write: a 5001-row cost trace formatted in one piece held about
# 1.6 MB of rows and text and raised a solve's peak RSS by 5%; blocks of
# this size add nothing measurable to it
_BLOCK_ROWS = 256


def _cell(x) -> str:
    if type(x) is float:  # the common cell first
        return repr(x)
    if isinstance(x, str):
        if "," in x or "\n" in x:
            raise ValueError(f"CSV cell {x!r} holds a separator")
        return x
    if isinstance(x, (int, np.integer)):
        return str(x)
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one table: str cells verbatim, ints with str, anything else as repr(float).

    A str cell holding a comma or a newline raises ValueError: read_csv could not split it.
    Rows are consumed lazily, so a generator of rows keeps memory bounded.
    """
    lines = chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while block := [",".join(map(_cell, row)) for row in islice(lines, _BLOCK_ROWS)]:
            block.append("")
            fh.write("\n".join(block))


def read_csv(path) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]:
    """Header and string rows of any CSV this package writes."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = tuple(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        cells = tuple(ln.split(","))
        if len(cells) != len(header):
            raise ValueError(f"{path}: row width {len(cells)} != header width {len(header)}")
        rows.append(cells)
    return header, tuple(rows)


def read_numeric_csv(path) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Header and float matrix for the all-numeric CSV formats."""
    header, rows = read_csv(path)
    return header, np.array([[float(c) for c in row] for row in rows], dtype=float)
