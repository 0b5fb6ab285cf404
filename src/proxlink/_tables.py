"""proxlink._tables
~~~~~~~~~~~~~~~~~~

The report bundle's text format. A CSV cell is empty for None,
``"%.17g" % x`` for a float (it reads back as the same double) and
``str`` of anything else, quoted as RFC 4180 says where it holds a
comma, a double quote, CR or LF. Lines end in LF. JSON files are
``sort_keys`` with ``indent=1`` and a final newline.
"""
from __future__ import annotations

import json
import re

_NEEDS_QUOTES = re.compile('[,"\r\n]')

# write_columns formats and writes this many lines at a time, so the
# cells of only one block are alive
BLOCK_ROWS = 512


def quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return "" if value is None else quote(str(value))


def column_cells(values, n: int) -> list:
    """:func:`cell` of each of ``n`` values in an array (None: empty cells).
    A float column is never scanned for quoting, any other once, whole;
    a slice of a column gets the slice of its cells."""
    if values is None:
        return [""] * n
    if values.dtype.kind == "f":
        return ["%.17g" % v for v in values.tolist()]
    cells = [str(v) for v in values.tolist()]
    return [quote(c) for c in cells] if _NEEDS_QUOTES.search("".join(cells)) else cells


def _write_lines(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(quote, header)) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_table(path, header, rows) -> None:
    """A CSV of ``header`` and one line per row of values."""
    _write_lines(path, header, (map(cell, row) for row in rows))


def write_columns(path, header, columns, n: int) -> None:
    """A CSV of ``header`` and ``n`` lines given as columns (arrays or None),
    formatted ``BLOCK_ROWS`` lines at a time."""
    def rows():
        for start in range(0, n, BLOCK_ROWS):
            stop = min(n, start + BLOCK_ROWS)
            yield from zip(*(column_cells(None if c is None else c[start:stop], stop - start)
                             for c in columns))

    _write_lines(path, header, rows())


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
