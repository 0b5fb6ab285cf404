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


def quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return "" if value is None else quote(str(value))


def column_cells(values, n: int) -> list:
    """:func:`cell` of each of ``n`` values in an array (None: empty cells).
    A float column is never scanned for quoting, any other once, whole."""
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
    """A CSV of ``header`` and ``n`` lines given as columns (arrays or None)."""
    _write_lines(path, header, zip(*(column_cells(c, n) for c in columns)))


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
