"""The bundle's cell rule, RFC 4180 quoting and the two table writers."""
import csv
import json
import math
import sys

import numpy as np
import pytest

from proxlink import _tables
from proxlink._tables import cell, column_cells, quote, write_columns, write_json, write_table

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
                  0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0]
AWKWARD = ["plain", "a,b", 'say "hi"', '"', '""', ",", "cr\rhere", "lf\nhere",
           "crlf\r\nhere", "", " padded ", 'all, "of"\r\nit']


def read_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_float_cell_equals_format_17g_on_random_bit_patterns():
    bits = np.random.default_rng(0).integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist() + SPECIAL_FLOATS
    assert [cell(v) for v in values] == [format(v, ".17g") for v in values]
    finite = [v for v in values if math.isfinite(v)]
    assert [float(cell(v)) for v in finite] == finite  # 17 digits read back exactly


def test_float_column_cells_equal_the_row_rule():
    bits = np.random.default_rng(1).integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
    column = np.concatenate([bits.view(np.float64), SPECIAL_FLOATS])
    assert column_cells(column, len(column)) == [cell(v) for v in column.tolist()]


def test_cell_rule_for_other_values():
    assert cell(None) == ""
    assert cell(np.float64(0.5)) == "0.5"
    assert cell(7) == "7"
    assert cell(True) == "True"
    assert cell("a,b") == '"a,b"'
    assert [quote(t) for t in ("x", 'x"y', "x\ny")] == ["x", '"x""y"', '"x\ny"']


def test_csv_reader_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[text, i, i / 7, None] for i, text in enumerate(AWKWARD)]
    write_table(path, ["text", "n, count", 'x "value"', "empty"], rows)
    header, *back = read_rows(path)
    assert header == ["text", "n, count", 'x "value"', "empty"]
    assert back == [[text, str(i), format(i / 7, ".17g"), ""]
                    for i, text in enumerate(AWKWARD)]


def test_columns_equal_rows_and_round_trip(tmp_path):
    text = np.array(AWKWARD)
    n = len(text)
    columns = [text, np.arange(n, dtype=np.int64), np.linspace(0.0, 1.0, n), None,
               np.full(n, "2000-2004")]
    header = ["text", "n", "x", "none", "window"]
    write_columns(tmp_path / "cols.csv", header, columns, n)
    write_table(tmp_path / "rows.csv", header,
                zip(*[[None] * n if c is None else c.tolist() for c in columns]))
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    header_back, *back = read_rows(tmp_path / "cols.csv")
    assert header_back == header
    assert [r[0] for r in back] == AWKWARD
    assert {len(r) for r in back} == {len(header)}


def write_columns_at_once(path, header, columns, n: int) -> None:
    """The one-shot writer: every column's cells made before the first line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(quote, header)) + "\n")
        fh.writelines(",".join(row) + "\n"
                      for row in zip(*(column_cells(c, n) for c in columns)))


@pytest.mark.parametrize("block", [3, _tables.BLOCK_ROWS])
@pytest.mark.parametrize("n_of_block", [lambda b: 0, lambda b: 1, lambda b: b - 1, lambda b: b,
                                        lambda b: b + 1, lambda b: 2 * b + 3],
                         ids=["0", "1", "B-1", "B", "B+1", "2B+3"])
def test_block_writer_equals_the_one_shot_writer(tmp_path, monkeypatch, block, n_of_block):
    n = n_of_block(block)
    monkeypatch.setattr(_tables, "BLOCK_ROWS", block)
    names = [f"a{i:05d}" for i in range(n)]
    if n:
        names[-1] = 'say "hi", then'  # the only cell that needs quotes, in the last block
    columns = [np.array(names, dtype=object), np.arange(n, dtype=np.int64),
               np.resize(np.array(SPECIAL_FLOATS), n), None, np.full(n, "2000-2004")]
    header = ["name", "n", "x", "none", "window"]
    write_columns(tmp_path / "blocks.csv", header, columns, n)
    write_columns_at_once(tmp_path / "once.csv", header, columns, n)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()
    rows = read_rows(tmp_path / "blocks.csv")
    assert len(rows) == n + 1 and rows[-1][0] == (names[-1] if n else "name")


def test_text_column_without_special_characters_is_not_quoted():
    names = np.array(["a0001", "b|c d"])
    assert column_cells(names, 2) == ["a0001", "b|c d"]
    assert column_cells(None, 3) == ["", "", ""]


def test_json_file_format(tmp_path):
    write_json(tmp_path / "x.json", {"b": [1, 2.5], "a": {"z": None, "y": "q"}})
    text = (tmp_path / "x.json").read_text(encoding="utf-8")
    assert text == json.dumps({"b": [1, 2.5], "a": {"z": None, "y": "q"}},
                              sort_keys=True, indent=1) + "\n"
    assert text.startswith('{\n "a": {\n  "y": "q"')


@pytest.mark.parametrize("value", [float("nan"), 1e300, -0.0])
def test_float_cells_never_need_quotes(value):
    assert quote(cell(value)) == cell(value)
