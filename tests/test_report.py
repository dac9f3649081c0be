"""The table format: every row type reads back bit for bit, and a
malformed table names its file, line and column."""

import ast
import dataclasses
import math
import struct
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pmufdi
from pmufdi.blocks import MeasurementBlock
from pmufdi.report import (
    AggregateRow,
    ScenarioRow,
    SpectrumRow,
    SweepRow,
    TraceRow,
    read_block_csv,
    read_records,
    write_block_csv,
    write_records,
)

EDGE_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.8e308)
# the format keeps a NaN's sign but not its payload, so only the two quiet
# NaNs are drawn
FLOATS = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
TEXT = st.lists(st.sampled_from([",", '"', "\n", "\r", "\r\n", " "])
                | st.text(st.characters(max_codepoint=0x2FF, exclude_categories=("Cs",)),
                          max_size=4)).map("".join)
STRATEGIES = {int: st.integers(), float: FLOATS, str: TEXT,
              tuple[int, ...]: st.lists(st.integers(), max_size=4).map(tuple)}


def rows_of(cls):
    hints = typing.get_type_hints(cls)
    rows = st.builds(cls, **{f.name: STRATEGIES[hints[f.name]]
                             for f in dataclasses.fields(cls)})
    if "error" not in hints:
        return rows
    # an error row: its identity and the error, the rest at the defaults
    identity = {f.name: STRATEGIES[hints[f.name]] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    return rows | st.builds(cls, **identity, error=TEXT.filter(bool))


def bits(row) -> tuple:
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(row))


@pytest.mark.parametrize("cls", [ScenarioRow, SweepRow, AggregateRow, SpectrumRow, TraceRow],
                         ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_rows_read_back_bit_for_bit(tmp_path_factory, cls, data):
    rows = tuple(data.draw(st.lists(rows_of(cls), max_size=4)))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_records(path, cls, rows)
    back = read_records(path, cls)
    assert [bits(r) for r in back] == [bits(r) for r in rows]
    first = path.read_bytes()
    write_records(path, cls, back)
    assert path.read_bytes() == first


def test_carriage_return_in_an_error_round_trips(tmp_path):
    rows = (ScenarioRow(1, "1-3s", 1, (8,), 10.0, error="solver said\rbye"),
            ScenarioRow(2, "1-3s", 1, (9,), 10.0, error="one\r\ntwo\nthree"))
    path = write_records(tmp_path / "scenarios.csv", ScenarioRow, rows)
    back = read_records(path, ScenarioRow)
    assert [r.error for r in back] == [r.error for r in rows]
    assert write_records(tmp_path / "again.csv", ScenarioRow, back).read_bytes() == \
        path.read_bytes()


def _cut_last_cell(line):
    return line.rsplit(",", 1)[0]


def _add_cell(line):
    return line + ",x"


def _spoil_clean_nuclear(line):
    cells = line.split(",")
    cells[4] = "ten"
    return ",".join(cells)


@pytest.mark.parametrize("edit, cause", [
    (_cut_last_cell, "line 3, column 'error': 12 cells, expected 13"),
    (_add_cell, "line 3, column 14: 14 cells, expected 13"),
    (_spoil_clean_nuclear, "line 3, column 'clean_nuclear': bad value 'ten'"),
], ids=["short-row", "extra-cell", "bad-cell"])
def test_malformed_table_names_the_cause(tmp_path, edit, cause):
    path = tmp_path / "scenarios.csv"
    write_records(path, ScenarioRow, (
        ScenarioRow(1, "1-3s", 1, (8,), 10.0, 9.5, 0.95, "bypassed", 48, 5e-6, 0.0, ()),
        ScenarioRow(2, "1-3s", 1, (9,), 10.0, 9.0, 0.9, "bypassed", 40, 4e-6, 0.0, ()),
    ))
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=cause) as err:
        read_records(path, ScenarioRow)
    assert str(path) in str(err.value)


def test_undecodable_table_names_the_file(tmp_path):
    path = tmp_path / "scenarios.csv"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(ValueError, match="not a table") as err:
        read_records(path, ScenarioRow)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("old, new, cause", [
    ("1,1+0j,", "1,nan+0j,", r"non-finite entry \(nan\+0j\) at sample 1, channel 'V:1'"),
    ("# rate_hz: 30", "# rate_hz: nan", "rate_hz"),
    ("# rate_hz: 30", "# rate_hz: -30", "rate_hz"),
    ("# attacked: 0", "# attacked: 5", "attacked"),
], ids=["nan-entry", "nan-rate", "negative-rate", "attacked-5"])
def test_block_csv_refusal_names_the_file(tmp_path, old, new, cause):
    path = tmp_path / "block.csv"
    write_block_csv(MeasurementBlock(z=np.ones((2, 2), dtype=complex), rate_hz=30.0,
                                     start_index=1, labels=("V:1", "V:2"),
                                     dependency_digest="d"), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=cause) as err:
        read_block_csv(path)
    assert str(path) in str(err.value)


def _file_writes(tree):
    """The calls in *tree* that may write a file: .write_text,
    .write_bytes, .mkdir, os.replace, and open with a mode that writes,
    appends, creates or updates, or one that is not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name in ("write_text", "write_bytes", "mkdir"):
            yield node
        elif name == "replace" and isinstance(getattr(fn, "value", None), ast.Name) \
                and fn.value.id == "os":
            yield node
        elif name == "open":
            # the mode is the builtin's second argument and a method's first
            args = node.args[1:] if isinstance(fn, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                yield node


def test_only_the_report_module_writes_files():
    # every file goes through report.write_text, which is atomic and
    # creates its directory
    package = Path(pmufdi.__file__).parent
    writes = [f"{path.name}:{node.lineno}"
              for path in sorted(package.glob("*.py")) if path.name != "report.py"
              for node in _file_writes(ast.parse(path.read_text()))]
    assert writes == []
    # the scan sees each kind of write
    probe = ast.parse("p.write_text(s); p.write_bytes(b); p.mkdir(); os.replace(a, b); "
                      "open(p, 'a'); p.open('w+'); open(p, mode=m); open(p); p.open()")
    assert len(list(_file_writes(probe))) == 7
