"""Report rows, and the one module that writes and reads the package's files.

A table is CSV with a header line and ``\\n`` line ends. Floats are
written with 17 significant digits, so they read back to the same value;
tuples (bus ids, channel labels) are joined with ``+``, empty for none;
other values are written with ``str``. A cell holding a comma, a
quote, ``\\r`` or ``\\n`` is quoted, so a row reads back bit for bit,
except for a NaN's payload: a NaN is written ``nan``, or ``-nan`` if its
sign bit is set, and reads back as the quiet NaN of that sign,
``float("nan")`` or ``float("-nan")``. Every file is written
atomically, creating its directory. A dataclass fixes a table's columns:
:func:`write_records` takes them from its fields in order and
:func:`read_records` converts each column by its field's annotated type.
Both readers skip blank lines, and a file that does not decode as text
raises ValueError naming it.

A measurement block is stored in the same CSV dialect and number format
by :func:`write_block_csv`: "# key: value" metadata lines, a label
header, complex entries as "<re><+/-><im>j" with the sign bit of every
part kept, and a t column of sample indices counting up by one from
start_index. A block of no channels keeps its header of "t" alone.
:func:`read_block_csv` names the file and the bad sample, channel or
metadata key of a malformed input, and the file of one that is not a
block CSV at all.

An experiment report is ``scenarios.csv``, ``aggregates.csv``,
``spectrum.csv``, an optional ``trace.csv``, ``meta.json`` and gnuplot
scripts that reference only those CSVs. In memory, as on disk, each
table is a tuple of its row dataclass. Everything in it is a
deterministic function of (config, seed); the per-scenario wall times
go to the sidecar ``timings.csv``, which is excluded from that guarantee.
:func:`save_report` writes all of it and :func:`load_report` reads it back.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import types
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blocks import MeasurementBlock
from .detector import Outcome


class ReportIntegrityError(RuntimeError):
    """Stored aggregates do not match the stored scenario rows."""


@dataclass(frozen=True)
class ScenarioRow:
    scenario: int
    window: str
    set_size: int
    buses: tuple[int, ...]
    clean_nuclear: float
    # the defaults are an error row's, which has only its identity and error
    attacked_nuclear: float = math.nan
    ratio: float = math.nan
    outcome: str = "error"
    detect_iterations: int = 0
    detect_feasibility: float = math.nan
    max_state_column_norm: float = math.nan
    flagged_buses: tuple[int, ...] = ()
    error: str = ""


@dataclass(frozen=True)
class AggregateRow:
    window: str
    set_size: int
    count: int
    min_attacked_nuclear: float
    mean_attacked_nuclear: float
    max_attacked_nuclear: float
    min_ratio: float
    mean_ratio: float
    max_ratio: float


@dataclass(frozen=True)
class SweepRow:
    weight: float
    kind: str                       # "designed" or "naive"
    # the defaults are an error row's, as in ScenarioRow
    outcome: str = "error"
    flagged_buses: tuple[int, ...] = ()
    max_state_column_norm: float = math.nan
    error: str = ""


@dataclass(frozen=True)
class SpectrumRow:
    window: str                     # "full" or a window label
    index: int                      # 1-based
    singular_value: float


@dataclass(frozen=True)
class TraceRow:
    time_s: float
    before: float
    after: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ScenarioRow, ...]
    spectra: tuple[SpectrumRow, ...]
    trace: tuple[TraceRow, ...]     # empty when no trace channel is configured
    meta: dict
    # per-scenario wall times in row order, or none recorded; they are
    # not deterministic, so they stay out of equality and the contract
    seconds: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.seconds and len(self.seconds) != len(self.rows):
            raise ValueError(f"{len(self.seconds)} wall times for {len(self.rows)} rows")

    @property
    def aggregates(self) -> tuple[AggregateRow, ...]:
        return aggregate_rows(self.rows)

    @property
    def in_set_detections(self) -> tuple[ScenarioRow, ...]:
        return in_set_rows(self.rows)

    @property
    def exit_code(self) -> int:
        return 2 if self.in_set_detections else 0


def in_set_rows(rows) -> tuple[ScenarioRow, ...]:
    """Designed attacks flagged strictly inside their attacked set.

    The attack's optimality precludes this outcome (either nothing is
    flagged, or something outside the set is), so any row here means
    a defect and drives the nonzero exit code.
    """
    return tuple(r for r in rows
                 if r.outcome == Outcome.DETECTED_WITHIN_SET.value and not r.error)


def outcome_counts(rows) -> dict[str, int]:
    """How many rows have each outcome, error rows included, by outcome name."""
    return dict(sorted(Counter(r.outcome for r in rows).items()))


def spectrum_rows(label: str, values) -> tuple[SpectrumRow, ...]:
    """The singular values *values* of the block labelled *label*, 1-based."""
    return tuple(SpectrumRow(label, i, value)
                 for i, value in enumerate(np.asarray(values).tolist(), start=1))


def aggregate_rows(rows) -> tuple[AggregateRow, ...]:
    """Per-(window, set size) statistics over the error-free rows.

    Windows keep their run order; set sizes are sorted within a window.
    """
    groups: dict[str, dict[int, list[ScenarioRow]]] = {}
    for row in rows:
        if not row.error:
            groups.setdefault(row.window, {}).setdefault(row.set_size, []).append(row)
    out = []
    for window, sizes in groups.items():
        for size, members in sorted(sizes.items()):
            objs = np.array([r.attacked_nuclear for r in members])
            ratios = np.array([r.ratio for r in members])
            out.append(AggregateRow(
                window=window, set_size=size, count=len(members),
                min_attacked_nuclear=float(objs.min()),
                mean_attacked_nuclear=float(objs.mean()),
                max_attacked_nuclear=float(objs.max()),
                min_ratio=float(ratios.min()),
                mean_ratio=float(ratios.mean()),
                max_ratio=float(ratios.max()),
            ))
    return tuple(out)


# ---------------------------------------------------------------------------
# the file formats

def _fmt(value) -> str:
    if isinstance(value, float):
        # '%g' writes "nan" for either sign
        if math.isnan(value) and math.copysign(1.0, value) < 0:
            return "-nan"
        return "%.17g" % value
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split("+")) if text else ()


# annotated field type -> parser of its column
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _ids}


def _csv_text(rows) -> str:
    """*rows* (cell sequences) as CSV lines, each ending in "\n" alone.
    Every cell that holds a "\r" or a "\n" is quoted, so that
    ``csv.reader`` on a file opened with ``newline=""`` reads it back."""
    lines: list[str] = []
    # with "\r\n" as its terminator the writer quotes every such cell
    sink = types.SimpleNamespace(write=lambda line: lines.append(line[:-2] + "\n"))
    csv.writer(sink, lineterminator="\r\n").writerows(rows)
    return "".join(lines)


def _csv_rows(path: str | Path, kind: str) -> list[tuple[int, list[str]]]:
    """The non-blank rows of the CSV file *path*, each with the line it
    ends on; a file that does not decode raises ValueError naming it as
    not a *kind*."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, cells) for cells in reader if cells]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: not a {kind} ({exc})") from None


def write_text(path: str | Path, content: str) -> Path:
    """Replace *path* with *content* atomically, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(content)
    os.replace(tmp, path)
    return path


def write_table(path: str | Path, header, rows) -> Path:
    """Write *header* and then each of *rows* (value sequences) as one table."""
    return write_text(path, _csv_text([header, *([_fmt(v) for v in row] for row in rows)]))


def write_records(path: str | Path, cls, records) -> Path:
    """Write dataclass *records* of type *cls*, one column per field."""
    names = [f.name for f in dataclasses.fields(cls)]
    return write_table(path, names, ([getattr(r, n) for n in names] for r in records))


def read_records(path: str | Path, cls) -> tuple:
    """Read a table written by :func:`write_records` back into *cls* rows.

    A malformed table raises ValueError naming the file, and the line and
    column at fault where there is one: foreign columns, a row with a cell
    missing or one too many, or a cell that does not parse as its column's
    type. Blank lines are skipped.
    """
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    lines = _csv_rows(path, "table")
    header = lines.pop(0)[1] if lines else None
    if header != names:
        raise ValueError(f"{path}: columns {header}, expected {names}")
    records = []
    for line, cells in lines:
        if len(cells) != len(names):
            column = names[len(cells)] if len(cells) < len(names) else len(names) + 1
            raise ValueError(f"{path}, line {line}, column {column!r}: "
                             f"{len(cells)} cells, expected {len(names)}")
        values = {}
        for name, cell in zip(names, cells):
            try:
                values[name] = _PARSERS[hints[name]](cell)
            except ValueError:
                raise ValueError(f"{path}, line {line}, column {name!r}: "
                                 f"bad value {cell!r}") from None
        records.append(cls(**values))
    return tuple(records)


def _complex_cell(value: complex) -> str:
    # the sign comes from the sign bit, so an imaginary part of -0.0 keeps it
    sign = "-" if math.copysign(1.0, value.imag) < 0 else "+"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}j"


_BLOCK_KEYS = ("pmufdi-block", "rate_hz", "start_index", "dependency", "attacked")


def write_block_csv(block: MeasurementBlock, path: str | Path) -> Path:
    """Write *block* atomically in the module docstring's layout; return the path."""
    meta = (f"# pmufdi-block: 1\n"
            f"# rate_hz: {_fmt(float(block.rate_hz))}\n"
            f"# start_index: {block.start_index}\n"
            f"# dependency: {block.dependency_digest}\n"
            f"# attacked: {int(block.attacked)}\n")
    table = _csv_text([["t", *block.labels],
                       *([block.start_index + k, *map(_complex_cell, row)]
                         for k, row in enumerate(block.z.tolist()))])
    return write_text(path, meta + table)


def read_block_csv(path: str | Path) -> MeasurementBlock:
    """Read the layout of :func:`write_block_csv`. A malformed file, one
    whose t column does not count up by one from start_index among them,
    raises ValueError naming the file and the bad sample, channel or
    metadata key: each key known, on one line of one cell, the layout
    version (pmufdi-block) 1, rate_hz finite and positive, and attacked
    0 or 1.
    """
    meta = {}
    samples = []
    rows = []
    labels: tuple[str, ...] | None = None
    for _, row in _csv_rows(path, "block CSV"):
        if row[0].startswith("#"):
            key, _, value = row[0].lstrip("# ").partition(":")
            key = key.strip()
            if key not in _BLOCK_KEYS:
                raise ValueError(f"{path}: unknown metadata line '# {key}:'")
            if len(row) > 1:
                raise ValueError(f"{path}: '# {key}:' line has {len(row)} cells, expected 1")
            if key in meta:
                raise ValueError(f"{path}: '# {key}:' line given twice")
            meta[key] = value.strip()
            continue
        if labels is None:          # a block of no channels has a header of "t" alone
            labels = tuple(row[1:])
            continue
        if len(row) != len(labels) + 1:
            raise ValueError(f"{path}: sample {row[0]} has {len(row) - 1} "
                             f"entries, expected {len(labels)}")
        entries = []
        for label, cell in zip(labels, row[1:]):
            try:
                entries.append(complex(cell))
            except ValueError:
                raise ValueError(f"{path}: sample {row[0]}, channel {label!r}: "
                                 f"bad entry {cell!r}") from None
        samples.append(row[0])
        rows.append(entries)
    if not rows:
        raise ValueError(f"{path}: no measurement rows")

    def number(key, convert, valid=lambda value: True, default=None):
        text = meta.get(key, default)
        if text is None:
            raise ValueError(f"{path}: missing '# {key}:' line")
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise ValueError(f"{path}: bad '# {key}:' value {text!r}")
        return value

    number("pmufdi-block", int, lambda version: version == 1, "1")
    start = number("start_index", int)
    for k, sample in enumerate(samples):
        if sample != str(start + k):
            raise ValueError(f"{path}: sample {sample} out of order, "
                             f"expected sample {start + k}")
    rate_hz = number("rate_hz", float, lambda rate: math.isfinite(rate) and rate > 0)
    attacked = number("attacked", int, lambda flag: flag in (0, 1), "0")
    try:
        return MeasurementBlock(
            z=np.array(rows, dtype=complex),
            rate_hz=rate_hz,
            start_index=start,
            labels=labels,
            dependency_digest=meta.get("dependency", ""),
            attacked=bool(attacked),
        )
    except ValueError as exc:       # the block's own checks, such as a non-finite entry
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# experiment reports

# gnuplot scripts; each plots one CSV of the report
_SPECTRUM_GP = """set datafile separator ','
set logscale y
set xlabel 'index'
set ylabel 'singular value'
set key autotitle columnheader
plot for [w in "{windows}"] 'spectrum.csv' \\
    using 2:($3)*(strcol(1) eq w ? 1 : NaN) with linespoints title w
"""
_AGGREGATES_GP = """set datafile separator ','
set xlabel 'attacked-set size'
set ylabel 'post-attack nuclear norm'
set key autotitle columnheader
windows = "{windows}"
plot for [w in windows] 'aggregates.csv' \\
    using 2:(strcol(1) eq w ? $5 : NaN):(strcol(1) eq w ? $4 : NaN):(strcol(1) eq w ? $6 : NaN) \\
    with yerrorbars title w
"""
_TRACE_GP = """set datafile separator ','
set xlabel 'time (s)'
set ylabel 'current magnitude (p.u.)'
plot 'trace.csv' using 1:2 with lines title 'before', \\
     'trace.csv' using 1:3 with lines title 'after'
"""


def save_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write all of *report* into *out_dir* and return every path written:
    the CSVs (trace.csv only when a trace was configured), meta.json, the
    gnuplot scripts and the sidecar timings.csv."""
    out = Path(out_dir)
    aggregates = report.aggregates
    written = [
        write_records(out / "scenarios.csv", ScenarioRow, report.rows),
        write_records(out / "aggregates.csv", AggregateRow, aggregates),
        write_records(out / "spectrum.csv", SpectrumRow, report.spectra),
        write_text(out / "meta.json", json.dumps(report.meta, indent=2, sort_keys=True) + "\n"),
        write_text(out / "spectrum.gp", _SPECTRUM_GP.format(
            windows=" ".join(dict.fromkeys(r.window for r in report.spectra)))),
        write_text(out / "aggregates.gp", _AGGREGATES_GP.format(
            windows=" ".join(dict.fromkeys(a.window for a in aggregates)))),
        write_table(out / "timings.csv", ["scenario", "seconds"],
                    ((row.scenario, "%.6f" % t) for row, t in zip(report.rows, report.seconds))),
    ]
    if report.trace:
        written.append(write_records(out / "trace.csv", TraceRow, report.trace))
        written.append(write_text(out / "trace.gp", _TRACE_GP))
    return written


def load_report(out_dir: str | Path) -> ExperimentReport:
    """Read a report directory back, without its wall times; refuses to
    load if the stored aggregates disagree with those of the stored rows.
    """
    out = Path(out_dir)
    rows = read_records(out / "scenarios.csv", ScenarioRow)
    if read_records(out / "aggregates.csv", AggregateRow) != aggregate_rows(rows):
        raise ReportIntegrityError(
            f"{out}: stored aggregates do not match the scenario rows"
        )
    trace = out / "trace.csv"
    return ExperimentReport(
        rows=rows,
        spectra=read_records(out / "spectrum.csv", SpectrumRow),
        trace=read_records(trace, TraceRow) if trace.exists() else (),
        meta=json.loads((out / "meta.json").read_text()),
    )
