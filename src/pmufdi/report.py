"""Report rows and the one table format every CSV of the package uses.

A table is CSV with a header line and ``\\n`` line ends. Floats are
written with 17 significant digits, so they read back to the same value;
tuples (bus ids, channel labels) are joined with ``+``, empty for none;
other values are written with ``str``. Every file is written
atomically, creating its directory. A dataclass fixes a table's columns:
:func:`write_records` takes them from its fields in order and
:func:`read_records` converts each column by its field's annotated type.

An experiment report is ``scenarios.csv``, ``aggregates.csv``,
``spectrum.csv``, an optional ``trace.csv``, ``meta.json`` and gnuplot
scripts that reference only those CSVs. Everything in it is a
deterministic function of (config, seed); the per-scenario wall times
go to the sidecar ``timings.csv``, which is excluded from that guarantee.
:func:`save_report` writes all of it and :func:`load_report` reads it back.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    spectra: dict[str, np.ndarray]           # window label -> singular values
    trace: tuple[np.ndarray, np.ndarray, np.ndarray] | None  # t, before, after
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
        """Designed attacks flagged strictly inside their attacked set.

        The attack's optimality precludes this outcome (either nothing is
        flagged, or something outside the set is), so any row here means
        a defect and drives the nonzero exit code.
        """
        return tuple(
            r for r in self.rows
            if r.outcome == Outcome.DETECTED_WITHIN_SET.value and not r.error
        )

    @property
    def exit_code(self) -> int:
        return 2 if self.in_set_detections else 0


def aggregate_rows(rows) -> tuple[AggregateRow, ...]:
    """Per-(window, set size) statistics over the error-free rows.

    Windows keep their run order; set sizes are sorted within a window.
    """
    groups: dict[tuple[str, int], list[ScenarioRow]] = {}
    window_order: list[str] = []
    for row in rows:
        if row.error:
            continue
        key = (row.window, row.set_size)
        if row.window not in window_order:
            window_order.append(row.window)
        groups.setdefault(key, []).append(row)
    order = sorted(groups, key=lambda k: (window_order.index(k[0]), k[1]))
    out = []
    for key in order:
        members = groups[key]
        objs = np.array([r.attacked_nuclear for r in members])
        ratios = np.array([r.ratio for r in members])
        out.append(AggregateRow(
            window=key[0], set_size=key[1], count=len(members),
            min_attacked_nuclear=float(objs.min()),
            mean_attacked_nuclear=float(objs.mean()),
            max_attacked_nuclear=float(objs.max()),
            min_ratio=float(ratios.min()),
            mean_ratio=float(ratios.mean()),
            max_ratio=float(ratios.max()),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# the table format

def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split("+")) if text else ()


# annotated field type -> parser of its column
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _ids}


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return write_text(path, buf.getvalue())


def write_records(path: str | Path, cls, records) -> Path:
    """Write dataclass *records* of type *cls*, one column per field."""
    names = [f.name for f in dataclasses.fields(cls)]
    return write_table(path, names, ([getattr(r, n) for n in names] for r in records))


def read_records(path: str | Path, cls) -> tuple:
    """Read a table written by :func:`write_records` back into *cls* rows."""
    hints = typing.get_type_hints(cls)
    columns = {f.name: _PARSERS[hints[f.name]] for f in dataclasses.fields(cls)}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(columns):
            raise ValueError(f"{path}: columns {reader.fieldnames}, "
                             f"expected {list(columns)}")
        return tuple(cls(**{name: parse(rec[name]) for name, parse in columns.items()})
                     for rec in reader)


def write_spectrum(path: str | Path, spectra: dict[str, np.ndarray]) -> Path:
    """spectrum.csv: the singular values of each labelled block, 1-based."""
    return write_records(path, SpectrumRow, (
        SpectrumRow(label, i, value)
        for label, sv in spectra.items() for i, value in enumerate(sv, start=1)
    ))


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
        write_spectrum(out / "spectrum.csv", report.spectra),
        write_text(out / "meta.json", json.dumps(report.meta, indent=2, sort_keys=True) + "\n"),
        write_text(out / "spectrum.gp", _SPECTRUM_GP.format(windows=" ".join(report.spectra))),
        write_text(out / "aggregates.gp", _AGGREGATES_GP.format(
            windows=" ".join(dict.fromkeys(a.window for a in aggregates)))),
        write_table(out / "timings.csv", ["scenario", "seconds"],
                    ((row.scenario, "%.6f" % t) for row, t in zip(report.rows, report.seconds))),
    ]
    if report.trace is not None:
        written.append(write_records(out / "trace.csv", TraceRow,
                                     (TraceRow(*r) for r in zip(*report.trace))))
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
    spectra: dict[str, list[float]] = {}
    for point in read_records(out / "spectrum.csv", SpectrumRow):
        spectra.setdefault(point.window, []).append(point.singular_value)
    trace = None
    if (out / "trace.csv").exists():
        points = read_records(out / "trace.csv", TraceRow)
        trace = tuple(np.array([dataclasses.astuple(p) for p in points]).reshape(-1, 3).T)
    return ExperimentReport(
        rows=rows,
        spectra={k: np.array(v) for k, v in spectra.items()},
        trace=trace,
        meta=json.loads((out / "meta.json").read_text()),
    )
