"""End-to-end experiment pipeline and its report artifacts.

An experiment, fully described by a YAML config, generates a synthetic
block, enumerates admissible attacked-state sets, designs and applies an
attack per set and per detection window, runs the detector on every
attacked window, and aggregates the outcomes. Reports are plain CSV plus
a JSON metadata record and gnuplot scripts that reference only the
emitted CSVs. Everything a report contains is a deterministic function
of (config, seed); per-scenario wall times go to a separate sidecar file
that is excluded from that guarantee.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__ as _version
from .attack import AttackScenario, design_attack, naive_ramp_attack
from .attack_sets import AttackSetValidation, enumerate_attack_sets
from .blocks import MeasurementBlock, generate_block, singular_spectrum, write_block_csv, write_block_npz
from .cases import GridCase, load_case
from .detector import Outcome, ThresholdPolicy, classify_outcome, detect
from .kernels import SolverOptions, nuclear_norm
from .loads import DisturbancePolicy
from .measurements import DependencyMatrix, PmuPlan
from .testsystems import default_plan, load_bundled_case, system_names

log = logging.getLogger(__name__)

_NUM = "%.17g"


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


class ReportIntegrityError(RuntimeError):
    """Stored aggregates do not match the stored scenario rows."""


@dataclass(frozen=True)
class ExperimentConfig:
    system: str | None = None          # bundled system name, or
    case_path: str | None = None       # path to a case file
    plan: PmuPlan | None = None        # defaults to the bundled plan
    duration_s: float = 5.0
    rate_hz: float = 30.0
    window_length: int = 60
    windows: tuple[tuple[int, int], ...] = ((31, 90), (91, 150))
    seed: int = 2024
    weight: float = 1.05
    max_set_size: int = 5
    limit: int | None = None           # cap on sets per window, for CI runs
    workers: int = 1
    disturbance: DisturbancePolicy = field(default_factory=DisturbancePolicy)
    solver: SolverOptions = field(default_factory=SolverOptions)
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    out_dir: str = "results"
    trace_channel: str | None = None   # e.g. "F:11"
    trace_buses: tuple[int, ...] = ()  # attacked set for the trace series
    naive_scale: float = 0.5

    def __post_init__(self):
        if (self.system is None) == (self.case_path is None):
            raise ConfigError("exactly one of system/case_path must be set")
        if self.system is not None and self.system not in system_names():
            raise ConfigError(f"unknown bundled system {self.system!r}")
        total = self.duration_s * self.rate_hz
        n_total = int(round(total))
        if abs(total - n_total) > 1e-9 or n_total < 1:
            raise ConfigError("duration_s * rate_hz must be a positive integer")
        if self.window_length > n_total:
            raise ConfigError(
                f"window_length {self.window_length} exceeds {n_total} samples"
            )
        for a, b in self.windows:
            if not (1 <= a <= b <= n_total):
                raise ConfigError(f"window {a}..{b} outside samples 1..{n_total}")
            if b - a + 1 != self.window_length:
                raise ConfigError(
                    f"window {a}..{b} has length {b - a + 1}, expected "
                    f"{self.window_length}"
                )
        if self.weight <= 0:
            raise ConfigError("lambda weight must be positive")
        if self.max_set_size < 1:
            raise ConfigError("max_set_size must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def load_grid(self) -> tuple[GridCase, PmuPlan]:
        if self.system is not None:
            case = load_bundled_case(self.system)
            plan = self.plan or default_plan(self.system)
        else:
            case = load_case(self.case_path)
            if self.plan is None:
                raise ConfigError("a plan section is required with case_path")
            plan = self.plan
        plan.validate(case)
        return case, plan

    def window_label(self, first: int, last: int) -> str:
        t0 = (first - 1) / self.rate_hz
        t1 = last / self.rate_hz
        return f"{t0:g}-{t1:g}s"


def _plan_from_mapping(m: dict) -> PmuPlan:
    return PmuPlan(
        voltage_buses=tuple(int(x) for x in m["voltage_buses"]),
        from_branches=tuple(int(x) for x in m.get("from_branches", ())),
        to_branches=tuple(int(x) for x in m.get("to_branches", ())),
    )


# config key -> parser of its value into ExperimentConfig keyword arguments
_SECTIONS = {
    "lambda": lambda v: {"weight": float(v)},
    "plan": lambda m: {"plan": _plan_from_mapping(m)},
    "windows": lambda v: {"windows": tuple((int(a), int(b)) for a, b in v)},
    "disturbance": lambda m: {"disturbance": DisturbancePolicy(**m)},
    "solver": lambda m: {"solver": SolverOptions(**m)},
    "thresholds": lambda m: {"thresholds": ThresholdPolicy(**m)},
    "trace": lambda m: {"trace_channel": m.get("channel"),
                        "trace_buses": tuple(int(b) for b in m.get("buses", ()))},
}
_MAPPING_SECTIONS = ("plan", "disturbance", "solver", "thresholds", "trace")


def config_from_mapping(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from a parsed YAML mapping; any malformed value
    raises :class:`ConfigError` naming its key."""
    raw = dict(raw)
    kwargs: dict = {}
    if "case" in raw:
        path = Path(raw.pop("case"))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        kwargs["case_path"] = str(path)
    for key in ("system", "duration_s", "rate_hz", "window_length", "seed",
                "max_set_size", "limit", "workers", "out_dir", "naive_scale"):
        if key in raw:
            kwargs[key] = raw.pop(key)
    for key, parse in _SECTIONS.items():
        if key not in raw:
            continue
        value = raw.pop(key)
        if key in _MAPPING_SECTIONS and not isinstance(value, dict):
            raise ConfigError(f"{key} section must be a mapping, got {value!r}")
        try:
            kwargs.update(parse(value))
        except KeyError as exc:
            raise ConfigError(f"{key} section missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} section: {exc}") from None
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a YAML experiment config; keyword overrides replace file values."""
    path = Path(path)
    raw = yaml.safe_load(path.read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    cfg = config_from_mapping(raw, base_dir=path.parent)
    if overrides:
        cfg = dataclasses.replace(
            cfg, **{k: v for k, v in overrides.items() if v is not None}
        )
    return cfg


@dataclass(frozen=True)
class ScenarioRow:
    scenario: int
    window: str
    set_size: int
    buses: tuple[int, ...]
    clean_nuclear: float
    attacked_nuclear: float
    ratio: float
    outcome: str
    attack_iterations: int
    attack_primal: float
    attack_dual: float
    detect_iterations: int
    detect_feasibility: float
    max_state_column_norm: float
    flagged_buses: tuple[int, ...]
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
class ExperimentReport:
    rows: tuple[ScenarioRow, ...]
    aggregates: tuple[AggregateRow, ...]
    spectra: dict[str, np.ndarray]           # window label -> singular values
    trace: tuple[np.ndarray, np.ndarray, np.ndarray] | None  # t, before, after
    meta: dict

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


def _run_scenario(
    scenario_id: int,
    window_label: str,
    window_block: MeasurementBlock,
    dep: DependencyMatrix,
    validation: AttackSetValidation,
    clean_nuclear: float,
    cfg: ExperimentConfig,
) -> tuple[ScenarioRow, float, AttackScenario | None]:
    started = time.perf_counter()
    buses = validation.attacked_buses
    try:
        scen = design_attack(window_block, dep, buses,
                             options=cfg.solver, validation=validation)
        res = detect(scen.attacked_block, dep, weight=cfg.weight,
                     options=cfg.solver, thresholds=cfg.thresholds)
        outcome = classify_outcome(res, buses)
        row = ScenarioRow(
            scenario=scenario_id,
            window=window_label,
            set_size=len(buses),
            buses=buses,
            clean_nuclear=clean_nuclear,
            attacked_nuclear=scen.objective,
            ratio=scen.objective / clean_nuclear,
            outcome=outcome.value,
            attack_iterations=scen.diagnostics.iterations,
            attack_primal=scen.diagnostics.primal_residual,
            attack_dual=scen.diagnostics.dual_residual,
            detect_iterations=res.diagnostics.iterations,
            detect_feasibility=res.feasibility_residual,
            max_state_column_norm=float(res.state_column_norms.max(initial=0.0)),
            flagged_buses=res.state_support,
        )
        return row, time.perf_counter() - started, scen
    except Exception as exc:  # recorded per scenario; the run continues
        log.warning("scenario %d (%s, %s) failed: %s",
                    scenario_id, window_label, buses, exc)
        row = ScenarioRow(
            scenario=scenario_id, window=window_label,
            set_size=len(buses), buses=buses,
            clean_nuclear=clean_nuclear, attacked_nuclear=float("nan"),
            ratio=float("nan"), outcome="error",
            attack_iterations=0, attack_primal=float("nan"),
            attack_dual=float("nan"), detect_iterations=0,
            detect_feasibility=float("nan"), max_state_column_norm=float("nan"),
            flagged_buses=(), error=str(exc),
        )
        return row, time.perf_counter() - started, None


def run_experiment(cfg: ExperimentConfig) -> tuple[ExperimentReport, dict[int, float]]:
    """Run the full pipeline; returns the report and per-scenario timings."""
    case, plan = cfg.load_grid()
    state, block, dep = generate_block(
        case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed, policy=cfg.disturbance
    )
    sets = enumerate_attack_sets(case, dep, cfg.max_set_size)
    if cfg.limit is not None:
        sets = sets[: cfg.limit]
    log.info("%s: %d admissible sets (max size %d), %d windows",
             case.name, len(sets), cfg.max_set_size, len(cfg.windows))

    spectra: dict[str, np.ndarray] = {"full": singular_spectrum(block)}
    tasks = []
    scenario_id = 0
    for first, last in cfg.windows:
        label = cfg.window_label(first, last)
        window_block = block.window(first, last)
        spectra[label] = singular_spectrum(window_block)
        clean = nuclear_norm(window_block.z)
        for validation in sets:
            scenario_id += 1
            tasks.append((scenario_id, label, window_block, validation, clean))

    trace_scenario: AttackScenario | None = None
    results: list[tuple[ScenarioRow, float, AttackScenario | None]] = [None] * len(tasks)

    def run(idx_task):
        idx, (sid, label, wblock, validation, clean) = idx_task
        return idx, _run_scenario(sid, label, wblock, dep, validation, clean, cfg)

    if cfg.workers == 1:
        for idx_task in enumerate(tasks):
            idx, result = run(idx_task)
            results[idx] = result
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            for idx, result in pool.map(run, enumerate(tasks)):
                results[idx] = result

    rows = []
    timings = {}
    for (row, seconds, scen) in results:
        rows.append(row)
        timings[row.scenario] = seconds
        if (trace_scenario is None and scen is not None
                and cfg.trace_buses and row.buses == tuple(sorted(cfg.trace_buses))):
            trace_scenario = scen

    trace = None
    if cfg.trace_channel:
        trace = _trace_series(cfg, block, dep, trace_scenario)

    meta = {
        "config": _config_echo(cfg),
        "case": case.name,
        "n_buses": case.n_bus,
        "n_branches": case.n_branch,
        "n_channels": dep.n_measurements,
        "n_sets": len(sets),
        "n_scenarios": len(rows),
        "outcomes": _outcome_counts(rows),
        "in_set_detections": sum(
            r.outcome == Outcome.DETECTED_WITHIN_SET.value and not r.error for r in rows
        ),
        "versions": {
            "pmufdi": _version,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    report = ExperimentReport(
        rows=tuple(rows),
        aggregates=aggregate_rows(rows),
        spectra=spectra,
        trace=trace,
        meta=meta,
    )
    return report, timings


def _trace_series(cfg, block, dep, trace_scenario):
    """Before/after series for the configured channel and attacked set."""
    first, last = cfg.windows[0]
    window_block = block.window(first, last)
    if trace_scenario is None and cfg.trace_buses:
        trace_scenario = design_attack(window_block, dep, cfg.trace_buses,
                                       options=cfg.solver)
    if trace_scenario is None:
        return None
    before = np.abs(window_block.column(cfg.trace_channel))
    after = np.abs(trace_scenario.attacked_block.column(cfg.trace_channel))
    t = np.arange(first, last + 1) / cfg.rate_hz
    return t, before, after


def _outcome_counts(rows) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.outcome] = counts.get(row.outcome, 0) + 1
    return dict(sorted(counts.items()))


def _config_echo(cfg: ExperimentConfig) -> dict:
    def scrub(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {k: scrub(v) for k, v in dataclasses.asdict(value).items()}
        if isinstance(value, tuple):
            return [scrub(v) for v in value]
        return value

    echo = {k: scrub(v) for k, v in dataclasses.asdict(cfg).items()}
    # where the report lands and how many threads ran it do not affect
    # its contents, so they stay out of the reproducibility record
    echo.pop("out_dir", None)
    echo.pop("workers", None)
    return echo


# ---------------------------------------------------------------------------
# report serialization

_SCENARIO_FIELDS = [
    "scenario", "window", "set_size", "buses", "clean_nuclear",
    "attacked_nuclear", "ratio", "outcome", "attack_iterations",
    "attack_primal", "attack_dual", "detect_iterations",
    "detect_feasibility", "max_state_column_norm", "flagged_buses", "error",
]
_AGGREGATE_FIELDS = [
    "window", "set_size", "count", "min_attacked_nuclear",
    "mean_attacked_nuclear", "max_attacked_nuclear",
    "min_ratio", "mean_ratio", "max_ratio",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        return _NUM % value
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def _write_atomic(path: Path, content: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(content)
    os.replace(tmp, path)


def _csv_table(fieldnames, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for record in records:
        writer.writerow([_fmt(getattr(record, f)) for f in fieldnames])
    return buf.getvalue()


def _spectrum_table(spectra: dict[str, np.ndarray]) -> str:
    """spectrum.csv: the singular values of each labelled block, 1-based."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["window", "index", "singular_value"])
    for label, sv in spectra.items():
        for i, value in enumerate(sv, start=1):
            writer.writerow([label, i, _NUM % value])
    return buf.getvalue()


def emit_csv(report: ExperimentReport, out_dir: str | Path,
             timings: dict[int, float] | None = None) -> list[Path]:
    """Write scenarios.csv, aggregates.csv, spectrum.csv (and trace.csv when
    a trace was configured) plus meta.json into *out_dir*."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "scenarios.csv"
    _write_atomic(path, _csv_table(_SCENARIO_FIELDS, report.rows))
    written.append(path)

    path = out / "aggregates.csv"
    _write_atomic(path, _csv_table(_AGGREGATE_FIELDS, report.aggregates))
    written.append(path)

    path = out / "spectrum.csv"
    _write_atomic(path, _spectrum_table(report.spectra))
    written.append(path)

    if report.trace is not None:
        t, before, after = report.trace
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["time_s", "before", "after"])
        for row in zip(t, before, after):
            writer.writerow([_NUM % v for v in row])
        path = out / "trace.csv"
        _write_atomic(path, buf.getvalue())
        written.append(path)

    path = out / "meta.json"
    _write_atomic(path, json.dumps(report.meta, indent=2, sort_keys=True) + "\n")
    written.append(path)

    if timings is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "seconds"])
        for sid in sorted(timings):
            writer.writerow([sid, "%.6f" % timings[sid]])
        # wall times are inherently non-deterministic; kept out of the
        # reproducibility contract on purpose
        _write_atomic(out / "timings.csv", buf.getvalue())

    return written


def emit_plot_script(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Gnuplot scripts referencing only the CSVs written by emit_csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    spectrum = """set datafile separator ','
set logscale y
set xlabel 'index'
set ylabel 'singular value'
set key autotitle columnheader
plot for [w in "{windows}"] 'spectrum.csv' \\
    using 2:($3)*(strcol(1) eq w ? 1 : NaN) with linespoints title w
""".format(windows=" ".join(report.spectra))
    path = out / "spectrum.gp"
    _write_atomic(path, spectrum)
    written.append(path)

    aggregates = """set datafile separator ','
set xlabel 'attacked-set size'
set ylabel 'post-attack nuclear norm'
set key autotitle columnheader
windows = "{windows}"
plot for [w in windows] 'aggregates.csv' \\
    using 2:(strcol(1) eq w ? $5 : NaN):(strcol(1) eq w ? $4 : NaN):(strcol(1) eq w ? $6 : NaN) \\
    with yerrorbars title w
""".format(windows=" ".join(dict.fromkeys(a.window for a in report.aggregates)))
    path = out / "aggregates.gp"
    _write_atomic(path, aggregates)
    written.append(path)

    if report.trace is not None:
        trace = """set datafile separator ','
set xlabel 'time (s)'
set ylabel 'current magnitude (p.u.)'
plot 'trace.csv' using 1:2 with lines title 'before', \\
     'trace.csv' using 1:3 with lines title 'after'
"""
        path = out / "trace.gp"
        _write_atomic(path, trace)
        written.append(path)

    return written


def save_report(report: ExperimentReport, out_dir: str | Path,
                timings: dict[int, float] | None = None) -> list[Path]:
    return emit_csv(report, out_dir, timings) + emit_plot_script(report, out_dir)


def _parse_buses(text: str) -> tuple[int, ...]:
    return tuple(int(b) for b in text.split("+")) if text else ()


def load_report(out_dir: str | Path) -> ExperimentReport:
    """Read a report directory back; re-derives the aggregates from the
    scenario rows and refuses to load if they disagree with the stored ones.
    """
    out = Path(out_dir)
    rows = []
    with open(out / "scenarios.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ScenarioRow(
                scenario=int(rec["scenario"]),
                window=rec["window"],
                set_size=int(rec["set_size"]),
                buses=_parse_buses(rec["buses"]),
                clean_nuclear=float(rec["clean_nuclear"]),
                attacked_nuclear=float(rec["attacked_nuclear"]),
                ratio=float(rec["ratio"]),
                outcome=rec["outcome"],
                attack_iterations=int(rec["attack_iterations"]),
                attack_primal=float(rec["attack_primal"]),
                attack_dual=float(rec["attack_dual"]),
                detect_iterations=int(rec["detect_iterations"]),
                detect_feasibility=float(rec["detect_feasibility"]),
                max_state_column_norm=float(rec["max_state_column_norm"]),
                flagged_buses=_parse_buses(rec["flagged_buses"]),
                error=rec["error"],
            ))
    stored = []
    with open(out / "aggregates.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            stored.append(AggregateRow(
                window=rec["window"], set_size=int(rec["set_size"]),
                count=int(rec["count"]),
                min_attacked_nuclear=float(rec["min_attacked_nuclear"]),
                mean_attacked_nuclear=float(rec["mean_attacked_nuclear"]),
                max_attacked_nuclear=float(rec["max_attacked_nuclear"]),
                min_ratio=float(rec["min_ratio"]),
                mean_ratio=float(rec["mean_ratio"]),
                max_ratio=float(rec["max_ratio"]),
            ))
    recomputed = aggregate_rows(rows)
    if tuple(stored) != recomputed:
        raise ReportIntegrityError(
            f"{out}: stored aggregates do not match the scenario rows"
        )

    spectra: dict[str, list[float]] = {}
    with open(out / "spectrum.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            spectra.setdefault(rec["window"], []).append(float(rec["singular_value"]))

    trace = None
    trace_path = out / "trace.csv"
    if trace_path.exists():
        cols = ([], [], [])
        with open(trace_path, newline="") as fh:
            for rec in csv.DictReader(fh):
                cols[0].append(float(rec["time_s"]))
                cols[1].append(float(rec["before"]))
                cols[2].append(float(rec["after"]))
        trace = tuple(np.array(c) for c in cols)

    meta = json.loads((out / "meta.json").read_text())
    return ExperimentReport(
        rows=tuple(rows),
        aggregates=tuple(stored),
        spectra={k: np.array(v) for k, v in spectra.items()},
        trace=trace,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# lambda sweep

@dataclass(frozen=True)
class SweepRow:
    weight: float
    kind: str                       # "designed" or "naive"
    outcome: str
    flagged_buses: tuple[int, ...]
    max_state_column_norm: float
    error: str = ""


def lambda_sweep(cfg: ExperimentConfig, weights) -> tuple[SweepRow, ...]:
    """Detection outcome per weight on one designed and one naive attack.

    Both attacked blocks are built once from the first detection window
    and the configured trace set (or the first admissible set); only the
    detector weight varies across the sweep.
    """
    weights = tuple(float(w) for w in weights)
    if not weights or any(w <= 0 for w in weights):
        raise ConfigError("sweep weights must be a nonempty list of positives")
    case, plan = cfg.load_grid()
    state, block, dep = generate_block(
        case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed, policy=cfg.disturbance
    )
    first, last = cfg.windows[0]
    window_block = block.window(first, last)
    buses = tuple(sorted(cfg.trace_buses))
    if not buses:
        sets = enumerate_attack_sets(case, dep, 1)
        if not sets:
            raise ConfigError("no admissible attacked set for the sweep")
        buses = sets[0].attacked_buses

    designed = design_attack(window_block, dep, buses, options=cfg.solver)
    _, naive_block = naive_ramp_attack(
        window_block, dep, buses, scale=cfg.naive_scale, seed=cfg.seed
    )

    rows = []
    for weight in weights:
        for kind, attacked in (("designed", designed.attacked_block),
                               ("naive", naive_block)):
            try:
                res = detect(attacked, dep, weight=weight,
                             options=cfg.solver, thresholds=cfg.thresholds)
                rows.append(SweepRow(
                    weight=weight, kind=kind,
                    outcome=classify_outcome(res, buses).value,
                    flagged_buses=res.state_support,
                    max_state_column_norm=float(res.state_column_norms.max(initial=0.0)),
                ))
            except Exception as exc:
                log.warning("sweep weight %g (%s) failed: %s", weight, kind, exc)
                rows.append(SweepRow(
                    weight=weight, kind=kind, outcome="error",
                    flagged_buses=(), max_state_column_norm=float("nan"),
                    error=str(exc),
                ))
    return tuple(rows)


_SWEEP_FIELDS = ["weight", "kind", "outcome", "flagged_buses",
                 "max_state_column_norm", "error"]


def write_sweep_csv(rows, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "lambda_sweep.csv"
    _write_atomic(path, _csv_table(_SWEEP_FIELDS, rows))
    return path


def write_generated_block(cfg: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Generate and persist the block (CSV + npz cache + spectrum CSV)."""
    case, plan = cfg.load_grid()
    state, block, dep = generate_block(
        case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed, policy=cfg.disturbance
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "block.csv"
    npz_path = out / "block.npz"
    write_block_csv(block, csv_path)
    write_block_npz(block, npz_path)
    spath = out / "spectrum.csv"
    _write_atomic(spath, _spectrum_table({"full": singular_spectrum(block)}))
    return [csv_path, npz_path, spath]
