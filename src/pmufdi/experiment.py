"""Experiment config, the end-to-end pipeline and the detector-weight sweep.

An experiment, fully described by a YAML config, generates a synthetic
block, enumerates admissible attacked-state sets, designs and applies an
attack per set and per detection window, runs the detector on every
attacked window, and aggregates the outcomes into an
:class:`~pmufdi.report.ExperimentReport`; :mod:`pmufdi.report` writes
and reads it. Every scenario runs on a thread pool of ``workers``
threads, one thread included; the report does not depend on the count.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import platform
import time
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__ as _version
from .attack import design_attack, naive_ramp_attack
from .attack_sets import enumerate_attack_sets
from .blocks import MeasurementBlock, generate_block, sample_count, singular_spectrum
from .cases import GridCase, load_case
from .detector import SolverOptions, ThresholdPolicy, classify_outcome, detect
from .kernels import BLAS_THREADS, nuclear_norm
from .loads import DisturbancePolicy
from .measurements import DependencyMatrix, PmuPlan
from .report import (ExperimentReport, ScenarioRow, SweepRow, TraceRow, in_set_rows,
                     outcome_counts, spectrum_rows)
from .testsystems import default_plan, load_bundled_case, system_names

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


# YAML key -> ExperimentConfig field, where the two differ
_FIELDS = {"case": "case_path", "lambda": "weight",
           "trace.channel": "trace_channel", "trace.buses": "trace_buses"}
_KEYS = {name: key for key, name in _FIELDS.items()}
# scalar annotation -> what its value must be, and the type it must have;
# a bool is an integer to Python but no number in a config
_SCALARS = {int: ("an integer", numbers.Integral), float: ("a finite number", numbers.Real),
            str: ("a string", str)}


def _require(key: str, value, kind) -> None:
    """Raise :class:`ConfigError` naming *key* unless *value* has the annotated type
    *kind*: a scalar of :data:`_SCALARS`, ``X | None``, a tuple of its item types,
    or a dataclass checked field by field. Nothing is converted."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:                   # X | None
        if value is not None:
            _require(key, value, args[0])
    elif origin is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, tuple) or n not in (None, len(value)):
            raise ConfigError(f"{key} must be a tuple (a YAML list) of "
                              f"{n or 'any number of'} items, got {value!r}")
        for i, item in enumerate(value):
            _require(f"{key}[{i}]", item, args[0] if n is None else args[i])
    elif dataclasses.is_dataclass(kind):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}")
        hints = typing.get_type_hints(kind)
        for f in dataclasses.fields(kind):
            _require(f"{key}.{f.name}" if key else _KEYS.get(f.name, f.name),
                     getattr(value, f.name), hints[f.name])
    else:
        noun, base = _SCALARS[kind]
        if not isinstance(value, base) or isinstance(value, bool) \
                or (kind is float and not _finite(value)):
            raise ConfigError(f"{key} must be {noun}, got {value!r}")


def _finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:               # an integer beyond the float range
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    system: str | None = None          # bundled system name, or
    case_path: str | None = None       # path to a case file
    plan: PmuPlan | None = None        # defaults to the bundled plan
    duration_s: float = 5.0
    rate_hz: float = 30.0
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
        _require("", self, ExperimentConfig)       # YAML, overrides and code alike
        if (self.system is None) == (self.case_path is None):
            raise ConfigError("exactly one of system/case_path must be set")
        if self.system is not None and self.system not in system_names():
            raise ConfigError(f"unknown bundled system {self.system!r}")
        try:
            n_total = sample_count(self.duration_s, self.rate_hz)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.windows:
            raise ConfigError("windows must list at least one window")
        for a, b in self.windows:
            if not (1 <= a <= b <= n_total):
                raise ConfigError(f"window {a}..{b} outside samples 1..{n_total}")
        labels = [self.window_label(a, b) for a, b in self.windows]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"windows must have distinct labels, got {labels}")
        if self.weight <= 0:
            raise ConfigError("lambda weight must be positive")
        if self.max_set_size < 1:
            raise ConfigError("max_set_size must be >= 1")
        if self.limit is not None and self.limit < 0:
            raise ConfigError("limit must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.trace_channel is not None and not self.trace_buses:
            raise ConfigError("trace.channel needs trace.buses, the attacked set it traces")

    def load_grid(self) -> tuple[GridCase, PmuPlan]:
        if self.system is not None:
            case = load_bundled_case(self.system)
            plan = self.plan or default_plan(self.system)
        else:
            case = load_case(self.case_path)
            if self.plan is None:
                raise ConfigError("a plan section is required with case_path")
            plan = self.plan
        return case, plan

    def build_block(self) -> tuple[GridCase, MeasurementBlock, DependencyMatrix]:
        """The grid, its synthetic block and the block's dependency matrix."""
        case, plan = self.load_grid()
        _, block, dep = generate_block(case, plan, self.duration_s, self.rate_hz,
                                       self.seed, policy=self.disturbance)
        return case, block, dep

    def window_label(self, first: int, last: int) -> str:
        t0 = (first - 1) / self.rate_hz
        t1 = last / self.rate_hz
        return f"{t0:g}-{t1:g}s"


def _tuples(value):
    """A YAML value with its lists, at any depth, as tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _build(key: str, cls, mapping):
    """Dataclass *cls* from the YAML mapping at *key* (empty at the top): each value is
    checked, or built if a section, before *cls* runs its own checks."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{key} must be a mapping, got {mapping!r}")
    hints, kwargs = typing.get_type_hints(cls), {}
    for sub, value in mapping.items():
        path = f"{key}.{sub}" if key else sub
        name = _FIELDS.get(path, sub)
        if name not in hints or _KEYS.get(name, path) != path:
            raise ConfigError(f"unknown config key {path!r}")
        try:
            kind, value = hints[name], _tuples(value)
        except RecursionError:                      # a YAML alias inside its own anchor
            raise ConfigError(f"{path} contains itself") from None
        section = next((k for k in (kind, *typing.get_args(kind))
                        if dataclasses.is_dataclass(k)), None)
        if section is None:
            _require(path, value, kind)
        kwargs[name] = value if section is None else _build(path, section, value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):            # the top level's own checks
            raise
        raise ConfigError(f"{key}: {exc}") from None   # a section's missing key or range


def config_from_mapping(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from a parsed YAML mapping. Keys are renamed to
    their fields and YAML lists become tuples; no value is converted.
    Any malformed value raises :class:`ConfigError` naming its key."""
    raw = dict(raw)
    trace = raw.pop("trace", {})
    if not isinstance(trace, dict):
        raise ConfigError(f"trace must be a mapping, got {trace!r}")
    raw.update({f"trace.{k}": v for k, v in trace.items()})
    if isinstance(raw.get("case"), str):
        raw["case"] = str(Path(base_dir or "", raw["case"]))
    return _build("", ExperimentConfig, raw)


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a YAML experiment config; keyword overrides replace file values.
    A file that is not UTF-8 YAML raises ConfigError naming the path, and
    the line and column where the YAML parser stopped; a bad value in the
    file raises ConfigError naming the path and the key."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}{where}: {getattr(exc, 'problem', None) or exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    try:
        cfg = config_from_mapping(raw, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _run_scenario(
    scenario_id: int,
    window_label: str,
    window_block: MeasurementBlock,
    buses: tuple[int, ...],
    clean_nuclear: float,
    dep: DependencyMatrix,
    cfg: ExperimentConfig,
) -> tuple[ScenarioRow, float]:
    started = time.perf_counter()
    try:
        scen = design_attack(window_block, dep, buses)
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
            detect_iterations=res.diagnostics.iterations,
            detect_feasibility=res.feasibility_residual,
            max_state_column_norm=res.max_state_column_norm,
            flagged_buses=res.state_support,
        )
    except Exception as exc:  # recorded per scenario; the run continues
        log.warning("scenario %d (%s, %s) failed: %s",
                    scenario_id, window_label, buses, exc)
        row = ScenarioRow(scenario_id, window_label, len(buses), buses,
                          clean_nuclear, error=str(exc))
    return row, time.perf_counter() - started


def _check_trace(cfg: ExperimentConfig, case: GridCase, dep: DependencyMatrix) -> None:
    """Reject a trace channel or trace bus that the grid does not have."""
    if cfg.trace_channel is not None and cfg.trace_channel not in dep.row_labels:
        raise ConfigError(
            f"trace channel {cfg.trace_channel!r} is not a measurement channel of {case.name}"
        )
    unknown = sorted(set(cfg.trace_buses) - set(dep.bus_ids))
    if unknown:
        raise ConfigError(f"trace buses {unknown} are not buses of {case.name}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline; the report holds each scenario's wall time."""
    case, block, dep = cfg.build_block()
    _check_trace(cfg, case, dep)
    sets = enumerate_attack_sets(case, dep, cfg.max_set_size)
    if cfg.limit is not None:
        sets = sets[: cfg.limit]
    log.info("%s: %d admissible sets (max size %d), %d windows",
             case.name, len(sets), cfg.max_set_size, len(cfg.windows))

    spectra = spectrum_rows("full", singular_spectrum(block))
    tasks = []
    for first, last in cfg.windows:
        label = cfg.window_label(first, last)
        window_block = block.window(first, last)
        spectra += spectrum_rows(label, singular_spectrum(window_block))
        clean = nuclear_norm(window_block.z)
        for validation in sets:
            tasks.append((len(tasks) + 1, label, window_block,
                          validation.attacked_buses, clean))

    def run(task):
        return _run_scenario(*task, dep, cfg)

    # map returns the results in task order
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = list(pool.map(run, tasks))
    rows = tuple(row for row, _ in results)

    meta = {
        "config": _config_echo(cfg),
        "case": case.name,
        "n_buses": case.n_bus,
        "n_branches": case.n_branch,
        "n_channels": dep.n_measurements,
        "n_sets": len(sets),
        "n_scenarios": len(rows),
        "outcomes": outcome_counts(rows),
        "in_set_detections": len(in_set_rows(rows)),
        "versions": {
            "pmufdi": _version,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas_threads": BLAS_THREADS,
        },
    }
    return ExperimentReport(
        rows=rows,
        spectra=spectra,
        trace=_trace_series(cfg, block, dep),
        meta=meta,
        seconds=tuple(seconds for _, seconds in results),
    )


def _trace_series(cfg, block, dep) -> tuple[TraceRow, ...]:
    """Before/after series of the configured channel under an attack on
    the trace set, designed on the first detection window; () if unset."""
    if cfg.trace_channel is None:
        return ()
    first, last = cfg.windows[0]
    window_block = block.window(first, last)
    scen = design_attack(window_block, dep, cfg.trace_buses)
    before = np.abs(window_block.column(cfg.trace_channel))
    after = np.abs(scen.attacked_block.column(cfg.trace_channel))
    t = np.arange(first, last + 1) / cfg.rate_hz
    return tuple(map(TraceRow, t.tolist(), before.tolist(), after.tolist()))


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = json.loads(json.dumps(dataclasses.asdict(cfg)))     # as meta.json reads back
    # where the report lands and how many threads ran it do not affect
    # its contents, so they stay out of the reproducibility record
    echo.pop("out_dir", None)
    echo.pop("workers", None)
    return echo


# ---------------------------------------------------------------------------
# lambda sweep

def lambda_sweep(cfg: ExperimentConfig, weights) -> tuple[SweepRow, ...]:
    """Detection outcome per weight on one designed and one naive attack.

    Both attacked blocks are built once from the first detection window
    and the configured trace set (or the first admissible set); only the
    detector weight varies across the sweep.
    """
    weights = tuple(weights)
    if not weights or not all(0 < w < math.inf for w in weights):
        raise ConfigError(f"sweep weights must be a nonempty list of finite positives, "
                          f"got {weights}")
    case, block, dep = cfg.build_block()
    _check_trace(cfg, case, dep)
    first, last = cfg.windows[0]
    window_block = block.window(first, last)
    buses = tuple(sorted(cfg.trace_buses))
    if not buses:
        sets = enumerate_attack_sets(case, dep, 1)
        if not sets:
            raise ConfigError("no admissible attacked set for the sweep")
        buses = sets[0].attacked_buses

    designed = design_attack(window_block, dep, buses)
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
                    max_state_column_norm=res.max_state_column_norm,
                ))
            except Exception as exc:
                log.warning("sweep weight %g (%s) failed: %s", weight, kind, exc)
                rows.append(SweepRow(weight, kind, error=str(exc)))
    return tuple(rows)
