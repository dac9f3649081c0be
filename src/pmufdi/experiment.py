"""Experiment config, the end-to-end pipeline and the detector-weight sweep.

An experiment, fully described by a YAML config, generates a synthetic
block, enumerates admissible attacked-state sets, designs and applies an
attack per set and per detection window, runs the detector on every
attacked window, and aggregates the outcomes into an
:class:`~pmufdi.report.ExperimentReport`; :mod:`pmufdi.report` writes
and reads it.
"""

from __future__ import annotations

import dataclasses
import logging
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__ as _version
from .attack import design_attack, naive_ramp_attack
from .attack_sets import enumerate_attack_sets
from .blocks import MeasurementBlock, generate_block, singular_spectrum, write_block_csv, write_block_npz
from .cases import GridCase, load_case
from .detector import Outcome, ThresholdPolicy, classify_outcome, detect
from .kernels import SolverOptions, nuclear_norm
from .loads import DisturbancePolicy
from .measurements import DependencyMatrix, PmuPlan
from .report import ExperimentReport, ScenarioRow, SweepRow, aggregate_rows, write_spectrum
from .testsystems import default_plan, load_bundled_case, system_names

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


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
        if self.limit is not None and self.limit < 0:
            raise ConfigError("limit must be >= 0")
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
        scen = design_attack(window_block, dep, buses, options=cfg.solver)
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
    return row, time.perf_counter() - started


def _check_trace(cfg: ExperimentConfig, case: GridCase, dep: DependencyMatrix) -> None:
    """Reject a trace channel or trace bus that the grid does not have."""
    if cfg.trace_channel and cfg.trace_channel not in dep.row_labels:
        raise ConfigError(
            f"trace channel {cfg.trace_channel!r} is not a measurement channel of {case.name}"
        )
    unknown = sorted(set(cfg.trace_buses) - set(dep.bus_ids))
    if unknown:
        raise ConfigError(f"trace buses {unknown} are not buses of {case.name}")


def run_experiment(cfg: ExperimentConfig) -> tuple[ExperimentReport, dict[int, float]]:
    """Run the full pipeline; returns the report and per-scenario timings."""
    case, block, dep = cfg.build_block()
    _check_trace(cfg, case, dep)
    sets = enumerate_attack_sets(case, dep, cfg.max_set_size)
    if cfg.limit is not None:
        sets = sets[: cfg.limit]
    log.info("%s: %d admissible sets (max size %d), %d windows",
             case.name, len(sets), cfg.max_set_size, len(cfg.windows))

    spectra: dict[str, np.ndarray] = {"full": singular_spectrum(block)}
    tasks = []
    for first, last in cfg.windows:
        label = cfg.window_label(first, last)
        window_block = block.window(first, last)
        spectra[label] = singular_spectrum(window_block)
        clean = nuclear_norm(window_block.z)
        for validation in sets:
            tasks.append((len(tasks) + 1, label, window_block,
                          validation.attacked_buses, clean))

    def run(task):
        return _run_scenario(*task, dep, cfg)

    # both branches return the results in task order
    if cfg.workers == 1:
        results = [run(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, tasks))
    rows = [row for row, _ in results]
    timings = {row.scenario: seconds for row, seconds in results}

    trace = _trace_series(cfg, block, dep)

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


def _trace_series(cfg, block, dep):
    """Before/after series of the configured channel under an attack on
    the trace set, designed on the first detection window."""
    if not (cfg.trace_channel and cfg.trace_buses):
        return None
    first, last = cfg.windows[0]
    window_block = block.window(first, last)
    scen = design_attack(window_block, dep, cfg.trace_buses, options=cfg.solver)
    before = np.abs(window_block.column(cfg.trace_channel))
    after = np.abs(scen.attacked_block.column(cfg.trace_channel))
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
# lambda sweep

def lambda_sweep(cfg: ExperimentConfig, weights) -> tuple[SweepRow, ...]:
    """Detection outcome per weight on one designed and one naive attack.

    Both attacked blocks are built once from the first detection window
    and the configured trace set (or the first admissible set); only the
    detector weight varies across the sweep.
    """
    weights = tuple(float(w) for w in weights)
    if not weights or any(w <= 0 for w in weights):
        raise ConfigError("sweep weights must be a nonempty list of positives")
    case, block, dep = cfg.build_block()
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


def write_generated_block(cfg: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Generate and persist the block (CSV + npz cache + spectrum CSV)."""
    _, block, _ = cfg.build_block()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "block.csv"
    npz_path = out / "block.npz"
    write_block_csv(block, csv_path)
    write_block_npz(block, npz_path)
    spath = write_spectrum(out / "spectrum.csv", {"full": singular_spectrum(block)})
    return [csv_path, npz_path, spath]
