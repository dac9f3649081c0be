import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pmufdi import experiment
from pmufdi.detector import Outcome
from pmufdi.experiment import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    lambda_sweep,
    load_config,
    run_experiment,
)
from pmufdi.measurements import PmuPlan
from pmufdi.report import (
    AggregateRow,
    ExperimentReport,
    ReportIntegrityError,
    ScenarioRow,
    SweepRow,
    aggregate_rows,
    emit_csv,
    load_report,
    read_records,
    save_report,
    write_records,
)

from conftest import TWO_BUS_NO_LOAD_CASE

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(system="ieee24", max_set_size=1, limit=2, out_dir="unused")
    base.update(overrides)
    return ExperimentConfig(**base)


def test_shipped_configs_load():
    cfg24 = load_config(CONFIG_DIR / "ieee24.yaml")
    assert cfg24.system == "ieee24"
    assert cfg24.weight == 1.05
    assert cfg24.max_set_size == 5
    assert cfg24.windows == ((31, 90), (91, 150))
    assert cfg24.trace_channel == "F:11"
    assert cfg24.plan.n_measurements == 41

    cfg118 = load_config(CONFIG_DIR / "ieee118.yaml")
    assert cfg118.max_set_size == 1
    assert cfg118.plan.n_measurements == 157


def test_config_overrides():
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", seed=7, limit=3, out_dir="/tmp/x")
    assert (cfg.seed, cfg.limit, cfg.out_dir) == (7, 3, "/tmp/x")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig()                                   # neither source
    with pytest.raises(ConfigError):
        ExperimentConfig(system="ieee24", case_path="x.m")   # both sources
    with pytest.raises(ConfigError):
        small_cfg(windows=((31, 89),))                       # wrong length
    with pytest.raises(ConfigError):
        small_cfg(windows=((100, 159),))                     # past the end
    with pytest.raises(ConfigError):
        small_cfg(window_length=151)
    with pytest.raises(ConfigError):
        small_cfg(weight=0.0)
    with pytest.raises(ConfigError):
        small_cfg(duration_s=5.003)
    with pytest.raises(ConfigError, match="limit"):
        small_cfg(limit=-1)
    assert small_cfg(limit=0).limit == 0
    with pytest.raises(ConfigError):
        config_from_mapping({"system": "ieee24", "bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"system": "ieee24", "plan": {"from_branches": [1]}})
    for section, bad in (("solver", {"verbos": True}),
                         ("solver", {"verbose": True}),
                         ("solver", {"max_iter": 0}),
                         ("solver", {"rho": 1.0}),
                         ("thresholds", {"relx": 1}),
                         ("disturbance", {"decay": 0.0}),
                         ("plan", 5),
                         ("plan", {"voltage_buses": [1, 1]}),
                         ("trace", 5),
                         ("windows", 5),
                         ("windows", [[1, 2, 3]]),
                         ("lambda", "abc")):
        with pytest.raises(ConfigError, match=section):
            config_from_mapping({"system": "ieee24", section: bad})


@pytest.mark.parametrize("trace, name", [
    ({"trace_channel": "F:999", "trace_buses": (8,)}, "F:999"),
    ({"trace_channel": "F:11", "trace_buses": (999,)}, "999"),
], ids=["channel", "bus"])
def test_bad_trace_settings_fail_before_any_scenario(trace, name, monkeypatch):
    designed = []
    monkeypatch.setattr(experiment, "design_attack",
                        lambda *args, **kwargs: designed.append(args))
    with pytest.raises(ConfigError, match=name):
        run_experiment(small_cfg(**trace))
    assert designed == []


def test_window_labels():
    cfg = small_cfg()
    assert cfg.window_label(31, 90) == "1-3s"
    assert cfg.window_label(91, 150) == "3-5s"
    assert cfg.window_label(1, 60) == "0-2s"


def test_no_admissible_sets_yields_empty_report(tmp_path):
    case_path = tmp_path / "noload.m"
    case_path.write_text(TWO_BUS_NO_LOAD_CASE)
    cfg = ExperimentConfig(
        case_path=str(case_path),
        plan=PmuPlan((1, 2), (1,), (1,)),
        max_set_size=1,
        out_dir=str(tmp_path / "out"),
    )
    report, timings = run_experiment(cfg)
    assert report.rows == ()
    assert report.exit_code == 0
    paths = emit_csv(report, cfg.out_dir, timings)
    names = {p.name for p in paths}
    assert {"scenarios.csv", "aggregates.csv", "spectrum.csv"} <= names
    scenarios = (tmp_path / "out" / "scenarios.csv").read_text().splitlines()
    assert len(scenarios) == 1      # header only


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_report")
    cfg = small_cfg(out_dir=str(out), trace_channel="F:11", trace_buses=(8,),
                    limit=3)
    report, timings = run_experiment(cfg)
    save_report(report, cfg.out_dir, timings)
    return cfg, report, out


def test_report_contents(tiny_report):
    cfg, report, out = tiny_report
    assert report.meta["n_scenarios"] == 6      # 3 sets x 2 windows
    assert report.meta["outcomes"] == {"bypassed": 6}
    assert report.exit_code == 0
    for row in report.rows:
        assert row.outcome == Outcome.BYPASSED.value
        assert row.ratio <= 1 + 1e-6
        assert row.clean_nuclear > 0
    assert set(report.spectra) == {"full", "1-3s", "3-5s"}
    emitted = {p.name for p in out.iterdir()}
    assert {"scenarios.csv", "aggregates.csv", "spectrum.csv", "trace.csv",
            "meta.json", "spectrum.gp", "aggregates.gp", "trace.gp",
            "timings.csv"} <= emitted


def test_trace_series(tiny_report):
    cfg, report, out = tiny_report
    t, before, after = report.trace
    assert len(t) == cfg.window_length
    assert t[0] == pytest.approx(31 / 30.0)
    assert np.all(before > 0)
    assert not np.array_equal(before, after)
    # plot scripts reference only emitted CSVs
    for script in ("spectrum.gp", "aggregates.gp", "trace.gp"):
        text = (out / script).read_text()
        for token in text.split("'"):
            if token.endswith(".csv"):
                assert (out / token).exists()


DETERMINISTIC = ["scenarios.csv", "aggregates.csv", "spectrum.csv", "trace.csv",
                 "meta.json", "spectrum.gp", "aggregates.gp", "trace.gp"]


def test_report_round_trip_and_integrity(tiny_report, tmp_path):
    cfg, report, out = tiny_report
    loaded = load_report(out)
    assert loaded.rows == report.rows
    assert loaded.aggregates == report.aggregates
    assert loaded.meta == report.meta

    # the loaded report writes back the same bytes
    save_report(loaded, tmp_path)
    for name in DETERMINISTIC:
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    # corrupt one aggregate value: loading must refuse
    agg_path = out / "aggregates.csv"
    lines = agg_path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = "1.5"
    corrupted = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    agg_path.write_text(corrupted)
    with pytest.raises(ReportIntegrityError):
        load_report(out)
    save_report(report, out)   # restore for other tests


def test_reports_byte_identical_across_runs(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = small_cfg(out_dir=str(out), trace_channel="F:11", trace_buses=(8,))
        report, timings = run_experiment(cfg)
        save_report(report, cfg.out_dir, timings)
        outs.append(out)
    for name in DETERMINISTIC:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_error_row_round_trips_byte_for_byte(tmp_path):
    nan = float("nan")
    rows = (
        ScenarioRow(1, "1-3s", 1, (8,), 10.0, 9.5, 0.95, "bypassed",
                    23, 1e-6, 2e-9, 48, 5e-6, 0.0, ()),
        ScenarioRow(2, "1-3s", 2, (8, 9), 10.0, nan, nan, "error",
                    0, nan, nan, 0, nan, nan, (),
                    error='ADMM stopped: "primal" 1e-3, dual 2e-4'),
    )
    report = ExperimentReport(
        rows=rows, aggregates=aggregate_rows(rows),
        spectra={"full": np.array([3.0, 0.5, 1e-17])},
        trace=(np.array([1.0, 1.1]), np.array([0.2, 0.3]), np.array([0.25, 0.3])),
        meta={"n_scenarios": 2},
    )
    save_report(report, tmp_path / "a")
    loaded = load_report(tmp_path / "a")
    error_row = loaded.rows[1]
    assert error_row.error == rows[1].error
    assert error_row.flagged_buses == ()
    assert math.isnan(error_row.ratio) and math.isnan(error_row.attack_primal)
    save_report(loaded, tmp_path / "b")
    for name in DETERMINISTIC:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_records_round_trip_and_reject_foreign_columns(tmp_path):
    rows = (SweepRow(1.05, "designed", "bypassed", (), 0.0),
            SweepRow(2.0, "naive", "detected_within_set", (8, 9), 0.5, error="a,b"))
    path = write_records(tmp_path / "sweep.csv", SweepRow, rows)
    assert path.read_text().splitlines()[0] == \
        "weight,kind,outcome,flagged_buses,max_state_column_norm,error"
    assert read_records(path, SweepRow) == rows
    with pytest.raises(ValueError, match="columns"):
        read_records(path, AggregateRow)


def test_worker_pool_matches_serial(tmp_path):
    serial = run_experiment(small_cfg(out_dir=str(tmp_path / "s")))[0]
    threaded = run_experiment(small_cfg(out_dir=str(tmp_path / "t"), workers=4))[0]
    assert serial.rows == threaded.rows
    assert serial.aggregates == threaded.aggregates


def test_aggregates_recomputable():
    rows = [
        ScenarioRow(1, "w", 1, (8,), 10.0, 9.0, 0.9, "bypassed",
                    5, 0.0, 0.0, 5, 0.0, 0.0, ()),
        ScenarioRow(2, "w", 1, (9,), 10.0, 8.0, 0.8, "bypassed",
                    5, 0.0, 0.0, 5, 0.0, 0.0, ()),
        ScenarioRow(3, "w", 2, (8, 9), 10.0, 7.0, 0.7, "error",
                    0, 0.0, 0.0, 0, 0.0, 0.0, (), error="boom"),
    ]
    aggs = aggregate_rows(rows)
    expected = AggregateRow("w", 1, 2, 8.0, 8.5, 9.0, 0.8, np.mean([0.8, 0.9]), 0.9)
    assert aggs == (expected,)


def test_exit_code_flags_in_set_detection():
    row = ScenarioRow(1, "w", 1, (8,), 10.0, 9.0, 0.9,
                      Outcome.DETECTED_WITHIN_SET.value,
                      5, 0.0, 0.0, 5, 0.0, 0.0, (8,))
    report = ExperimentReport(rows=(row,), aggregates=aggregate_rows([row]),
                              spectra={}, trace=None, meta={})
    assert report.in_set_detections == (row,)
    assert report.exit_code == 2


def test_lambda_sweep_outcomes(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path), trace_buses=(8,),
                    solver=dataclasses.replace(small_cfg().solver, max_iter=2500))
    rows = lambda_sweep(cfg, [0.5, 1.05, 2.0, 1e6])
    by_key = {(r.weight, r.kind): r for r in rows}

    # below the recovery window the solve is genuinely slow: recorded, not fatal
    assert by_key[(0.5, "designed")].outcome == "error"
    assert by_key[(0.5, "designed")].error

    assert by_key[(1.05, "designed")].outcome == Outcome.BYPASSED.value
    assert by_key[(1.05, "naive")].outcome == Outcome.DETECTED_WITHIN_SET.value
    assert by_key[(1.05, "naive")].flagged_buses == (8,)

    assert by_key[(2.0, "designed")].outcome == Outcome.BYPASSED.value

    # an extreme weight suppresses the sparse term entirely
    assert by_key[(1e6, "naive")].outcome == Outcome.BYPASSED.value
    assert by_key[(1e6, "naive")].max_state_column_norm == 0.0

    with pytest.raises(ConfigError):
        lambda_sweep(cfg, [])
    with pytest.raises(ConfigError):
        lambda_sweep(cfg, [-1.0])


def test_meta_records_environment(tiny_report):
    _, report, out = tiny_report
    meta = json.loads((out / "meta.json").read_text())
    assert meta["versions"]["pmufdi"]
    assert meta["versions"]["numpy"]
    assert meta["config"]["seed"] == 2024
    assert meta["in_set_detections"] == 0
