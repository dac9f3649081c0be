import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pmufdi.detector import Outcome
from pmufdi.experiment import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ReportIntegrityError,
    ScenarioRow,
    aggregate_rows,
    config_from_mapping,
    emit_csv,
    emit_plot_script,
    lambda_sweep,
    load_config,
    load_report,
    run_experiment,
    save_report,
)
from pmufdi.measurements import PmuPlan

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
    with pytest.raises(ConfigError):
        config_from_mapping({"system": "ieee24", "bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"system": "ieee24", "plan": {"from_branches": [1]}})
    for section, bad in (("solver", {"verbos": True}),
                         ("solver", {"verbose": True}),
                         ("solver", {"max_iter": 0}),
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


def test_report_round_trip_and_integrity(tiny_report):
    cfg, report, out = tiny_report
    loaded = load_report(out)
    assert loaded.rows == report.rows
    assert loaded.aggregates == report.aggregates
    assert loaded.meta == report.meta

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
    deterministic = ["scenarios.csv", "aggregates.csv", "spectrum.csv",
                     "trace.csv", "meta.json", "spectrum.gp", "aggregates.gp",
                     "trace.gp"]
    for name in deterministic:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
