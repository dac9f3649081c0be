import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pmufdi
from pmufdi import experiment, kernels
from pmufdi.detector import Outcome, SolverOptions
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
    TraceRow,
    aggregate_rows,
    load_report,
    read_records,
    save_report,
    spectrum_rows,
    write_records,
)

from conftest import TWO_BUS_NO_LOAD_CASE

REPO_DIR = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_DIR / "configs"


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
    assert cfg24.plan == pmufdi.default_plan(cfg24.system)

    echo = experiment._config_echo(cfg24)
    assert json.loads(json.dumps(echo)) == echo     # meta.json reads back equal

    cfg118 = load_config(CONFIG_DIR / "ieee118.yaml")
    assert cfg118.max_set_size == 1
    assert cfg118.plan.n_measurements == 157
    assert cfg118.plan == pmufdi.default_plan(cfg118.system)


def test_config_overrides():
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", seed=7, limit=3, out_dir="/tmp/x")
    assert (cfg.seed, cfg.limit, cfg.out_dir) == (7, 3, "/tmp/x")


@pytest.mark.parametrize("content, where", [
    (b"system: ieee24\nseed: \xff\n", "not UTF-8"),
    (b"system: ieee24\nwindows: [[31, 90]\n", "line 3, column 1"),   # unclosed [
])
def test_unreadable_config_names_the_file(tmp_path, content, where):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(str(path))
    assert where in str(err.value)
    assert "<unicode string>" not in str(err.value)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig()                                   # neither source
    with pytest.raises(ConfigError):
        ExperimentConfig(system="ieee24", case_path="x.m")   # both sources
    with pytest.raises(ConfigError):
        small_cfg(windows=((100, 159),))                     # past the end
    with pytest.raises(ConfigError):
        small_cfg(weight=0.0)
    with pytest.raises(ConfigError):
        small_cfg(duration_s=5.003)
    with pytest.raises(ConfigError, match="duration_s"):           # ends before the onset
        small_cfg(duration_s=1.0, windows=((1, 30),), limit=1)
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
                         ("windows", [[31, 90], [31, 90]]),
                         ("lambda", "abc"),
                         ("window_length", 60),
                         ("seed", "abc"),
                         ("seed", 1.5),
                         ("seed", True),
                         ("max_set_size", 2.5),
                         ("limit", 2.5),
                         ("workers", "2"),
                         ("duration_s", "5"),
                         ("duration_s", math.inf),
                         ("rate_hz", None),
                         ("rate_hz", math.nan),
                         ("naive_scale", "x")):
        with pytest.raises(ConfigError, match=section):
            config_from_mapping({"system": "ieee24", section: bad})
    for stale in ("interpretation", "units", "correlation"):
        with pytest.raises(ConfigError, match=f"disturbance.*{stale}"):
            config_from_mapping({"system": "ieee24", "disturbance": {stale: "x"}})
    # checked against the annotation, not converted
    for section, bad, key in (("thresholds", {"rel": math.nan}, "thresholds.rel"),
                              ("solver", {"tol_rel": math.nan}, "solver.tol_rel"),
                              ("solver", {"max_iter": 2.5}, "solver.max_iter"),
                              ("solver", {"max_iter": True}, "solver.max_iter"),
                              ("disturbance", {"magnitude": math.nan}, "disturbance.magnitude"),
                              ("disturbance", {"magnitude": True}, "disturbance.magnitude"),
                              ("lambda", True, "lambda"),
                              ("lambda", "1.5", "lambda"),
                              ("lambda", math.nan, "lambda"),
                              ("windows", [], "windows"),
                              ("windows", [[31.5, 90]], "windows"),
                              ("plan", {"voltage_buses": ["1"]}, "plan.voltage_buses"),
                              ("trace", {"buses": [8.5]}, "trace.buses"),
                              ("trace", {"chanel": "F:11"}, "trace.chanel")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_mapping({"system": "ieee24", section: bad})
    # range checks name their key; each mapping passes the type rule
    for bad, key in (({"thresholds": {"rel": 2.0}}, "thresholds: rel"),
                     ({"thresholds": {"rel": -0.1}}, "thresholds: rel"),
                     ({"thresholds": {"floor": -1}}, "thresholds: floor"),
                     ({"duration_s": -5, "rate_hz": -30}, "duration_s must be positive"),
                     ({"rate_hz": -30}, "rate_hz must be positive"),
                     ({"trace": {"channel": "F:11"}}, "trace.buses")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_mapping({"system": "ieee24", **bad})
    assert config_from_mapping({"system": "ieee24", "trace": {"buses": [8]}}).trace_buses == (8,)
    # the same rule holds for a config built in code
    with pytest.raises(ConfigError, match=re.escape("solver.max_iter")):
        small_cfg(solver=SolverOptions(max_iter=2.5))


def test_a_tolerance_that_certifies_every_block_is_refused():
    # with tol_rel: 1.0 the screen certified every block, and the sweep
    # read the 24-bus naive ramp at lambda = 1.05 as bypassed
    for bad in (1.0, 2.5):
        with pytest.raises(ConfigError, match=re.escape("solver: tol_rel")):
            config_from_mapping({"system": "ieee24", "solver": {"tol_rel": bad}})


# YAML-shaped values: scalars, and lists and mappings of them, with keys
# that the config and its sections know among the others
CONFIG_KEYS = ("system", "case", "plan", "duration_s", "rate_hz", "windows", "seed", "lambda",
               "max_set_size", "limit", "workers", "disturbance", "solver", "thresholds",
               "out_dir", "trace", "naive_scale", "weight")
SECTION_KEYS = ("voltage_buses", "from_branches", "to_branches", "magnitude", "decay",
                "max_iter", "tol_rel", "rel", "floor", "channel", "buses")
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2, 200) | st.floats()
           | st.text(max_size=4)
           | st.sampled_from(["ieee24", "ieee118", "F:11", "x.m", 10**400, -10**400]))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SECTION_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@given(raw=st.fixed_dictionaries({}, optional={key: VALUES for key in CONFIG_KEYS})
       | st.dictionaries(st.text(max_size=3), VALUES, max_size=3),
       system=st.sampled_from([None, "ieee24", "ieee118"]))
# an integer beyond the float range in a float field
@example(raw={"lambda": 10**400}, system="ieee24")
@example(raw={"solver": {"tol_rel": -10**400}}, system="ieee24")
def test_generated_mappings_raise_only_config_errors(raw, system):
    if system is not None:
        raw.setdefault("system", system)
    try:
        assert isinstance(config_from_mapping(raw), ExperimentConfig)
    except ConfigError:
        pass


# the shipped config's tokens, with the layout between them; a mutant edits some
_YAML_PIECES = re.split(r"(\S+)", (CONFIG_DIR / "ieee24.yaml").read_text())
_YAML_TOKENS = _YAML_PIECES[1::2]
_YAML_VALUES = st.sampled_from(
    ["&w", "*w", "[*w]", "&b", "*b", "[", "]", "{", "}", "-", ":", "#", ",", "~", "<<:", "?",
     ".inf", "-.nan", "1e400", "0x1F", "2024-01-01", "true", "'8'", "!!binary",
     "!!python/tuple", "[]", "{}", "x", "1.5"]) | st.integers(-2, 200).map(str)
_SELF_REFERENCES = {
    # windows: &w, its second item *w
    "windows": [(_YAML_TOKENS.index("windows:") + 1, "insert", "&w"),
                (_YAML_TOKENS.index("[91,"), "replace", "*w"),
                (_YAML_TOKENS.index("150]"), "delete", "")],
    "trace.buses": [(_YAML_TOKENS.index("[8]"), "replace", "&b [*b]")],
}


def _edit_config(tmp_dir, edits) -> Path:
    pieces = list(_YAML_PIECES)
    for index, op, value in edits:
        token = pieces[2 * index + 1]
        pieces[2 * index + 1] = {"replace": value, "delete": "", "insert": f"{value} {token}"}[op]
    path = tmp_dir / "cfg.yaml"
    path.write_text("".join(pieces))
    return path


@example(edits=_SELF_REFERENCES["windows"])
@example(edits=_SELF_REFERENCES["trace.buses"])
@given(edits=st.lists(st.tuples(st.integers(0, len(_YAML_TOKENS) - 1),
                                st.sampled_from(["replace", "delete", "insert"]), _YAML_VALUES),
                      max_size=4))
def test_a_mutated_config_file_fails_only_with_a_config_error(tmp_path_factory, edits):
    path = _edit_config(tmp_path_factory.mktemp("cfg"), edits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(load_config(path), ExperimentConfig)
        except ConfigError as exc:
            assert str(path) in str(exc)


@pytest.mark.parametrize("key", sorted(_SELF_REFERENCES))
def test_a_config_value_that_contains_itself_names_its_key(tmp_path, key):
    path = _edit_config(tmp_path, _SELF_REFERENCES[key])
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {key} contains itself$"):
        load_config(path)


def test_every_config_annotation_has_a_type_rule():
    def leaves(kind):
        origin, args = typing.get_origin(kind), typing.get_args(kind)
        if origin is types.UnionType:
            assert args[1:] == (type(None),), kind
            yield from leaves(args[0])
        elif origin is tuple:
            yield from (leaf for arg in args if arg is not Ellipsis for leaf in leaves(arg))
        elif dataclasses.is_dataclass(kind):
            yield from (leaf for hint in typing.get_type_hints(kind).values()
                        for leaf in leaves(hint))
        else:
            yield kind

    assert set(leaves(ExperimentConfig)) <= set(experiment._SCALARS)


def _sweep(cfg):
    return lambda_sweep(cfg, (1.05,))


@pytest.mark.parametrize("entry, trace, name", [
    (run_experiment, {"trace_channel": "F:999", "trace_buses": (8,)}, "F:999"),
    (run_experiment, {"trace_channel": "F:11", "trace_buses": (999,)}, "999"),
    (_sweep, {"trace_channel": "F:999", "trace_buses": (8,)}, "F:999"),
    (_sweep, {"trace_channel": "F:11", "trace_buses": (999,)}, "999"),
], ids=["channel", "bus", "sweep-channel", "sweep-bus"])
def test_bad_trace_settings_fail_before_any_scenario(entry, trace, name, monkeypatch):
    designed = []
    monkeypatch.setattr(experiment, "design_attack",
                        lambda *args, **kwargs: designed.append(args))
    with pytest.raises(ConfigError, match=name):
        entry(small_cfg(**trace))
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
    report = run_experiment(cfg)
    assert report.rows == ()
    assert report.exit_code == 0
    paths = save_report(report, cfg.out_dir)
    names = {p.name for p in paths}
    assert {"scenarios.csv", "aggregates.csv", "spectrum.csv", "timings.csv"} <= names
    for name in ("scenarios.csv", "timings.csv"):
        assert len((tmp_path / "out" / name).read_text().splitlines()) == 1   # header only


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_report")
    cfg = small_cfg(out_dir=str(out), trace_channel="F:11", trace_buses=(8,),
                    limit=3)
    report = run_experiment(cfg)
    return cfg, report, out, save_report(report, cfg.out_dir)


def test_report_contents(tiny_report):
    cfg, report, out, written = tiny_report
    assert report.meta["n_scenarios"] == 6      # 3 sets x 2 windows
    assert report.meta["outcomes"] == {"bypassed": 6}
    assert report.exit_code == 0
    for row in report.rows:
        assert row.outcome == Outcome.BYPASSED.value
        assert row.ratio <= 1 + 1e-6
        assert row.clean_nuclear > 0
    assert {r.window for r in report.spectra} == {"full", "1-3s", "3-5s"}
    # save_report returns every file it wrote, and writes no other
    assert sorted(written) == sorted(out.iterdir())
    assert {p.name for p in written} == {
        "scenarios.csv", "aggregates.csv", "spectrum.csv", "trace.csv", "meta.json",
        "spectrum.gp", "aggregates.gp", "trace.gp", "timings.csv"}
    # the sidecar holds one wall time per row, in row order
    assert len(report.seconds) == len(report.rows)
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "scenario,seconds"
    assert timings[1:] == [f"{row.scenario},{t:.6f}"
                           for row, t in zip(report.rows, report.seconds)]


def test_trace_series(tiny_report):
    cfg, report, out, _ = tiny_report
    first, last = cfg.windows[0]
    assert len(report.trace) == last - first + 1
    assert report.trace[0].time_s == pytest.approx(31 / 30.0)
    assert all(r.before > 0 for r in report.trace)
    assert any(r.before != r.after for r in report.trace)
    # plot scripts reference only emitted CSVs
    for script in ("spectrum.gp", "aggregates.gp", "trace.gp"):
        text = (out / script).read_text()
        for token in text.split("'"):
            if token.endswith(".csv"):
                assert (out / token).exists()


DETERMINISTIC = ["scenarios.csv", "aggregates.csv", "spectrum.csv", "trace.csv",
                 "meta.json", "spectrum.gp", "aggregates.gp", "trace.gp"]


def test_report_round_trip_and_integrity(tiny_report, tmp_path):
    cfg, report, out, _ = tiny_report
    loaded = load_report(out)
    assert loaded == report

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
        save_report(run_experiment(cfg), cfg.out_dir)
        outs.append(out)
    for name in DETERMINISTIC:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_error_row_round_trips_byte_for_byte(tmp_path):
    nan = float("nan")
    rows = (
        ScenarioRow(1, "1-3s", 1, (8,), 10.0, 9.5, 0.95, "bypassed",
                    48, 5e-6, 0.0, ()),
        ScenarioRow(2, "1-3s", 2, (8, 9), 10.0, nan, nan, "error",
                    0, nan, nan, (),
                    error='ADMM stopped: "primal" 1e-3, dual 2e-4'),
    )
    report = ExperimentReport(
        rows=rows,
        spectra=spectrum_rows("full", [3.0, 0.5, 1e-17]),
        trace=(TraceRow(1.0, 0.2, 0.25), TraceRow(1.1, 0.3, 0.3)),
        meta={"n_scenarios": 2},
    )
    save_report(report, tmp_path / "a")
    loaded = load_report(tmp_path / "a")
    error_row = loaded.rows[1]
    assert error_row.error == rows[1].error
    assert error_row.flagged_buses == ()
    assert math.isnan(error_row.ratio)
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
    serial = run_experiment(small_cfg(out_dir=str(tmp_path / "s")))
    threaded = run_experiment(small_cfg(out_dir=str(tmp_path / "t"), workers=4))
    assert serial == threaded


def test_worker_pool_matches_serial_on_118_bus(tmp_path):
    cfg = load_config(CONFIG_DIR / "ieee118.yaml", limit=2, out_dir=str(tmp_path))
    serial = run_experiment(dataclasses.replace(cfg, workers=1))
    threaded = run_experiment(dataclasses.replace(cfg, workers=4))
    assert serial == threaded


def test_experiment_does_not_import_scipy(tmp_path):
    # the package runs on numpy alone: importing scipy and loading its
    # OpenBLAS costs ~0.1 s of CPU and ~2.5 MB per process, scipy.linalg
    # ~0.3 s and ~26 MB more, scipy.sparse ~0.17 s; the power flow's
    # Jacobian is built on Ybus's pattern without it
    code = (
        "import sys\n"
        "import pmufdi.cli\n"
        "try:\n"
        "    pmufdi.cli.main(['experiment', '--config', sys.argv[1], '--limit', sys.argv[2],\n"
        "                     '--out-dir', sys.argv[3]])\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
        "assert 'scipy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    for config, limit in (("ieee24.yaml", "1"), ("ieee118.yaml", "0")):
        out = tmp_path / config
        subprocess.run([sys.executable, "-c", code, str(CONFIG_DIR / config), limit,
                        str(out)],
                       env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300)
        assert (out / "scenarios.csv").exists()


def test_report_bytes_independent_of_threads(tmp_path):
    # each run is a fresh process, so the BLAS library starts at the
    # thread count of its OPENBLAS_NUM_THREADS before the package pins it
    reports = {}
    for workers in (1, 2):
        for threads in ("1", "2"):
            out = tmp_path / f"w{workers}-t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(REPO_DIR / "src"))
            subprocess.run(
                [sys.executable, "-m", "pmufdi.cli", "experiment",
                 "--config", str(CONFIG_DIR / "ieee118.yaml"), "--limit", "1",
                 "--workers", str(workers), "--out-dir", str(out)],
                env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300,
            )
            reports[workers, threads] = {
                name: (out / name).read_bytes()
                for name in ("scenarios.csv", "aggregates.csv", "spectrum.csv", "meta.json")
            }
    first = reports[1, "1"]
    assert json.loads(first["meta.json"])["versions"]["blas_threads"] == 1
    for key, files in reports.items():
        assert files == first, key


def test_aggregates_recomputable():
    rows = [
        ScenarioRow(1, "w", 1, (8,), 10.0, 9.0, 0.9, "bypassed",
                    5, 0.0, 0.0, ()),
        ScenarioRow(2, "w", 1, (9,), 10.0, 8.0, 0.8, "bypassed",
                    5, 0.0, 0.0, ()),
        ScenarioRow(3, "w", 2, (8, 9), 10.0, 7.0, 0.7, "error",
                    0, 0.0, 0.0, (), error="boom"),
    ]
    aggs = aggregate_rows(rows)
    expected = AggregateRow("w", 1, 2, 8.0, 8.5, 9.0, 0.8, np.mean([0.8, 0.9]), 0.9)
    assert aggs == (expected,)


def test_exit_code_flags_in_set_detection():
    row = ScenarioRow(1, "w", 1, (8,), 10.0, 9.0, 0.9,
                      Outcome.DETECTED_WITHIN_SET.value,
                      5, 0.0, 0.0, (8,))
    report = ExperimentReport(rows=(row,), spectra=(), trace=(), meta={})
    assert report.in_set_detections == (row,)
    assert report.exit_code == 2
    with pytest.raises(ValueError, match="2 wall times for 1 rows"):
        ExperimentReport(rows=(row,), spectra=(), trace=(), meta={}, seconds=(1.0, 2.0))


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
    with pytest.raises(ConfigError):
        lambda_sweep(cfg, [math.nan])
    with pytest.raises(ConfigError, match="sweep weights"):
        lambda_sweep(cfg, [1.05, math.inf])


def test_meta_records_environment(tiny_report):
    _, report, out, _ = tiny_report
    meta = json.loads((out / "meta.json").read_text())
    assert meta["versions"]["pmufdi"]
    assert meta["versions"]["numpy"]
    assert meta["versions"]["blas_threads"] == kernels.BLAS_THREADS
    assert meta["config"]["seed"] == 2024
    assert meta["in_set_detections"] == 0
