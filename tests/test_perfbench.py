"""The benchmark in perfbench/ can still drive the package.

perfbench traces pmufdi functions by name, calls them from its own
scripts and parses the report files by column name, so a renamed or
removed name breaks it without breaking any other test. These checks
only read perfbench/; they change nothing there.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from pmufdi.experiment import load_config, run_experiment
from pmufdi.report import save_report

REPO_DIR = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_DIR / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH_DIR / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    unresolved = []
    for module_name, attr, *_ in _tracer_module().TARGETS:
        owner = importlib.import_module(module_name)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            unresolved.append(f"{module_name}.{attr}")
        else:
            assert callable(owner), f"{module_name}.{attr}"
    assert unresolved == []


def test_naive_unit_runs(tmp_path):
    out = tmp_path / "detections.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_DIR / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "naive.py"), "--seed", "2024",
         "--detections", "1", "--out", str(out)],
        cwd=REPO_DIR, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["error"] == ""


def test_report_parser_reads_a_saved_report(tmp_path, monkeypatch):
    # run.py imports its sibling tracer.py, and its dataclasses need their
    # module registered while it runs
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", bench)
    spec.loader.exec_module(bench)

    cfg = load_config(REPO_DIR / "configs" / "ieee24.yaml", limit=1,
                      out_dir=str(tmp_path / "report"))
    report = run_experiment(cfg)
    save_report(report, cfg.out_dir)
    unit = bench.Unit(traced=False, wall_s=0.0, cpu_s=0.0, rss_mb=0.0)
    bench.check_report(unit, Path(cfg.out_dir), len(report.rows))
    assert len(report.rows) == 2            # one set on each of two windows
    assert unit.problems == []
    assert unit.failed == 0
    assert len(unit.latencies_s) == len(report.rows)
