"""Benchmark of the pmufdi experiment pipeline, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ieee24-exhaustive --seed 2024 --seconds 44 --trace 0

Every measured unit is a fresh Python process started on the checkout's
own sources (``src`` on PYTHONPATH); nothing is installed. ``--trace 0``
reports the end-to-end metrics of untraced units. ``--trace 1``
runs one traced unit and one untraced unit of the same work and reports
the traced unit's per-layer metrics plus the tracing overhead. The last line printed is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it give each metric with its sample count, the report
hashes and the execution setup.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics, load_spans

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUPS_PER_UNIT = 3        # zero-item set-ups run before each unit
MIN_SETUPS = 9             # set-ups a --trace 0 run measures at least
RUN_LIMIT_S = 170          # every unit is killed once the run is this old
RATIO_TOL = 1e-6           # attacked_nuclear <= clean_nuclear * (1 + RATIO_TOL)
MIN_RECOVERY = 0.9         # acceptance criterion 3
TAIL_MIN_ITEMS = 10        # latency_tail_ms averages at least this many items
NAIVE_DETECTIONS = 18      # each voltage-measured bus of the 24-bus plan on both windows
REPORT_CSVS = ("scenarios.csv", "aggregates.csv", "spectrum.csv")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "expected_outcome_rate": "ratio",
}


@dataclass(frozen=True)
class Workload:
    kind: str                        # "experiment" or "naive"
    workers: int = 1
    cli_args: tuple[str, ...] = ()   # experiment command line after "experiment",
                                     # "--workers" excepted
    scenarios: int = 0               # scenarios one experiment must report


# The experiments run at their configs' own block seed: the block seed
# moves their solvers' work by 1.3x (118-bus) to 40x (24-bus), see README.
WORKLOADS = {
    # The shipped 24-bus experiment, one worker: detector-bound.
    "ieee24-exhaustive": Workload(
        "experiment", cli_args=("--config", "configs/ieee24.yaml"), scenarios=114),
    # The 118-bus experiment with two scenario workers on wide windows:
    # SVT-bound, sensitive to BLAS thread oversubscription. The first 12
    # sets per window keep one unit near 13 s on two cores.
    "ieee118-parallel": Workload(
        "experiment", workers=2, scenarios=24,
        cli_args=("--config", "configs/ieee118.yaml", "--limit", "12")),
    # Naive ramp attacks on the 24-bus windows: the detector's recovery regime.
    "ieee24-naive": Workload("naive"),
}


@dataclass
class Unit:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int = 0
    failed: int = 0
    expected: int = 0                # items with the paper's expected outcome
    latencies_s: list[float] = field(default_factory=list)
    outer_iters: list[int] = field(default_factory=list)   # naive: per detection
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    report_bytes: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def spawn(argv: list[str], log_path: Path, run_start: float) -> tuple[int, float, float, float]:
    """Run one fresh process; returns (exit code, wall s, CPU s, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        budget = max(1.0, RUN_LIMIT_S - (started - run_start))
        watchdog = threading.Timer(budget, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def experiment_unit(wl: Workload, tag: str, traced: bool,
                    setup_only: bool, run_start: float) -> Unit:
    out = WORK / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = ["experiment", *wl.cli_args, "--workers", str(wl.workers),
            "--out-dir", str(out / "report")]
    if setup_only:
        args += ["--limit", "0"]
    spans = out / "spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), "--", *args]
    else:
        argv = [sys.executable, "-m", "pmufdi.cli", *args]
    rc, wall, cpu, rss = spawn(argv, out / "log.txt", run_start)
    unit = Unit(traced, wall, cpu, rss)
    expected = 0 if setup_only else wl.scenarios
    if rc != 0:
        unit.problems.append(f"exit code {rc} (log: {out / 'log.txt'})")
    try:
        check_report(unit, out / "report", expected)
    except (OSError, KeyError, ValueError) as exc:
        unit.problems.append(f"report unreadable: {exc}")
        unit.attempted = unit.failed = expected
    if traced and not unit.problems:
        unit.layers = traced_layers(spans, wl.workers, unit.report_bytes)
    return unit


def check_report(unit: Unit, report: Path, expected_rows: int) -> None:
    """The experiment correctness check, plus latencies and report hashes."""
    with open(report / "scenarios.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    unit.attempted = max(len(rows), expected_rows)
    unit.failed = sum(1 for r in rows if r["error"]) + max(0, expected_rows - len(rows))
    if len(rows) != expected_rows:
        unit.problems.append(f"{len(rows)} scenarios, expected {expected_rows}")
    if unit.failed:
        unit.problems.append(f"{unit.failed} failed scenarios")
    for r in rows:
        if r["error"]:
            continue
        if float(r["attacked_nuclear"]) > float(r["clean_nuclear"]) * (1 + RATIO_TOL):
            unit.problems.append(f"scenario {r['scenario']} raised the nuclear norm")
        if r["outcome"] == "detected-within-set":
            unit.problems.append(f"scenario {r['scenario']} detected within its set")
    unit.expected = sum(r["outcome"] == "bypassed" for r in rows)
    with open(report / "timings.csv", newline="") as fh:
        unit.latencies_s = [float(r["seconds"]) for r in csv.DictReader(fh)]
    unit.hashes = {name: hashlib.sha256((report / name).read_bytes()).hexdigest()
                   for name in REPORT_CSVS}
    unit.report_bytes = sum(p.stat().st_size for p in report.iterdir())


def naive_unit(wl: Workload, seed: int, tag: str, traced: bool,
               setup_only: bool, run_start: float) -> Unit:
    out = WORK / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    detections = 0 if setup_only else NAIVE_DETECTIONS
    argv = [sys.executable, str(BENCH / "naive.py"), "--seed", str(seed),
            "--detections", str(detections),
            "--out", str(out / "detections.json")]
    if traced:
        argv += ["--spans", str(out / "spans.json")]
    rc, wall, cpu, rss = spawn(argv, out / "log.txt", run_start)
    unit = Unit(traced, wall, cpu, rss, attempted=detections)
    try:
        records = json.loads((out / "detections.json").read_text())
    except (OSError, ValueError) as exc:
        records = []
        unit.problems.append(f"no detections written: {exc}")
    if rc != 0:
        unit.problems.append(f"exit code {rc} (log: {out / 'log.txt'})")
    unit.failed = sum(1 for r in records if r["error"]) + detections - len(records)
    unit.expected = sum(r["flagged"] == [r["bus"]] for r in records)
    unit.latencies_s = [r["latency_s"] for r in records if not r["error"]]
    unit.outer_iters = [r["iterations"] for r in records if not r["error"]]
    if traced and not unit.problems:
        unit.layers = traced_layers(out / "spans.json", wl.workers, 0)
    return unit


def traced_layers(spans_path: Path, workers: int, report_bytes: int) -> dict[str, float]:
    spans, extra = load_spans(spans_path)
    if extra["missing"]:
        print(f"not traced (missing): {', '.join(extra['missing'])}")
    return {"cli.import_s": extra["import_s"], **layer_metrics(spans, workers),
            "experiment.report_bytes": report_bytes}


def execution_setup(name: str, wl: Workload, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "block_seed": "config",
        "workers": wl.workers,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run_start = time.perf_counter()

    def unit(index: int, traced: bool, setup_only: bool) -> Unit:
        tag = f"{name}-{'setup' if setup_only else 'unit'}{index}"
        if wl.kind == "experiment":
            return experiment_unit(wl, tag, traced, setup_only, run_start)
        return naive_unit(wl, seed, tag, traced, setup_only, run_start)

    setups: list[Unit] = []
    units: list[Unit] = []
    if trace:
        # one traced unit, then one untraced unit of the same work
        units.append(unit(0, True, False))
        if not units[0].problems:
            units.append(unit(1, False, False))
    else:
        # rounds of set-ups and one unit, interleaved so that a slow
        # stretch of the host hits both, while another round still fits
        while True:
            for _ in range(SETUPS_PER_UNIT):
                setups.append(unit(len(setups), False, True))
            units.append(unit(len(units), False, False))
            elapsed = time.perf_counter() - run_start
            if units[-1].problems or elapsed * (len(units) + 1) / len(units) > seconds:
                break
        setups += [unit(i, False, True) for i in range(len(setups), MIN_SETUPS)]

    plain = [u for u in units if not u.traced]
    traced_units = [u for u in units if u.traced]
    problems = [p for u in setups + units for p in u.problems]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    expected = sum(u.expected for u in units)
    outcome_rate = expected / attempted if attempted else 0.0
    if wl.kind == "naive" and outcome_rate < MIN_RECOVERY:
        problems.append(f"recovery rate {outcome_rate:.3f} below {MIN_RECOVERY}")

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(setups)} set-ups, {len(plain)} untraced and "
          f"{len(traced_units)} traced units")
    for kind, group in (("set-up", setups), ("unit", units)):
        for u in group:
            print(f"{kind} wall {u.wall_s:.3f} s, cpu {u.cpu_s:.3f} s, rss {u.rss_mb:.1f} MB, "
                  f"{u.attempted} items{' (traced)' if u.traced else ''}"
                  + (f", detector outer iterations {sum(u.outer_iters)} "
                     f"(max {max(u.outer_iters)})" if u.outer_iters else ""))
    for u in units:
        if u.hashes:
            print(f"report sha256 unit ({'traced' if u.traced else 'untraced'}): "
                  + json.dumps(u.hashes, sort_keys=True))
    hashed = {json.dumps(u.hashes, sort_keys=True) for u in units if u.hashes}
    if hashed:
        print(f"report hashes agree across the run's units: {len(hashed) == 1}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics: dict[str, dict] = {}

    def put(metric, value, note):
        unit_name = END_TO_END.get(metric) or layer_unit(metric)
        metrics[metric] = {"value": value, "unit": unit_name}
        print(f"{metric} = {value:.6g} {unit_name} ({note})")

    if trace and not problems:
        traced_unit, plain_unit = units
        for key in sorted(traced_unit.layers):
            put(key, traced_unit.layers[key], "traced unit")
        put("trace.overhead_s", traced_unit.wall_s - plain_unit.wall_s,
            "traced minus untraced wall_s of the same work")
    elif not trace:
        latencies = [x for u in plain for x in u.latencies_s]
        if not latencies:
            problems.append("no item latencies")
            latencies = [0.0]
        # the mean of the slowest tenth, and of ten items at least: a single
        # order statistic there sits on the cliff between the many fast and
        # the few slow items
        slowest = sorted(latencies)[-max(TAIL_MIN_ITEMS, math.ceil(len(latencies) / 10)):]
        n = f"median of {len(plain)} units"
        put("setup_s", statistics.median(u.wall_s for u in setups),
            f"median of {len(setups)} set-ups")
        put("wall_s", statistics.median(u.wall_s for u in plain), n)
        put("cpu_s", statistics.median(u.cpu_s for u in plain), n)
        put("peak_rss_mb", statistics.median(u.rss_mb for u in plain), n)
        put("latency_p50_ms", 1e3 * statistics.median(latencies),
            f"median of {len(latencies)} items")
        put("latency_tail_ms", 1e3 * statistics.fmean(slowest),
            f"mean of the slowest {len(slowest)} of {len(latencies)} items")
        put("expected_outcome_rate", outcome_rate,
            f"{expected} of {attempted} items")
    print(f"failed_frac = {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} items)")
    print("setup " + json.dumps(execution_setup(name, wl, seed), sort_keys=True))
    return {"correct": not problems, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith(("_ratio", "_share", "_efficiency", "_per_outer")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/pmufdi/cli.py", "configs/ieee24.yaml", "configs/ieee118.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of a pmufdi checkout; missing {missing}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
