"""In-memory span tracing of pmufdi's public functions, from outside the package.

A traced run replaces a function by a timing wrapper *as bound in the
module that calls it* (for example ``pmufdi.experiment.detect``), so the
package itself stays untouched and untraced runs pay nothing. Each call
becomes one span: (id, name, start, end, parent id, scenario, thread,
ok, info). Spans stay in memory and are written out once at the end.

``layer_metrics`` turns a span list into the per-layer metrics that
``run.py`` reports for ``--trace 1``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# The seed detector stops its inner group-lasso loop after this many
# column-shrink steps; an outer iteration that made this many is a cap hit.
INNER_CAP = 200


def _iterations(args, result):
    return result.diagnostics.iterations


def _newton(args, result):
    return result.iterations


def _valid(args, result):
    return int(result.valid)


def _input_bytes(args, result):
    return args[0].nbytes


# (module, attribute as bound there, span name, starts a scenario, info)
TARGETS = (
    ("pmufdi.cli", "run_experiment", "experiment.run", False, None),
    ("pmufdi.cli", "save_report", "experiment.report_write", False, None),
    ("pmufdi.experiment", "ExperimentConfig.load_grid", "cases.load_grid", False, None),
    ("pmufdi.experiment", "generate_block", "blocks.generate", False, None),
    ("pmufdi.experiment", "enumerate_attack_sets", "attack_sets.enumerate", False, None),
    ("pmufdi.experiment", "design_attack", "attack.design", True, _iterations),
    ("pmufdi.experiment", "detect", "detector.detect", False, _iterations),
    ("pmufdi.experiment", "nuclear_norm", "kernels.nuclear_norm", False, None),
    ("pmufdi.blocks", "build_measurement_matrix", "measurements.build", False, None),
    ("pmufdi.blocks", "build_admittances", "admittance.build", False, None),
    ("pmufdi.measurements", "build_admittances", "admittance.build", False, None),
    ("pmufdi.blocks", "solve_ac_power_flow", "powerflow.solve", False, _newton),
    ("pmufdi.attack_sets", "validate_attack_set", "attack_sets.validate", False, _valid),
    ("pmufdi.attack", "svt", "kernels.svt_attack", False, _input_bytes),
    ("pmufdi.attack", "nuclear_norm", "kernels.nuclear_norm", False, None),
    ("pmufdi.detector", "svt", "kernels.svt_detector", False, _input_bytes),
    ("pmufdi.detector", "shrink_columns", "kernels.shrink", False, None),
    ("pmufdi.detector", "nuclear_norm", "kernels.nuclear_norm", False, None),
    # the package-level names that perfbench/naive.py calls
    ("pmufdi", "generate_block", "blocks.generate", False, None),
    ("pmufdi", "naive_ramp_attack", "attack.naive", True, None),
    ("pmufdi", "detect", "detector.detect", False, _iterations),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    scenario: int
    thread: int
    ok: bool
    info: float | None


class Tracer:
    """Collects spans from wrapped functions, across threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._scenarios = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, starts_scenario=False, info=None):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if starts_scenario:
                local.scenario = next(self._scenarios)
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(
                    span_id, name, start, end, parent,
                    getattr(local, "scenario", 0), threading.get_ident(), ok,
                    info(args, result) if ok and info else None,
                ))

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that exists; lists the others in ``missing``."""
        for module_name, attr, name, starts_scenario, info in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, name, starts_scenario, info))

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing, **extra}, fh)


def load_spans(path):
    with open(path) as fh:
        raw = json.load(fh)
    return [Span(*s) for s in raw.pop("spans")], raw


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer counts and busy times from one traced process."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def infos(name):
        return [s.info for s in by_name[name] if s.info is not None]

    def failed(name):
        return sum(not s.ok for s in by_name[name])

    detects = by_name["detector.detect"]
    outer = infos("detector.detect")
    inner = sum(1 for d in detects for s in children[d.id] if s.name == "kernels.shrink")
    cap_hits = 0
    for d in detects:
        # the detector calls svt once per outer iteration, then runs its
        # inner loop; shrink calls between two svt calls are one inner solve
        run = 0
        for s in sorted(children[d.id], key=lambda s: s.start):
            if s.name == "kernels.svt_detector":
                cap_hits += run >= INNER_CAP
                run = 0
            elif s.name == "kernels.shrink":
                run += 1
        cap_hits += run >= INNER_CAP
    durations = sorted((s.end - s.start for s in detects), reverse=True)
    slowest = durations[:math.ceil(len(durations) / 10)]
    candidates = calls("attack_sets.validate")
    admissible = sum(infos("attack_sets.validate"))
    attack_iters = infos("attack.design")
    svt_bytes = sum(infos("kernels.svt_attack")) + sum(infos("kernels.svt_detector"))

    scenario_spans = by_name["attack.design"] + detects
    scenario_busy = sum(s.end - s.start for s in scenario_spans)
    if scenario_spans:
        phase = (max(s.end for s in scenario_spans)
                 - min(s.start for s in scenario_spans))
        efficiency = scenario_busy / (workers * phase)
    else:
        efficiency = 0.0

    return {
        "cases.load_grid_s": busy("cases.load_grid"),
        "admittance.build_s": busy("admittance.build"),
        "measurements.build_s": busy("measurements.build"),
        "blocks.generate_s": busy("blocks.generate"),
        "powerflow.solves": calls("powerflow.solve"),
        "powerflow.newton_iters": sum(infos("powerflow.solve")),
        "powerflow.solve_s": busy("powerflow.solve"),
        "attack_sets.enumerate_s": busy("attack_sets.enumerate"),
        "attack_sets.candidates": candidates,
        "attack_sets.admissible": admissible,
        "attack_sets.admissible_ratio": admissible / candidates if candidates else 0.0,
        "attack.calls": calls("attack.design"),
        "attack.busy_s": busy("attack.design"),
        "attack.iters_sum": sum(attack_iters),
        "attack.iters_max": max(attack_iters, default=0),
        "attack.failed": failed("attack.design"),
        "detector.calls": len(detects),
        "detector.busy_s": busy("detector.detect"),
        "detector.outer_iters_sum": sum(outer),
        "detector.outer_iters_max": max(outer, default=0),
        "detector.inner_steps": inner,
        "detector.inner_per_outer": inner / sum(outer) if sum(outer) else 0.0,
        "detector.inner_cap_hits": cap_hits,
        "detector.tail_share": sum(slowest) / sum(durations) if durations else 0.0,
        "detector.failed": failed("detector.detect"),
        "kernels.svt_attack_calls": calls("kernels.svt_attack"),
        "kernels.svt_attack_s": busy("kernels.svt_attack"),
        "kernels.svt_detector_calls": calls("kernels.svt_detector"),
        "kernels.svt_detector_s": busy("kernels.svt_detector"),
        "kernels.svt_computed_mb": svt_bytes / 1e6,
        "kernels.shrink_calls": calls("kernels.shrink"),
        "kernels.shrink_s": busy("kernels.shrink"),
        "kernels.nuclear_norm_calls": calls("kernels.nuclear_norm"),
        "kernels.nuclear_norm_s": busy("kernels.nuclear_norm"),
        "experiment.scenario_busy_s": scenario_busy,
        "experiment.parallel_efficiency": efficiency,
        "experiment.report_write_s": busy("experiment.report_write"),
    }
