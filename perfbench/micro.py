"""pytest-benchmark micro-benchmarks of pmufdi's public kernels and solvers.

Run from the root of a checkout:

    python3 -m pytest perfbench/micro.py -q

Inputs are the shipped configs' blocks at their own seeds and the first
detection window: 60x41 on the 24-bus system, 60x157 on the 118-bus
system. The attacked set is the config's trace set, else the first
admissible single state. Only public functions are called. The file
name keeps it out of the repository's test collection, and its figures
are not part of the benchmark's gated end-to-end metrics.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pmufdi  # noqa: E402
from pmufdi.experiment import load_config  # noqa: E402


@pytest.fixture(scope="module", params=["ieee24", "ieee118"])
def system(request):
    cfg = load_config(ROOT / "configs" / f"{request.param}.yaml")
    case, plan = cfg.load_grid()
    _, block, dep = pmufdi.generate_block(
        case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed, policy=cfg.disturbance
    )
    window = block.window(*cfg.windows[0])
    buses = cfg.trace_buses or pmufdi.enumerate_attack_sets(case, dep, 1)[0].attacked_buses
    designed = pmufdi.design_attack(window, dep, buses, options=cfg.solver)
    rng = np.random.default_rng(0)
    c = rng.normal(size=(window.n_steps, dep.n_states)) \
        + 1j * rng.normal(size=(window.n_steps, dep.n_states))
    return SimpleNamespace(
        cfg=cfg, case=case, dep=dep, window=window, buses=buses,
        attacked=designed.attacked_block,
        # the solvers' unit-Frobenius scaling and a threshold that keeps
        # the leading singular values, as in their SVT steps
        unit_z=window.z / np.linalg.norm(window.z),
        c=c,
        pd=np.array([b.pd for b in case.buses]),
        qd=np.array([b.qd for b in case.buses]),
    )


def test_svt(benchmark, system):
    benchmark(pmufdi.svt, system.unit_z, 1e-3)


def test_shrink_columns(benchmark, system):
    kappa = float(np.median(np.linalg.norm(system.c, axis=0)))
    benchmark(pmufdi.shrink_columns, system.c, kappa)


def test_nuclear_norm(benchmark, system):
    benchmark(pmufdi.nuclear_norm, system.window.z)


def test_design_attack(benchmark, system):
    benchmark(pmufdi.design_attack, system.window, system.dep, system.buses,
              options=system.cfg.solver)


def test_detect(benchmark, system):
    cfg = system.cfg
    benchmark(pmufdi.detect, system.attacked, system.dep, weight=cfg.weight,
              options=cfg.solver, thresholds=cfg.thresholds)


def test_solve_ac_power_flow(benchmark, system):
    benchmark(pmufdi.solve_ac_power_flow, system.case, system.pd, system.qd)
