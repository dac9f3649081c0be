"""End-to-end acceptance: every shipped claim at its stated tolerance.

Each test prints a PASS/FAIL line through the terminal-summary hook in
conftest. The experiment fixtures run the full pipeline on both bundled
systems with the shipped configs: the exhaustive attacked-set sweep on
the 24-bus system and the single-state sweep on the 118-bus system.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import pmufdi
from pmufdi.attack import naive_ramp_attack, _minimize_postattack_norm
from pmufdi import experiment
from pmufdi.detector import Outcome, SolverError, SolverOptions, _decompose, detect
from pmufdi.experiment import load_config, run_experiment
from pmufdi.kernels import l12_norm, nuclear_norm, shrink_columns, svt
from pmufdi.report import save_report

from conftest import record_acceptance, recording_mstep_ratios
from oracles import (
    SVT_REGIME,
    gauss_seidel_power_flow,
    powell_attack_reference,
    subgradient_detector_reference,
)
from test_cases import TWO_BUS_CASE

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(number: int, name: str, condition: bool, detail: str = ""):
    record_acceptance(number, name, bool(condition), detail)
    assert condition, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def diagnostics24():
    """The detector diagnostics of every scenario of ``report24``, which
    fills it: the report keeps only the iteration count."""
    return []


@pytest.fixture(scope="session")
def mstep_ratios24():
    """tau / s_1 of the input of every M-step of ``report24``, which fills it."""
    return []


@pytest.fixture(scope="session")
def report24(tmp_path_factory, diagnostics24, mstep_ratios24):
    out = tmp_path_factory.mktemp("accept24")
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", out_dir=str(out))

    def recording(*args, **kwargs):
        result = detect(*args, **kwargs)
        diagnostics24.append(result.diagnostics)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "detect", recording)
        recording_mstep_ratios(patch, mstep_ratios24)
        report = run_experiment(cfg)
    save_report(report, cfg.out_dir)
    return cfg, report, out


@pytest.fixture(scope="session")
def report118(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept118")
    cfg = load_config(CONFIG_DIR / "ieee118.yaml", out_dir=str(out))
    report = run_experiment(cfg)
    save_report(report, cfg.out_dir)
    return cfg, report, out


def test_criterion_1_attack_never_raises_nuclear_norm(report24):
    _, report, _ = report24
    errors = [r for r in report.rows if r.error]
    worst = max(r.attacked_nuclear / r.clean_nuclear for r in report.rows if not r.error)
    sizes = {r.set_size for r in report.rows}
    ok = (not errors and sizes == {1, 2, 3, 4, 5}
          and all(r.attacked_nuclear <= r.clean_nuclear * (1 + 1e-6)
                  for r in report.rows))
    check(1, "post-attack nuclear norm never exceeds the clean one "
             "(exhaustive 24-bus sweep, both windows)",
          ok, f"{len(report.rows)} scenarios, worst ratio {worst:.8f}")


def test_criterion_2_all_designed_attacks_bypass(report24, report118):
    _, r24, _ = report24
    _, r118, _ = report118
    outcomes = [r.outcome for r in r24.rows + r118.rows]
    n_bypassed = sum(o == Outcome.BYPASSED.value for o in outcomes)
    n_within = sum(o == Outcome.DETECTED_WITHIN_SET.value for o in outcomes)
    ok = n_bypassed == len(outcomes) and n_within == 0
    check(2, "every designed attack bypasses the detector at weight 1.05 "
             "on both systems",
          ok, f"{n_bypassed}/{len(outcomes)} bypassed, {n_within} flagged within the set")


@pytest.mark.parametrize("seed", [3, 13])
def test_criteria_1_and_2_hold_at_other_block_seeds(seed, tmp_path):
    # the first ten sets per window: half of these rows keep a nonzero
    # attack term through the detector's loop
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", seed=seed, limit=10, out_dir=str(tmp_path))
    rows = run_experiment(cfg).rows
    assert len(rows) == 20
    assert all(not r.error for r in rows)
    assert all(r.attacked_nuclear <= r.clean_nuclear * (1 + 1e-6) for r in rows)
    assert all(r.outcome == Outcome.BYPASSED.value for r in rows)
    assert sum(r.detect_iterations > 0 for r in rows) == 10


def test_criterion_3_naive_attacks_are_detected(ieee24_blocks, ieee24_plan):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    # identifiability at weight 1.05 requires the state's dictionary
    # column to outweigh the sparsity penalty, which holds exactly for
    # the directly voltage-measured buses; trials randomize over those
    population = ieee24_plan.voltage_buses
    rng = np.random.default_rng(777)
    hits = 0
    trials = 50
    for _ in range(trials):
        bus = int(population[rng.integers(0, len(population))])
        _, attacked = naive_ramp_attack(window, dep, (bus,), scale=0.5,
                                        seed=int(rng.integers(0, 2**31)))
        try:
            result = pmufdi.detect(attacked, dep, weight=1.05)
        except Exception:
            continue
        hits += result.state_support == (bus,)
    check(3, "naive ramp attacks are detected with exact support recovery "
             "in at least 90% of 50 trials",
          hits >= 45, f"{hits}/{trials} exact recoveries")


def test_criterion_3_holds_on_the_118_bus_system(ieee118_blocks, ieee118_plan):
    # criterion 3 on the 1-3 s window of the 118-bus block, at 10 trials:
    # one detection there runs a few hundred iterations
    _, block, dep = ieee118_blocks
    window = block.window(31, 90)
    population = ieee118_plan.voltage_buses
    rng = np.random.default_rng(118)
    hits = 0
    for _ in range(10):
        bus = int(population[rng.integers(0, len(population))])
        _, attacked = naive_ramp_attack(window, dep, (bus,), scale=0.5,
                                        seed=int(rng.integers(0, 2**31)))
        try:
            result = pmufdi.detect(attacked, dep, weight=1.05)
        except SolverError:
            continue
        hits += result.state_support == (bus,)
    assert hits >= 9, f"{hits}/10 exact recoveries"


def test_criterion_4_118_bus_ratio_bands(report118):
    _, report, _ = report118
    bands = {"3-5s": (0.99, 1.0), "1-3s": (0.98, 1.0)}
    detail = []
    ok = True
    for window, (lo, hi) in bands.items():
        rows = [r for r in report.rows if r.window == window and not r.error]
        ratios = np.array([r.ratio for r in rows])
        stats = (ratios.min(), ratios.mean(), ratios.max())
        detail.append(f"{window}: min/mean/max = "
                      f"{stats[0]:.5f}/{stats[1]:.5f}/{stats[2]:.5f}")
        ok &= all(lo <= s <= hi * (1 + 1e-6) for s in stats)
    check(4, "118-bus post/pre attack nuclear-norm ratios stay in the "
             "reference bands", ok, "; ".join(detail))


def test_criterion_5_mean_norm_decreases_with_set_size(report24):
    _, report, _ = report24
    ok = True
    detail = []
    for window in ("1-3s", "3-5s"):
        means = [a.mean_attacked_nuclear for a in report.aggregates
                 if a.window == window]
        sizes = [a.set_size for a in report.aggregates if a.window == window]
        assert sizes == sorted(sizes)
        ok &= all(means[i] >= means[i + 1] for i in range(len(means) - 1))
        detail.append(f"{window}: " + " >= ".join(f"{m:.2f}" for m in means))
    check(5, "mean post-attack nuclear norm is non-increasing in the "
             "attacked-set size (24-bus)", ok, "; ".join(detail))


def test_criterion_6_blocks_are_low_rank(report24, report118):
    detail = []
    ok = True
    for label, (_, report, _) in (("24-bus", report24), ("118-bus", report118)):
        spectra: dict[str, list[float]] = {}
        for row in report.spectra:
            spectra.setdefault(row.window, []).append(row.singular_value)
        for window, values in spectra.items():
            sv = np.array(values)
            ratio = sv[0] / sv[4]
            share = sv[:5].sum() / sv.sum()
            ok &= ratio > 1e2 and share > 0.99
            detail.append(f"{label} {window}: s1/s5={ratio:.0f} top5={share:.4f}")
    check(6, "synthetic blocks are low rank (s1/s5 > 100, top-5 share > 99%)",
          ok, "; ".join(detail))


def test_criterion_7_numerical_kernels(ieee24_blocks, ieee118_blocks):
    failures = []

    # prox inequalities at 1e-9, 100 trials each
    rng = np.random.default_rng(42)
    for name, prox, penalty in (
        ("svt", svt, nuclear_norm),
        ("column shrinkage", shrink_columns, l12_norm),
    ):
        worst = 0.0
        for _ in range(100):
            m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
            tau = float(rng.uniform(0.0, 3.0))
            p = prox(m, tau)
            y = p + rng.uniform(0.01, 2.0) * (rng.normal(size=(5, 7))
                                              + 1j * rng.normal(size=(5, 7)))
            gap = (tau * penalty(p) + 0.5 * np.linalg.norm(p - m) ** 2) \
                - (tau * penalty(y) + 0.5 * np.linalg.norm(y - m) ** 2)
            worst = max(worst, gap)
        if worst > 1e-9:
            failures.append(f"{name} prox inequality violated by {worst:.2e}")

    # every solved instant meets the power-flow tolerance
    for label, (state, _, _) in (("24", ieee24_blocks), ("118", ieee118_blocks)):
        if max(state.mismatches) >= 1e-8:
            failures.append(f"{label}-bus mismatch {max(state.mismatches):.2e}")

    # independent fixed-point oracle for the 2-bus power flow
    case = pmufdi.parse_case(TWO_BUS_CASE)
    pd = np.array([b.pd for b in case.buses])
    qd = np.array([b.qd for b in case.buses])
    newton = pmufdi.solve_ac_power_flow(case, pd, qd)
    oracle = gauss_seidel_power_flow(case, pd, qd)
    gap = float(np.max(np.abs(newton.v - oracle)))
    if gap > 1e-8:
        failures.append(f"2-bus Newton vs Gauss-Seidel gap {gap:.2e}")

    # solver objectives against independent minimizers on small instances
    rng = np.random.default_rng(4242)
    base = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
    profile = rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
    z = base @ profile + 0.05 * (rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
    g = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    w = _minimize_postattack_norm(z, g)
    attack_obj = nuclear_norm(z + w @ g)
    attack_ref = powell_attack_reference(
        z, g, [np.zeros_like(w), w,
               w + 0.1 * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))])
    if abs(attack_obj - attack_ref) > 1e-4 * max(1.0, attack_ref):
        failures.append(f"attack objective {attack_obj:.6f} vs reference {attack_ref:.6f}")

    m, c, _ = _decompose(z, g, 1.05, SolverOptions(),
                         np.linalg.norm(g, 2) ** 2, np.linalg.norm(z, 2))
    detect_obj = nuclear_norm(m) + 1.05 * l12_norm(c)
    detect_ref = subgradient_detector_reference(z, g, 1.05)
    if abs(detect_obj - detect_ref) > 1e-3 * max(1.0, detect_ref):
        failures.append(f"detector objective {detect_obj:.6f} vs reference {detect_ref:.6f}")

    check(7, "numerical kernel suite (prox inequalities, power-flow "
             "tolerances, oracle cross-checks)",
          not failures, "; ".join(failures) or "all kernel checks hold")


def test_criterion_8_reports_are_reproducible(report24, tmp_path_factory):
    cfg, _, first_out = report24
    out = tmp_path_factory.mktemp("accept24_rerun")
    rerun_cfg = load_config(CONFIG_DIR / "ieee24.yaml", out_dir=str(out))
    report = run_experiment(rerun_cfg)
    save_report(report, rerun_cfg.out_dir)
    deterministic = ["scenarios.csv", "aggregates.csv", "spectrum.csv",
                     "trace.csv", "meta.json", "spectrum.gp",
                     "aggregates.gp", "trace.gp"]
    diffs = [name for name in deterministic
             if (first_out / name).read_bytes() != (out / name).read_bytes()]
    check(8, "rerunning the full 24-bus experiment reproduces the report "
             "byte for byte",
          not diffs, f"differing files: {diffs}" if diffs else "all files identical")


def test_detector_iterations_stay_guarded(report24):
    # exact counts: the BLAS runs on one thread
    _, report, _ = report24
    vanishing = [r.detect_iterations for r in report.rows if r.max_state_column_norm == 0]
    assert vanishing and max(vanishing) <= 29
    assert sum(r.detect_iterations for r in report.rows) <= 8000


def test_mstep_stays_in_the_svt_accuracy_regime(report24, mstep_ratios24):
    # the kernel's Gram eigendecomposition is held to the SVD reference
    # for tau >= SVT_REGIME s_1 (test_kernels); every M-step must be there
    _, report, _ = report24
    assert len(mstep_ratios24) == sum(r.detect_iterations for r in report.rows) > 0
    assert min(mstep_ratios24) >= SVT_REGIME


def test_safeguard_keeps_and_rejects_extrapolations(report24, diagnostics24):
    _, report, _ = report24
    assert len(diagnostics24) == len(report.rows) == 114
    assert sum(d.extrapolated for d in diagnostics24) >= 1
    assert sum(d.rejected for d in diagnostics24) >= 1
