import dataclasses

import numpy as np
import pytest

from pmufdi.attack import design_attack, naive_ramp_attack, SolverDiagnostics
from pmufdi.detector import (
    DetectionResult,
    Outcome,
    ThresholdPolicy,
    classify_outcome,
    detect,
    identify_support,
    _decompose,
)
from pmufdi.kernels import SolverOptions, l12_norm, nuclear_norm

from oracles import subgradient_detector_reference


def test_clean_block_passes(ieee24_blocks, ieee24_dep):
    _, block, dep = ieee24_blocks
    for first, last in ((31, 90), (91, 150)):
        window = block.window(first, last)
        result = detect(window, dep)
        assert result.state_support == ()
        assert result.channel_support == ()
        assert classify_outcome(result, None) is Outcome.CLEAN
        # the low-rank factor is the data itself, up to solver residue
        gap = np.linalg.norm(result.z_lowrank - window.z)
        assert gap <= 1e-4 * np.linalg.norm(window.z)


def test_designed_attack_bypasses(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(91, 150)
    scen = design_attack(window, dep, (8,))
    result = detect(scen.attacked_block, dep)
    assert classify_outcome(result, (8,)) is Outcome.BYPASSED


def test_naive_attack_recovered_exactly(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    _, attacked = naive_ramp_attack(window, dep, (9,), scale=0.5, seed=21)
    result = detect(attacked, dep)
    assert result.state_support == (9,)
    assert classify_outcome(result, (9,)) is Outcome.DETECTED_WITHIN_SET
    # flagged channels stay inside the attacked state's measurement set
    touched = {i for i, label in enumerate(result.labels)
               if dep.h[i, dep.column_index(9)] != 0}
    assert set(result.channel_support) <= touched
    assert len(result.channel_support) > 0


def test_one_column_shrink_per_iteration(ieee24_blocks, monkeypatch):
    import pmufdi.detector

    calls = []
    shrink = pmufdi.detector.shrink_columns

    def counting(c, kappa):
        calls.append(kappa)
        return shrink(c, kappa)

    monkeypatch.setattr(pmufdi.detector, "shrink_columns", counting)
    _, block, dep = ieee24_blocks
    _, attacked = naive_ramp_attack(block.window(31, 90), dep, (9,), scale=0.5, seed=21)
    result = detect(attacked, dep)
    assert len(calls) == result.diagnostics.iterations
    assert result.state_support == (9,)


def test_feasibility_and_certificate(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    scen = design_attack(window, dep, (8,))
    result = detect(scen.attacked_block, dep)
    zbar = scen.attacked_block.z
    assert result.feasibility_residual <= 1e-6 * np.linalg.norm(zbar)
    reconstructed = result.z_lowrank + result.c @ dep.h_normalized.T
    assert np.linalg.norm(zbar - reconstructed) <= 1e-6 * np.linalg.norm(zbar)
    assert result.objective <= nuclear_norm(zbar) * (1 + 1e-6)
    assert result.objective == pytest.approx(
        nuclear_norm(result.z_lowrank) + result.weight * l12_norm(result.c)
    )


def test_weight_must_be_positive(ieee24_blocks):
    _, block, dep = ieee24_blocks
    with pytest.raises(ValueError):
        detect(block.window(31, 90), dep, weight=0.0)
    with pytest.raises(ValueError):
        detect(block.window(31, 90), dep, weight=-1.0)


def test_small_instances_match_subgradient_reference():
    rng = np.random.default_rng(200)
    for trial in range(3):
        n, n_z, k = 6, 9, 5
        base = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        profile = rng.normal(size=(1, n_z)) + 1j * rng.normal(size=(1, n_z))
        zbar = base @ profile
        if trial:
            spike = np.zeros((n, k), dtype=complex)
            spike[:, 0] = np.linspace(0, 1, n) * (1 + 1j)
            g_rows = rng.normal(size=(k, n_z)) + 1j * rng.normal(size=(k, n_z))
            g_rows /= np.linalg.norm(g_rows, axis=1, keepdims=True)
            zbar = zbar + spike @ g_rows
        else:
            g_rows = rng.normal(size=(k, n_z)) + 1j * rng.normal(size=(k, n_z))
            g_rows /= np.linalg.norm(g_rows, axis=1, keepdims=True)
        weight = 1.05
        m, c, diag = _decompose(zbar, g_rows, weight, SolverOptions())
        admm_obj = nuclear_norm(m) + weight * l12_norm(c)
        reference = subgradient_detector_reference(zbar, g_rows, weight)
        assert admm_obj <= reference + 1e-3 * max(1.0, reference)
        assert reference <= admm_obj + 1e-3 * max(1.0, admm_obj)


def _result_with_norms(state_norms, channel_norms, frob=1.0):
    n = 4
    return DetectionResult(
        z_lowrank=np.zeros((n, len(channel_norms)), dtype=complex),
        c=np.zeros((n, len(state_norms)), dtype=complex),
        weight=1.05,
        state_column_norms=np.asarray(state_norms, dtype=float),
        channel_column_norms=np.asarray(channel_norms, dtype=float),
        state_support=(), channel_support=(),
        observed_frob=frob,
        feasibility_residual=0.0,
        objective=0.0,
        bus_ids=tuple(range(1, len(state_norms) + 1)),
        labels=tuple(f"V:{i}" for i in range(len(channel_norms))),
        diagnostics=SolverDiagnostics(1, 0.0, 0.0, 1.0),
    )


def test_identify_support_zero_matrix():
    result = _result_with_norms([0.0, 0.0, 0.0], [0.0, 0.0])
    assert identify_support(result) == ((), ())


def test_identify_support_dominant_column():
    result = _result_with_norms([1e-9, 1.0, 1e-9], [1.0, 1e-9])
    states, channels = identify_support(result)
    assert states == (2,)
    assert channels == (0,)


def test_identify_support_floor_suppresses_residue():
    # solver residue orders of magnitude under the data scale: no flags
    result = _result_with_norms([3e-6, 2e-6], [1e-6], frob=60.0)
    assert identify_support(result) == ((), ())
    # a tighter explicit floor flags them again
    states, _ = identify_support(result, ThresholdPolicy(floor=1e-9))
    assert states == (1, 2)


def test_classify_outcome_table():
    empty = _result_with_norms([0.0], [0.0])
    assert classify_outcome(empty, None) is Outcome.CLEAN
    assert classify_outcome(empty, (8,)) is Outcome.BYPASSED

    flagged8 = dataclasses.replace(_result_with_norms([1.0] * 9, [1.0]),
                                   state_support=(8,))
    assert classify_outcome(flagged8, (8,)) is Outcome.DETECTED_WITHIN_SET
    assert classify_outcome(flagged8, (8, 9)) is Outcome.DETECTED_WITHIN_SET
    assert classify_outcome(flagged8, (9,)) is Outcome.DETECTED_OUTSIDE_SET
    assert classify_outcome(flagged8, None) is Outcome.DETECTED_OUTSIDE_SET


def test_channel_count_mismatch_rejected(ieee24_blocks, ieee118_dep):
    _, block, _ = ieee24_blocks
    with pytest.raises(ValueError, match="channels"):
        detect(block.window(31, 90), ieee118_dep)


def test_dependency_digest_mismatch_rejected(ieee24_blocks):
    _, block, dep = ieee24_blocks
    forged = dataclasses.replace(block.window(31, 90), dependency_digest="0" * 12)
    with pytest.raises(ValueError, match=f"'000000000000'.*'{dep.digest}'"):
        detect(forged, dep)
