import dataclasses

import numpy as np
import pytest

from pmufdi.attack import (
    SolverError,
    apply_attack,
    design_attack,
    induced_measurement_support,
    naive_ramp_attack,
    _minimize_postattack_norm,
)
from pmufdi.attack_sets import validate_attack_set
from pmufdi.detector import detect
from pmufdi.kernels import SolverOptions, nuclear_norm

from oracles import powell_attack_reference


def random_instance(rng, n=6, n_z=8, k=1):
    """Small low-rank-plus-noise data and a row dictionary for it."""
    base = (rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1)))
    profile = rng.normal(size=(1, n_z)) + 1j * rng.normal(size=(1, n_z))
    z = base @ profile + 0.05 * (rng.normal(size=(n, n_z))
                                 + 1j * rng.normal(size=(n, n_z)))
    g = rng.normal(size=(k, n_z)) + 1j * rng.normal(size=(k, n_z))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return z, g


def test_empty_set_is_trivial(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    scen = design_attack(window, dep, ())
    assert np.all(scen.c == 0)
    assert np.array_equal(scen.attacked_block.z, window.z)
    assert scen.objective == scen.baseline_objective


def test_designed_attack_never_raises_nuclear_norm(ieee24_blocks):
    _, block, dep = ieee24_blocks
    for first, last in ((31, 90), (91, 150)):
        window = block.window(first, last)
        for buses in ((8,), (11,), (1, 2)):
            scen = design_attack(window, dep, buses)
            assert scen.objective <= scen.baseline_objective * (1 + 1e-6)


def test_support_constraint_is_structural(ieee24_blocks, ieee24_case, ieee24_dep):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    scen = design_attack(window, dep, (8, 9))
    outside = [i for i, b in enumerate(dep.bus_ids) if b not in (8, 9)]
    assert np.all(scen.c[:, outside] == 0)
    assert np.any(scen.c != 0)


def test_small_instances_match_powell_reference():
    rng = np.random.default_rng(100)
    for k in (1, 2):
        z, g = random_instance(rng, k=k)
        w, diag = _minimize_postattack_norm(z, g, SolverOptions())
        admm_obj = nuclear_norm(z + w @ g)
        starts = [np.zeros_like(w), w,
                  w + 0.1 * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))]
        reference = powell_attack_reference(z, g, starts)
        assert admm_obj <= reference + 1e-4 * max(1.0, reference)
        assert reference <= admm_obj + 1e-4 * max(1.0, admm_obj)


def test_apply_attack_zero_matrix_is_identity(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    c = np.zeros((window.n_steps, dep.n_states), dtype=complex)
    out = apply_attack(window, c, dep)
    assert np.array_equal(out.z, window.z)
    assert out.attacked
    assert out.labels == window.labels
    assert out.start_index == window.start_index


def test_single_column_touches_only_its_channels(ieee24_case, ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    check = validate_attack_set(ieee24_case, dep, [8])
    c = np.zeros((window.n_steps, dep.n_states), dtype=complex)
    c[:, dep.column_index(8)] = 1.0 + 0.5j
    out = apply_attack(window, c, dep)
    changed = set(np.flatnonzero(np.any(out.z != window.z, axis=0)))
    assert changed == set(check.measurement_rows)


def test_apply_attack_dimension_checks(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    with pytest.raises(ValueError):
        apply_attack(window, np.zeros((10, dep.n_states)), dep)
    with pytest.raises(ValueError):
        apply_attack(window, np.zeros((window.n_steps, 3)), dep)


def test_induced_support_within_admissible_channels(ieee24_case, ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    check = validate_attack_set(ieee24_case, dep, [8])
    scen = design_attack(window, dep, (8,))
    assert set(induced_measurement_support(scen.c, dep)) <= set(check.measurement_rows)
    assert induced_measurement_support(np.zeros_like(scen.c), dep) == ()


def test_induced_support_structural_at_zero_eps(ieee24_case, ieee24_dep):
    check = validate_attack_set(ieee24_case, ieee24_dep, [8])
    c = np.zeros((12, ieee24_dep.n_states), dtype=complex)
    c[:, ieee24_dep.column_index(8)] = 1.0
    assert induced_measurement_support(c, ieee24_dep, eps=0.0) == check.measurement_rows
    with pytest.raises(ValueError):
        induced_measurement_support(c, ieee24_dep, eps=-0.5)


def _design(block, dep, options=None):
    return design_attack(block, dep, (8,), options=options)


def _detect(block, dep, options=None):
    return detect(block, dep, options=options)


both_solvers = pytest.mark.parametrize(
    "solve", [_design, _detect], ids=["design_attack", "detect"])


@both_solvers
def test_nonconvergence_raises_with_residuals(ieee24_blocks, solve):
    _, block, dep = ieee24_blocks
    # an attacked window, on which the detector's attack term has moved
    # by the fifth iteration, so both residuals are positive
    _, window = naive_ramp_attack(block.window(31, 90), dep, (9,), seed=3)
    errors = []
    for factor in (1.0, 10.0):
        scaled = dataclasses.replace(window, z=factor * window.z)
        with pytest.raises(SolverError) as err:
            solve(scaled, dep, options=SolverOptions(max_iter=5))
        assert err.value.iterations == 5
        assert err.value.primal > 0 and err.value.dual > 0
        errors.append(err.value)
    # residuals are reported in data units, so they scale with the data
    assert errors[1].primal == pytest.approx(10.0 * errors[0].primal, rel=1e-6)
    assert errors[1].dual == pytest.approx(10.0 * errors[0].dual, rel=1e-6)


@both_solvers
def test_zero_window_returns_zeros(ieee24_blocks, solve):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    result = solve(dataclasses.replace(window, z=np.zeros_like(window.z)), dep)
    assert np.all(result.c == 0)
    assert result.diagnostics.iterations == 0


def test_channel_count_mismatch_rejected(ieee24_blocks, ieee118_dep):
    _, block, _ = ieee24_blocks
    with pytest.raises(ValueError, match="channels"):
        design_attack(block.window(31, 90), ieee118_dep, (8,))


def test_attacked_channels_keep_the_temporal_shape(ieee24_case, ieee24_blocks):
    # the optimized attack may shift a channel's level substantially, but
    # the post-attack trace must stay dominated by the same temporal mode
    # as the clean data
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    scen = design_attack(window, dep, (8,))
    mode = np.linalg.svd(window.z, full_matrices=False)[0][:, 0]
    check = validate_attack_set(ieee24_case, dep, [8])
    for row in check.measurement_rows:
        label = dep.row_labels[row]
        after = scen.attacked_block.column(label)
        off_mode = np.linalg.norm(after - mode * (mode.conj() @ after))
        assert off_mode / np.linalg.norm(after) < 0.2
        assert np.abs(after - window.column(label)).max() > 0.01   # it did change


def test_bypass_holds_at_other_seeds(ieee24_case, ieee24_plan):
    from pmufdi.blocks import generate_block
    from pmufdi.detector import Outcome, classify_outcome, detect
    from pmufdi.kernels import nuclear_norm

    for seed in (7, 99):
        _, block, dep = generate_block(ieee24_case, ieee24_plan, 5.0, 30.0, seed=seed)
        window = block.window(31, 90)
        base = nuclear_norm(window.z)
        for buses in ((8,), (1, 2)):
            scen = design_attack(window, dep, buses)
            assert scen.objective <= base * (1 + 1e-6)
            result = detect(scen.attacked_block, dep, weight=1.05)
            assert classify_outcome(result, buses) is Outcome.BYPASSED


def test_naive_ramp_attack_properties(ieee24_blocks, ieee24_dep):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    c, attacked = naive_ramp_attack(window, dep, (9,), scale=0.5, seed=3)
    c2, attacked2 = naive_ramp_attack(window, dep, (9,), scale=0.5, seed=3)
    assert np.array_equal(c, c2)
    assert np.array_equal(attacked.z, attacked2.z)
    assert attacked.attacked
    col = c[:, dep.column_index(9)]
    assert abs(col[-1]) == pytest.approx(0.5)
    assert col[0] == 0.0
    others = np.delete(c, dep.column_index(9), axis=1)
    assert np.all(others == 0)
