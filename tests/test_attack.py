import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmufdi.attack import (
    apply_attack,
    design_attack,
    naive_ramp_attack,
    _minimize_postattack_norm,
)
from pmufdi.attack_sets import enumerate_attack_sets, validate_attack_set
from pmufdi.detector import SolverError, SolverOptions, detect
from pmufdi.blocks import generate_block
from pmufdi.kernels import nuclear_norm
from pmufdi.measurements import PmuPlan

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


def test_dependent_attack_rows_name_the_buses(two_bus_case):
    # bus 2 drives no measured channel, so its row of Hn^T is zero
    _, block, dep = generate_block(two_bus_case, PmuPlan(voltage_buses=(1,)), 2.0, 10.0, seed=0)
    with pytest.raises(ValueError, match=r"attacked buses \(2,\).*linearly dependent"):
        design_attack(block, dep, (2,))


def test_empty_set_is_trivial(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    scen = design_attack(window, dep, ())
    assert np.all(scen.c == 0)
    assert np.array_equal(scen.attacked_block.z, window.z)
    assert scen.objective == nuclear_norm(window.z)


def test_designed_attack_never_raises_nuclear_norm(ieee24_blocks):
    _, block, dep = ieee24_blocks
    for first, last in ((31, 90), (91, 150)):
        window = block.window(first, last)
        for buses in ((8,), (11,), (1, 2)):
            scen = design_attack(window, dep, buses)
            assert scen.objective <= nuclear_norm(window.z) * (1 + 1e-6)


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
        w = _minimize_postattack_norm(z, g)
        admm_obj = nuclear_norm(z + w @ g)
        starts = [np.zeros_like(w), w,
                  w + 0.1 * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))]
        reference = powell_attack_reference(z, g, starts)
        assert admm_obj <= reference + 1e-4 * max(1.0, reference)
        assert reference <= admm_obj + 1e-4 * max(1.0, admm_obj)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       n_z=st.integers(2, 12), k=st.integers(1, 11))
def test_no_attack_beats_the_closed_form(seed, n, n_z, k):
    rng = np.random.default_rng(seed)
    z, g = random_instance(rng, n=n, n_z=n_z, k=min(k, n_z - 1))
    # badly scaled dictionary rows must not matter
    g *= 10.0 ** rng.uniform(-3, 3, size=(g.shape[0], 1))
    w = _minimize_postattack_norm(z, g)
    best = nuclear_norm(z + w @ g)
    for step in (1e-3, 1e-1, 1.0, 10.0):
        other = w + step * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))
        assert nuclear_norm(z + other @ g) >= best * (1 - 1e-12)


@pytest.mark.parametrize("system", ["ieee24", "ieee118"])
def test_attacked_block_is_orthogonal_to_the_attacked_rows(system, request):
    case = request.getfixturevalue(f"{system}_case")
    _, block, dep = request.getfixturevalue(f"{system}_blocks")
    sets = enumerate_attack_sets(case, dep, 2)
    for first, last in ((31, 90), (91, 150)):
        window = block.window(first, last)
        for check in sets[::max(1, len(sets) // 4)]:
            scen = design_attack(window, dep, check.attacked_buses)
            cols = [dep.column_index(b) for b in check.attacked_buses]
            q_cols, _ = np.linalg.qr(dep.h_normalized[:, cols].conj())   # G^H
            leak = np.linalg.norm(scen.attacked_block.z @ q_cols)
            assert leak <= 1e-12 * np.linalg.norm(window.z)


@pytest.fixture(scope="module", params=["ieee24", "ieee118"])
def block_and_sets(request):
    """(block, dep, admissible sets up to size 2) of a shared fixture block."""
    case = request.getfixturevalue(f"{request.param}_case")
    _, block, dep = request.getfixturevalue(f"{request.param}_blocks")
    return block, dep, enumerate_attack_sets(case, dep, 2)


@given(data=st.data())
def test_windowing_commutes_with_design_attack(block_and_sets, data):
    # row t of the attacked block is z_t (I - P), with P fixed by the set,
    # so cutting the attack designed on the whole block to a..b gives the
    # attack designed on a..b
    block, dep, sets = block_and_sets
    buses = data.draw(st.sampled_from(sets)).attacked_buses
    first = block.start_index
    last = first + block.n_steps - 1
    a = data.draw(st.integers(first, last))
    b = data.draw(st.integers(a, last))
    whole = design_attack(block, dep, buses)
    window = design_attack(block.window(a, b), dep, buses)
    tol = 1e-12 * np.abs(block.z).max()
    cut = whole.attacked_block.window(a, b)
    assert np.abs(cut.z - window.attacked_block.z).max() <= tol
    assert np.abs(whole.c[a - first:b - first + 1] - window.c).max() <= tol


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


def _design(block, dep, options=None):
    return design_attack(block, dep, (8,), options=options)


def _detect(block, dep, options=None):
    return detect(block, dep, options=options)


both_solvers = pytest.mark.parametrize(
    "solve", [_design, _detect], ids=["design_attack", "detect"])


@pytest.mark.parametrize("solve", [_detect], ids=["detect"])
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
