import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmufdi.detector
from pmufdi.attack import design_attack, naive_ramp_attack
from pmufdi.attack_sets import enumerate_attack_sets
from pmufdi.blocks import generate_block
from pmufdi.report import read_block_csv, write_block_csv
from pmufdi.detector import (
    DetectionResult,
    Outcome,
    SolverDiagnostics,
    SolverOptions,
    ThresholdPolicy,
    classify_outcome,
    detect,
    identify_support,
    _column_space_rank,
    _decompose,
    _screen_gap,
)
from pmufdi.experiment import load_config
from pmufdi.kernels import l12_norm, nuclear_norm

from conftest import recording_mstep_ratios
from oracles import SVT_REGIME, subgradient_detector_reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def test_zero_block_is_certified_clean(ieee24_blocks):
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    result = detect(dataclasses.replace(window, z=np.zeros_like(window.z)), dep)
    assert result.diagnostics.iterations == 0 and result.diagnostics.gap == 0.0
    assert not np.any(result.z_lowrank) and not np.any(result.c)
    assert (result.objective, result.feasibility_residual) == (0.0, 0.0)
    assert classify_outcome(result, None) is Outcome.CLEAN


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
    # the screen's gap is recorded, and it is far above the tolerance
    assert result.diagnostics.iterations > 0
    assert result.diagnostics.gap == _screen(attacked.z, dep.h_normalized.T, 1.05)
    assert result.diagnostics.gap >= 1e-3
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


def test_one_svt_per_iteration(ieee24_blocks, monkeypatch):
    # the M-step runs svt, as bound in pmufdi.detector, once per evaluation
    # of the iteration map, rejected extrapolations included, so that a
    # tracer wrapping that name counts the loop's iterations
    calls = []
    threshold = pmufdi.detector.svt

    def counting(m, tau):
        calls.append(tau)
        return threshold(m, tau)

    monkeypatch.setattr(pmufdi.detector, "svt", counting)
    _, block, dep = ieee24_blocks
    _, attacked = naive_ramp_attack(block.window(31, 90), dep, (9,), scale=0.5, seed=21)
    diag = detect(attacked, dep).diagnostics
    assert diag.extrapolated > 0 and diag.rejected > 0
    assert len(calls) == diag.iterations


def _anderson_reference(points):
    """The type-II Anderson point of the last of *points*, a list of
    (f, y) complex vectors: y minus dY times the weights of least norm
    that minimize ||f - dF gamma||, from a least-squares solve on the
    real views of the differences themselves, with no reach cut."""
    f = np.array([p[0].view(float) for p in points])
    y = np.array([p[1].view(float) for p in points])
    df, dy = np.diff(f, axis=0), np.diff(y, axis=0)
    gamma = np.linalg.lstsq(df.T, f[-1], rcond=None)[0]
    return (y[-1] - gamma @ dy).view(complex), float(np.linalg.norm(gamma @ dy))


def test_anderson_falls_back_to_the_least_norm_weights_on_a_singular_gram():
    # two equal residual differences make the Gram exactly singular, so
    # the LU solve fails and the weights are the least-squares solution
    # of least norm; the entries are small dyadic numbers, so every
    # difference is exact
    d = np.array([1.0, 1j, -1.0])
    f0 = np.array([1 + 2j, -1.0, 0.5j])
    points = [(f0, np.array([0.0, 1.0, 2.0], dtype=complex)),
              (f0 + d, np.array([1.0, 1.0, 2 + 1j])),
              (f0 + 2 * d, np.array([1.0, 3.0, 2 + 1j]))]
    mix = pmufdi.detector._Anderson()
    for f, y in points:
        point = mix.push(f, y)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mix.gram[:2, :2], np.ones(2))
    expected, step = _anderson_reference(points)
    assert step < pmufdi.detector._ANDERSON_REACH * np.linalg.norm(points[-1][0])
    assert np.linalg.norm(point - expected) <= 1e-12 * np.linalg.norm(expected)


def test_anderson_weights_match_least_squares_on_a_well_posed_gram():
    rng = np.random.default_rng(11)
    n = 20
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    mix = pmufdi.detector._Anderson()
    points = []
    # past the memory, so that the ring of differences wraps around
    for push in range(pmufdi.detector._ANDERSON_MEMORY + 4):
        points.append((f, y))
        point = mix.push(f, y)
        if push == 0:
            assert point is None
        else:
            window = points[-pmufdi.detector._ANDERSON_MEMORY - 1:]
            expected, step = _anderson_reference(window)
            assert step < pmufdi.detector._ANDERSON_REACH * np.linalg.norm(f)
            assert np.linalg.norm(point - expected) <= 1e-12 * np.linalg.norm(expected)
        f = f + 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        y = y + 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))


def test_budget_warning(ieee24_blocks, caplog):
    _, block, dep = ieee24_blocks
    _, attacked = naive_ramp_attack(block.window(31, 90), dep, (9,), scale=0.5, seed=21)
    with caplog.at_level(logging.WARNING, logger="pmufdi.detector"):
        used = detect(attacked, dep).diagnostics.iterations
    assert not caplog.records

    with caplog.at_level(logging.WARNING, logger="pmufdi.detector"):
        detect(attacked, dep, options=SolverOptions(max_iter=used + 1))
    assert [r.getMessage() for r in caplog.records] == [
        f"detection converged after {used} of its {used + 1}-iteration budget"]


@pytest.mark.parametrize("seed, buses", [
    (6, (17, 18, 21, 22)),
    (3, (17, 21, 22)),
    (13, (1, 3, 24)),
])
def test_slowest_probed_calls_use_at_most_half_the_budget(seed, buses, ieee24_case, ieee24_plan):
    # the slowest call probed at each block seed, all on the window that
    # holds the disturbance onset
    _, block, dep = generate_block(ieee24_case, ieee24_plan, 5.0, 30.0, seed=seed)
    scen = design_attack(block.window(31, 90), dep, buses)
    opts = SolverOptions()
    result = detect(scen.attacked_block, dep, options=opts)
    assert classify_outcome(result, buses) is Outcome.BYPASSED
    assert result.diagnostics.iterations <= opts.max_iter // 2


def _transformed(block, perm, theta):
    """*block* with its rows permuted and every entry turned by e^{i theta}."""
    return dataclasses.replace(block, z=block.z[perm] * np.exp(1j * theta))


transforms = dict(perm_seed=st.integers(0, 2**32 - 1), theta=st.floats(-np.pi, np.pi))


@given(index=st.integers(0, 2**16), **transforms)
@settings(max_examples=15)
def test_designed_outcome_invariant_under_row_permutation_and_phase(
        ieee24_case, ieee24_blocks, index, perm_seed, theta):
    # (M, C) solves the program for Zbar exactly when the same row
    # permutation and phase of M and C solve it for the transformed
    # block, with the same singular values and column norms
    _, block, dep = ieee24_blocks
    sets = enumerate_attack_sets(ieee24_case, dep, 5)
    buses = sets[index % len(sets)].attacked_buses
    attacked = design_attack(block.window(91, 150), dep, buses).attacked_block
    perm = np.random.default_rng(perm_seed).permutation(attacked.n_steps)
    before = detect(attacked, dep)
    after = detect(_transformed(attacked, perm, theta), dep)
    assert classify_outcome(after, buses) is classify_outcome(before, buses)
    assert after.state_support == before.state_support


@given(**transforms)
@settings(max_examples=4)
def test_naive_recovery_invariant_under_row_permutation_and_phase(
        ieee24_blocks, perm_seed, theta):
    _, block, dep = ieee24_blocks
    _, attacked = naive_ramp_attack(block.window(31, 90), dep, (9,), scale=0.5, seed=21)
    perm = np.random.default_rng(perm_seed).permutation(attacked.n_steps)
    result = detect(_transformed(attacked, perm, theta), dep)
    assert classify_outcome(result, (9,)) is Outcome.DETECTED_WITHIN_SET
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
    with pytest.raises(ValueError):
        detect(block.window(31, 90), dep, weight=float("nan"))


def test_an_infinite_weight_is_refused(ieee24_blocks):
    # every kappa_r of the screen would read 0, so it would certify
    # every block, a naive ramp included, as a bypass
    _, block, dep = ieee24_blocks
    with pytest.raises(ValueError, match="weight"):
        detect(block.window(31, 90), dep, weight=float("inf"))


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
        m, c, diag = _decompose(zbar, g_rows, weight, SolverOptions(),
                                np.linalg.norm(g_rows, 2) ** 2, np.linalg.norm(zbar, 2))
        admm_obj = nuclear_norm(m) + weight * l12_norm(c)
        reference = subgradient_detector_reference(zbar, g_rows, weight)
        assert admm_obj <= reference + 1e-3 * max(1.0, reference)
        assert reference <= admm_obj + 1e-3 * max(1.0, admm_obj)


@pytest.mark.parametrize("config, limit, screened, total", [
    ("ieee24.yaml", None, 76, 114),
    ("ieee118.yaml", 12, 24, 24),
])
def test_screened_rows_match_the_unscreened_solve(
        detect_calls, monkeypatch, tmp_path, config, limit, screened, total):
    # the counts are exact: the BLAS runs on one thread, so every run
    # takes the same SVDs bit for bit
    cfg = load_config(CONFIG_DIR / config, limit=limit, out_dir=str(tmp_path))
    calls = detect_calls(cfg)
    hits = [call for call in calls if call[3].diagnostics.iterations == 0]
    assert (len(hits), len(calls)) == (screened, total)
    for *_, kwargs, result in calls:
        certified = result.diagnostics.gap <= kwargs["options"].tol_rel
        assert certified == (result.diagnostics.iterations == 0)
    monkeypatch.setattr(pmufdi.detector, "_screen_gap", lambda *args: np.inf)
    for block, dep, kwargs, result in hits:
        assert result.feasibility_residual == 0.0
        assert np.array_equal(result.z_lowrank, block.z) and not np.any(result.c)
        assert result.objective == pytest.approx(nuclear_norm(block.z), rel=1e-12)
        full = detect(block, dep, **kwargs)
        assert full.diagnostics.iterations > 0
        assert not np.any(full.c)
        assert full.state_support == result.state_support == ()
        assert full.channel_support == result.channel_support == ()
        # with both supports empty, any attacked set reads as bypassed
        assert classify_outcome(full, (1,)) is classify_outcome(result, (1,)) is Outcome.BYPASSED


def _full_height(block, dep, weight, options, thresholds):
    """``detect``'s result with the loop run on all N rows of *block*,
    without the column-space reduction."""
    zbar, g = block.z, dep.h_normalized.T
    m, c, diag = _decompose(zbar, g, weight, options, dep.smax2, np.linalg.norm(zbar, 2))
    result = DetectionResult(
        z_lowrank=m, c=c, weight=weight,
        state_column_norms=np.linalg.norm(c, axis=0),
        channel_column_norms=np.linalg.norm(c @ g, axis=0),
        state_support=(), channel_support=(),
        observed_frob=float(np.linalg.norm(zbar)),
        feasibility_residual=float(np.linalg.norm(zbar - m - c @ g)),
        objective=nuclear_norm(m) + weight * l12_norm(c),
        bus_ids=dep.bus_ids, labels=dep.row_labels, diagnostics=diag)
    state, channel = identify_support(result, thresholds)
    return dataclasses.replace(result, state_support=state, channel_support=channel)


def _cut_rank(zbar, tol_rel):
    """The documented height of the column-space block: the least k whose
    cut block, Zbar's singular values beyond the k-th, has Frobenius norm
    at most 1e-3 tol_rel ||Zbar||_F."""
    s = np.linalg.svd(zbar, full_matrices=False)[1]
    bound = 1e-3 * tol_rel * np.linalg.norm(s)
    return next(k for k in range(s.size + 1) if np.linalg.norm(s[k:]) <= bound)


def _assert_matches_full_height(block, dep, kwargs, result, injected):
    tol = kwargs["options"].tol_rel
    full = _full_height(block, dep, **kwargs)
    assert result.diagnostics.rank == _cut_rank(block.z, tol) < block.n_steps
    assert result.state_support == full.state_support
    assert result.channel_support == full.channel_support
    assert classify_outcome(result, injected) is classify_outcome(full, injected)
    assert result.objective == pytest.approx(full.objective, rel=tol)
    # the lifted point, checked against the original block
    zbar = block.z
    lifted = float(np.linalg.norm(zbar - result.z_lowrank - result.c @ dep.h_normalized.T))
    assert lifted == result.feasibility_residual
    assert lifted <= tol * np.linalg.norm(zbar) * (1 + 1e-6)


def test_column_space_solve_matches_the_full_height_solve(detect_calls, tmp_path):
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", out_dir=str(tmp_path))
    solved = [call for call in detect_calls(cfg) if call[3].diagnostics.iterations]
    assert len(solved) == 38
    for block, dep, kwargs, result in solved:
        # every designed attack set reads alike once both supports agree
        _assert_matches_full_height(block, dep, kwargs, result, None)


@pytest.mark.parametrize("seed", [2024, 7])
def test_column_space_solve_matches_the_full_height_solve_on_naive_ramps(seed, monkeypatch):
    ramps, dep, cfg = _naive_ramps(seed)
    kwargs = dict(weight=cfg.weight, options=cfg.solver, thresholds=cfg.thresholds)
    ratios = []
    for bus, attacked in ramps:
        with monkeypatch.context() as patch:
            recording_mstep_ratios(patch, ratios)
            result = detect(attacked, dep, **kwargs)
        assert result.state_support == (bus,)
        _assert_matches_full_height(attacked, dep, kwargs, result, (bus,))
    # every M-step thresholds where svt is held to the SVD reference
    assert ratios and min(ratios) >= SVT_REGIME


def test_m_step_runs_on_the_column_space(detect_calls, monkeypatch, tmp_path):
    # every svt input has the documented cut's k <= n_states rows, not the
    # window's 60
    shapes = []
    threshold = pmufdi.detector.svt

    def recording(m, tau):
        shapes.append(m.shape)
        return threshold(m, tau)

    monkeypatch.setattr(pmufdi.detector, "svt", recording)
    calls = detect_calls(load_config(CONFIG_DIR / "ieee24.yaml", limit=3,
                                     out_dir=str(tmp_path)))
    expected = []
    for block, dep, kwargs, result in calls:
        if result.diagnostics.iterations:
            k = result.diagnostics.rank
            tol = kwargs["options"].tol_rel
            assert k == _cut_rank(block.z, tol) <= dep.n_states < block.n_steps
            expected += [(k, dep.n_measurements)] * result.diagnostics.iterations
        else:
            assert result.diagnostics.rank is None
    assert expected and shapes == expected


@given(decays=st.lists(st.floats(0.0, 14.0), max_size=60), zeros=st.integers(0, 5),
       tol_rel=st.sampled_from([1e-7, 1e-10]) | st.floats(1e-12, 0.9))
def test_column_space_cut_is_the_least_height_within_its_bound(decays, zeros, tol_rel):
    # a descending spectrum led by 1 over up to fourteen decades, with
    # exact zeros at its tail: the rows cut away weigh at most
    # 1e-3 tol_rel ||Zbar||_F, and one row fewer would weigh more
    s = np.append(10.0 ** -np.sort(np.append(0.0, decays)), np.zeros(zeros))
    bound = 1e-3 * tol_rel * np.linalg.norm(s)
    k = _column_space_rank(s, tol_rel)
    assert 1 <= k <= s.size - zeros
    assert np.linalg.norm(s[k:]) <= bound < np.linalg.norm(s[k - 1:])
    # and the cut does not overflow or underflow far from unit scale
    for shift in (-900, 900):
        assert _column_space_rank(s * 2.0 ** shift, tol_rel) == k


def test_loop_runs_on_at_most_11_rows_in_the_shipped_regimes(detect_calls, tmp_path):
    # the 38 unscreened 24-bus experiment rows and the 18 naive ramps of the
    # benchmark at seed 2024: numpy's matrix_rank cut kept 17-18 and 13-19
    # rows, the documented cut keeps 9-10 and 6-11
    cfg = load_config(CONFIG_DIR / "ieee24.yaml", out_dir=str(tmp_path))
    ranks = [result.diagnostics.rank for *_, result in detect_calls(cfg)
             if result.diagnostics.iterations]
    ramps, dep, cfg = _naive_ramps(2024)
    for _, attacked in ramps:
        result = detect(attacked, dep, weight=cfg.weight, options=cfg.solver,
                        thresholds=cfg.thresholds)
        ranks.append(result.diagnostics.rank)
    assert len(ranks) == 38 + 18
    assert max(ranks) <= 11


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(10, 60), rank=st.integers(1, 6),
       attacked=st.integers(1, 3), pad=st.integers(1, 30),
       magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=20)
def test_column_space_solve_ignores_zero_rows_and_row_rotations(
        ieee24_blocks, seed, rows, rank, attacked, pad, magnitude):
    # a block of exact rank at most 9: a low-rank part whose singular
    # values spread over twelve decades, plus a few attacked states. The
    # program sees Zbar only through Zbar^H Zbar, so zero rows and a
    # unitary turn of the rows leave the supports and the optimal value
    # as they are
    _, block, dep = ieee24_blocks
    window = block.window(31, 90)
    g = dep.h_normalized.T
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def orthonormal(n, k):
        return np.linalg.qr(gaussian(n, k))[0]

    values = 10.0 ** -np.sort(np.append(0.0, rng.uniform(0.0, 12.0, rank - 1)))
    low = (orthonormal(rows, rank) * values) @ orthonormal(g.shape[1], rank).conj().T
    attack = np.zeros((rows, g.shape[0]), dtype=complex)
    attack[:, rng.choice(g.shape[0], attacked, replace=False)] = gaussian(rows, attacked)
    zbar = magnitude * (low + 0.3 * attack @ g)
    padded = np.vstack((zbar, np.zeros((pad, zbar.shape[1]))))
    turned = orthonormal(rows, rows) @ zbar
    result, *others = (detect(dataclasses.replace(window, z=z), dep)
                       for z in (zbar, padded, turned))
    for other in others:
        assert other.state_support == result.state_support
        assert other.channel_support == result.channel_support
        assert other.objective == pytest.approx(result.objective, rel=SolverOptions().tol_rel)
    k = np.linalg.matrix_rank(zbar)
    if result.diagnostics.iterations:
        assert result.diagnostics.rank == _cut_rank(zbar, SolverOptions().tol_rel)
    # M and C lie in range(Zbar)
    u = np.linalg.svd(zbar)[0][:, :k]
    for part in (result.z_lowrank, result.c):
        assert np.linalg.norm(part - u @ (u.conj().T @ part)) <= 1e-12 * np.linalg.norm(zbar)


def _dual_gap_by_rank(zbar, g, weight):
    """Relative gaps of (Zbar, 0) against the explicit dual points
    Y_r = U_r V_r^H / max(1, kappa_r), each checked dual feasible."""
    u, s, vh = np.linalg.svd(zbar, full_matrices=False)
    total = float(np.sum(s))
    gaps = []
    for r in range(1, s.size + 1):
        y = u[:, :r] @ vh[:r]
        kappa = float(np.linalg.norm(y @ g.conj().T, axis=0).max()) / weight
        y = y / max(1.0, kappa)
        assert np.linalg.norm(y, 2) <= 1.0 + 1e-12
        assert np.linalg.norm(y @ g.conj().T, axis=0).max() <= weight * (1.0 + 1e-12)
        dual = float(np.vdot(y, zbar).real)
        assert dual == pytest.approx(float(np.sum(s[:r])) / max(1.0, kappa),
                                     rel=1e-12, abs=1e-12 * total)
        gaps.append((total - dual) / total)
    return gaps


def _screen(zbar, g, weight):
    _, s, vh = np.linalg.svd(zbar, full_matrices=False)
    return _screen_gap(s, vh, g, weight)


def test_screen_gap_matches_the_dual_on_the_shipped_block(ieee24_blocks):
    _, block, dep = ieee24_blocks
    g = dep.h_normalized.T
    window = block.window(91, 150)
    designed = design_attack(window, dep, (8,)).attacked_block.z
    _, naive = naive_ramp_attack(window, dep, (9,), scale=0.5, seed=21)
    for zbar in (window.z, designed, naive.z):
        assert _screen(zbar, g, 1.05) == pytest.approx(
            max(0.0, min(_dual_gap_by_rank(zbar, g, 1.05))), rel=1e-9, abs=1e-13)
    assert _screen(designed, g, 1.05) <= SolverOptions().tol_rel
    assert _screen(naive.z, g, 1.05) >= 1e-3


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), cols=st.integers(1, 8),
       states=st.integers(1, 6), rank=st.integers(1, 8),
       weight=st.floats(0.05, 5.0), magnitude=st.sampled_from([1e-6, 1.0, 1e6]))
def test_screen_gap_matches_the_dual(seed, rows, cols, states, rank, weight, magnitude):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zbar = magnitude * gaussian(rows, rank) @ gaussian(rank, cols)
    g = gaussian(states, cols)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    gap = _screen(zbar, g, weight)
    assert 0.0 <= gap <= 1.0
    assert gap == pytest.approx(max(0.0, min(_dual_gap_by_rank(zbar, g, weight))),
                                rel=1e-9, abs=1e-12)


def _naive_ramps(seed):
    """The 18 ramps of the benchmark's naive workload (perfbench/naive.py)
    at *seed*, every voltage-measured bus on both shipped windows, as
    (bus, attacked block) pairs; with the dependency matrix and config."""
    cfg = load_config(CONFIG_DIR / "ieee24.yaml")
    case, plan = cfg.load_grid()
    _, block, dep = generate_block(case, plan, cfg.duration_s, cfg.rate_hz, cfg.seed,
                                   policy=cfg.disturbance)
    windows = [block.window(first, last) for first, last in cfg.windows]
    buses = np.random.default_rng(seed).permutation(plan.voltage_buses)
    rng = np.random.default_rng(seed)
    ramps = []
    for bus in buses:
        for window in windows:
            _, attacked = naive_ramp_attack(window, dep, (int(bus),), scale=cfg.naive_scale,
                                            seed=int(rng.integers(0, 2**31)))
            ramps.append((int(bus), attacked))
    return ramps, dep, cfg


@pytest.mark.parametrize("seed", [2024, 7])
def test_naive_ramps_are_never_screened(seed):
    ramps, dep, cfg = _naive_ramps(seed)
    gaps = [_screen(attacked.z, dep.h_normalized.T, cfg.weight) for _, attacked in ramps]
    assert len(gaps) == 18
    assert min(gaps) >= 1e-3


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


def test_threshold_policy_range():
    # rel >= 1 would flag no column at all, and NaN compares false
    for bad, name in (({"rel": 1.0}, "rel"), ({"rel": -0.1}, "rel"),
                      ({"rel": float("nan")}, "rel"), ({"floor": -1e-9}, "floor"),
                      ({"floor": float("nan")}, "floor")):
        with pytest.raises(ValueError, match=name):
            ThresholdPolicy(**bad)
    assert ThresholdPolicy(rel=0.0, floor=0.0).rel == 0.0


def test_threshold_policy_refuses_an_infinite_floor():
    # an infinite floor would flag no column at all
    with pytest.raises(ValueError, match="floor"):
        ThresholdPolicy(floor=float("inf"))


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


def test_swapped_channel_labels_rejected(tmp_path, ieee24_blocks):
    _, block, dep = ieee24_blocks
    path = tmp_path / "window.csv"
    write_block_csv(block.window(31, 90), path)
    text = path.read_text()
    path.write_text(text.replace("t,V:1,V:2,", "t,V:2,V:1,", 1))
    with pytest.raises(ValueError, match="channel 1 is 'V:2' but the dependency matrix row is 'V:1'"):
        detect(read_block_csv(path), dep)


def test_dependency_digest_mismatch_rejected(ieee24_blocks):
    _, block, dep = ieee24_blocks
    forged = dataclasses.replace(block.window(31, 90), dependency_digest="0" * 12)
    with pytest.raises(ValueError, match=f"'000000000000'.*'{dep.digest}'"):
        detect(forged, dep)
