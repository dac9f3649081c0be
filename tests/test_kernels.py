import numpy as np
import pytest

from pmufdi.kernels import (
    SolverOptions,
    l12_norm,
    nuclear_norm,
    shrink_columns,
    svt,
)

from oracles import nuclear_norm_eig


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


# --- nuclear norm ----------------------------------------------------------

def test_nuclear_norm_known_values():
    assert nuclear_norm(np.eye(2)) == pytest.approx(2.0)
    assert nuclear_norm(np.ones((2, 2))) == pytest.approx(2.0)


def test_nuclear_norm_matches_eigen_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_complex(rng, (5, 7))
        assert abs(nuclear_norm(m) - nuclear_norm_eig(m)) < 1e-10


def test_norm_equivalence_band():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_complex(rng, (6, 9))
        nuc = nuclear_norm(m)
        fro = np.linalg.norm(m)
        rank = np.linalg.matrix_rank(m)
        assert nuc >= fro - 1e-12
        assert fro >= nuc / np.sqrt(rank) - 1e-12


# --- singular value thresholding -------------------------------------------

def test_svt_known_values():
    assert svt(np.diag([3.0, 1.0]), 2.0) == pytest.approx(np.diag([1.0, 0.0]))

    rng = np.random.default_rng(2)
    m = random_complex(rng, (4, 6))
    assert np.max(np.abs(svt(m, 0.0) - m)) < 1e-12

    top = float(np.linalg.svd(m, compute_uv=False)[0])
    # thresholding at sigma_1 may leave last-ulp crumbs; a hair above cannot
    assert np.max(np.abs(svt(m, top))) < 1e-12
    assert np.max(np.abs(svt(m, top * (1 + 1e-9)))) == 0.0


def test_svt_prox_inequality():
    # prox characterization: the svt point beats any candidate on
    # tau*||.||_* + half squared distance
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = random_complex(rng, (5, 7))
        tau = float(rng.uniform(0.0, 3.0))
        p = svt(m, tau)
        value_p = tau * nuclear_norm(p) + 0.5 * np.linalg.norm(p - m) ** 2
        y = p + random_complex(rng, (5, 7), scale=rng.uniform(0.01, 2.0))
        value_y = tau * nuclear_norm(y) + 0.5 * np.linalg.norm(y - m) ** 2
        worst = max(worst, value_p - value_y)
    assert worst <= 1e-9


def test_svt_rejects_bad_input():
    with pytest.raises(ValueError):
        svt(np.eye(2), -1.0)
    with pytest.raises(ValueError):
        svt(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)


# --- column shrinkage -------------------------------------------------------

def test_shrink_columns_known_values():
    col = np.array([[3.0], [4.0]])
    assert shrink_columns(col, 2.0) == pytest.approx(np.array([[1.8], [2.4]]))

    unit = np.array([[1.0], [0.0]])
    assert np.all(shrink_columns(unit, 2.0) == 0.0)
    assert np.all(shrink_columns(unit, 1.0) == 0.0)   # boundary maps to zero

    rng = np.random.default_rng(4)
    c = random_complex(rng, (4, 5))
    assert np.array_equal(shrink_columns(c, 0.0), c)

    with_zero = c.copy()
    with_zero[:, 2] = 0.0
    assert np.all(shrink_columns(with_zero, 0.5)[:, 2] == 0.0)


def test_shrink_columns_prox_inequality():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        c = random_complex(rng, (5, 6))
        kappa = float(rng.uniform(0.0, 3.0))
        p = shrink_columns(c, kappa)
        value_p = kappa * l12_norm(p) + 0.5 * np.linalg.norm(p - c) ** 2
        y = p + random_complex(rng, (5, 6), scale=rng.uniform(0.01, 2.0))
        value_y = kappa * l12_norm(y) + 0.5 * np.linalg.norm(y - c) ** 2
        worst = max(worst, value_p - value_y)
    assert worst <= 1e-9


def test_l12_norm_known_values():
    assert l12_norm(np.eye(2)) == pytest.approx(2.0)
    assert l12_norm(np.zeros((3, 4))) == 0.0
    assert l12_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)


def test_kernels_deterministic():
    rng = np.random.default_rng(10)
    m = random_complex(rng, (6, 8))
    assert np.array_equal(svt(m, 0.7), svt(m, 0.7))
    assert np.array_equal(shrink_columns(m, 0.7), shrink_columns(m, 0.7))
    assert nuclear_norm(m) == nuclear_norm(m)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(tol_rel=0.0)
