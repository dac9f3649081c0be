import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmufdi import kernels
from pmufdi.detector import SolverOptions
from pmufdi.kernels import (
    l12_norm,
    nuclear_norm,
    shrink_columns,
    svt,
)

from oracles import SVT_REGIME, nuclear_norm_eig, svt_error_bound, svt_svd


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_blas_runs_on_one_thread():
    assert kernels.BLAS_THREADS == 1


def test_blas_pin_reports_a_missing_library(tmp_path):
    assert kernels._pin_blas_threads(tmp_path) is None


def _package_imports(tree):
    """The import statements of *tree* that name a pmufdi module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "pmufdi":
                yield node
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "pmufdi" for alias in node.names):
                yield node


def test_kernels_define_no_class_and_import_no_package_module():
    # the kernels are leaf functions and the BLAS pin; the settings, error
    # and exit record of the solver live with the solver, in detector
    tree = ast.parse(Path(kernels.__file__).read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    imports = [node.lineno for node in _package_imports(tree)]
    assert (classes, imports) == ([], [])
    # the scan sees each kind of package import
    probe = ast.parse("from . import a\nfrom .b import c\nimport pmufdi.d\n"
                      "from pmufdi import e\nimport numpy\nfrom pathlib import Path")
    assert len(list(_package_imports(probe))) == 4


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
    with pytest.raises(ValueError, match="tau"):
        svt(np.eye(2), np.nan)
    with pytest.raises(ValueError):
        svt(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        svt(np.array([[complex(1.0, np.inf), 0.0], [0.0, 1.0]]), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        for kernel in (lambda a: shrink_columns(a, 1.0), nuclear_norm, l12_norm):
            with pytest.raises(ValueError, match="non-finite"):
                kernel(m)


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

    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="kappa"):
            shrink_columns(c, bad)


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


# --- generated inputs --------------------------------------------------------

matrices = dict(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9),
                rank=st.integers(0, 9), exponent=st.integers(-3, 3))


def generated_matrix(seed, rows, cols, rank, exponent, decades=2.0):
    """A complex rows x cols matrix of rank min(rank, rows, cols), its
    singular values spread over *decades* decades around 10**exponent."""
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    u, _ = np.linalg.qr(random_complex(rng, (rows, rank)))
    v, _ = np.linalg.qr(random_complex(rng, (cols, rank)))
    s = 10.0 ** (exponent + decades / 2 * rng.uniform(-1.0, 1.0, size=rank))
    return (u * s) @ v.conj().T, rng


@given(ratio=st.floats(0.0, 2.0), **matrices)
def test_prox_inequalities_on_generated_matrices(ratio, **shape):
    m, rng = generated_matrix(**shape)
    threshold = ratio * 10.0 ** shape["exponent"]
    for prox, norm in ((svt, nuclear_norm), (shrink_columns, l12_norm)):
        p = prox(m, threshold)

        def value(x):
            return threshold * norm(x) + 0.5 * np.linalg.norm(x - m) ** 2

        # the prox objective is 1-strongly convex with its minimum at p
        for step in (1e-3, 1e-1, 1.0):
            y = p + random_complex(rng, m.shape, scale=step * 10.0 ** shape["exponent"])
            gain = value(y) - value(p) - 0.5 * np.linalg.norm(y - p) ** 2
            assert gain >= -1e-10 * (value(y) + value(p))


@given(**matrices)
def test_norms_match_their_oracles_on_generated_matrices(**shape):
    m, _ = generated_matrix(**shape)
    assert nuclear_norm(m) == pytest.approx(nuclear_norm_eig(m), rel=1e-9, abs=0.0)
    columns = sum(math.sqrt(sum(abs(x) ** 2 for x in m[:, j])) for j in range(m.shape[1]))
    assert l12_norm(m) == pytest.approx(columns, rel=1e-12, abs=0.0)


# the detector's loop shapes on the 24-bus (k x 41) and 118-bus (k x 157) windows
LOOP_SHAPES = ((19, 41), (13, 41), (26, 157))


@given(shape=st.sampled_from(LOOP_SHAPES) | st.tuples(st.integers(1, 9), st.integers(1, 9)),
       tall=st.booleans(), seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 26),
       exponent=st.integers(-3, 3), decades=st.floats(0.0, 12.0),
       ratio=st.floats(math.log10(SVT_REGIME), 0.3))
def test_svt_matches_the_svd_reference(shape, tall, ratio, **spectrum):
    rows, cols = sorted(shape, reverse=tall)
    m, _ = generated_matrix(rows=rows, cols=cols, **spectrum)
    tau = 10.0 ** ratio * float(np.linalg.norm(m, 2))
    error = float(np.linalg.norm(svt(m, tau) - svt_svd(m, tau)))
    assert error <= svt_error_bound(m, tau)


def test_svt_decomposes_the_short_sides_gram(monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def recording(a):
        sizes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    rng = np.random.default_rng(6)
    for shape in ((19, 41), (41, 19)):
        m = random_complex(rng, shape)
        assert np.linalg.norm(svt(m, 0.5) - svt_svd(m, 0.5)) <= 1e-12 * np.linalg.norm(m)
    assert sizes == [(19, 19), (19, 19)]


def test_svt_cuts_at_the_grams_numerical_rank():
    # an eigenvalue of the Gram at or below max(shape) eps lambda_max is
    # rounding noise, so its direction counts as a zero singular value
    for shape in ((2, 2), (2, 5), (5, 2)):
        for s, kept in ((1e-7, True), (1e-8, False)):
            m = np.zeros(shape, dtype=complex)
            m[0, 0], m[1, 1] = 1.0, s
            got = svt(m, 0.0)
            expected = m.copy()
            expected[1, 1] = s if kept else 0.0
            assert np.max(np.abs(got - expected)) <= 1e-15


def test_svt_scales_exactly_by_powers_of_two():
    # squared entries beyond ~1e154 would overflow the Gram, and below
    # ~1e-154 underflow it; scaling by a power of two changes no bit
    rng = np.random.default_rng(7)
    m = random_complex(rng, (4, 7))
    for shift in (-600, 600):
        for a in (m, m.T):
            assert np.array_equal(svt(a * 2.0 ** shift, 0.3 * 2.0 ** shift),
                                  svt(a, 0.3) * 2.0 ** shift)
            # the column norms as well: squares of entries beyond ~1e154
            # would overflow them
            assert np.array_equal(shrink_columns(a * 2.0 ** shift, 0.3 * 2.0 ** shift),
                                  shrink_columns(a, 0.3) * 2.0 ** shift)
            assert l12_norm(a * 2.0 ** shift) == l12_norm(a) * 2.0 ** shift
    # entries beyond 2**1023, the largest power of two, scale by it
    big = np.array([[2.0 ** 1023], [2.0 ** 1022]])
    assert np.array_equal(svt(big, 0.0), big)
    assert np.array_equal(shrink_columns(big, 0.0), big)
    assert l12_norm(big) == 2.0 ** 1023 * math.sqrt(1.25)


def test_kernels_take_subnormal_matrices():
    # entries below 2**-1022 scale by it, so the reciprocal of the scale
    # stays finite
    m = np.array([[1e-320 + 0j], [-1e-321j]])
    assert np.array_equal(shrink_columns(m, 0.0), m)
    assert l12_norm(m) == math.hypot(1e-320, 1e-321)
    assert np.array_equal(svt(m, 0.0), m)
    assert not np.any(svt(m, 1e-319))


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
    with pytest.raises(ValueError):
        SolverOptions(tol_rel=float("nan"))


def test_solver_options_refuse_a_tolerance_of_one_or_more():
    # every relative duality gap is at most 1, so the detector's screen
    # would certify every block
    for bad in (1.0, 2.0, float("inf")):
        with pytest.raises(ValueError, match="tol_rel"):
            SolverOptions(tol_rel=bad)
    assert SolverOptions(tol_rel=0.5).tol_rel == 0.5


# --- power-of-two scaling across the plain range's edges ---------------------

def _all_kernels(m, tau):
    """svt, shrink_columns and l12_norm of (m, tau), with every
    RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return svt(m, tau), shrink_columns(m, tau), l12_norm(m)


def _assert_scaled(got, reference, factor):
    """*got* is *reference* times *factor*, bit for bit."""
    assert np.array_equal(got[0], reference[0] * factor)
    assert np.array_equal(got[1], reference[1] * factor)
    assert got[2] == reference[2] * factor


kernel_inputs = dict(
    shape=st.sampled_from(LOOP_SHAPES) | st.tuples(st.integers(1, 9), st.integers(1, 9)),
    tall=st.booleans(), seed=st.integers(0, 2**32 - 1), rank=st.integers(0, 26),
    exponent=st.integers(-3, 3), decades=st.floats(0.0, 12.0), ratio=st.floats(0.0, 2.0))


def kernel_input(shape, tall, ratio, **spectrum):
    """A generated wide or tall matrix and a threshold near its scale."""
    rows, cols = sorted(shape, reverse=tall)
    m, _ = generated_matrix(rows=rows, cols=cols, **spectrum)
    return m, ratio * 10.0 ** spectrum["exponent"]


# the shifts straddle the edges of the kernels' plain range (entries near
# 2**+-100 at the generated magnitudes) and the overflow and underflow of
# the squares (entries near 2**+-512)
@given(shift=st.integers(60, 140) | st.integers(450, 700), negative=st.booleans(),
       **kernel_inputs)
def test_kernels_scale_exactly_across_the_plain_range(shift, negative, **drawn):
    m, tau = kernel_input(**drawn)
    factor = 2.0 ** (-shift if negative else shift)
    _assert_scaled(_all_kernels(m * factor, tau * factor), _all_kernels(m, tau), factor)


@given(shift=st.integers(1023, 1074), **kernel_inputs)
def test_kernels_scale_exactly_into_the_subnormal_range(shift, **drawn):
    # a matrix and threshold shifted down into the subnormal range lose
    # bits; their exact images shifted back up give the reference, whose
    # results, shifted down, round once, as the kernels' own results must
    m, tau = kernel_input(**drawn)
    small, tau_small = m * 2.0 ** -shift, tau * 2.0 ** -shift
    exact = np.empty_like(small)
    exact.real, exact.imag = np.ldexp(small.real, shift), np.ldexp(small.imag, shift)
    _assert_scaled(_all_kernels(small, tau_small),
                   _all_kernels(exact, math.ldexp(tau_small, shift)), 2.0 ** -shift)


@given(bad=st.sampled_from((math.nan, math.inf, -math.inf, complex(1.0, math.inf),
                            complex(math.nan, 0.0))),
       where=st.tuples(st.integers(0, 25), st.integers(0, 156)),
       shift=st.integers(-700, 700), **kernel_inputs)
def test_kernels_refuse_non_finite_entries_at_every_scale(bad, where, shift, **drawn):
    m, tau = kernel_input(**drawn)
    m = m * 2.0 ** shift
    m[where[0] % m.shape[0], where[1] % m.shape[1]] = bad
    for kernel in (lambda a: svt(a, tau), lambda a: shrink_columns(a, tau), l12_norm,
                   nuclear_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                kernel(m)
