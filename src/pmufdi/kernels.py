"""Complex-matrix kernels for low-rank plus column-sparse decompositions.

All kernels operate on full complex matrices (the data are phasors, and
stacking real/imaginary parts would change the nuclear norm). SVDs are
economy-size throughout. Everything here is deterministic, and pure
apart from the warm state that :func:`svt` may be handed (see
:class:`WarmBasis`).

The module also holds the settings, error and diagnostics types of the
package's one iterative solver, the detector's ADMM
(:mod:`pmufdi.detector`).

Importing this module sets the OpenBLAS copies bundled with the numpy
and scipy wheels to one thread for the whole process, whatever
``OPENBLAS_NUM_THREADS`` says and whether or not numpy was imported
first. Parallelism comes from scenario threads instead. A multi-threaded
BLAS changes the summation order of its kernels, so the bits of a block,
an SVD or a Newton solve, and hence of the reports, would otherwise
depend on the thread count; two scenario threads each running a
multi-threaded BLAS also oversubscribe the cores. :data:`BLAS_THREADS`
holds the count the libraries read back, 1, or ``None``, with one
logged warning, where either is not found, as with a BLAS other than
the wheels' own. The ``scipy`` package is imported for that, but not
``scipy.linalg``, which costs about 0.3 s and 26 MB per process: only
the SVD's rare ``gesvd`` fallback imports it, when it runs.
"""

from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

log = logging.getLogger(__name__)


def _openblas(package, pattern: str, symbol_suffix: str):
    """(set_num_threads, get_num_threads) of the OpenBLAS bundled in
    *package*'s wheel; None if it is not found."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob(pattern)):
        try:
            lib = ctypes.CDLL(str(path))
            setter = getattr(lib, f"scipy_openblas_set_num_threads{symbol_suffix}")
            getter = getattr(lib, f"scipy_openblas_get_num_threads{symbol_suffix}")
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def _set_one_thread(package, pattern: str, symbol_suffix: str) -> int | None:
    """Set the OpenBLAS bundled in *package*'s wheel to one thread and
    return the count it reads back; None if it is not found."""
    found = _openblas(package, pattern, symbol_suffix)
    if found is None:
        return None
    setter, getter = found
    setter(1)
    return getter()


def _pin_blas_threads() -> int | None:
    counts = [_set_one_thread(np, "libscipy_openblas64_*.so", "64_"),
              _set_one_thread(scipy, "libscipy_openblas-*.so", "")]
    if None in counts:
        log.warning("the wheels' bundled OpenBLAS was not found; the BLAS thread "
                    "count is not pinned, and reports may depend on it")
        return None
    return max(counts)


# read by the experiment's meta.json, which thereby names the thread policy
BLAS_THREADS = _pin_blas_threads()

@dataclass(frozen=True)
class SolverOptions:
    """Settings of the detector's ADMM.

    *max_iter* is the iteration budget, after which :class:`SolverError`
    is raised. Convergence requires both residuals to fall below
    ``tol_rel * ||data||_F``.
    """
    max_iter: int = 5000
    tol_rel: float = 1e-7

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol_rel > 0:
            raise ValueError("tol_rel must be positive")


class SolverError(RuntimeError):
    """The detector's ADMM failed to converge or diverged; carries the
    residuals and the iteration count at which it stopped."""

    def __init__(self, message: str, primal: float, dual: float, iterations: int):
        super().__init__(
            f"{message}: primal residual {primal:.3e}, dual residual "
            f"{dual:.3e} after {iterations} iterations"
        )
        self.primal = primal
        self.dual = dual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverDiagnostics:
    """Exit state of the detector's ADMM: every evaluation of its
    iteration map counts in *iterations*; *extrapolated* and *rejected*
    count the Anderson-extrapolated points the safeguard kept and
    turned away, and *full_svds* the M-steps that ran the full SVD
    rather than the certified subspace path of :class:`WarmBasis`.
    *gap* is the duality-gap screen's best relative gap for the point
    (Zbar, 0), recorded by :func:`pmufdi.detector.detect` on every call,
    screened or not; None where no screen ran."""
    iterations: int
    primal_residual: float
    dual_residual: float
    rho: float
    extrapolated: int = 0
    rejected: int = 0
    full_svds: int = 0
    gap: float | None = None


def _require_finite(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = _require_finite(m, "matrix")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _svd(m: np.ndarray):
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # the default gesdd driver occasionally fails to converge on
        # extreme inputs; gesvd is slower but far more robust. Imported
        # here, so that the package's import does not load scipy.linalg
        import scipy.linalg
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


def svt(m: np.ndarray, tau: float, warm: WarmBasis | None = None) -> np.ndarray:
    """Singular value soft-thresholding, the prox of tau * nuclear norm.

    Without *warm* this is the exact prox, through a full SVD. With it,
    the subspace path of :class:`WarmBasis` may answer instead, within
    the bound stated there; where it cannot certify its answer, the
    result is the full-SVD one, bit for bit, and seeds *warm* for the
    next call.
    """
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    m = _require_finite(m, "matrix")
    if warm is not None:
        out = warm.threshold(m, tau)
        if out is not None:
            return out
        warm.full_svds += 1
    u, s, vh = _svd(m)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if warm is not None:
        warm.reseed(vh, int(np.count_nonzero(keep)), m.shape)
    return (u[:, keep] * s[keep]) @ vh[keep]


# The subspace path engages on an m x n input only where m n min(m, n)
# reaches this. Replaying detector M-step inputs on a 2-core x86 host:
# at 60 x 157 (5.65e5) it took 0.53-0.67 ms per call against 1.7-2.1 ms
# for the full SVD; at 60 x 41 (1.0e5), forced on, it fell back on 493
# of 933 inputs, took 0.47-0.52 ms against 0.44-0.49 ms, and moved the
# detector iteration counts of 5 of the 114 24-bus scenarios.
_SUBSPACE_MIN_WORK = 2e5
# the width k of the subspace is the last kept rank plus this, capped at
# min(m, n) / 4, past which a full SVD costs little more. In that replay,
# oversampling by 3 failed the accuracy certificate 24 times, by 4, 5 or
# 6 never, and 4 was the fastest
_SUBSPACE_OVERSAMPLE = 4
_SUBSPACE_WIDTH_SHARE = 4
# accuracy certificate, relative to ||A||_F; where the subspace has
# converged, ||E V_r||_F sits at rounding level
_SUBSPACE_EPS = 1e-13
# any fixed seed: the start rows, and hence the reports, are reproducible
_SUBSPACE_SEED = 20170


class WarmBasis:
    """Warm state of :func:`svt` over the calls of one iterative solve.

    It holds the right singular basis of the last input. For an input A
    whose shape engages (see the module constants), ``svt`` forms
    Q = orth(A V) over the k basis rows V, padded with fixed-seed complex
    Gaussian rows where there are fewer than k (on the first call, all
    of them), takes the SVD of the k x n matrix B = Q^H A and keeps its
    r singular values s_i > tau. Let E = A - Q B and V_r the kept right
    vectors. The answer is accepted only on an exact certificate:

    - r < k (otherwise the subspace is too narrow to show where the
      spectrum drops);
    - s_(r+1)^2 + ||E||_F^2 < tau^2, which bounds every discarded
      singular value of A below tau, since A^H A = B^H B + E^H E;
    - ||E V_r||_F <= eps ||A||_F, with eps = 1e-13.

    Under the first two, the answer is the exact prox of
    A - E V_r V_r^H, so, the prox being nonexpansive, it lies within
    ||E V_r||_F <= eps ||A||_F of the full-SVD ``svt(A, tau)`` in the
    Frobenius norm, up to rounding. Otherwise ``svt`` runs the full SVD
    and counts it in :attr:`full_svds`. Either way the basis for the
    next call is the top r + 4 right singular vectors found. One
    instance serves one solve, on inputs of one shape: it holds its own
    generator, so nothing is shared between solves or threads.
    """

    def __init__(self):
        self.basis: np.ndarray | None = None     # (j, n), orthonormal rows
        self.width = 0                           # k for the next call
        self.full_svds = 0                       # calls that ran the full SVD
        self._rng = np.random.default_rng(_SUBSPACE_SEED)

    @staticmethod
    def _width(rank: int, shape: tuple[int, int]) -> int:
        return min(rank + _SUBSPACE_OVERSAMPLE, min(shape) // _SUBSPACE_WIDTH_SHARE)

    def reseed(self, vh: np.ndarray, rank: int, shape: tuple[int, int]) -> None:
        """Take the basis for the next call from the rows of *vh*, the
        right singular vectors of a full SVD whose kept rank is *rank*."""
        self.width = self._width(rank, shape)
        self.basis = vh[:self.width]

    def threshold(self, a: np.ndarray, tau: float) -> np.ndarray | None:
        """The certified subspace answer for ``svt(a, tau)``, or None
        where the shape does not engage or a certificate fails."""
        rows, cols = a.shape
        if rows * cols * min(rows, cols) < _SUBSPACE_MIN_WORK:
            return None
        if self.basis is None:
            self.basis = np.empty((0, cols), dtype=complex)
            self.width = min(rows, cols) // _SUBSPACE_WIDTH_SHARE
        k = self.width
        if k < 1:
            return None
        v = self.basis
        if v.shape[0] < k:
            extra = (k - v.shape[0], cols)
            v = np.vstack((v, self._rng.standard_normal(extra)
                           + 1j * self._rng.standard_normal(extra)))
        q = np.linalg.qr(a @ v.conj().T)[0]
        b = q.conj().T @ a
        ub, s, vbh = np.linalg.svd(b, full_matrices=False)
        r = int(np.count_nonzero(s > tau))
        if r >= k:
            log.debug("svt: narrow subspace, %d of %d values kept", r, k)
            return None
        e = a - q @ b
        if not s[r] ** 2 + np.vdot(e, e).real < tau * tau:
            log.debug("svt: rank certificate failed")
            return None
        if not np.linalg.norm(e @ vbh[:r].conj().T) <= _SUBSPACE_EPS * np.linalg.norm(a):
            log.debug("svt: accuracy certificate failed")
            return None
        self.width = self._width(r, a.shape)
        self.basis = vbh[:self.width]
        return ((q @ ub[:, :r]) * (s[:r] - tau)) @ vbh[:r]


def shrink_columns(c: np.ndarray, kappa: float) -> np.ndarray:
    """Per-column soft shrinkage, the prox of kappa * (sum of column norms).

    Column j maps to max(1 - kappa/||c_j||, 0) * c_j; columns with norm at
    or below kappa (including zero columns) map to exactly zero.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be >= 0")
    c = _require_finite(c, "matrix")
    norms = np.linalg.norm(c, axis=0)
    scale = np.zeros_like(norms)
    np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
    return c * scale


def l12_norm(c: np.ndarray) -> float:
    """Sum of Euclidean column norms."""
    c = _require_finite(c, "matrix")
    return float(np.sum(np.linalg.norm(c, axis=0)))
