"""Complex-matrix kernels for low-rank plus column-sparse decompositions.

All kernels operate on full complex matrices (the data are phasors, and
stacking real/imaginary parts would change the nuclear norm). SVDs are
economy-size throughout. Everything here is deterministic and pure.

:func:`svt` takes no SVD. The singular value thresholding operator of
Cai, Candes & Shen ("A singular value thresholding algorithm for matrix
completion", SIAM J. Optim. 2010) needs only the left singular vectors
and the singular values above the threshold, and both come from one
Hermitian eigendecomposition of the short side's k x k Gram matrix,
which costs less than the economy SVD: on a 2-core x86 host, 122
against 150 us on a 19 x 41 block and 236 against 547 us on a 26 x 157
one. Squaring the singular values costs accuracy in the small ones,
so the result carries an error bound that grows as the threshold falls
(:func:`svt`).

Importing this module sets the OpenBLAS bundled with the numpy wheel,
which every kernel of the package runs on, to one thread for the whole
process, whatever ``OPENBLAS_NUM_THREADS`` says and whether or not numpy
was imported first. Parallelism comes from scenario threads instead. A
multi-threaded BLAS changes the summation order of its kernels, so the
bits of a block, an SVD or a Newton solve, and hence of the reports,
would otherwise depend on the thread count; two scenario threads each
running a multi-threaded BLAS also oversubscribe the cores.
:data:`BLAS_THREADS` holds the count the library reads back, 1, or
``None``, with one logged warning, where it is not found, as with a
BLAS other than the wheel's own.
"""

from __future__ import annotations

import ctypes
import logging
import math
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps


def _pin_blas_threads(libs: Path) -> int | None:
    """Set the OpenBLAS in the wheel directory *libs* to one thread and
    return the count it reads back; None, with one logged warning, if it
    is not found there. The wheel's build, ``lib<prefix>openblas64_*.so``,
    prefixes its symbols with the ``<prefix>`` of its file name."""
    for path in sorted(libs.glob("lib*openblas64_*.so")):
        prefix = path.name[len("lib"):path.name.index("openblas64_")]
        try:
            lib = ctypes.CDLL(str(path))
            setter = getattr(lib, f"{prefix}openblas_set_num_threads64_")
            getter = getattr(lib, f"{prefix}openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        return getter()
    log.warning("numpy's bundled OpenBLAS was not found; the BLAS thread "
                "count is not pinned, and reports may depend on it")
    return None


# read by the experiment's meta.json, which thereby names the thread policy
BLAS_THREADS = _pin_blas_threads(Path(np.__file__).resolve().parent.parent
                                  / "numpy.libs")


def _scaled(m: np.ndarray) -> tuple[np.ndarray, float]:
    """*m* as an array, and 2**e, the power of two just above its largest
    entry magnitude (1 for a zero m; 2**1023, the largest power of two,
    for entries beyond it; 2**-1022, the least normal one, for entries
    below it, so that 2**-e is finite). Scaling by 2**-e is exact outside
    the subnormal range, and the squares of the scaled entries do not
    overflow. Raises ValueError if an entry is not finite."""
    m = np.asarray(m)
    top = float(np.max(np.abs(m), initial=0.0))
    if not math.isfinite(top):
        raise ValueError("matrix contains non-finite entries")
    return m, 2.0 ** min(max(math.frexp(top)[1], -1022), 1023)


def _times(m: np.ndarray, factor: float) -> np.ndarray:
    """*m* times the real *factor*, taken on the real view of a complex m.
    numpy's complex product would also multiply by the factor's zero
    imaginary part, which costs more and can flip the sign of a zero."""
    if not np.iscomplexobj(m):
        return m * factor
    m = np.ascontiguousarray(m)
    return (m.view(m.real.dtype) * factor).view(m.dtype)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m, _ = _scaled(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Singular value soft-thresholding, the prox of tau * nuclear norm.

    With a the short side of *m* (m itself, or m^H for a tall m), Q and
    lambda the eigenvectors and eigenvalues of the Gram a a^H and
    s = sqrt(lambda), the prox is Q diag(1 - tau/s) Q^H a, taken over the
    eigenvalues above max(tau^2, max(shape) eps lambda_max). The second
    term is numpy's ``matrix_rank`` cut applied to lambda: below it an
    eigenvalue is rounding noise of the Gram, and its direction counts as
    a zero singular value. The entries are first scaled by the power of
    two of :func:`_scaled`, which is exact, so that the Gram neither
    overflows nor underflows.

    Against the exact prox the Frobenius error is at most
    ||E||_F / (2 tau) + sqrt(k) max(0, sqrt(f + ||E||_F) - tau), plus the
    rounding of the last products, with f the cut and E the rounding
    error of the Gram and its eigensolver, a modest multiple of
    (n + k) eps ||m||_F^2; the derivation is with the full-SVD reference
    in the tests' oracles. The bound grows as tau falls, and its second
    term binds only where tau^2 is below about f. Over 20,000 generated
    complex matrices (shapes up to 26 x 157 either way, every rank,
    spectra over 0-12 decades) the error stayed below 3e-10 s_1 for
    tau >= 1e-6 s_1 and below 1.3e-9 s_1 wherever the cut did not bind;
    at tau = 1e-7 s_1 on 157 columns, where it does, it reached 9e-8 s_1.
    """
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    m, scale = _scaled(m)
    wide = m.shape[0] <= m.shape[1]
    # scaled before the tall side turns: the turned side is not
    # C-contiguous, and _times would copy it into another layout
    a = _times(m, 1.0 / scale)
    if not wide:
        a = a.conj().T
    tau = tau / scale
    lam, q = np.linalg.eigh(a @ a.conj().T)
    keep = lam > max(tau * tau, max(m.shape) * _EPS * lam.max(initial=0.0))
    q = q[:, keep]
    p = (q * (scale * (1.0 - tau / np.sqrt(lam[keep])))) @ (q.conj().T @ a)
    return p if wide else p.conj().T


def shrink_columns(c: np.ndarray, kappa: float) -> np.ndarray:
    """Per-column soft shrinkage, the prox of kappa * (sum of column norms).

    Column j maps to max(1 - kappa/||c_j||, 0) * c_j; columns with norm at
    or below kappa (including zero columns) map to exactly zero. The norms
    are taken on c scaled by the power of two of :func:`_scaled`, so that
    they do not overflow.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be >= 0")
    c, unit = _scaled(c)
    # a product with the exact reciprocal of the power of two costs a
    # fraction of a complex division
    norms = unit * np.linalg.norm(_times(c, 1.0 / unit), axis=0)
    scale = np.zeros_like(norms)
    np.divide(norms - kappa, norms, out=scale, where=norms > kappa)
    return c * scale


def l12_norm(c: np.ndarray) -> float:
    """Sum of Euclidean column norms, taken as in :func:`shrink_columns`."""
    c, unit = _scaled(c)
    return float(np.sum(unit * np.linalg.norm(_times(c, 1.0 / unit), axis=0)))
