"""Complex-matrix kernels for low-rank plus column-sparse decompositions.

All kernels operate on full complex matrices (the data are phasors, and
stacking real/imaginary parts would change the nuclear norm). SVDs are
economy-size throughout. Everything here is pure and deterministic.

Both convex programs of the package, the attack design and the detector's
decomposition, have the form

    minimize_{M, x}  ||M||_*  +  f(x)   subject to  M + A(x) = b

with A linear, and are solved by the scaled ADMM driver :func:`_admm`:

    M-step:  M = svt(b - A(x) - U, 1/rho)
    x-step:  x = argmin_x f(x) + rho/2 ||M + A(x) - b + U||_F^2
    dual:    U += M + A(x) - b

Each solver supplies only its x-step, which either solves that
subproblem exactly (the attack's projection onto orthonormal rows) or
linearizes its quadratic term at the previous x, as in LADMAP (Lin, Liu
& Su, NeurIPS 2011), which makes the detector's x-step one column
shrink. The driver solves on data scaled to unit Frobenius norm, stops
when both the primal residual ||M + A(x) - b|| and the dual residual
rho ||A(x) - A(x_prev)|| fall below tol_rel * ||b||_F, and rebalances
the penalty by doubling/halving it when one residual exceeds the other
tenfold.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg


_RESIDUAL_GAP = 10.0
# starting penalty; the data are normalized to unit Frobenius norm, so it
# refers to the normalized problem
_RHO = 1.0
# range the adapted penalty stays in: an uncontrolled downward run feeds
# back through the scaled dual variable and blows the iterates up, while
# too low a ceiling leaves residuals parked just above tolerance
_RHO_MIN = _RHO / 1024.0
_RHO_MAX = _RHO * 2.0 ** 20


@dataclass(frozen=True)
class SolverOptions:
    """Settings of the ADMM driver shared by the attack and the detector.

    *max_iter* is the iteration budget, after which :class:`SolverError`
    is raised. Convergence requires both residuals to fall below
    ``tol_rel * ||data||_F``.
    """
    max_iter: int = 5000
    tol_rel: float = 1e-7

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be positive")


class SolverError(RuntimeError):
    """ADMM failed to converge; carries the final residuals."""

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
    iterations: int
    primal_residual: float
    dual_residual: float
    rho: float


def _admm(
    b: np.ndarray,
    m_step: Callable[[np.ndarray, float], np.ndarray],
    x_step: Callable[[Any, np.ndarray, float], tuple[Any, np.ndarray]],
    x0: Any,
    opts: SolverOptions,
    what: str,
) -> tuple[np.ndarray, Any, float, SolverDiagnostics]:
    """Solve min ||M||_* + f(x) s.t. M + A(x) = b; see the module docstring.

    *m_step(V, tau)* is singular value thresholding; the callers pass the
    ``svt`` bound in their own module. *x_step(x, target, rho)*
    minimizes f(x) + rho/2 ||A(x) - target||_F^2, exactly or by one
    linearized step from the previous *x*, and returns the new x
    together with A(x).
    Returns (M, x, scale, diagnostics) with M and x solving the problem
    for b / scale, so the caller rescales them; the residuals in the
    diagnostics, and in a raised :class:`SolverError`, are in data units.
    Zero data returns (0, x0, 0.0, ...) without iterating.
    """
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros_like(b), x0, 0.0, SolverDiagnostics(0, 0.0, 0.0, _RHO)
    # every objective term is positively homogeneous, so solve on
    # unit-Frobenius data; this keeps the penalty scale data-independent
    b = b / scale
    rho = _RHO
    # never let the threshold 1/rho reach sigma_1, or the svt step would
    # annihilate the low-rank iterate and the iteration stalls
    lo = max(_RHO_MIN, 1.5 / float(np.linalg.svd(b, compute_uv=False)[0]))

    x = x0
    ax = np.zeros_like(b)
    u = np.zeros_like(b)
    primal = dual = np.inf

    for it in range(1, opts.max_iter + 1):
        m = m_step(b - ax - u, 1.0 / rho)
        x, ax_new = x_step(x, b - m - u, rho)
        r = (m - b) + ax_new
        u = u + r
        primal = float(np.linalg.norm(r))
        dual = float(rho * np.linalg.norm(ax_new - ax))
        ax = ax_new
        if not np.isfinite(primal) or not np.isfinite(dual):
            raise SolverError(f"{what} diverged", primal * scale, dual * scale, it)
        if primal < opts.tol_rel and dual < opts.tol_rel:
            return m, x, scale, SolverDiagnostics(it, primal * scale, dual * scale, rho)
        if primal > _RESIDUAL_GAP * dual and rho * 2.0 <= _RHO_MAX:
            rho *= 2.0
            u /= 2.0
        elif dual > _RESIDUAL_GAP * primal and rho / 2.0 >= lo:
            rho /= 2.0
            u *= 2.0

    raise SolverError(f"{what} did not converge", primal * scale, dual * scale, opts.max_iter)


def _require_finite(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        ok = np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))
    else:
        ok = np.all(np.isfinite(m))
    if not ok:
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
        # extreme inputs; gesvd is slower but far more robust
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Singular value soft-thresholding, the prox of tau * nuclear norm."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    m = _require_finite(m, "matrix")
    u, s, vh = _svd(m)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vh[keep]


def shrink_columns(c: np.ndarray, kappa: float) -> np.ndarray:
    """Per-column soft shrinkage, the prox of kappa * (sum of column norms).

    Column j maps to max(1 - kappa/||c_j||, 0) * c_j; columns with norm at
    or below kappa (including zero columns) map to exactly zero.
    """
    if kappa < 0:
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
