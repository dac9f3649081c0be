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

Each solver supplies only its x-step. The driver solves on data scaled
to unit Frobenius norm, stops when both the primal residual
||M + A(x) - b|| and the dual residual rho ||A(x) - A(x_prev)|| fall
below tol_abs + tol_rel * ||b||_F, and rebalances the penalty by
doubling/halving it when one residual exceeds the other tenfold.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg


_RESIDUAL_GAP = 10.0


@dataclass(frozen=True)
class SolverOptions:
    """Settings of the ADMM driver shared by the attack and the detector.

    *rho* is the starting penalty. The driver normalizes the data to unit
    Frobenius norm, so it refers to the normalized problem; the penalty
    then adapts within :meth:`rho_bounds`. *max_iter* is the iteration
    budget, after which :class:`SolverError` is raised. Convergence
    requires both residuals to fall below ``tol_abs + tol_rel *
    ||data||_F``, with *tol_abs* in the data's own units.
    """
    max_iter: int = 5000
    tol_rel: float = 1e-7
    tol_abs: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_rel <= 0 and self.tol_abs <= 0:
            raise ValueError("tolerances must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    def rho_bounds(self) -> tuple[float, float]:
        """Range the adapted penalty stays in: an uncontrolled downward
        run feeds back through the scaled dual variable and blows the
        iterates up, while too low a ceiling leaves residuals parked just
        above tolerance."""
        return self.rho / 1024.0, self.rho * 2.0 ** 20


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
    converged: bool


def _admm(
    b: np.ndarray,
    m_step: Callable[[np.ndarray, float], np.ndarray],
    x_step: Callable[[Any, np.ndarray, float, float], tuple[Any, np.ndarray]],
    x0: Any,
    opts: SolverOptions,
    what: str,
) -> tuple[np.ndarray, Any, float, SolverDiagnostics]:
    """Solve min ||M||_* + f(x) s.t. M + A(x) = b; see the module docstring.

    *m_step(V, tau)* is singular value thresholding; the callers pass the
    ``svt`` bound in their own module. *x_step(x, target, rho, tol)*
    minimizes f(x) + rho/2 ||A(x) - target||_F^2 starting from *x* and
    returns the new x together with A(x); *tol* is the outer tolerance.
    Returns (M, x, scale, diagnostics) with M and x solving the problem
    for b / scale, so the caller rescales them; the residuals in the
    diagnostics, and in a raised :class:`SolverError`, are in data units.
    Zero data returns (0, x0, 0.0, ...) without iterating.
    """
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros_like(b), x0, 0.0, SolverDiagnostics(0, 0.0, 0.0, opts.rho, True)
    # every objective term is positively homogeneous, so solve on
    # unit-Frobenius data; this keeps the penalty scale data-independent
    b = b / scale
    tol = opts.tol_abs / scale + opts.tol_rel
    rho = opts.rho
    # never let the threshold 1/rho reach sigma_1, or the svt step would
    # annihilate the low-rank iterate and the iteration stalls
    lo, hi = opts.rho_bounds()
    lo = max(lo, 1.5 / float(np.linalg.svd(b, compute_uv=False)[0]))

    x = x0
    ax = np.zeros_like(b)
    u = np.zeros_like(b)
    primal = dual = np.inf

    for it in range(1, opts.max_iter + 1):
        m = m_step(b - ax - u, 1.0 / rho)
        x, ax_new = x_step(x, b - m - u, rho, tol)
        r = (m - b) + ax_new
        u = u + r
        primal = float(np.linalg.norm(r))
        dual = float(rho * np.linalg.norm(ax_new - ax))
        ax = ax_new
        if not np.isfinite(primal) or not np.isfinite(dual):
            raise SolverError(f"{what} diverged", primal * scale, dual * scale, it)
        if primal < tol and dual < tol:
            return m, x, scale, SolverDiagnostics(it, primal * scale, dual * scale, rho, True)
        if primal > _RESIDUAL_GAP * dual and rho * 2.0 <= hi:
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


class RidgeSolver:
    """Minimizer of ||W A - B||_F^2 + rho ||W||_F^2 over W.

    The Cholesky factorization of (A A^H + rho I) is computed once so
    repeated right-hand sides amortize it. With rho = 0 the matrix must be
    positive definite, i.e. A must have full row rank.
    """

    def __init__(self, a: np.ndarray, rho: float = 0.0):
        if rho < 0:
            raise ValueError("rho must be >= 0")
        a = _require_finite(np.atleast_2d(a), "A")
        gram = a @ a.conj().T
        gram[np.diag_indices_from(gram)] += rho
        try:
            self._cho = scipy.linalg.cho_factor(gram)
        except scipy.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "A A^H + rho I is singular; need rho > 0 or full row rank A"
            ) from None
        self._a = a

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = _require_finite(np.atleast_2d(b), "B")
        # W = B A^H (A A^H + rho I)^{-1}, via the Hermitian solve of W^H
        wh = scipy.linalg.cho_solve(self._cho, self._a @ b.conj().T)
        return wh.conj().T

