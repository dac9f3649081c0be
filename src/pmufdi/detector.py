"""Low-rank plus column-sparse decomposition detector.

The detector splits an observed block Zbar into a low-rank part and a
column-sparse attack term routed through the normalized dependency matrix:

    minimize  || M ||_*  +  weight * || C ||_{1,2}
    subject to  M + C Hn^T = Zbar

This is the package's one iterative solver, a scaled ADMM with G = Hn^T:

    M-step:  M = svt(Zbar - C G - U, 1/rho)
    C-step:  C = shrink_columns(C - (C G - (Zbar - M - U)) G^H / smax(G)^2,
                                weight / (rho smax(G)^2))
    dual:    U += M + C G - Zbar

The exact C-step would be a group-lasso problem with a general
dictionary, which has no closed form. It is instead linearized, as in
LADMAP (Lin, Liu & Su, "Linearized alternating direction method with
adaptive penalty for low-rank representation", NeurIPS 2011): one
proximal-gradient step on the augmented term from the previous C, which
is a single column shrink per iteration. The solver works on data scaled
to unit Frobenius norm, stops when both the primal residual
||M + C G - Zbar|| and the dual residual rho ||C G - C_prev G|| fall
below tol_rel * ||Zbar||_F, and rebalances the penalty by doubling or
halving it when one residual exceeds the other tenfold.

Support identification thresholds the stored column norms at a relative
fraction of the largest norm, with an absolute floor so that an
all-but-zero attack term yields an empty support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .blocks import MeasurementBlock
from .kernels import (
    SolverDiagnostics,
    SolverError,
    SolverOptions,
    l12_norm,
    nuclear_norm,
    shrink_columns,
    svt,
)
from .measurements import DependencyMatrix

_CERTIFICATE_TOL = 1e-6
_RESIDUAL_GAP = 10.0
# starting penalty; the data are normalized to unit Frobenius norm, so it
# refers to the normalized problem
_RHO = 1.0
# range the adapted penalty stays in: an uncontrolled downward run feeds
# back through the scaled dual variable and blows the iterates up, while
# too low a ceiling leaves residuals parked just above tolerance
_RHO_MIN = _RHO / 1024.0
_RHO_MAX = _RHO * 2.0 ** 20


class Outcome(str, Enum):
    CLEAN = "clean"
    BYPASSED = "bypassed"
    DETECTED_WITHIN_SET = "detected-within-set"
    DETECTED_OUTSIDE_SET = "detected-outside-set"


@dataclass(frozen=True)
class ThresholdPolicy:
    """A column is flagged when its norm exceeds
    max(rel * largest column norm, floor * ||Zbar||_F / sqrt(N * n_cols)).

    The floor must sit above the solver's residual scale: even on clean
    data the exact optimum can carry columns a few orders of magnitude
    above machine precision, while genuine attack columns are larger by
    a factor of 1e5 or more.
    """
    rel: float = 1e-3
    floor: float = 1e-4

    def __post_init__(self):
        if not 0 <= self.rel < 1:
            raise ValueError(f"rel must be in [0, 1), got {self.rel!r}")
        if not self.floor >= 0:
            raise ValueError(f"floor must be >= 0, got {self.floor!r}")


@dataclass(frozen=True)
class DetectionResult:
    z_lowrank: np.ndarray                   # (N, n_z) complex
    c: np.ndarray                           # (N, n_bus) complex attack term
    weight: float                           # group-sparsity weight used
    state_column_norms: np.ndarray          # per state column of c
    channel_column_norms: np.ndarray        # per column of c Hn^T
    state_support: tuple[int, ...]          # flagged bus ids
    channel_support: tuple[int, ...]        # flagged channel labels' indices
    observed_frob: float                    # ||Zbar||_F
    feasibility_residual: float             # ||Zbar - M - C Hn^T||_F
    objective: float
    bus_ids: tuple[int, ...]
    labels: tuple[str, ...]
    diagnostics: SolverDiagnostics


def detect(
    block: MeasurementBlock,
    dep: DependencyMatrix,
    weight: float = 1.05,
    options: SolverOptions | None = None,
    thresholds: ThresholdPolicy | None = None,
) -> DetectionResult:
    """Run the decomposition on *block* and identify attacked columns."""
    if not weight > 0:
        raise ValueError(f"weight must be positive, got {weight}")
    opts = options or SolverOptions()
    thresholds = thresholds or ThresholdPolicy()
    block.check_dependency(dep)
    zbar = block.z

    g = dep.h_normalized.T                   # (n_bus, n_z)
    m, c, diag = _decompose(zbar, g, weight, opts)

    residual = float(np.linalg.norm(zbar - m - c @ g))
    objective = nuclear_norm(m) + weight * l12_norm(c)
    baseline = nuclear_norm(zbar)
    if objective > baseline * (1.0 + _CERTIFICATE_TOL):
        raise SolverError(
            f"objective certificate violated: {objective:.6g} > {baseline:.6g}",
            diag.primal_residual, diag.dual_residual, diag.iterations,
        )

    result = DetectionResult(
        z_lowrank=m,
        c=c,
        weight=weight,
        state_column_norms=np.linalg.norm(c, axis=0),
        channel_column_norms=np.linalg.norm(c @ g, axis=0),
        state_support=(),
        channel_support=(),
        observed_frob=float(np.linalg.norm(zbar)),
        feasibility_residual=residual,
        objective=objective,
        bus_ids=dep.bus_ids,
        labels=dep.row_labels,
        diagnostics=diag,
    )
    state, channel = identify_support(result, thresholds)
    return replace(result, state_support=state, channel_support=channel)


def _decompose(
    zbar: np.ndarray, g: np.ndarray, weight: float, opts: SolverOptions
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Solve the program by the ADMM of the module docstring.

    Returns (M, C, diagnostics); the residuals in the diagnostics, and in
    a raised :class:`SolverError`, are in data units. Zero data returns
    zeros without iterating.
    """
    c = np.zeros((zbar.shape[0], g.shape[0]), dtype=complex)
    scale = float(np.linalg.norm(zbar))
    if scale == 0.0:
        return np.zeros_like(zbar), c, SolverDiagnostics(0, 0.0, 0.0, _RHO)
    # every objective term is positively homogeneous, so solve on
    # unit-Frobenius data; this keeps the penalty scale data-independent
    b = zbar / scale
    gh = g.conj().T
    smax2 = float(np.linalg.svd(g, compute_uv=False)[0] ** 2)
    rho = _RHO
    # never let the threshold 1/rho reach sigma_1, or the svt step would
    # annihilate the low-rank iterate and the iteration stalls
    lo = max(_RHO_MIN, 1.5 / float(np.linalg.svd(b, compute_uv=False)[0]))

    cg = np.zeros_like(b)                    # C G
    u = np.zeros_like(b)
    primal = dual = np.inf

    for it in range(1, opts.max_iter + 1):
        m = svt(b - cg - u, 1.0 / rho)
        # linearized C-step: minimize weight ||C||_{1,2} plus the
        # quadratic majorizer of rho/2 ||C G - target||_F^2 at the
        # previous C, whose curvature rho * smax2 bounds the Hessian
        target = b - m - u
        c = shrink_columns(c - ((cg - target) @ gh) / smax2, weight / (rho * smax2))
        cg_new = c @ g
        r = (m - b) + cg_new
        u = u + r
        primal = float(np.linalg.norm(r))
        dual = float(rho * np.linalg.norm(cg_new - cg))
        cg = cg_new
        if not np.isfinite(primal) or not np.isfinite(dual):
            raise SolverError("detection diverged", primal * scale, dual * scale, it)
        if primal < opts.tol_rel and dual < opts.tol_rel:
            diag = SolverDiagnostics(it, primal * scale, dual * scale, rho)
            return m * scale, c * scale, diag
        if primal > _RESIDUAL_GAP * dual and rho * 2.0 <= _RHO_MAX:
            rho *= 2.0
            u /= 2.0
        elif dual > _RESIDUAL_GAP * primal and rho / 2.0 >= lo:
            rho /= 2.0
            u *= 2.0

    raise SolverError("detection did not converge", primal * scale, dual * scale, opts.max_iter)


def identify_support(
    result: DetectionResult, thresholds: ThresholdPolicy | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Flagged (state bus ids, channel indices) from the stored norms."""
    thresholds = thresholds or ThresholdPolicy()

    def flagged(norms: np.ndarray) -> np.ndarray:
        if norms.size == 0:
            return np.array([], dtype=int)
        floor = thresholds.floor * result.observed_frob / np.sqrt(norms.size * max(result.c.shape[0], 1))
        cut = max(thresholds.rel * float(norms.max()), floor)
        return np.flatnonzero(norms > cut)

    states = tuple(result.bus_ids[i] for i in flagged(result.state_column_norms))
    channels = tuple(int(i) for i in flagged(result.channel_column_norms))
    return states, channels


def classify_outcome(result: DetectionResult, injected_buses=None) -> Outcome:
    """Judge the detection against the injected set.

    *injected_buses* is the attacked-state set actually used to build the
    block, or None/empty when the block is attack-free.
    """
    injected = frozenset(int(b) for b in injected_buses) if injected_buses else frozenset()
    support = frozenset(result.state_support)
    if not support:
        return Outcome.BYPASSED if injected else Outcome.CLEAN
    if injected and support <= injected:
        return Outcome.DETECTED_WITHIN_SET
    return Outcome.DETECTED_OUTSIDE_SET
