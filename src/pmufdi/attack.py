"""Design of temporally correlated measurement attacks.

Given a measurement block Z and an attacked-state set I, the designer
minimizes the nuclear norm of the post-attack block

    minimize_C  || Z + C Hn^T ||_*   subject to  supp(C) in I

where Hn is the row-normalized dependency matrix. The support constraint
is made exact by optimizing only over W, the columns of C in I, so the
problem reduces to an unconstrained minimize_W ||Z + W G||_* with G the
corresponding rows of Hn^T. With M = Z + W G this is the shared ADMM
driver's problem (see :mod:`pmufdi.kernels`) with f = 0 and A(W) = -W G,
so the x-step is the least-squares fit  min_W || W G - (M - Z + U) ||_F.
The solver reparametrizes W against an orthonormal basis Q of the row
space of G (G = R^H Q, W_q = W R^H), which turns that fit into the
projection  W_q = (M - Z + U) Q^H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blocks import MeasurementBlock
from .kernels import (
    _RHO,
    SolverDiagnostics,
    SolverError,
    SolverOptions,
    _admm,
    nuclear_norm,
    svt,
)
from .measurements import DependencyMatrix


@dataclass(frozen=True)
class AttackScenario:
    attacked_buses: tuple[int, ...]
    c: np.ndarray                  # (N, n_bus) complex; zero outside the set
    attacked_block: MeasurementBlock
    objective: float               # nuclear norm of the post-attack block
    baseline_objective: float      # nuclear norm of the clean block
    diagnostics: SolverDiagnostics


def design_attack(
    block: MeasurementBlock,
    dep: DependencyMatrix,
    attacked_buses,
    options: SolverOptions | None = None,
) -> AttackScenario:
    """Solve the attack program for *attacked_buses* on *block*.

    An empty set returns the trivial scenario C = 0. Raises
    :class:`SolverError` when the ADMM iteration exhausts its budget.
    """
    opts = options or SolverOptions()
    block.check_dependency(dep)
    z = block.z
    attacked = tuple(sorted(set(int(b) for b in attacked_buses)))
    baseline = nuclear_norm(z)

    if not attacked:
        c = np.zeros((block.n_steps, dep.n_states), dtype=complex)
        diag = SolverDiagnostics(0, 0.0, 0.0, _RHO)
        return AttackScenario(
            attacked_buses=(), c=c,
            attacked_block=apply_attack(block, c, dep),
            objective=baseline, baseline_objective=baseline, diagnostics=diag,
        )

    cols = [dep.column_index(b) for b in attacked]
    g = dep.h_normalized[:, cols].T.copy()     # (|I|, n_z)
    w, diag = _minimize_postattack_norm(z, g, opts)

    c = np.zeros((block.n_steps, dep.n_states), dtype=complex)
    c[:, cols] = w
    c.setflags(write=False)
    attacked_block = apply_attack(block, c, dep)
    return AttackScenario(
        attacked_buses=attacked,
        c=c,
        attacked_block=attacked_block,
        objective=nuclear_norm(attacked_block.z),
        baseline_objective=baseline,
        diagnostics=diag,
    )


def _minimize_postattack_norm(
    z: np.ndarray, g: np.ndarray, opts: SolverOptions
) -> tuple[np.ndarray, SolverDiagnostics]:
    # the image {W G} is the row space of G, so W may be reparametrized
    # against an orthonormal basis Q of that space (G = R^H Q); the
    # constraint then involves an isometry, which makes the iteration
    # immune to badly scaled dictionary rows
    q_cols, r_tri = np.linalg.qr(g.conj().T)
    diag = np.abs(np.diag(r_tri))
    if diag.min() <= 1e-12 * diag.max():
        raise SolverError("attack dictionary rows are linearly dependent", np.inf, np.inf, 0)
    q = q_cols.conj().T                     # (k, n_z), orthonormal rows

    def step(wq, target, rho):
        # A(W_q) = -W_q Q and Q Q^H = I, so the fit of W_q Q to
        # -target = M - Z + U is its projection onto the rows of Q
        wq = -target @ q_cols
        return wq, -(wq @ q)

    wq0 = np.zeros((z.shape[0], g.shape[0]), dtype=complex)
    _, wq, scale, diag = _admm(z, svt, step, wq0, opts, "attack design")
    # undo the reparameterization: W R^H = W_q
    w = scipy.linalg.solve_triangular(r_tri, wq.conj().T, lower=False).conj().T
    return w * scale, diag


def naive_ramp_attack(
    block: MeasurementBlock,
    dep: DependencyMatrix,
    attacked_buses,
    scale: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, MeasurementBlock]:
    """Column-sparse attack that ignores the data's temporal structure.

    Each attacked state gets a smooth ramp with a random phase and random
    curvature, scaled to *scale* (p.u. at the ramp end). Such a time
    course is essentially never in the column space of a low-rank block,
    which is the regime where the decomposition detector recovers the
    attacked set. Returns (C, attacked block).
    """
    rng = np.random.default_rng(seed)
    n = block.n_steps
    c = np.zeros((n, dep.n_states), dtype=complex)
    base = np.linspace(0.0, 1.0, n)
    for bus in attacked_buses:
        shape = base ** rng.uniform(0.5, 2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        c[:, dep.column_index(bus)] = scale * shape * phase
    c.setflags(write=False)
    return c, apply_attack(block, c, dep)


def apply_attack(
    block: MeasurementBlock, c: np.ndarray, dep: DependencyMatrix
) -> MeasurementBlock:
    """Post-attack block Z + C Hn^T with metadata copied from *block*."""
    c = np.asarray(c)
    if c.shape != (block.n_steps, dep.n_states):
        raise ValueError(
            f"attack matrix shape {c.shape} does not match "
            f"({block.n_steps}, {dep.n_states})"
        )
    block.check_dependency(dep)
    z = block.z + c @ dep.h_normalized.T
    return MeasurementBlock(
        z=z,
        rate_hz=block.rate_hz,
        start_index=block.start_index,
        labels=block.labels,
        dependency_digest=block.dependency_digest,
        attacked=True,
    )


def induced_measurement_support(
    c: np.ndarray, dep: DependencyMatrix, eps: float = 0.0
) -> tuple[int, ...]:
    """Channels whose column of C Hn^T has norm above eps times the largest.

    With eps = 0 this is the structural support, which always lies inside
    the measurement set of supp(C).
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    d = np.asarray(c) @ dep.h_normalized.T
    norms = np.linalg.norm(d, axis=0)
    top = norms.max(initial=0.0)
    if top == 0.0:
        return ()
    return tuple(int(i) for i in np.flatnonzero(norms > eps * top))
