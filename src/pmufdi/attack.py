"""Design of temporally correlated measurement attacks.

Given a measurement block Z and an attacked-state set I, the attack is
defined, as in the paper, by the convex program

    minimize_C  || Z + C Hn^T ||_*   subject to  supp(C) in I

where Hn is the row-normalized dependency matrix. Optimizing only over
W, the columns of C in I, makes the support constraint exact: the
program is minimize_W ||Z + W G||_* with G the rows of Hn^T that I
selects, which must be linearly independent.

The program has a unique solution in closed form, so no solver runs.
Factor G = R^H Q, with Q orthonormal rows and R invertible, and let
P = Q^H Q. Every W G is X Q with X = W R^H. Complete Q to a unitary
U = [Q^H  Q_perp^H]; then (Z + X Q) U = [Z Q^H + X | Z Q_perp^H].
Deleting columns never raises a singular value (interlacing for
submatrices; Horn & Johnson, *Topics in Matrix Analysis*, Sec. 3.1), so

    || Z + W G ||_*  >=  || Z Q_perp^H ||_*  =  || Z (I - P) ||_*.

Equality needs X = -Z Q^H: any other X adds Frobenius mass, so some
singular value grows strictly while none falls. The optimal post-attack
block is therefore the projection M* = Z (I - P), reached by
W = -Z Q^H R^(-H) alone.

Row t of M* is z_t (I - P), and P depends only on the attacked set, so
the attack works sample by sample and the attacker needs no knowledge
of the detector's window: the attack designed on a whole block and cut
to a window equals, to rounding, the attack designed on that window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MeasurementBlock
from .detector import SolverDiagnostics
from .kernels import (
    nuclear_norm,
    svt,  # not called here; perfbench/tracer.py wraps pmufdi.attack.svt
)
from .measurements import DependencyMatrix


@dataclass(frozen=True)
class AttackScenario:
    attacked_buses: tuple[int, ...]
    c: np.ndarray                  # (N, n_bus) complex; zero outside the set
    attacked_block: MeasurementBlock
    objective: float               # nuclear norm of the post-attack block
    # no solver runs; perfbench/tracer.py's attack.design span reads .iterations
    diagnostics: SolverDiagnostics = SolverDiagnostics(0, 0.0, 0.0, 1.0)


def design_attack(
    block: MeasurementBlock,
    dep: DependencyMatrix,
    attacked_buses,
    options=None,  # unused; perfbench/micro.py passes it
) -> AttackScenario:
    """Solve the attack program for *attacked_buses* on *block*.

    An empty set returns the trivial scenario C = 0. Raises ValueError,
    naming the attacked buses, when their rows of Hn^T are linearly
    dependent, since the program then has no unique solution.
    """
    block.check_dependency(dep)
    z = block.z
    attacked = tuple(sorted(set(int(b) for b in attacked_buses)))

    c = np.zeros((block.n_steps, dep.n_states), dtype=complex)
    if attacked:
        cols = [dep.column_index(b) for b in attacked]
        try:
            c[:, cols] = _minimize_postattack_norm(z, dep.h_normalized[:, cols].T)
        except ValueError as exc:
            raise ValueError(f"attacked buses {attacked}: {exc}") from None
    c.setflags(write=False)
    attacked_block = apply_attack(block, c, dep)
    return AttackScenario(
        attacked_buses=attacked,
        c=c,
        attacked_block=attacked_block,
        objective=nuclear_norm(attacked_block.z if attacked else z),
    )


def _minimize_postattack_norm(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The W minimizing ||Z + W G||_*, -Z Q^H R^(-H); see the module docstring."""
    q_cols, r_tri = np.linalg.qr(g.conj().T)     # G^H = Q^H R
    diag = np.abs(np.diag(r_tri))
    if diag.min() <= 1e-12 * diag.max():
        raise ValueError("their rows of the attack dictionary are linearly dependent")
    wq = -(z @ q_cols)
    # undo the reparameterization: W R^H = W_q
    # R is upper triangular, so the LU inside solve swaps no rows
    return np.linalg.solve(r_tri, wq.conj().T).conj().T


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
