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
below tol_rel * ||Zbar||_F, or earlier where its M-step certifies the
bypass (below), and rebalances the penalty by doubling or halving it
when one residual exceeds the other tenfold.

The three steps map the state x = (C, U) to T(x). Where the attack term
does not vanish, plain iteration of T parks its primal residual just
above tolerance for thousands of steps, so from iteration 30 on the
solver extrapolates by type-II Anderson acceleration with memory 5 (Fu,
Zhang & Boyd, "Anderson accelerated Douglas-Rachford splitting", SIAM
J. Sci. Comput. 2020, arXiv:1908.11482): the next point mixes the last
images T(x) with real weights that minimize the norm of the mixed
fixed-point residual T(x) - x, and a step longer than 30 plain steps
||T(x) - x|| is cut back to that length. The weights solve the normal
equations of that least-squares problem, a system of at most 5 x 5
(Walker & Ni, "Anderson acceleration for fixed-point iterations", SIAM
J. Numer. Anal. 2011), by LU; only where a repeated residual difference
makes its Gram matrix exactly singular, so that the LU fails, are they
numpy's least-squares solution of least norm. The state is held as one
buffer [C | U], so that T(x) - x is one subtraction and the mixing
reads x as one vector. The history restarts whenever the penalty
changes, since that changes T. The safeguard (Zhang,
O'Donoghue & Boyd, "Globally convergent type-I Anderson acceleration for
nonsmooth fixed-point iterations", SIAM J. Optim. 2020,
arXiv:1808.03971) keeps an extrapolated point only if its residual
||T(x) - x|| is below that of the point it came from; otherwise the
solver goes on from the plain image of that point, which it already
has. Every evaluation of T counts as one iteration, rejected ones
included. A call that stops within 29 iterations runs plain ADMM, as
most calls on the shipped configs that the loop's certificate stops do.

Before the loop runs, a duality-gap screen tries to certify the point
(M, C) = (Zbar, 0), the paper's bypass, as optimal. The dual of the
program is

    maximize  Re <Y, Zbar>
    subject to  ||Y||_2 <= 1  and  ||Y g_j^H|| <= weight for every row g_j of G

(the Lagrangian's infimum over M is finite only where ||Y||_2 <= 1, and
over column j of C only where ||Y g_j^H|| <= weight). From the SVD
Zbar = U diag(s) V^H, for every rank r the matrix

    Y_r = U_r V_r^H / max(1, kappa_r),  kappa_r = max_j ||V_r^H g_j^H|| / weight,

is dual feasible, with dual objective (s_1 + ... + s_r) / max(1, kappa_r),
while (Zbar, 0) has primal objective sum(s). So

    gap_r = (sum(s) - (s_1 + ... + s_r) / max(1, kappa_r)) / sum(s)

bounds the relative suboptimality of (Zbar, 0), and all r come at once
from a cumulative sum of |V^H G^H|^2 down the singular index. Where the
least gap_r is at most tol_rel, ``detect`` returns M = Zbar and C = 0,
with zero iterations and a feasibility residual of 0, and the loop does
not run: a duality gap is a stronger stop than the loop's residuals.
This is the dual certificate of outlier pursuit (Xu, Caramanis &
Sanghavi, "Robust PCA via outlier pursuit", IEEE Trans. Inf. Theory
2012), used as a gap-safe test (Ndiaye, Fercoq, Gramfort & Salmon, "Gap
safe screening rules for sparsity-enforcing penalties", JMLR 2017). On
the shipped configs at block seed 2024 it certifies 76 of the 114
24-bus scenarios and 141 of the 144 118-bus ones, and the loop's
certificate below stops all but one of the others. The same SVD gives
the objective bound sum(s) and s_1, which sets the loop's penalty floor.

Where the screen does not certify, the loop runs in the column space of
Zbar. Every column of Zbar lies in W = range(Zbar). If (M, C) is
feasible, so is (P_W M, P_W C), and neither ||M||_* nor ||C||_{1,2}
grows under the projection, so an optimum lies in W. Every iterate stays
there too: the M-step, the linearized C-step, the dual update and the
Anderson mixes only combine matrices whose columns lie in W. So
``detect`` keeps U from the screen's SVD, runs the loop on the k x n_z
block diag(s_1..s_k) V_k^H and lifts the answer back as M = U_k M~ and
C = U_k C~. The rows cut away form D = U diag(0..0, s_k+1..) V^H, and k
is the least height for which

    ||D||_F = ||(s_k+1, s_k+2, ...)|| <= 1e-3 tol_rel ||Zbar||_F,

a cut tied to the loop's own stop rather than to machine precision. The
lifted residual Zbar - M - C G is U_k times the loop's residual plus D,
two parts with orthogonal columns, so it stays within
tol_rel ||Zbar||_F sqrt(1 + 1e-6). The optimal value moves by at most
||D||_* <= sqrt(min(N, n_z)) ||D||_F, since adding a matrix D to M turns
a feasible point for Zbar - D into one for Zbar at a cost of at most
||D||_*. The feasibility residual, the objective check and support
identification are computed against the original Zbar. The spectra of
the shipped windows fall fast: at block seed 2024, k is 9-10 on the 38
unscreened 24-bus experiment rows, 6-11 on the 24-bus naive ramps and
16 on the 3 unscreened 118-bus rows, of 60 rows, where numpy's
``matrix_rank`` cut keeps 17-18, 13-19 and 26. This is the reduction
that low-rank representation makes in the row space of its data (Liu,
Lin, Yan, Sun, Yu & Ma, "Robust recovery of subspace structures by
low-rank representation", IEEE TPAMI 2013, section 4.1), made here in
the column space.

Inside the loop, every M-step M = svt(A, 1/rho) on the block
b = diag(s_1..s_k) V_k^H / scale, scaled to unit Frobenius norm by
scale = ||(s_1..s_k)||, yields a second dual point: Y = rho (A - M), a
subgradient of the nuclear norm at M, so that ||Y||_2 <= 1 where svt is
exact. Divided by

    kappa = max(1, ||Y||_2, max_j ||Y g_j^H|| / weight),

it is dual feasible for the block, and U_k Y / kappa is dual feasible for
Zbar itself with the same value scale Re <Y, b> / kappa, since U_k^H Zbar
is the unscaled block. So

    gap = (sum(s) - scale Re <Y, b> / kappa) / sum(s),

with sum(s) the whole spectrum's, the cut tail included, bounds the
relative suboptimality of (Zbar, 0), and where it is at most tol_rel
the loop stops and ``detect`` returns what the screen returns: M = Zbar,
C = 0, a feasibility residual of 0 and the objective sum(s), now after
the iterations the loop ran. The dual point is taken from the primal
iterates, as in Celer (Massias, Gramfort & Salmon, "Celer: a fast
solver for the Lasso with dual extrapolation", ICML 2018), and the test
costs one inner product in an iteration where it fails at once: it
first checks the dual value before scaling (kappa >= 1 only lowers a
positive one), then the columns Y g_j^H, which are the C-step's gradient
(M - A) G^H / smax(G)^2 times -rho smax(G)^2, and only then takes the
exact ||Y||_2 by one small SVD. The exact norm keeps the certificate
valid where svt's eigenvalue cut drops a singular value just above 1/rho,
so that ||A - M||_2 exceeds the threshold. At block seed 2024 it stops
37 of the 38 unscreened 24-bus experiment rows, 33 of them at iteration
28-30 and the other 4 at 115-271, and all 3 unscreened 118-bus ones, at
23-29; the loop's iterations on the 24-bus experiment fall from 3,386
to 1,887. It stops no naive ramp, whose attack term does not vanish.

The M-step's ``svt`` takes no SVD: it thresholds through the Hermitian
eigendecomposition of the k x k Gram of its k x n_z input, which costs
less (:func:`pmufdi.kernels.svt`). Squaring the singular values
makes its error grow as the threshold falls, but 1/rho is at least
2**-20 on the unit-Frobenius data, and on the shipped configs every
M-step thresholds at 9.5e-7 s_1 of its input or above, where the error
stays below 1.3e-9 s_1.

``detect`` thresholds the column norms of C and C Hn^T once, as it builds
its result, at a relative fraction of the largest norm, with an absolute
floor so that an all-but-zero attack term yields an empty support.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .blocks import MeasurementBlock
from .kernels import l12_norm, nuclear_norm, shrink_columns, svt
from .measurements import DependencyMatrix

log = logging.getLogger(__name__)

_CERTIFICATE_TOL = 1e-6
# the loop runs on the rows of the column-space block whose singular-value
# tail outweighs this fraction of tol_rel * ||Zbar||_F; the rows cut away
# then lie three orders of magnitude below the residuals the loop stops at
_RANK_CUT = 1e-3
_RESIDUAL_GAP = 10.0
# Anderson acceleration: the first iteration that may evaluate an
# extrapolated point (most calls that the loop's certificate stops on the
# shipped configs stop within 29 plain steps), and the number of residual
# differences mixed
_ANDERSON_START = 30
_ANDERSON_MEMORY = 5
# longest extrapolation step, in lengths ||T(x) - x|| of the plain one:
# where the residual barely changes between iterates, the weights follow
# a near-flat secant hundreds of lengths out, and the safeguard rejected
# nearly every such step; cut back to this length, most are kept
_ANDERSON_REACH = 30.0
# starting penalty; the data are normalized to unit Frobenius norm, so it
# refers to the normalized problem
_RHO = 1.0
# ceiling of the adapted penalty: too low a ceiling leaves residuals
# parked just above tolerance; the floor depends on the data (_decompose)
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
    a factor of 1e5 or more. An infinite floor would flag nothing.
    """
    rel: float = 1e-3
    floor: float = 1e-4

    def __post_init__(self):
        if not 0 <= self.rel < 1:
            raise ValueError(f"rel must be in [0, 1), got {self.rel!r}")
        if not 0 <= self.floor < math.inf:
            raise ValueError(f"floor must be finite and >= 0, got {self.floor!r}")


@dataclass(frozen=True)
class SolverOptions:
    """Settings of the detector's ADMM.

    *max_iter* is the iteration budget, after which :class:`SolverError`
    is raised. Convergence requires both residuals to fall below
    ``tol_rel * ||data||_F``. *tol_rel* must lie in (0, 1): the
    detector's screen compares it with a relative duality gap, which is
    at most 1, so a tolerance of 1 or more would certify every block.
    """
    max_iter: int = 5000
    tol_rel: float = 1e-7

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.tol_rel < 1:
            raise ValueError(f"tol_rel must be in (0, 1), got {self.tol_rel!r}")


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
    turned away. :func:`pmufdi.detector.detect` records *gap*, the
    duality-gap screen's best relative gap for the point (Zbar, 0), on
    every call, screened or not, and *rank*, the number of rows of the
    column-space block the loop ran on, on every call that ran it; each
    is None where no screen ran or no loop ran. *loop_gap* is the
    relative gap of (Zbar, 0) that the loop's certificate proved where
    the loop stopped on it, and None elsewhere."""
    iterations: int
    primal_residual: float
    dual_residual: float
    rho: float
    extrapolated: int = 0
    rejected: int = 0
    gap: float | None = None
    rank: int | None = None
    loop_gap: float | None = None


@dataclass(frozen=True)
class DetectionResult:
    z_lowrank: np.ndarray                   # (N, n_z) complex
    c: np.ndarray                           # (N, n_bus) complex attack term
    state_column_norms: np.ndarray          # per state column of c
    state_support: tuple[int, ...]          # flagged bus ids
    channel_support: tuple[int, ...]        # flagged indices into dep.row_labels
    feasibility_residual: float             # ||Zbar - M - C Hn^T||_F
    objective: float
    diagnostics: SolverDiagnostics

    @property
    def max_state_column_norm(self) -> float:
        """The largest state column norm of c; 0 where c has no columns."""
        return float(self.state_column_norms.max(initial=0.0))


def detect(
    block: MeasurementBlock,
    dep: DependencyMatrix,
    weight: float = 1.05,
    options: SolverOptions | None = None,
    thresholds: ThresholdPolicy | None = None,
) -> DetectionResult:
    """Run the decomposition on *block* and identify attacked columns.

    Where the duality-gap screen of the module docstring certifies
    (Zbar, 0), the ADMM does not run; otherwise it runs in the column
    space of Zbar, and either its M-step certifies (Zbar, 0), which is
    then returned as the screen returns it, or its answer is lifted back
    and checked against Zbar itself."""
    if not 0 < weight < math.inf:
        raise ValueError(f"weight must be positive and finite, got {weight}")
    opts = options or SolverOptions()
    thresholds = thresholds or ThresholdPolicy()
    block.check_dependency(dep)
    zbar = block.z

    g = dep.h_normalized.T                   # (n_bus, n_z)
    u, s, vh = np.linalg.svd(zbar, full_matrices=False)
    baseline = float(np.sum(s))
    gap = _screen_gap(s, vh, g, weight)
    certified = gap <= opts.tol_rel
    if certified:
        diag = SolverDiagnostics(0, 0.0, 0.0, _RHO, gap=gap)
    else:
        k = _column_space_rank(s, opts.tol_rel)
        m, c, diag = _decompose(s[:k, None] * vh[:k], g, weight, opts, dep.smax2, s)
        diag = replace(diag, gap=gap, rank=k)
        if diag.iterations > opts.max_iter / 2:
            log.warning("detection converged after %d of its %d-iteration budget",
                        diag.iterations, opts.max_iter)
        certified = diag.loop_gap is not None
    if certified:
        m, c = zbar.copy(), np.zeros((zbar.shape[0], g.shape[0]), dtype=complex)
        residual, objective = 0.0, baseline
        channel_norms = np.zeros(g.shape[1])
    else:
        m, c = u[:, :k] @ m, u[:, :k] @ c
        cg = c @ g
        residual = float(np.linalg.norm(zbar - m - cg))
        objective = nuclear_norm(m) + weight * l12_norm(c)
        if objective > baseline * (1.0 + _CERTIFICATE_TOL):
            raise SolverError(
                f"objective certificate violated: {objective:.6g} > {baseline:.6g}",
                diag.primal_residual, diag.dual_residual, diag.iterations,
            )
        channel_norms = np.linalg.norm(cg, axis=0)

    state_norms = np.linalg.norm(c, axis=0)
    frob = float(np.linalg.norm(zbar))
    return DetectionResult(
        z_lowrank=m,
        c=c,
        state_column_norms=state_norms,
        state_support=tuple(dep.bus_ids[i]
                            for i in _flagged(state_norms, frob, c.shape[0], thresholds)),
        channel_support=tuple(int(i)
                              for i in _flagged(channel_norms, frob, c.shape[0], thresholds)),
        feasibility_residual=residual,
        objective=objective,
        diagnostics=diag,
    )


def _flagged(
    norms: np.ndarray, frob: float, n_rows: int, thresholds: ThresholdPolicy
) -> np.ndarray:
    """Indices of the column *norms* of an *n_rows*-row matrix that
    :class:`ThresholdPolicy` flags, for data of Frobenius norm *frob*."""
    if norms.size == 0:
        return np.array([], dtype=int)
    floor = thresholds.floor * frob / np.sqrt(norms.size * max(n_rows, 1))
    return np.flatnonzero(norms > max(thresholds.rel * float(norms.max()), floor))


def _column_space_rank(s: np.ndarray, tol_rel: float) -> int:
    """The height k of the column-space block: the least k for which the
    tail ||s[k:]|| of the descending singular values *s*, led by a nonzero
    one, is at most _RANK_CUT * tol_rel * ||s|| (module docstring)."""
    # tail norms ||s[i:]||, on s / s_1 so that the squares do not overflow;
    # a running sum of nonnegative terms never falls, so neither do they
    tails = np.sqrt(np.cumsum((s[::-1] / s[0]) ** 2))[::-1]
    return int(np.count_nonzero(tails > _RANK_CUT * tol_rel * tails[0]))


def _screen_gap(s: np.ndarray, vh: np.ndarray, g: np.ndarray, weight: float) -> float:
    """The screen's least relative duality gap gap_r over the ranks r, from
    the singular values *s* and right vectors *vh* of Zbar (module
    docstring); 0 for zero data, where (0, 0) is exactly optimal."""
    total = float(np.sum(s))
    if total == 0.0:
        return 0.0
    # ||V_r^H g_j^H||^2 for every rank r (rows) and row g_j of G (columns)
    reach = np.cumsum(np.abs(vh @ g.conj().T) ** 2, axis=0)
    kappa = np.sqrt(reach.max(axis=1)) / weight
    gaps = total - np.cumsum(s) / np.maximum(1.0, kappa)
    return max(0.0, float(gaps.min()) / total)


def _loop_gap(
    d: np.ndarray, grad: np.ndarray, b: np.ndarray, rho: float, smax2: float,
    weight: float, bypass: float, tol_rel: float,
) -> float | None:
    """The relative duality gap of the bypass point that the loop's M-step
    certifies, or None where it exceeds *tol_rel* (module docstring).

    *d* is M - A for the M-step M = svt(A, 1/rho) on the unit-Frobenius
    data *b*, *grad* is the C-step's gradient d G^H / *smax2*, and
    *bypass* is the objective of the bypass point on the same data. The
    dual point is Y = -rho d, scaled by kappa = max(1, ||Y||_2,
    max_j ||Y g_j^H|| / weight). Each test costs more than the one before
    it and fails for good: kappa >= 1 only lowers a positive dual value.
    """
    value = -rho * np.vdot(d, b).real
    if bypass - value > tol_rel * bypass:
        return None
    # ||Y g_j^H|| = rho smax2 ||grad_j||
    reach = rho * smax2 * math.sqrt(float(np.max(np.sum(np.abs(grad) ** 2, axis=0))))
    kappa = max(1.0, reach / weight)
    if bypass - value / kappa > tol_rel * bypass:
        return None
    # the exact ||Y||_2: where svt's eigenvalue cut binds, ||A - M||_2 can
    # exceed the threshold 1/rho
    kappa = max(kappa, rho * float(np.linalg.norm(d, 2)))
    gap = max(0.0, (bypass - value / kappa) / bypass)
    return gap if gap <= tol_rel else None


def _decompose(
    zbar: np.ndarray, g: np.ndarray, weight: float, opts: SolverOptions,
    smax2: float, s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Solve the program by the ADMM of the module docstring.

    *smax2* is smax(G)^2 and *s* is the descending spectrum of the data
    whose column-space block *zbar* is: all of it, the cut tail included,
    or the spectrum of *zbar* itself. Returns (M, C, diagnostics); the
    residuals in the diagnostics, and in a raised :class:`SolverError`,
    are in data units. Where the loop's certificate stops it, (M, C) is
    (zbar, 0), the residuals read 0, and the diagnostics' *loop_gap*
    holds the certified gap. *zbar* must be nonzero; ``detect``'s screen
    certifies zero data before the loop.
    """
    n_bus = g.shape[0]
    scale = float(np.linalg.norm(zbar))
    # the objective of the bypass point (Zbar, 0) on the unit-Frobenius data
    bypass = float(np.sum(s)) / scale
    # every objective term is positively homogeneous, so solve on
    # unit-Frobenius data; this keeps the penalty scale data-independent
    b = zbar / scale
    # the C-step's gradient map G^H, divided once by its step's curvature
    gh = g.conj().T / smax2
    rho = _RHO
    # halve the penalty no lower than 1.5 / sigma_1(b), which is at least
    # 1.5 as ||b||_F = 1: the threshold 1/rho never reaches sigma_1, or the
    # svt step would annihilate the low-rank iterate and the iteration
    # stall, and no downward run feeds back through the scaled dual
    # variable to blow the iterates up
    lo = 1.5 * scale / float(s[0])

    # the state x = [C | U] in one buffer, so that the fixed-point
    # residual T(x) - x is one subtraction and Anderson reads x as a vector
    x = np.zeros((b.shape[0], n_bus + b.shape[1]), dtype=complex)
    cg = np.zeros_like(b)                    # C G
    primal = dual = math.inf
    mix = _Anderson()
    # (image, its C G, fixed-point residual) of the point an extrapolated
    # one came from
    base = None
    extrapolated = rejected = 0

    for it in range(1, opts.max_iter + 1):
        c, u = x[:, :n_bus], x[:, n_bus:]
        a = b - cg - u
        m = svt(a, 1.0 / rho)
        # linearized C-step: minimize weight ||C||_{1,2} plus the
        # quadratic majorizer of rho/2 ||C G - target||_F^2 at the
        # previous C, whose curvature rho * smax2 bounds the Hessian; with
        # target = b - M - U, the gradient's C G - target is M - A
        d = m - a
        grad = d @ gh
        loop_gap = _loop_gap(d, grad, b, rho, smax2, weight, bypass, opts.tol_rel)
        if loop_gap is not None:
            diag = SolverDiagnostics(it, 0.0, 0.0, rho, extrapolated, rejected,
                                     loop_gap=loop_gap)
            return zbar.copy(), np.zeros((b.shape[0], n_bus), dtype=complex), diag
        c_new = shrink_columns(c - grad, weight / (rho * smax2))
        cg_new = c_new @ g
        r = (m - b) + cg_new
        x_new = np.empty_like(x)
        x_new[:, :n_bus] = c_new
        np.add(u, r, out=x_new[:, n_bus:])
        primal = _norm(r)
        dual = rho * _norm(cg_new - cg)
        # the history starts two points early, since two give the first
        # difference to mix
        if it >= _ANDERSON_START - 2:
            f = x_new - x
            residual = _norm(f)
        if base is not None:
            image, image_cg, base_residual = base
            base = None
            # the safeguard; a non-finite extrapolated point never gets
            # here, since svt raises ValueError on it at the M-step above
            if not residual < base_residual:
                rejected += 1
                x, cg = image, image_cg
                continue
            extrapolated += 1
        if not math.isfinite(primal) or not math.isfinite(dual):
            raise SolverError("detection diverged", primal * scale, dual * scale, it)
        if primal < opts.tol_rel and dual < opts.tol_rel:
            diag = SolverDiagnostics(it, primal * scale, dual * scale, rho,
                                     extrapolated, rejected)
            return m * scale, c_new * scale, diag
        x, cg = x_new, cg_new
        if primal > _RESIDUAL_GAP * dual and rho * 2.0 <= _RHO_MAX:
            rho *= 2.0
            x[:, n_bus:] /= 2.0
            mix.reset()
        elif dual > _RESIDUAL_GAP * primal and rho / 2.0 >= lo:
            rho /= 2.0
            x[:, n_bus:] *= 2.0
            mix.reset()
        elif it >= _ANDERSON_START - 2:
            point = mix.push(f.ravel(), x.ravel())
            if point is not None:
                base = (x, cg, residual)
                x = point.reshape(x.shape)
                cg = x[:, :n_bus] @ g

    raise SolverError("detection did not converge", primal * scale, dual * scale, opts.max_iter)


def _norm(v: np.ndarray) -> float:
    """The Frobenius norm of the contiguous complex array *v*, from one
    BLAS dot product."""
    return math.sqrt(np.vdot(v, v).real)


class _Anderson:
    """Type-II Anderson mixing over the last few ADMM iterates.

    Each pushed point x enters as its image y = T(x) and its fixed-point
    residual f = y - x. The mixing weights gamma minimize
    ||f - dF gamma|| over the stored residual differences dF. They are
    real, because the prox steps in T are not complex-linear, so the
    vectors are held as real ones of twice the length, and gamma solves
    the normal equations dF^T dF gamma = dF^T f by LU, or, where the Gram
    matrix dF^T dF is exactly singular, takes their least-squares
    solution of least norm (module docstring). The Gram gains one row and
    column per push. The extrapolated point is y - dY gamma, with the
    step -dY gamma cut back to at most _ANDERSON_REACH times ||f||.
    """

    def __init__(self):
        # the difference rows are made at the first difference, so a call
        # that converges before acceleration starts allocates none
        self.df = self.dy = None
        self.gram = np.zeros((_ANDERSON_MEMORY, _ANDERSON_MEMORY))
        self.reset()

    def reset(self) -> None:
        self.count = 0                       # differences pushed
        self.last = None                     # (f, y) of the last point

    def push(self, f: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        """Record a point, given as contiguous complex vectors, which it
        keeps and must not be changed afterwards; return the extrapolated
        point, or None while there is no difference to mix."""
        f, y = f.view(float), y.view(float)
        if self.last is not None:
            if self.df is None:
                self.df = np.empty((_ANDERSON_MEMORY, f.size))
                self.dy = np.empty_like(self.df)
            slot = self.count % _ANDERSON_MEMORY
            np.subtract(f, self.last[0], out=self.df[slot])
            np.subtract(y, self.last[1], out=self.dy[slot])
            self.count += 1
            k = min(self.count, _ANDERSON_MEMORY)
            self.gram[:k, slot] = self.gram[slot, :k] = self.df[:k] @ self.df[slot]
        self.last = (f, y)
        k = min(self.count, _ANDERSON_MEMORY)
        if k == 0:
            return None
        gram, rhs = self.gram[:k, :k], self.df[:k] @ f
        try:
            gamma = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        step = -(gamma @ self.dy[:k])
        length = math.sqrt(step @ step)
        reach = _ANDERSON_REACH * math.sqrt(f @ f)
        if length > reach:
            step *= reach / length
        return (y + step).view(complex)


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
