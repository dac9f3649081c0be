"""Independent reference implementations used only by the tests.

Each oracle deliberately avoids the code paths it checks: the power flow
here is Gauss-Seidel rather than Newton, the bus admittance matrix is
stamped entry by entry with scalar arithmetic, the power-flow Jacobian
is gathered from dense n x n derivative matrices, the load trajectory
is drawn one instant at a time, the nuclear norm comes from an
eigendecomposition, and the convex programs are re-solved with
derivative-free or subgradient methods.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.optimize

from pmufdi.cases import GridCase, PQ, SLACK
from pmufdi.loads import DisturbancePolicy


def gauss_seidel_power_flow(case: GridCase, pd, qd, tol=1e-12, max_iter=20000):
    """Fixed-point power flow for cases with one slack and PQ buses only."""
    ybus = stamp_ybus(case)
    n = case.n_bus
    types = [b.type for b in case.buses]
    assert all(t in (PQ, SLACK) for t in types), "oracle handles slack+PQ only"
    slack = types.index(SLACK)

    s = -(np.asarray(pd, dtype=float) + 1j * np.asarray(qd, dtype=float))
    for gen in case.generators:
        s[case.bus_index(gen.bus)] += gen.pg + 1j * gen.qg
    vg = next(g.vg for g in case.generators if g.bus == case.buses[slack].id)

    v = np.ones(n, dtype=complex)
    v[slack] = vg * cmath.exp(1j * np.deg2rad(case.buses[slack].va_deg))
    for _ in range(max_iter):
        delta = 0.0
        for i in range(n):
            if i == slack:
                continue
            off = sum(ybus[i, k] * v[k] for k in range(n) if k != i)
            new_vi = (np.conj(s[i] / v[i]) - off) / ybus[i, i]
            delta = max(delta, abs(new_vi - v[i]))
            v[i] = new_vi
        if delta < tol:
            break
    return v


def stamp_ybus(case: GridCase) -> np.ndarray:
    """Textbook per-branch stamping with scalar arithmetic."""
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        tap = br.tap if br.tap != 0.0 else 1.0
        t = tap * cmath.exp(1j * np.deg2rad(br.shift_deg))
        y[i, i] += (ys + 1j * br.b / 2.0) / (tap * tap)
        y[j, j] += ys + 1j * br.b / 2.0
        y[i, j] += -ys / t.conjugate()
        y[j, i] += -ys / t
    for bus in case.buses:
        i = case.bus_index(bus.id)
        y[i, i] += complex(bus.gs, bus.bs)
    return y


def per_instant_loads(case: GridCase, n_steps: int, onset: int, seed: int,
                      policy: DisturbancePolicy) -> tuple[np.ndarray, np.ndarray, int]:
    """(pd, qd, clamped) of a load trajectory drawn one instant at a time,
    with one scalar draw per instant and no draw at a zero scale."""
    base_pd = np.array([b.pd for b in case.buses])
    base_qd = np.array([b.qd for b in case.buses])
    with np.errstate(divide="ignore", invalid="ignore"):
        qp_ratio = np.where(base_pd != 0.0, base_qd / np.where(base_pd == 0, 1, base_pd), 0.0)
    rng = np.random.default_rng(seed)
    pd = np.tile(base_pd, (n_steps, 1))
    qd = np.tile(base_qd, (n_steps, 1))
    clamped = 0
    for t in range(onset, n_steps + 1):
        sigma = policy.sigma_pu(t, onset, case.base_mva)
        if sigma == 0.0:
            draw = np.zeros(case.n_bus)
        else:
            draw = np.full(case.n_bus, rng.normal(0.0, sigma))
        new_pd = base_pd + draw
        negative = new_pd < 0.0
        clamped += int(np.count_nonzero(negative))
        new_pd[negative] = 0.0
        pd[t - 1] = new_pd
        qd[t - 1] = np.where(base_pd != 0.0, new_pd * qp_ratio, base_qd)
    return pd, qd, clamped


def dense_jacobian(ybus: np.ndarray, v: np.ndarray, pvpq: np.ndarray,
                   pq: np.ndarray) -> np.ndarray:
    """Real power-flow Jacobian with respect to va[pvpq] and vm[pq], from
    dS/dVa and dS/dVm evaluated at every bus pair."""
    ibus = ybus @ v
    vnorm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(ibus) - ybus * v)
    ds_dvm = v[:, None] * np.conj(ybus * vnorm) + np.diag(np.conj(ibus) * vnorm)
    return np.block([
        [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
        [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
    ])


def branch_neighbors(branches, bus_id: int) -> set[int]:
    """Buses sharing a branch with *bus_id*, by a scan of every branch."""
    return {br.to_bus if br.from_bus == bus_id else br.from_bus
            for br in branches if bus_id in (br.from_bus, br.to_bus)}


def bfs_connected(bus_ids, branches) -> bool:
    """Whether *bus_ids* induces a connected subgraph of the branch list."""
    nodes = set(bus_ids)
    if not nodes:
        return False
    adj = {b: set() for b in nodes}
    for br in branches:
        if br.from_bus in nodes and br.to_bus in nodes:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    seen = set()
    queue = [next(iter(nodes))]
    while queue:
        node = queue.pop()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adj[node] - seen)
    return seen == nodes


def nuclear_norm_eig(m: np.ndarray) -> float:
    """trace of sqrt(M^H M) via an eigendecomposition.

    Eigenvalues below machine precision relative to the largest are
    numerical zeros of the Gram matrix; without the cut their square
    roots would inject sqrt(eps)-level garbage.
    """
    gram = m.conj().T @ m
    eigvals = np.linalg.eigvalsh(gram)
    top = float(eigvals[-1]) if eigvals.size else 0.0
    eigvals = np.where(eigvals > 1e-13 * top, eigvals, 0.0)
    return float(np.sum(np.sqrt(eigvals)))


# the smallest tau / s_1 at which the tests hold kernels.svt to the bound
# of svt_error_bound, and the smallest the detector's M-step may reach
SVT_REGIME = 1e-7


def svt_svd(m: np.ndarray, tau: float) -> np.ndarray:
    """Singular value soft-thresholding from the full economy SVD: the
    reference for ``kernels.svt``, which takes its prox from the
    eigendecomposition of the short side's Gram instead."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vh[keep]


def svt_error_bound(m: np.ndarray, tau: float) -> float:
    """Frobenius bound on ||kernels.svt(m, tau) - svt_svd(m, tau)|| for tau > 0.

    Let a be the short side of m (k x n, k <= n), G = a a^H and
    phi(x) = max(0, 1 - tau / sqrt(x)), so that the exact prox is
    phi(G) a. The kernel returns the exact phi~(G + E) a, where E is the
    rounding error of forming G (at most n eps |a_i| |a_j| entrywise)
    plus the backward error of the eigensolver (a small multiple of
    k eps ||G||), so ||E||_F <= c (n + k) eps ||a||_F^2 for a modest
    constant c, and phi~ is phi with the eigenvalues at or below the cut
    f = max(shape) eps lambda_max set to zero.

    1. Write a = G^(1/2) W with ||W||_2 <= 1. In the eigenbases of G + E
       (values x_i) and G (values y_j), (phi(G + E) - phi(G)) G^(1/2) is
       the Schur product of Q^H E Q' with the divided differences
       phi[x_i, y_j] sqrt(y_j). Each of those is at most 1/(2 tau): for
       x, y > tau^2 it is tau / (sqrt(x) (sqrt(x) + sqrt(y))), and where
       one side sits at or below tau^2 it is at most
       1 / (sqrt(y) + tau) or tau / (sqrt(x) (sqrt(x) + tau)). A Schur
       multiplier bounded entrywise by 1/(2 tau) scales the Frobenius
       norm by at most that, so this part is at most ||E||_F / (2 tau).
    2. The cut drops each eigenvalue x of G + E in (tau^2, f], whose
       vector q has ||q^H a||^2 = x - q^H E q <= f + ||E||_F; it drops
       phi(x) ||q^H a|| <= sqrt(f + ||E||_F) - tau, at most k times.
    3. The kernel's last products Q w Q^H a and the reference's
       U S V^H each round by at most c (n + k) eps ||a||_F.

    Together, with gamma = c (n + k) eps:

        gamma ||a||_F^2 / (2 tau)
        + sqrt(k) max(0, sqrt(f + gamma ||a||_F^2) - tau)
        + 2 gamma ||a||_F.

    The eigensolver's and the SVD's backward-error constants are modest
    multiples that the analysis leaves open; c = 4 covers them, and
    rounding-level cases (tau near s_1) reach half the bound at c = 1.
    The bound grows as tau falls. Its second term, the cut, is zero once
    tau^2 exceeds f + gamma ||a||_F^2, about 4e-7 s_1 on a 19 x 41 block.
    """
    k, n = sorted(m.shape)
    gamma = 4 * (n + k) * np.finfo(float).eps
    s1 = float(np.linalg.norm(m, 2))
    frob = float(np.linalg.norm(m))
    err = gamma * frob ** 2
    cut = n * np.finfo(float).eps * s1 * s1
    return (err / (2 * tau) + np.sqrt(k) * max(0.0, np.sqrt(cut + err) - tau)
            + 2 * gamma * frob)


def _nuclear(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def powell_attack_reference(z: np.ndarray, g: np.ndarray, starts) -> float:
    """Best value of min_W ||Z + W G||_* found by Powell descent.

    *starts* is an iterable of W start points; the candidate under test
    should be among them so the search can certify (or beat) it.
    """
    n, k = z.shape[0], g.shape[0]

    def objective(params):
        w = (params[: n * k] + 1j * params[n * k:]).reshape(n, k)
        return _nuclear(z + w @ g)

    best = np.inf
    for w0 in starts:
        x0 = np.concatenate([w0.real.ravel(), w0.imag.ravel()])
        res = scipy.optimize.minimize(
            objective, x0, method="Powell",
            options={"maxiter": 2000, "xtol": 1e-10, "ftol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best


def subgradient_detector_reference(
    zbar: np.ndarray, g: np.ndarray, weight: float,
    iterations: int = 20000, step0: float | None = None,
) -> float:
    """Best objective of min_C ||Zbar - C g||_* + weight * ||C||_{1,2}
    reached by plain subgradient descent with a diminishing step.

    It checks only the small random dictionaries *g* with unit rows that
    the tests draw. On the bundled plans' dictionaries its default step,
    0.1 ||Zbar||_F / ||g||_2, never moves the best point off its start
    C = 0, so there it returns the bypass objective ||Zbar||_* and can
    confirm nothing below it.
    """
    n, k = zbar.shape[0], g.shape[0]
    gh = g.conj().T
    c = np.zeros((n, k), dtype=complex)
    if step0 is None:
        step0 = 0.1 * float(np.linalg.norm(zbar)) / max(1.0, float(np.linalg.norm(g, 2)))

    def objective(cmat):
        cols = np.linalg.norm(cmat, axis=0)
        return _nuclear(zbar - cmat @ g) + weight * float(cols.sum())

    best = objective(c)
    for it in range(1, iterations + 1):
        u, s, vh = np.linalg.svd(zbar - c @ g, full_matrices=False)
        sub_nuc = -(u @ vh) @ gh
        norms = np.linalg.norm(c, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            sub_l12 = np.where(norms > 0, c / np.where(norms == 0, 1, norms), 0.0)
        c = c - (step0 / np.sqrt(it)) * (sub_nuc + weight * sub_l12)
        best = min(best, objective(c))
    return best
