"""AC power flow by full Newton-Raphson in polar coordinates.

The mismatch and Jacobian use the complex formulation

    S(V) = V * conj(Ybus V)
    dS/dVa = j diag(V) conj(diag(I) - Ybus diag(V))
    dS/dVm = diag(V) conj(Ybus diag(V/|V|)) + conj(diag(I)) diag(V/|V|)

with active-power rows for all non-slack buses and reactive rows for PQ
buses. Each diag(.) product is applied as a row or column scaling, so
building the Jacobian costs O(n^2). PV-bus voltage magnitudes are held
at their setpoints and the slack bus absorbs the residual injection.
Reactive limits are not enforced; bus types stay fixed throughout the
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admittance import AdmittanceSet, build_admittances
from .cases import PQ, SLACK, GridCase


class PowerFlowError(RuntimeError):
    """Power flow failed; carries the last mismatch norm and iteration."""

    def __init__(self, message: str, mismatch: float, iterations: int):
        super().__init__(f"{message} (max mismatch {mismatch:.3e} after "
                         f"{iterations} iterations)")
        self.mismatch = mismatch
        self.iterations = iterations


_TOL = 1e-8          # converged once max |S mismatch| (p.u.) is at most this
_MAX_ITER = 20       # Newton steps before PowerFlowError


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray            # complex bus voltages, case bus order
    iterations: int
    mismatch: float          # max |S mismatch| at exit


def _injection_spec(case: GridCase, pd: np.ndarray, qd: np.ndarray) -> np.ndarray:
    s = -(pd.astype(float) + 1j * qd.astype(float))
    for gen in case.generators:
        i = case.bus_index(gen.bus)
        s[i] += gen.pg + 1j * gen.qg
    return s


def _voltage_setpoints(case: GridCase) -> np.ndarray:
    vm = np.array([b.vm if b.vm > 0 else 1.0 for b in case.buses])
    seen = set()
    for gen in case.generators:
        if gen.bus not in seen:
            vm[case.bus_index(gen.bus)] = gen.vg
            seen.add(gen.bus)
    return vm


def _jacobian(ybus: np.ndarray, v: np.ndarray, pvpq: np.ndarray,
              pq: np.ndarray) -> np.ndarray:
    """Real Jacobian of the mismatch with respect to va[pvpq] and vm[pq]."""
    ibus = ybus @ v
    vnorm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(ibus) - ybus * v)
    ds_dvm = v[:, None] * np.conj(ybus * vnorm) + np.diag(np.conj(ibus) * vnorm)
    return np.block([
        [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
        [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
    ])


def solve_ac_power_flow(
    case: GridCase,
    pd: np.ndarray,
    qd: np.ndarray,
    adm: AdmittanceSet | None = None,
    v0: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Solve the power flow for per-bus demands *pd*, *qd* (p.u.).

    *v0* warm-starts the iteration; the default is a flat start with PV
    and slack magnitudes at their setpoints. Raises
    :class:`PowerFlowError` on non-convergence or a singular Jacobian.
    """
    if not (np.all(np.isfinite(pd)) and np.all(np.isfinite(qd))):
        raise ValueError("demands must be finite")
    ybus = (adm or build_admittances(case)).ybus
    n = case.n_bus

    types = np.array([b.type for b in case.buses])
    pq = np.flatnonzero(types == PQ)
    pvpq = np.flatnonzero(types != SLACK)
    slack = int(np.flatnonzero(types == SLACK)[0])

    setpoints = _voltage_setpoints(case)
    if v0 is not None:
        vm = np.abs(v0).astype(float)
        va = np.angle(v0).astype(float)
    else:
        vm = np.ones(n)
        va = np.full(n, np.deg2rad(case.buses[slack].va_deg))
    # pinned magnitudes override any start value
    fixed = types != PQ
    vm[fixed] = setpoints[fixed]
    va[slack] = np.deg2rad(case.buses[slack].va_deg)

    s_spec = _injection_spec(case, pd, qd)

    def mismatch(v: np.ndarray) -> np.ndarray:
        s = v * np.conj(ybus @ v)
        ds = s - s_spec
        return np.concatenate([ds.real[pvpq], ds.imag[pq]])

    v = vm * np.exp(1j * va)
    f = mismatch(v)
    worst = float(np.max(np.abs(f))) if f.size else 0.0
    iterations = 0

    while worst > _TOL:
        if iterations >= _MAX_ITER:
            raise PowerFlowError("power flow did not converge", worst, iterations)
        try:
            dx = np.linalg.solve(_jacobian(ybus, v, pvpq, pq), -f)
        except np.linalg.LinAlgError:
            raise PowerFlowError("singular power-flow Jacobian", worst, iterations) from None
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
        v = vm * np.exp(1j * va)
        f = mismatch(v)
        worst = float(np.max(np.abs(f)))
        iterations += 1

    return PowerFlowSolution(v=v, iterations=iterations, mismatch=worst)
