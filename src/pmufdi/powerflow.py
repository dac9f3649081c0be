"""AC power flow by full Newton-Raphson in polar coordinates.

The mismatch and Jacobian use the complex formulation

    S(V) = V * conj(Ybus V)
    dS/dVa = j diag(V) conj(diag(I) - Ybus diag(V))
    dS/dVm = diag(V) conj(Ybus diag(V/|V|)) + conj(diag(I)) diag(V/|V|)

with I = Ybus V, active-power rows for all non-slack buses and reactive
rows for PQ buses (the sparse formulation of MATPOWER; Zimmerman,
Murillo-Sanchez & Thomas, IEEE Trans. Power Syst. 2011). Entry (i, k)
of either derivative off the diagonal is a product with Ybus[i, k], so
it vanishes wherever Ybus does: both are evaluated only on the nonzeros
of Ybus plus the diagonal, with the dense formulas' elementwise
arithmetic, and their real and imaginary parts are scattered straight
into the Jacobian. Building it costs O(nnz(Ybus)); the Jacobian equals
the dense construction's, whose entries off that pattern are zeros.
Ybus, the pattern, where it lands in the Jacobian, and the case's bus
types, voltage setpoints and generation form a :class:`NewtonPlan`,
built once per block, by ``generate_block``, not once per solve; the
Newton step is a dense LU solve. PV-bus voltage magnitudes are held at
their setpoints and the slack bus absorbs the residual injection.
Reactive limits are not enforced; bus types stay fixed throughout the
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admittance import build_admittances
from .cases import PQ, SLACK, GridCase


class PowerFlowError(RuntimeError):
    """Power flow failed; carries the last mismatch norm and iteration."""

    def __init__(self, message: str, mismatch: float, iterations: int):
        super().__init__(f"{message} (max mismatch {mismatch:.3e} after "
                         f"{iterations} iterations)")
        self.reason = message
        self.mismatch = mismatch
        self.iterations = iterations


_TOL = 1e-8          # converged once max |S mismatch| (p.u.) is at most this
_MAX_ITER = 20       # Newton steps before PowerFlowError


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray            # complex bus voltages, case bus order
    iterations: int
    mismatch: float          # max |S mismatch| at exit


@dataclass(frozen=True)
class NewtonPlan:
    """What a solve needs of the case and its Ybus, the same at every
    instant: the bus split, the pinned values, the injections, and where
    the Jacobian over [va[pvpq], vm[pq]] can be nonzero."""

    ybus: np.ndarray         # (n_bus, n_bus) complex
    pq: np.ndarray
    pvpq: np.ndarray
    slack: int
    va_slack: float          # slack angle, rad
    fixed: np.ndarray        # buses whose magnitude is pinned (PV and slack)
    vm_fixed: np.ndarray     # ... and their setpoints
    gen_bus: np.ndarray      # generator buses, in generator order
    gen_s: np.ndarray        # ... and their complex injections, p.u.
    rows: np.ndarray         # bus pairs (rows[p], cols[p]): the nonzeros of
    cols: np.ndarray         # Ybus plus its whole diagonal, row-major
    y: np.ndarray            # Ybus[rows, cols]
    diag: np.ndarray         # position of (i, i) in the pattern, for each bus i
    src: np.ndarray          # entries of [dS/dVa, dS/dVm] on the pattern, as floats
    dst: np.ndarray          # ... and where each lands in the flattened Jacobian
    size: int                # pvpq.size + pq.size

    @classmethod
    def build(cls, case: GridCase, ybus: np.ndarray) -> NewtonPlan:
        types = np.array([b.type for b in case.buses])
        pq = np.flatnonzero(types == PQ)
        pvpq = np.flatnonzero(types != SLACK)
        slack = int(np.flatnonzero(types == SLACK)[0])
        fixed = types != PQ
        mask = ybus != 0
        np.fill_diagonal(mask, True)
        rows, cols = np.nonzero(mask)
        nnz = rows.size
        size = pvpq.size + pq.size
        # Jacobian row (column) of each bus's P (va) and Q (vm); -1 if none
        p_of = np.full(case.n_bus, -1)
        p_of[pvpq] = np.arange(pvpq.size)
        q_of = np.full(case.n_bus, -1)
        q_of[pq] = pvpq.size + np.arange(pq.size)
        # the float view of [dS/dVa, dS/dVm] interleaves real and imaginary parts
        src, dst = [], []
        for first, row_of, col_of in ((0, p_of, p_of), (2 * nnz, p_of, q_of),
                                      (1, q_of, p_of), (2 * nnz + 1, q_of, q_of)):
            r, c = row_of[rows], col_of[cols]
            keep = np.flatnonzero((r >= 0) & (c >= 0))
            src.append(first + 2 * keep)
            dst.append(r[keep] * size + c[keep])
        return cls(
            ybus=ybus, pq=pq, pvpq=pvpq, slack=slack,
            va_slack=np.deg2rad(case.buses[slack].va_deg),
            fixed=fixed, vm_fixed=_voltage_setpoints(case)[fixed],
            gen_bus=np.array([case.bus_index(g.bus) for g in case.generators], dtype=int),
            gen_s=np.array([g.pg + 1j * g.qg for g in case.generators], dtype=complex),
            rows=rows, cols=cols, y=ybus[rows, cols],
            diag=np.flatnonzero(rows == cols),
            src=np.concatenate(src), dst=np.concatenate(dst), size=size,
        )


def _voltage_setpoints(case: GridCase) -> np.ndarray:
    vm = np.array([b.vm if b.vm > 0 else 1.0 for b in case.buses])
    seen = set()
    for gen in case.generators:
        if gen.bus not in seen:
            vm[case.bus_index(gen.bus)] = gen.vg
            seen.add(gen.bus)
    return vm


def _jacobian(plan: NewtonPlan, v: np.ndarray, ibus: np.ndarray) -> np.ndarray:
    """Real Jacobian of the mismatch with respect to va[pvpq] and vm[pq],
    at voltages *v* with bus currents *ibus* = Ybus v."""
    rows, nnz = plan.rows, plan.rows.size
    v_row = v[rows]
    vnorm = v / np.abs(v)
    # the dense diag(.) terms, zero off the diagonal as there
    on_diag = np.zeros(nnz, dtype=complex)
    on_diag[plan.diag] = ibus
    ds = np.empty(2 * nnz, dtype=complex)
    ds[:nnz] = 1j * v_row * np.conj(on_diag - plan.y * v[plan.cols])
    on_diag[plan.diag] = np.conj(ibus) * vnorm
    ds[nnz:] = v_row * np.conj(plan.y * vnorm[plan.cols]) + on_diag
    jac = np.zeros(plan.size * plan.size)
    jac[plan.dst] = ds.view(float)[plan.src]
    return jac.reshape(plan.size, plan.size)


def solve_ac_power_flow(
    case: GridCase,
    pd: np.ndarray,
    qd: np.ndarray,
    newton: NewtonPlan | None = None,
    v0: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Solve the power flow for per-bus demands *pd*, *qd* (p.u.).

    *newton* is the case's :class:`NewtonPlan`, built here if not given.
    *v0* warm-starts the iteration; the default is a flat start with PV
    and slack magnitudes at their setpoints. Raises
    :class:`PowerFlowError` on non-convergence, a singular Jacobian or a
    non-finite mismatch, which it names by bus.
    """
    if not (np.all(np.isfinite(pd)) and np.all(np.isfinite(qd))):
        raise ValueError("demands must be finite")
    plan = newton or NewtonPlan.build(case, build_admittances(case).ybus)
    ybus, pq, pvpq = plan.ybus, plan.pq, plan.pvpq

    if v0 is not None:
        vm = np.abs(v0).astype(float)
        va = np.angle(v0).astype(float)
    else:
        vm = np.ones(case.n_bus)
        va = np.full(case.n_bus, plan.va_slack)
    # pinned magnitudes override any start value
    vm[plan.fixed] = plan.vm_fixed
    va[plan.slack] = plan.va_slack

    s_spec = -(pd.astype(float) + 1j * qd.astype(float))
    # in generator order, so that a bus's generators add up as listed
    np.add.at(s_spec, plan.gen_bus, plan.gen_s)

    v = vm * np.exp(1j * va)
    iterations = 0
    # an overflow, or a magnitude stepped to 0, shows as a non-finite
    # mismatch, which is refused before the convergence test (a NaN would
    # pass it); a non-finite Jacobian leads there or to a LinAlgError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            ibus = ybus @ v
            ds = v * np.conj(ibus) - s_spec
            f = np.concatenate([ds.real[pvpq], ds.imag[pq]])
            worst = float(np.max(np.abs(f))) if f.size else 0.0
            bad = np.flatnonzero(~np.isfinite(ds))
            if bad.size:
                raise PowerFlowError(f"non-finite power mismatch at bus {case.buses[bad[0]].id}",
                                     worst, iterations)
            if worst <= _TOL:
                break
            if iterations >= _MAX_ITER:
                raise PowerFlowError("power flow did not converge", worst, iterations)
            try:
                dx = np.linalg.solve(_jacobian(plan, v, ibus), -f)
            except np.linalg.LinAlgError:
                raise PowerFlowError("singular power-flow Jacobian", worst, iterations) from None
            va[pvpq] += dx[: pvpq.size]
            vm[pq] += dx[pvpq.size:]
            v = vm * np.exp(1j * va)
            iterations += 1

    return PowerFlowSolution(v=v, iterations=iterations, mismatch=worst)
