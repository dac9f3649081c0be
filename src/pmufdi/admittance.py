"""Bus and branch admittance matrices for the standard pi branch model.

For a branch with series impedance r + jx, total charging susceptance b,
off-nominal tap ratio tau and phase shift theta (tap side = from bus,
t = tau * exp(j*theta)):

    I_from = Yf @ V,   I_to = Yt @ V

with the four branch entries

    Yff = (ys + j b/2) / |t|^2      Yft = -ys / conj(t)
    Ytf = -ys / t                   Ytt =  ys + j b/2

and Ybus = Cf^T Yf + Ct^T Yt + diag(bus shunts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import GridCase


@dataclass(frozen=True)
class AdmittanceSet:
    ybus: np.ndarray   # (n_bus, n_bus) complex
    yf: np.ndarray     # (n_branch, n_bus) complex, from-side currents
    yt: np.ndarray     # (n_branch, n_bus) complex, to-side currents


def build_admittances(case: GridCase) -> AdmittanceSet:
    """Assemble Ybus, Yf and Yt for *case* (all complex, dense)."""
    n, m = case.n_bus, case.n_branch
    yf = np.zeros((m, n), dtype=complex)
    yt = np.zeros((m, n), dtype=complex)
    ybus = np.zeros((n, n), dtype=complex)

    for k, br in enumerate(case.branches):
        ys = 1.0 / complex(br.r, br.x)    # finite: GridCase checks
        tap = br.tap if br.tap != 0.0 else 1.0
        t = tap * np.exp(1j * np.deg2rad(br.shift_deg))
        half_b = 1j * br.b / 2.0
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        yf[k, i] = (ys + half_b) / (tap * tap)
        yf[k, j] = -ys / np.conj(t)
        yt[k, i] = -ys / t
        yt[k, j] = ys + half_b
        ybus[i] += yf[k]      # Cf^T Yf + Ct^T Yt by rows, a self-loop included
        ybus[j] += yt[k]
    ybus[np.diag_indices(n)] += [complex(bus.gs, bus.bs) for bus in case.buses]

    for m_ in (ybus, yf, yt):
        m_.setflags(write=False)
    return AdmittanceSet(ybus=ybus, yf=yf, yt=yt)
