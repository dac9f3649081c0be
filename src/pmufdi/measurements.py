"""PMU measurement plans and the state-to-measurement dependency matrix.

A plan lists which bus voltage phasors and which branch current phasors
(from side / to side) are reported. The dependency matrix maps the complex
bus-voltage state vector to the measurement vector; its rows follow the
plan order: voltage rows first, then from-side rows, then to-side rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .admittance import build_admittances
from .cases import GridCase

RANK_TOL = 1e-8


class PlanError(ValueError):
    """Measurement plan inconsistent with its grid case."""


@dataclass(frozen=True)
class PmuPlan:
    voltage_buses: tuple[int, ...]
    from_branches: tuple[int, ...] = ()
    to_branches: tuple[int, ...] = ()

    @property
    def n_measurements(self) -> int:
        return len(self.voltage_buses) + len(self.from_branches) + len(self.to_branches)

    def __post_init__(self):
        for field, ids in (
            ("voltage_buses", self.voltage_buses),
            ("from_branches", self.from_branches),
            ("to_branches", self.to_branches),
        ):
            if len(set(ids)) != len(ids):
                raise PlanError(f"duplicate ids in {field}: {ids}")

    def validate(self, case: GridCase) -> None:
        for bus_id in self.voltage_buses:
            case.bus_index(bus_id)
        for branch_id in self.from_branches + self.to_branches:
            case.branch_by_id(branch_id)


@dataclass(frozen=True)
class DependencyMatrix:
    h: np.ndarray                 # (n_z, n_bus) complex
    h_normalized: np.ndarray      # rows of h scaled to unit Euclidean norm
    row_labels: tuple[str, ...]   # "V:<bus>", "F:<branch>", "T:<branch>"
    bus_ids: tuple[int, ...]      # column order, same as the case bus order

    @property
    def n_measurements(self) -> int:
        return self.h.shape[0]

    @property
    def n_states(self) -> int:
        return self.h.shape[1]

    @cached_property
    def digest(self) -> str:
        """Short content hash identifying this matrix, which a block records
        to be checked against the matrix it is used with; computed once,
        since ``h`` is read-only."""
        md = hashlib.sha256()
        md.update(np.ascontiguousarray(self.h).tobytes())
        md.update(",".join(self.row_labels).encode())
        return md.hexdigest()[:12]

    @cached_property
    def smax2(self) -> float:
        """smax(h_normalized)^2, the squared largest singular value of the
        normalized matrix: the curvature bound of the detector's C-step,
        computed once, since ``h_normalized`` is read-only."""
        return float(np.linalg.svd(self.h_normalized.T, compute_uv=False)[0] ** 2)

    @cached_property
    def _rows_by_bus(self) -> dict[int, tuple[int, ...]]:
        nonzero = self.h != 0.0
        return {bus: tuple(np.flatnonzero(nonzero[:, j]).tolist())
                for j, bus in enumerate(self.bus_ids)}

    def bus_rows(self, bus_id: int) -> tuple[int, ...]:
        """Rows of h with a structurally nonzero entry on *bus_id*'s column,
        in order; built for every bus at the first call, since ``h`` is
        read-only."""
        try:
            return self._rows_by_bus[bus_id]
        except KeyError:
            raise PlanError(f"no state column for bus {bus_id}") from None

    def row_index(self, label: str) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise PlanError(f"no measurement row labelled {label!r}") from None

    def column_index(self, bus_id: int) -> int:
        try:
            return self.bus_ids.index(bus_id)
        except ValueError:
            raise PlanError(f"no state column for bus {bus_id}") from None


def normalize_rows(h: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; all-zero rows are rejected."""
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise PlanError(f"measurement row {bad} is all-zero")
    return h / norms[:, None]


def build_measurement_matrix(case: GridCase, plan: PmuPlan) -> DependencyMatrix:
    """Build the dependency matrix for *plan* on *case*.

    Voltage rows are unit vectors selecting the measured bus; current rows
    are the corresponding rows of Yf / Yt.
    """
    plan.validate(case)
    labels = ([f"V:{bus_id}" for bus_id in plan.voltage_buses]
              + [f"F:{branch_id}" for branch_id in plan.from_branches]
              + [f"T:{branch_id}" for branch_id in plan.to_branches])
    if not labels:
        raise PlanError("empty measurement plan")
    adm = build_admittances(case)
    h = np.vstack([
        np.eye(case.n_bus, dtype=complex)[[case.bus_index(b) for b in plan.voltage_buses]],
        adm.yf[[branch_id - 1 for branch_id in plan.from_branches]],
        adm.yt[[branch_id - 1 for branch_id in plan.to_branches]],
    ])
    h_normalized = normalize_rows(h)
    h.setflags(write=False)
    h_normalized.setflags(write=False)
    return DependencyMatrix(
        h=h,
        h_normalized=h_normalized,
        row_labels=tuple(labels),
        bus_ids=tuple(b.id for b in case.buses),
    )


def check_observability(dep: DependencyMatrix) -> tuple[bool, int]:
    """Numerical rank test: observable iff rank(H) equals the state count.

    Rank counts singular values above ``RANK_TOL`` times the largest one.
    """
    sv = np.linalg.svd(dep.h, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False, 0
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    return rank == dep.n_states, rank
