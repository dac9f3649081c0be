"""Synthetic PMU measurement blocks.

A block holds the complex measurement matrix for a time window: one row
per reporting instant, one column per measurement channel. Blocks are
generated by solving an AC power flow per instant under a perturbed load
trajectory and reading the channels off the dependency matrix; the block
is noise-free and satisfies Z = X H^T exactly. A block rejects
non-finite entries, naming the first bad sample and channel, and a label
count that differs from its channel count when it is made. A block is
stored as CSV by :mod:`pmufdi.report`, which owns every file format of
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .admittance import build_admittances
from .cases import GridCase
from .loads import DisturbancePolicy, perturb_loads
from .measurements import DependencyMatrix, PmuPlan, build_measurement_matrix
from .powerflow import NewtonPlan, PowerFlowError, solve_ac_power_flow


@dataclass(frozen=True)
class StateBlock:
    x: np.ndarray                 # (T, n_bus) complex bus voltages
    iterations: tuple[int, ...]   # power-flow iterations per row
    mismatches: tuple[float, ...]


@dataclass(frozen=True)
class MeasurementBlock:
    z: np.ndarray                 # (N, n_z) complex
    rate_hz: float
    start_index: int              # 1-based sample index of the first row
    labels: tuple[str, ...]       # channel labels, dependency-matrix row order
    dependency_digest: str
    attacked: bool = False

    def __post_init__(self):
        if len(self.labels) != self.n_channels:
            raise ValueError(
                f"block has {self.n_channels} channels but {len(self.labels)} labels"
            )
        bad = np.argwhere(~np.isfinite(self.z))
        if bad.size:
            row, col = bad[0]
            raise ValueError(
                f"non-finite entry {self.z[row, col]} at sample "
                f"{self.start_index + row}, channel {self.labels[col]!r}"
            )

    @property
    def n_steps(self) -> int:
        return self.z.shape[0]

    @property
    def n_channels(self) -> int:
        return self.z.shape[1]

    def window(self, first: int, last: int) -> "MeasurementBlock":
        """Rows with 1-based sample indices *first*..*last* inclusive."""
        lo = first - self.start_index
        hi = last - self.start_index + 1
        if lo < 0 or hi > self.n_steps or lo >= hi:
            raise ValueError(
                f"window {first}..{last} outside samples "
                f"{self.start_index}..{self.start_index + self.n_steps - 1}"
            )
        return replace(self, z=self.z[lo:hi], start_index=first)

    def column(self, label: str) -> np.ndarray:
        return self.z[:, self.labels.index(label)]

    def check_dependency(self, dep: DependencyMatrix) -> None:
        """Raise ValueError unless the block was measured through *dep*:
        its channel count, digest and labels must all match."""
        if self.n_channels != dep.n_measurements:
            raise ValueError(
                f"block has {self.n_channels} channels but the dependency "
                f"matrix has {dep.n_measurements} rows"
            )
        if self.dependency_digest != dep.digest:
            raise ValueError(
                f"block dependency digest {self.dependency_digest!r} does not "
                f"match the dependency matrix digest {dep.digest!r}"
            )
        for k, (mine, theirs) in enumerate(zip(self.labels, dep.row_labels)):
            if mine != theirs:
                raise ValueError(f"block channel {k + 1} is {mine!r} but the "
                                 f"dependency matrix row is {theirs!r}")


def disturbance_onset(rate_hz: float) -> int:
    """The 1-based sample at which the disturbance starts: the first after one second."""
    return int(round(rate_hz)) + 1


def sample_count(duration_s: float, rate_hz: float) -> int:
    """The number of samples in *duration_s* seconds at *rate_hz*. Both
    must be positive, their product a whole number, and the samples must
    reach the disturbance onset; otherwise ValueError names the cause."""
    for key, value in (("duration_s", duration_s), ("rate_hz", rate_hz)):
        if not value > 0:
            raise ValueError(f"{key} must be positive, got {value!r}")
    steps = duration_s * rate_hz
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
        raise ValueError(f"duration_s * rate_hz must be an integer, got {steps}")
    n_steps = int(round(steps))
    onset = disturbance_onset(rate_hz)
    if n_steps < onset:
        raise ValueError(f"duration_s={duration_s!r} at rate_hz={rate_hz!r} gives {n_steps} "
                         f"samples, which end before the disturbance onset at sample {onset}")
    return n_steps


def generate_block(
    case: GridCase,
    plan: PmuPlan,
    duration_s: float,
    rate_hz: float,
    seed: int,
    policy: DisturbancePolicy | None = None,
) -> tuple[StateBlock, MeasurementBlock, DependencyMatrix]:
    """Simulate *duration_s* seconds of PMU data at *rate_hz*.

    The disturbance starts at the first instant after one second. The
    first instant is solved from a flat start and each later instant
    warm-starts from the previous solution. Power-flow failures propagate
    with the offending instant attached; a bad duration or rate raises
    the ValueError of :func:`sample_count`.
    """
    n_steps = sample_count(duration_s, rate_hz)
    onset = disturbance_onset(rate_hz)
    dep = build_measurement_matrix(case, plan)
    newton = NewtonPlan.build(case, build_admittances(case).ybus)
    traj = perturb_loads(case, n_steps, onset, seed, policy)
    x = np.empty((n_steps, case.n_bus), dtype=complex)
    iterations = []
    mismatches = []
    v_prev = None
    for t in range(n_steps):
        # repeated demand rows (the pre-disturbance stretch) must produce
        # bit-identical states, so reuse the previous solution outright
        if t > 0 and np.array_equal(traj.pd[t], traj.pd[t - 1]) \
                and np.array_equal(traj.qd[t], traj.qd[t - 1]):
            x[t] = x[t - 1]
            iterations.append(iterations[-1])
            mismatches.append(mismatches[-1])
            continue
        try:
            sol = solve_ac_power_flow(case, traj.pd[t], traj.qd[t], newton=newton, v0=v_prev)
        except PowerFlowError as exc:
            raise PowerFlowError(
                f"power flow failed at instant {t + 1}: {exc.reason}",
                exc.mismatch, exc.iterations,
            ) from exc
        x[t] = sol.v
        iterations.append(sol.iterations)
        mismatches.append(sol.mismatch)
        v_prev = sol.v

    z = x @ dep.h.T
    x.setflags(write=False)
    z.setflags(write=False)
    state = StateBlock(x=x, iterations=tuple(iterations), mismatches=tuple(mismatches))
    block = MeasurementBlock(
        z=z, rate_hz=rate_hz, start_index=1,
        labels=dep.row_labels, dependency_digest=dep.digest,
    )
    return state, block, dep


def singular_spectrum(block: MeasurementBlock) -> np.ndarray:
    """Singular values of the block, descending; length min(N, n_z)."""
    if block.z.size == 0:
        raise ValueError("empty measurement block")
    return np.linalg.svd(block.z, compute_uv=False)

