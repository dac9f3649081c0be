"""Synthetic PMU measurement blocks.

A block holds the complex measurement matrix for a time window: one row
per reporting instant, one column per measurement channel. Blocks are
generated by solving an AC power flow per instant under a perturbed load
trajectory and reading the channels off the dependency matrix; the block
is noise-free and satisfies Z = X H^T exactly. A block rejects
non-finite entries, naming the first bad sample and channel, and a label
count that differs from its channel count when it is made.

Serialization is lossless in both directions: a documented CSV layout
("# key: value" metadata lines, a label header, complex entries as
"<re><+/-><im>j" with 17 significant digits) and an .npz cache. The CSV
reader names the file and the bad sample, channel or metadata key of a
malformed input.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .admittance import build_admittances
from .cases import GridCase
from .loads import DisturbancePolicy, perturb_loads
from .measurements import DependencyMatrix, PmuPlan, build_measurement_matrix
from .powerflow import PowerFlowError, solve_ac_power_flow

_FMT = "%.17g"


@dataclass(frozen=True)
class StateBlock:
    x: np.ndarray                 # (T, n_bus) complex bus voltages
    iterations: tuple[int, ...]   # power-flow iterations per row
    mismatches: tuple[float, ...]

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]


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
        """Raise ValueError unless the block was measured through *dep*."""
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
    with the offending instant attached.
    """
    steps = duration_s * rate_hz
    n_steps = int(round(steps))
    if abs(steps - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"duration*rate must be a positive integer, got {steps}")
    dep = build_measurement_matrix(case, plan)
    adm = build_admittances(case)
    traj = perturb_loads(case, n_steps, int(round(rate_hz)) + 1, seed, policy)
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
            sol = solve_ac_power_flow(case, traj.pd[t], traj.qd[t], adm=adm, v0=v_prev)
        except PowerFlowError as exc:
            raise PowerFlowError(
                f"power flow failed at instant {t + 1}: {exc}",
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


def _format_complex(value: complex) -> str:
    return f"{_FMT % value.real}{'+' if value.imag >= 0 else '-'}{_FMT % abs(value.imag)}j"


def write_block_csv(block: MeasurementBlock, path: str | Path) -> None:
    """CSV layout: "# key: value" metadata, then t + channel labels header,
    then one row per instant with complex entries as "<re><+/-><im>j".
    """
    buf = io.StringIO()
    buf.write("# pmufdi-block: 1\n")
    buf.write(f"# rate_hz: {_FMT % block.rate_hz}\n")
    buf.write(f"# start_index: {block.start_index}\n")
    buf.write(f"# dependency: {block.dependency_digest}\n")
    buf.write(f"# attacked: {int(block.attacked)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", *block.labels])
    for k in range(block.n_steps):
        writer.writerow([
            block.start_index + k,
            *(_format_complex(z) for z in block.z[k]),
        ])
    Path(path).write_text(buf.getvalue())


def read_block_csv(path: str | Path) -> MeasurementBlock:
    """Read the layout of :func:`write_block_csv`. A malformed file raises
    ValueError naming the file and the bad sample, channel or metadata key.
    """
    meta = {}
    rows = []
    labels: tuple[str, ...] = ()
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if row[0].startswith("#"):
                key, _, value = row[0].lstrip("# ").partition(":")
                meta[key.strip()] = value.strip()
                continue
            if not labels:
                labels = tuple(row[1:])
                continue
            if len(row) != len(labels) + 1:
                raise ValueError(f"{path}: sample {row[0]} has {len(row) - 1} "
                                 f"entries, expected {len(labels)}")
            entries = []
            for label, cell in zip(labels, row[1:]):
                try:
                    entries.append(complex(cell))
                except ValueError:
                    raise ValueError(f"{path}: sample {row[0]}, channel {label!r}: "
                                     f"bad entry {cell!r}") from None
            rows.append(entries)
    if not rows:
        raise ValueError(f"{path}: no measurement rows")
    for key in ("rate_hz", "start_index"):
        if key not in meta:
            raise ValueError(f"{path}: missing '# {key}:' line")
    return MeasurementBlock(
        z=np.array(rows, dtype=complex),
        rate_hz=float(meta["rate_hz"]),
        start_index=int(meta["start_index"]),
        labels=labels,
        dependency_digest=meta.get("dependency", ""),
        attacked=bool(int(meta.get("attacked", "0"))),
    )


def write_block_npz(block: MeasurementBlock, path: str | Path) -> None:
    np.savez_compressed(
        path,
        z=block.z,
        rate_hz=block.rate_hz,
        start_index=block.start_index,
        labels=np.array(block.labels),
        dependency=block.dependency_digest,
        attacked=block.attacked,
    )


def read_block_npz(path: str | Path) -> MeasurementBlock:
    with np.load(path, allow_pickle=False) as data:
        return MeasurementBlock(
            z=data["z"],
            rate_hz=float(data["rate_hz"]),
            start_index=int(data["start_index"]),
            labels=tuple(str(s) for s in data["labels"]),
            dependency_digest=str(data["dependency"]),
            attacked=bool(data["attacked"]),
        )


def load_block(path: str | Path) -> MeasurementBlock:
    path = Path(path)
    if path.suffix == ".npz":
        return read_block_npz(path)
    return read_block_csv(path)
