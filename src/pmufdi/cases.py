"""Network case files: parsing and the static grid description.

The accepted format is the common matrix-based case format: a MATLAB-style
file assigning ``baseMVA`` plus ``bus``, ``gen`` and ``branch`` tables to a
struct. Each row must have at least the standard columns listed below,
of which only the starred ones are read; trailing columns are ignored so
standard files load unchanged.

bus:    bus_i*, type* (1 PQ / 2 PV / 3 slack), Pd*, Qd*, Gs*, Bs*, area,
        Vm*, Va*, baseKV, zone, Vmax, Vmin
gen:    bus*, Pg*, Qg*, Qmax, Qmin, Vg*, mBase, status*, Pmax, Pmin
branch: fbus*, tbus*, r*, x*, b*, rateA, rateB, rateC, ratio*, angle*,
        status*

All MW/MVar quantities are converted to per-unit on the system MVA base at
parse time. Bus and branch ordering is the file order; branch ids are the
1-based row indices of the branch table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

PQ, PV, SLACK = 1, 2, 3

_BUS_COLS = 13
_GEN_COLS = 10
_BRANCH_COLS = 11


class CaseError(ValueError):
    """Malformed or inconsistent case file."""


class CaseSyntaxError(CaseError):
    """Tokenizer/layout failure, carrying the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Bus:
    id: int
    type: int
    pd: float          # active demand, p.u.
    qd: float          # reactive demand, p.u.
    gs: float          # shunt conductance, p.u.
    bs: float          # shunt susceptance, p.u.
    vm: float
    va_deg: float

    @property
    def has_load(self) -> bool:
        return self.pd != 0.0 or self.qd != 0.0


@dataclass(frozen=True)
class Branch:
    id: int            # 1-based row index in the branch table
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float           # total line charging susceptance, p.u.
    tap: float         # off-nominal ratio; 0 in the file means 1.0
    shift_deg: float


@dataclass(frozen=True)
class Generator:
    bus: int
    pg: float
    qg: float
    vg: float


@dataclass(frozen=True)
class GridCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    def bus_index(self, bus_id: int) -> int:
        """Column/position of a bus id in file order."""
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus id {bus_id}") from None

    def branch_by_id(self, branch_id: int) -> Branch:
        if not 1 <= branch_id <= len(self.branches):
            raise CaseError(f"unknown branch id {branch_id}")
        return self.branches[branch_id - 1]

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.type == SLACK)

    @property
    def load_bus_ids(self) -> frozenset[int]:
        """Buses with nonzero active or reactive base demand."""
        return frozenset(b.id for b in self.buses if b.has_load)

    def neighbors(self, bus_id: int) -> frozenset[int]:
        self.bus_index(bus_id)
        out = set()
        for br in self.branches:
            if br.from_bus == bus_id:
                out.add(br.to_bus)
            elif br.to_bus == bus_id:
                out.add(br.from_bus)
        return frozenset(out)

    def __post_init__(self):
        index = {}
        for pos, bus in enumerate(self.buses):
            if bus.id in index:
                raise CaseError(f"duplicate bus id {bus.id}")
            index[bus.id] = pos
        object.__setattr__(self, "_index", index)

        slacks = [b.id for b in self.buses if b.type == SLACK]
        if len(slacks) != 1:
            raise CaseError(f"expected exactly one slack bus, found {slacks}")
        for bus in self.buses:
            if bus.type not in (PQ, PV, SLACK):
                raise CaseError(f"bus {bus.id}: unsupported type code {bus.type}")
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise CaseError(
                        f"branch {br.id} ({br.from_bus}-{br.to_bus}) references "
                        f"missing bus {end}"
                    )
            if abs(complex(br.r, br.x)) == 0.0:
                raise CaseError(f"branch {br.id}: zero series impedance")
        for gen in self.generators:
            if gen.bus not in index:
                raise CaseError(f"generator references missing bus {gen.bus}")


_MATRIX_RE = re.compile(r"mpc\.(?P<name>bus|gen|branch)\s*=\s*\[", re.MULTILINE)
_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*(?P<val>[0-9eE+\-.]+)\s*;")
_NAME_RE = re.compile(r"function\s+mpc\s*=\s*(?P<name>\w+)")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_matrix(text: str, start: int, name: str) -> list[list[float]]:
    """Parse rows of numbers between ``[`` at ``start`` and the closing ``];``."""
    end = text.find("]", start)
    if end < 0:
        line = text.count("\n", 0, start) + 1
        raise CaseSyntaxError(f"unterminated {name} matrix", line, 1)
    body = text[start:end]
    base_line = text.count("\n", 0, start) + 1
    rows = []
    for off, raw in enumerate(body.split("\n")):
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        row = []
        for piece in stripped.replace(";", " ").split():
            try:
                row.append(float(piece))
            except ValueError:
                col = raw.index(piece) + 1
                raise CaseSyntaxError(
                    f"bad number {piece!r} in {name} table",
                    base_line + off, col,
                ) from None
        if row:
            rows.append(row)
    return rows


def parse_case(text: str, name: str = "") -> GridCase:
    """Parse case-file content into a :class:`GridCase` in per-unit.

    Raises :class:`CaseSyntaxError` on malformed numbers and
    :class:`CaseError` on structural problems (missing slack, dangling
    branch endpoints, zero impedance, out-of-service elements).
    """
    m = _BASE_RE.search(text)
    if m is None:
        raise CaseError("missing mpc.baseMVA assignment")
    base = float(m.group("val"))
    if base <= 0:
        raise CaseError(f"baseMVA must be positive, got {base}")

    if not name:
        nm = _NAME_RE.search(text)
        name = nm.group("name") if nm else "case"

    tables: dict[str, list[list[float]]] = {}
    for m in _MATRIX_RE.finditer(text):
        tables[m.group("name")] = _parse_matrix(text, m.end(), m.group("name"))
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise CaseError(f"missing mpc.{required} table")

    buses = []
    for row in tables["bus"]:
        if len(row) < _BUS_COLS:
            raise CaseError(f"bus row has {len(row)} columns, expected >= {_BUS_COLS}")
        buses.append(Bus(
            id=int(row[0]), type=int(row[1]),
            pd=row[2] / base, qd=row[3] / base,
            gs=row[4] / base, bs=row[5] / base,
            vm=row[7], va_deg=row[8],
        ))

    gens = []
    for row in tables["gen"]:
        if len(row) < _GEN_COLS:
            raise CaseError(f"gen row has {len(row)} columns, expected >= {_GEN_COLS}")
        if int(row[7]) != 1:
            raise CaseError(f"generator at bus {int(row[0])} is out of service")
        gens.append(Generator(
            bus=int(row[0]),
            pg=row[1] / base, qg=row[2] / base, vg=row[5],
        ))

    branches = []
    for i, row in enumerate(tables["branch"], start=1):
        if len(row) < _BRANCH_COLS:
            raise CaseError(f"branch row has {len(row)} columns, expected >= {_BRANCH_COLS}")
        if int(row[10]) != 1:
            raise CaseError(f"branch {i} is out of service")
        branches.append(Branch(
            id=i, from_bus=int(row[0]), to_bus=int(row[1]),
            r=row[2], x=row[3], b=row[4],
            tap=row[8], shift_deg=row[9],
        ))

    return GridCase(
        name=name, base_mva=base,
        buses=tuple(buses), branches=tuple(branches), generators=tuple(gens),
    )


def load_case(path: str | Path) -> GridCase:
    path = Path(path)
    return parse_case(path.read_text(), name=path.stem)
