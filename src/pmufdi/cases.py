"""Network case files: parsing and the static grid description.

The accepted format is the common matrix-based case format: a MATLAB-style
file assigning ``baseMVA`` plus ``bus``, ``gen`` and ``branch`` tables to a
struct. A row ends at ``;`` and at a line end. Each row must have at
least the standard columns listed below, of which only the starred ones
are read; trailing columns are ignored so standard files load unchanged.
A malformed number, or a row short of the standard columns, raises
:class:`CaseSyntaxError` at its line and column (a row's first token).

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

import math
import re
from dataclasses import dataclass
from pathlib import Path

PQ, PV, SLACK = 1, 2, 3

# each table's standard column count and its 0-based columns that hold
# integers: ids, bus type, status
_TABLES = {"bus": (13, (0, 1)), "gen": (10, (0, 7)), "branch": (11, (0, 1, 10))}


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
        return self._load_bus_ids

    def neighbors(self, bus_id: int) -> frozenset[int]:
        """Buses joined to *bus_id* by a branch."""
        self.bus_index(bus_id)
        return self._adjacency[bus_id]

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
        adjacency = {bus.id: set() for bus in self.buses}
        # bounds on the entries that build_admittances puts in each bus's
        # row of Ybus: the bus's shunt plus, for each of its branches,
        # (|1/(r + jx)| + |b|) max(1, 1/tap^2); where they are finite, so
        # is every admittance
        reach = {bus.id: abs(bus.gs) + abs(bus.bs) for bus in self.buses}
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise CaseError(
                        f"branch {br.id} ({br.from_bus}-{br.to_bus}) references "
                        f"missing bus {end}"
                    )
            tap = br.tap or 1.0
            try:
                bound = (abs(1.0 / complex(br.r, br.x)) + abs(br.b)) * max(1.0, 1.0 / (tap * tap))
            except ZeroDivisionError:
                bound = math.inf
            if not math.isfinite(bound):
                raise CaseError(f"branch {br.id}: series impedance {complex(br.r, br.x)}, "
                                f"charging {br.b} and tap {br.tap} give a non-finite admittance")
            for end in (br.from_bus, br.to_bus):
                reach[end] += bound
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
        for bus_id, bound in reach.items():
            if not math.isfinite(bound):
                raise CaseError(f"bus {bus_id}: its admittances sum past the float range")
        object.__setattr__(self, "_adjacency",
                           {bus: frozenset(ends) for bus, ends in adjacency.items()})
        object.__setattr__(self, "_load_bus_ids",
                           frozenset(b.id for b in self.buses if b.has_load))
        for gen in self.generators:
            if gen.bus not in index:
                raise CaseError(f"generator references missing bus {gen.bus}")
            if not gen.vg > 0:
                raise CaseError(f"generator at bus {gen.bus}: voltage setpoint Vg "
                                f"{gen.vg!r} must be positive")


_MATRIX_RE = re.compile(r"mpc\.(?P<name>bus|gen|branch)\s*=\s*\[", re.MULTILINE)
_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*(?P<val>[0-9eE+\-.]+)\s*;")
_NAME_RE = re.compile(r"function\s+mpc\s*=\s*(?P<name>\w+)")
_TOKEN_RE = re.compile(r"[^\s;]+|;")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _number(piece: str, where: str, line: int, column: int) -> float:
    """*piece* as a finite float, or CaseSyntaxError at *line*, *column*."""
    try:
        value = float(piece)
    except ValueError:
        problem = "bad number"
    else:
        if math.isfinite(value):
            return value
        problem = "non-finite number"
    raise CaseSyntaxError(f"{problem} {piece!r} in {where}", line, column)


def _parse_matrix(text: str, start: int, name: str) -> list[list[float]]:
    """Parse rows of numbers between ``[`` at ``start`` and the closing ``];``.
    A row ends at ``;`` and at a line end. A token that is not a finite
    number, or not an integer in an integer column, raises CaseSyntaxError
    at its own line and column; a row shorter than the table's standard
    columns raises it at the row's first token."""
    end = text.find("]", start)
    if end < 0:
        line = text.count("\n", 0, start) + 1
        raise CaseSyntaxError(f"unterminated {name} matrix", line, 1)
    body = text[start:end]
    base_line = text.count("\n", 0, start) + 1
    where, (width, int_cols) = f"{name} table", _TABLES[name]
    rows, row = [], []
    for off, raw in enumerate(body.split("\n")):
        # the appended ";" ends the line's last row
        for token in _TOKEN_RE.finditer(_strip_comment(raw) + ";"):
            piece = token.group()
            if piece == ";":
                if row:
                    if len(row) < width:
                        raise CaseSyntaxError(f"{name} row has {len(row)} columns, "
                                              f"expected >= {width}", *first)
                    rows.append(row)
                row = []
                continue
            line, column = base_line + off, token.start() + 1
            if not row:
                first = line, column
            value = _number(piece, where, line, column)
            if len(row) in int_cols and not value.is_integer():
                raise CaseSyntaxError(f"non-integer {piece!r} in {where}", line, column)
            row.append(value)
    return rows


def parse_case(text: str, name: str = "") -> GridCase:
    """Parse case-file content into a :class:`GridCase` in per-unit.

    Raises :class:`CaseSyntaxError` on malformed numbers and
    :class:`CaseError` on structural problems (missing slack, dangling
    branch endpoints, non-finite admittances, out-of-service elements,
    a generator voltage setpoint that is not positive).
    """
    m = _BASE_RE.search(text)
    if m is None:
        raise CaseError("missing mpc.baseMVA assignment")
    pos = m.start("val")
    base = _number(m.group("val"), "mpc.baseMVA", text.count("\n", 0, pos) + 1,
                   pos - text.rfind("\n", 0, pos))
    if base <= 0:
        raise CaseError(f"baseMVA must be positive, got {base}")

    if not name:
        nm = _NAME_RE.search(text)
        name = nm.group("name") if nm else "case"

    tables: dict[str, list[list[float]]] = {}
    for m in _MATRIX_RE.finditer(text):
        tables[m.group("name")] = _parse_matrix(text, m.end(), m.group("name"))
    for required in _TABLES:
        if required not in tables:
            raise CaseError(f"missing mpc.{required} table")

    def per_unit(values: list[float], owner: str) -> list[float]:
        # a finite MW or MVar value overflows on a base far below 1
        scaled = [v / base for v in values]
        if not all(map(math.isfinite, scaled)):
            raise CaseError(f"{owner}: {values} is not finite per unit on baseMVA {base!r}")
        return scaled

    buses = []
    for row in tables["bus"]:
        pd, qd, gs, bs = per_unit(row[2:6], f"bus {int(row[0])}")
        buses.append(Bus(
            id=int(row[0]), type=int(row[1]), pd=pd, qd=qd, gs=gs, bs=bs,
            vm=row[7], va_deg=row[8],
        ))

    gens = []
    for row in tables["gen"]:
        if int(row[7]) != 1:
            raise CaseError(f"generator at bus {int(row[0])} is out of service")
        pg, qg = per_unit(row[1:3], f"generator at bus {int(row[0])}")
        gens.append(Generator(bus=int(row[0]), pg=pg, qg=qg, vg=row[5]))

    branches = []
    for i, row in enumerate(tables["branch"], start=1):
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
