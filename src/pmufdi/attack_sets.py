"""Admissible attacked-state sets.

An attacked-state set I induces the subgraph S = I plus its graph
neighbors. The set is admissible when every boundary bus of S (a neighbor
of I outside I) carries base-case load: injection changes caused by the
state shift then land on load buses, where they pass as plausible demand.
The measurement set J collects every dependency-matrix row with a nonzero
entry on some bus of I; those are exactly the measurements the attack can
touch.

The enumerator grows the connected sets level by level: the sets of
k + 1 buses are those of k buses, each with one neighbour added, kept as
frozensets so that a set reached from several sides counts once. Every
connected set up to the size bound is validated once, and the admissible
ones are returned sorted. The size bound must be an integer of at least
1; a bool or a fraction is refused, since a fraction would grow the sets
to the whole grid.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .cases import GridCase
from .measurements import DependencyMatrix


@dataclass(frozen=True)
class AttackSetValidation:
    attacked_buses: tuple[int, ...]     # I, sorted
    subgraph_buses: tuple[int, ...]     # S = I with neighbors, sorted
    boundary_buses: tuple[int, ...]     # S minus I, sorted
    measurement_rows: tuple[int, ...]   # J, row indices into the dependency matrix
    valid: bool
    reasons: tuple[str, ...]


def measurement_support(dep: DependencyMatrix, bus_ids) -> tuple[int, ...]:
    """Rows of H with a structurally nonzero entry on any bus in *bus_ids*,
    sorted: the union of the buses' rows, which *dep* builds once."""
    return tuple(sorted(set().union(*(dep.bus_rows(b) for b in bus_ids))))


def validate_attack_set(
    case: GridCase, dep: DependencyMatrix, attacked_buses
) -> AttackSetValidation:
    """Check the load-boundary rule for I = *attacked_buses* and compute J."""
    attacked = tuple(sorted(set(int(b) for b in attacked_buses)))
    if not attacked:
        raise ValueError("attacked-state set must be nonempty")
    inner = set(attacked)
    boundary = set()
    for b in attacked:
        boundary |= case.neighbors(b)    # raises CaseError on an unknown bus
    boundary -= inner
    subgraph = inner | boundary

    reasons = []
    load_ids = case.load_bus_ids
    for b in sorted(boundary):
        if b not in load_ids:
            reasons.append(f"boundary bus {b} carries no load")

    return AttackSetValidation(
        attacked_buses=attacked,
        subgraph_buses=tuple(sorted(subgraph)),
        boundary_buses=tuple(sorted(boundary)),
        measurement_rows=measurement_support(dep, attacked),
        valid=not reasons,
        reasons=tuple(reasons),
    )


def _connected_subsets(case: GridCase, max_size: int):
    """Every connected bus set of 1..*max_size* buses, each once."""
    level = {frozenset([bus.id]) for bus in case.buses}
    for _ in range(max_size - 1):
        yield from level
        level = {s | {n} for s in level for v in s for n in case.neighbors(v) - s}
    yield from level


def enumerate_attack_sets(
    case: GridCase, dep: DependencyMatrix, max_size: int
) -> list[AttackSetValidation]:
    """All connected attacked-state sets with 1 <= |I| <= *max_size* that pass
    :func:`validate_attack_set`, in lexicographic order of the sorted bus ids.
    A *max_size* that is not an integer of at least 1 raises ValueError.
    """
    if isinstance(max_size, bool) or not isinstance(max_size, numbers.Integral) \
            or max_size < 1:
        raise ValueError(f"max_size must be an integer >= 1, got {max_size!r}")
    valid = []
    for subset in _connected_subsets(case, max_size):
        check = validate_attack_set(case, dep, subset)
        if check.valid:
            valid.append(check)
    valid.sort(key=lambda v: v.attacked_buses)
    return valid
