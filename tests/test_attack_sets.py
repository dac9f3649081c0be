import itertools

import numpy as np
import pytest

from pmufdi.attack_sets import enumerate_attack_sets, measurement_support, validate_attack_set
from pmufdi.measurements import PmuPlan, build_measurement_matrix

from oracles import bfs_connected, branch_neighbors


def test_bus8_singleton_is_admissible(ieee24_case, ieee24_dep):
    check = validate_attack_set(ieee24_case, ieee24_dep, [8])
    assert check.valid
    assert check.subgraph_buses == (7, 8, 9, 10)
    assert check.boundary_buses == (7, 9, 10)
    labels = [ieee24_dep.row_labels[i] for i in check.measurement_rows]
    assert labels == ["F:11", "T:12", "T:13"]


def test_measurement_set_matches_row_scan(ieee24_case, ieee24_dep):
    check = validate_attack_set(ieee24_case, ieee24_dep, [8])
    col = ieee24_dep.column_index(8)
    expected = tuple(int(i) for i in np.flatnonzero(ieee24_dep.h[:, col] != 0))
    assert check.measurement_rows == expected


def test_slack_singleton_rejected_with_reasons(ieee24_case, ieee24_dep):
    check = validate_attack_set(ieee24_case, ieee24_dep, [13])
    assert not check.valid
    assert any("11" in reason for reason in check.reasons)
    offenders = {int(r.split()[2]) for r in check.reasons}
    assert offenders == {11, 12, 23}


def test_validate_rejects_empty_and_unknown(ieee24_case, ieee24_dep):
    with pytest.raises(ValueError):
        validate_attack_set(ieee24_case, ieee24_dep, [])
    with pytest.raises(Exception):
        validate_attack_set(ieee24_case, ieee24_dep, [99])


def test_enumerator_soundness_and_order(ieee24_case, ieee24_dep):
    sets = enumerate_attack_sets(ieee24_case, ieee24_dep, 3)
    seen = set()
    for check in sets:
        assert check.valid
        assert check.attacked_buses not in seen
        seen.add(check.attacked_buses)
        assert bfs_connected(check.attacked_buses, ieee24_case.branches)
    assert [s.attacked_buses for s in sets] == sorted(s.attacked_buses for s in sets)


def test_enumerator_singletons(ieee24_case, ieee24_dep):
    singles = [
        s.attacked_buses[0]
        for s in enumerate_attack_sets(ieee24_case, ieee24_dep, 1)
    ]
    assert singles == [1, 2, 4, 5, 6, 7, 8, 11, 19, 24]


def test_enumerator_matches_neighbor_rule_on_118(ieee118_case, ieee118_dep):
    singles = {
        s.attacked_buses[0]
        for s in enumerate_attack_sets(ieee118_case, ieee118_dep, 1)
    }
    load = ieee118_case.load_bus_ids
    expected = {
        b.id for b in ieee118_case.buses
        if ieee118_case.neighbors(b.id) <= load
    }
    assert singles == expected
    assert len(singles) > 0


def test_no_admissible_set_in_unloaded_network(two_bus_no_load_case):
    dep = build_measurement_matrix(two_bus_no_load_case, PmuPlan((1,), (1,), ()))
    assert enumerate_attack_sets(two_bus_no_load_case, dep, 1) == []


def test_enumerate_requires_positive_size(ieee24_case, ieee24_dep):
    # a fraction never equals a set's size, so it would grow sets to the whole grid
    for size in (0, True, 1.0, "2", None, 2.5):
        with pytest.raises(ValueError, match="max_size"):
            enumerate_attack_sets(ieee24_case, ieee24_dep, size)
    assert enumerate_attack_sets(ieee24_case, ieee24_dep, np.int64(2)) \
        == enumerate_attack_sets(ieee24_case, ieee24_dep, 2)


@pytest.mark.parametrize("name, size", [("ieee24", 3), ("ieee118", 2), ("parallel_branch", 2)])
def test_enumerator_is_complete(name, size, request):
    case = request.getfixturevalue(f"{name}_case")
    dep = (build_measurement_matrix(case, PmuPlan((1,), (1,), ())) if name == "parallel_branch"
           else request.getfixturevalue(f"{name}_dep"))
    neighbors = {b.id: branch_neighbors(case.branches, b.id) for b in case.buses}
    for bus, expected in neighbors.items():
        assert case.neighbors(bus) == expected
    # every bus subset up to *size* that is connected and bounded by load buses
    load = {b.id for b in case.buses if b.pd != 0.0 or b.qd != 0.0}
    expected = [
        subset
        for k in range(1, size + 1)
        for subset in itertools.combinations(sorted(neighbors), k)
        if set().union(*(neighbors[b] for b in subset)) - set(subset) <= load
        and bfs_connected(subset, case.branches)]
    assert expected
    got = [check.attacked_buses for check in enumerate_attack_sets(case, dep, size)]
    assert got == sorted(expected)


def test_support_propagation(ieee24_case, ieee24_dep):
    # any attack supported on I can only touch the channels J(I)
    rng = np.random.default_rng(11)
    for check in enumerate_attack_sets(ieee24_case, ieee24_dep, 2)[:12]:
        c = np.zeros((20, ieee24_dep.n_states), dtype=complex)
        for bus in check.attacked_buses:
            col = ieee24_dep.column_index(bus)
            c[:, col] = rng.normal(size=20) + 1j * rng.normal(size=20)
        d = c @ ieee24_dep.h_normalized.T
        touched = set(np.flatnonzero(np.linalg.norm(d, axis=0) > 0))
        assert touched <= set(check.measurement_rows)


def test_measurement_support_of_multiple_buses(ieee24_dep):
    jointly = set(measurement_support(ieee24_dep, [7, 8]))
    assert jointly >= set(measurement_support(ieee24_dep, [8]))
    assert jointly >= set(measurement_support(ieee24_dep, [7]))
    # exactly the rows a scan of H's columns finds
    for buses in ([8], [7, 8], [8, 7], [1, 2, 4, 5], list(ieee24_dep.bus_ids)):
        cols = [ieee24_dep.column_index(b) for b in buses]
        scan = np.flatnonzero(np.any(ieee24_dep.h[:, cols] != 0.0, axis=1))
        assert measurement_support(ieee24_dep, buses) == tuple(int(i) for i in scan)
    assert measurement_support(ieee24_dep, []) == ()
