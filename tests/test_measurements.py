import numpy as np
import pytest

from pmufdi.cases import parse_case
from pmufdi.measurements import (
    PlanError,
    PmuPlan,
    build_measurement_matrix,
    check_observability,
    normalize_rows,
)

from test_admittance import SINGLE_LINE


def test_voltage_row_is_unit_vector(two_bus_case):
    dep = build_measurement_matrix(two_bus_case, PmuPlan((1,), (), ()))
    assert np.array_equal(dep.h, np.array([[1.0 + 0j, 0.0]]))
    assert dep.row_labels == ("V:1",)


def test_current_row_and_normalization():
    case = parse_case(SINGLE_LINE.format(b=0, tap=0))
    dep = build_measurement_matrix(case, PmuPlan((), (1,), ()))
    assert dep.h[0] == pytest.approx(np.array([-10j, 10j]))
    assert dep.h_normalized[0] == pytest.approx(np.array([-10j, 10j]) / np.sqrt(200))


def test_rts_plan_row_count(ieee24_dep):
    # 9 voltage + 20 from-side + 12 to-side channels
    assert ieee24_dep.n_measurements == 41
    assert ieee24_dep.row_labels[:2] == ("V:1", "V:2")
    assert ieee24_dep.row_labels[9] == "F:1"
    assert ieee24_dep.row_labels[29] == "T:1"
    for i, bus in enumerate((1, 2, 7, 9, 10, 11, 15, 17, 20)):
        row = ieee24_dep.h[i]
        assert row[ieee24_dep.column_index(bus)] == 1.0
        assert np.count_nonzero(row) == 1


def test_118_plan_row_count(ieee118_dep):
    assert ieee118_dep.n_measurements == 32 + 63 + 62


def test_normalized_rows_have_unit_norm(ieee24_dep, ieee118_dep):
    for dep in (ieee24_dep, ieee118_dep):
        norms = np.linalg.norm(dep.h_normalized, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_normalization_idempotent(ieee24_dep):
    again = normalize_rows(ieee24_dep.h_normalized)
    assert np.max(np.abs(again - ieee24_dep.h_normalized)) < 1e-12


def test_all_zero_row_rejected():
    h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(PlanError, match="all-zero"):
        normalize_rows(h)


def test_plan_validation(ieee24_case):
    with pytest.raises(PlanError, match="duplicate"):
        PmuPlan((1, 1), (), ())
    plan = PmuPlan((1,), (99,), ())
    with pytest.raises(Exception):
        plan.validate(ieee24_case)


def test_observability_verdicts(two_bus_case, ieee24_dep, ieee118_dep):
    partial = build_measurement_matrix(two_bus_case, PmuPlan((1,), (), ()))
    observable, rank = check_observability(partial)
    assert (observable, rank) == (False, 1)

    assert check_observability(ieee24_dep) == (True, 24)
    assert check_observability(ieee118_dep) == (True, 118)


def test_duplicated_row_does_not_change_rank(ieee24_dep):
    import dataclasses
    doubled = dataclasses.replace(
        ieee24_dep,
        h=np.vstack([ieee24_dep.h, ieee24_dep.h[:1]]),
        h_normalized=np.vstack([ieee24_dep.h_normalized, ieee24_dep.h_normalized[:1]]),
        row_labels=ieee24_dep.row_labels + (ieee24_dep.row_labels[0],),
    )
    assert check_observability(doubled) == (True, 24)


def test_digest_distinguishes_plans(ieee24_case):
    a = build_measurement_matrix(ieee24_case, PmuPlan((1,), (), ()))
    b = build_measurement_matrix(ieee24_case, PmuPlan((2,), (), ()))
    assert a.digest != b.digest
    again = build_measurement_matrix(ieee24_case, PmuPlan((1,), (), ()))
    assert a.digest == again.digest


def test_digest_is_computed_once(ieee118_dep):
    assert ieee118_dep.digest is ieee118_dep.digest


def test_row_and_column_lookup(ieee24_dep):
    assert ieee24_dep.row_index("F:11") == 9 + 5
    assert ieee24_dep.column_index(8) == 7
    with pytest.raises(PlanError):
        ieee24_dep.row_index("F:999")
    with pytest.raises(PlanError):
        ieee24_dep.column_index(999)


def test_bus_rows_match_a_column_scan(ieee24_dep, ieee118_dep):
    for dep in (ieee24_dep, ieee118_dep):
        for j, bus in enumerate(dep.bus_ids):
            scan = tuple(i for i in range(dep.n_measurements) if dep.h[i, j] != 0.0)
            assert dep.bus_rows(bus) == scan
    with pytest.raises(PlanError, match="999"):
        ieee24_dep.bus_rows(999)


def test_smax2_is_computed_once(ieee118_dep):
    expected = float(np.linalg.svd(ieee118_dep.h_normalized.T, compute_uv=False)[0] ** 2)
    assert ieee118_dep.smax2 == expected
    assert ieee118_dep.smax2 is ieee118_dep.smax2
