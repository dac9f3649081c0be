import dataclasses

import numpy as np
import pytest

from pmufdi.admittance import build_admittances
from pmufdi.cases import parse_case

from oracles import stamp_ybus

SINGLE_LINE = """\
function mpc = oneline
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1 0 138 1 1.1 0.9;
    2 1 0 0 0 0 1 1 0 138 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1.0 100 1 200 0;
];
mpc.branch = [
    1 2 0 0.1 {b} 0 0 0 {tap} 0 1;
];
"""


def test_single_line_yf_row():
    case = parse_case(SINGLE_LINE.format(b=0, tap=0))
    adm = build_admittances(case)
    assert adm.yf[0] == pytest.approx(np.array([-10j, 10j]))
    assert adm.yt[0] == pytest.approx(np.array([10j, -10j]))


def test_charging_adds_half_susceptance_at_from_end():
    bare = build_admittances(parse_case(SINGLE_LINE.format(b=0, tap=0)))
    charged = build_admittances(parse_case(SINGLE_LINE.format(b=0.2, tap=1.0)))
    delta = charged.yf[0] - bare.yf[0]
    assert delta[0] == pytest.approx(0.1j)
    assert delta[1] == 0


def test_off_nominal_tap_entries():
    case = parse_case(SINGLE_LINE.format(b=0, tap=1.03))
    adm = build_admittances(case)
    ys = 1 / 0.1j
    assert adm.yf[0, 0] == pytest.approx(ys / 1.03**2)
    assert adm.yf[0, 1] == pytest.approx(-ys / 1.03)
    assert adm.yt[0, 0] == pytest.approx(-ys / 1.03)
    assert adm.yt[0, 1] == pytest.approx(ys)


def test_phase_shift_entries():
    text = SINGLE_LINE.format(b=0, tap=1.0).replace("1.0 0 1;", "1.0 30 1;")
    adm = build_admittances(parse_case(text))
    ys = 1 / 0.1j
    t = np.exp(1j * np.deg2rad(30))
    assert adm.yf[0, 1] == pytest.approx(-ys / np.conj(t))
    assert adm.yt[0, 0] == pytest.approx(-ys / t)


def test_rts_ybus_matches_stamping_oracle(ieee24_case):
    adm = build_admittances(ieee24_case)
    oracle = stamp_ybus(ieee24_case)
    assert np.max(np.abs(adm.ybus - oracle)) < 1e-12


def test_118_ybus_matches_stamping_oracle(ieee118_case):
    adm = build_admittances(ieee118_case)
    oracle = stamp_ybus(ieee118_case)
    assert np.max(np.abs(adm.ybus - oracle)) < 1e-12


def test_row_sums_equal_shunt_terms_for_tap_free_buses(ieee24_case):
    # a row sum cancels every series term, leaving the charging halves
    # (plus bus shunts); exact only when no incident branch has a tap
    adm = build_admittances(ieee24_case)
    tapped = {br.from_bus for br in ieee24_case.branches if br.tap != 0}
    tapped |= {br.to_bus for br in ieee24_case.branches if br.tap != 0}
    checked = 0
    for bus in ieee24_case.buses:
        if bus.id in tapped:
            continue
        expected = complex(bus.gs, bus.bs)
        for br in ieee24_case.branches:
            if bus.id in (br.from_bus, br.to_bus):
                expected += 1j * br.b / 2
        row_sum = adm.ybus[ieee24_case.bus_index(bus.id)].sum()
        assert row_sum == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked > 10


def test_ybus_symmetric_without_taps_or_shifts(ieee24_case):
    notap = dataclasses.replace(
        ieee24_case,
        branches=tuple(dataclasses.replace(br, tap=0.0, shift_deg=0.0)
                       for br in ieee24_case.branches),
    )
    ybus = build_admittances(notap).ybus
    assert np.max(np.abs(ybus - ybus.T)) < 1e-12


def test_ybus_from_to_assembly(two_bus_case):
    adm = build_admittances(two_bus_case)
    # Ybus rows must equal the incidence-weighted sum of Yf and Yt rows
    expected = np.zeros_like(adm.ybus)
    for k, br in enumerate(two_bus_case.branches):
        expected[two_bus_case.bus_index(br.from_bus)] += adm.yf[k]
        expected[two_bus_case.bus_index(br.to_bus)] += adm.yt[k]
    assert np.max(np.abs(adm.ybus - expected)) == 0


def test_a_branch_from_a_bus_to_itself_stamps_cf_yf_plus_ct_yt(two_bus_case):
    case = dataclasses.replace(two_bus_case, branches=(
        *two_bus_case.branches,
        dataclasses.replace(two_bus_case.branches[0], id=2, from_bus=2, to_bus=2,
                            b=0.3, tap=0.9, shift_deg=5.0)))
    adm = build_admittances(case)
    cf = np.array([[br.from_bus == bus.id for bus in case.buses] for br in case.branches])
    ct = np.array([[br.to_bus == bus.id for bus in case.buses] for br in case.branches])
    assert np.allclose(adm.ybus, cf.T @ adm.yf + ct.T @ adm.yt, rtol=1e-15, atol=0)
