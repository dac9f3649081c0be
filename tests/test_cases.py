import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmufdi.admittance import build_admittances
from pmufdi.cases import Branch, CaseError, CaseSyntaxError, parse_case
from pmufdi.powerflow import NewtonPlan, PowerFlowError, solve_ac_power_flow

from conftest import TWO_BUS_CASE


def test_minimal_two_bus_case(two_bus_case):
    assert two_bus_case.n_bus == 2
    assert two_bus_case.n_branch == 1
    br = two_bus_case.branches[0]
    assert (br.r, br.x) == (0.01, 0.1)


def test_bundled_rts_counts(ieee24_case):
    assert ieee24_case.n_bus == 24
    assert ieee24_case.n_branch == 38
    assert ieee24_case.slack_bus.id == 13


def test_bundled_118_counts(ieee118_case):
    assert ieee118_case.n_bus == 118
    assert ieee118_case.n_branch == 186
    assert ieee118_case.slack_bus.id == 69


def test_quantities_are_per_unit(ieee24_case):
    bus1 = ieee24_case.buses[0]
    assert bus1.pd == pytest.approx(1.08)   # 108 MW on a 100 MVA base
    assert bus1.qd == pytest.approx(0.22)
    bus6 = ieee24_case.buses[5]
    assert bus6.bs == pytest.approx(-1.0)   # -100 MVAr reactor
    total_pg = sum(g.pg for g in ieee24_case.generators)
    assert total_pg == pytest.approx(29.993)


def test_load_bus_classification(ieee24_case):
    assert ieee24_case.load_bus_ids == frozenset(
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 18, 19, 20}
    )


def test_neighbors(ieee24_case):
    assert ieee24_case.neighbors(8) == frozenset({7, 9, 10})
    assert ieee24_case.neighbors(7) == frozenset({8})


def test_dangling_branch_endpoint_rejected():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 99 0.01 0.1")
    with pytest.raises(CaseError, match="99"):
        parse_case(text)


def test_missing_slack_rejected():
    text = TWO_BUS_CASE.replace("1 3 0", "1 1 0")
    with pytest.raises(CaseError, match="slack"):
        parse_case(text)


def test_two_slacks_rejected():
    text = TWO_BUS_CASE.replace("2 1 50", "2 3 50")
    with pytest.raises(CaseError, match="slack"):
        parse_case(text)


def test_zero_series_impedance_rejected():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0", "1 2 0 0 0")
    with pytest.raises(CaseError, match="impedance"):
        parse_case(text)


def test_syntax_error_reports_line_and_column():
    text = TWO_BUS_CASE.replace("0.01", "0.0x1")
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(text)
    assert err.value.line > 0
    assert err.value.column > 0
    assert "0.0x1" in str(err.value)


def test_duplicate_bus_id_rejected():
    text = TWO_BUS_CASE.replace("2 1 50 20", "1 1 50 20")
    with pytest.raises(CaseError, match="duplicate"):
        parse_case(text)


def test_out_of_service_branch_rejected():
    text = TWO_BUS_CASE.replace("0 0 0 0 0 1;", "0 0 0 0 0 0;")
    with pytest.raises(CaseError, match="out of service"):
        parse_case(text)


def test_missing_table_rejected():
    text = TWO_BUS_CASE.replace("mpc.gen", "mpc.nonsense")
    with pytest.raises(CaseError, match="gen"):
        parse_case(text)


def test_comments_and_name_parsing():
    commented = TWO_BUS_CASE.replace(
        "mpc.branch = [",
        "mpc.branch = [\n % fbus tbus r x b rateA rateB rateC ratio angle status",
    )
    case = parse_case(commented)
    assert case.name == "twobus"
    assert case.n_branch == 1


@pytest.mark.parametrize("old, new, line, column", [
    ("2 1 50 20", "2 1 nan 20", 6, 9),              # a bus's Pd
    ("2 1 50 20", "2 1 inf 20", 6, 9),
    ("2 1 50 20", "2 1 -inf 20", 6, 9),
    ("2 1 50 20", "2 1 1e400 20", 6, 9),            # overflows to inf
    ("0 0 0 0 0 1;", "0 0 0 0 0 nan;", 12, 30),     # a branch's status
    ("0 0 0 0 0 1;", "0 0 0 0 0 inf;", 12, 30),
    ("    1 0 0 100", "    1.7 0 0 100", 9, 5),     # a generator's bus
    ("2 1 50 20", "2 1.5 50 20", 6, 7),             # a bus's type
    # each token at its own place, not where its text first appears
    ("2 1 50 20 0 0 1 1 0 138", "2 1 5e1 20 0 0 1 1 e1 138", 6, 24),
    ("= 100;", "= 1-2;", 3, 15),                    # the MVA base
    ("= 100;", "= 1e400;", 3, 15),
    # a second branch on the first one's line: its own row and columns
    ("0 0 0 0 0 1;", "0 0 0 0 0 1; 2 1.5 0.02 0.2 0 0 0 0 0 0 1;", 12, 35),
])
def test_unmeant_numbers_rejected_at_their_place(old, new, line, column):
    text = TWO_BUS_CASE.replace(old, new)
    assert text != TWO_BUS_CASE
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(text)
    assert (err.value.line, err.value.column) == (line, column)
    token = text.splitlines()[line - 1][column - 1:].split()[0].rstrip(";")
    assert repr(token) in str(err.value)


def test_rows_end_at_semicolons_as_well_as_line_ends():
    text = TWO_BUS_CASE.replace("0 0 0 0 0 1;", "0 0 0 0 0 1; 2 1 0.02 0.2 0 0 0 0 0 0 1;")
    case = parse_case(text)
    assert case.n_branch == 2
    assert case.branches[1] == Branch(2, 2, 1, 0.02, 0.2, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("row, where", [
    ("1 2 0.01 0.1 0 0 0 0 1e-300 0 1", "branch 1"),     # tap^2 underflows to 0
    ("1 2 0.01 0.1 0 0 0 0 1e-160 0 1", "branch 1"),     # 1/tap^2 overflows
    ("1 2 5e-324 0 0 0 0 0 0 0 1", "branch 1"),          # 1/(r + jx) overflows
    ("1 2 1e-308 1e-308 0 0 0 0 0.5 0 1", "branch 1"),   # ... once over tap^2
    # two parallel branches of admittance 1e308 sum past the float range
    ("1 2 1e-308 0 0 0 0 0 0 0 1;\n    1 2 1e-308 0 0 0 0 0 0 0 1", "bus 1"),
])
def test_a_non_finite_admittance_is_refused(row, where):
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0 0 0 0 0 0 1", row)
    with pytest.raises(CaseError, match=where):
        parse_case(text)


def test_a_demand_that_overflows_per_unit_is_refused():
    with pytest.raises(CaseError, match="bus 2.*per unit"):
        parse_case(TWO_BUS_CASE.replace("= 100;", "= 1e-320;"))


# the case file's tokens; a mutant edits some of them
_PIECES = re.split(r"([^\s;]+)", TWO_BUS_CASE)
_TOKENS = _PIECES[1::2]
_BASE = _TOKENS.index("mpc.baseMVA") + 2
_BRANCH = _TOKENS.index("mpc.branch") + 3          # the branch row's first token
_R, _X, _TAP = _BRANCH + 2, _BRANCH + 3, _BRANCH + 8
_VG = _TOKENS.index("mpc.gen") + 3 + 5        # the generator's setpoint
_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "1-2", "x", "nan", "-inf", "1e400", "1e200",
                     "1e-160", "1e-300", "5e-324", ";", "[", "]"]),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
)


@example(edits=[(_VG, "replace", "1e200")])
@example(edits=[(_VG, "replace", "0")])
@example(edits=[(_BASE, "replace", "1-2")])
@example(edits=[(_BASE, "replace", "1e400")])
@example(edits=[(_BASE, "replace", "1e-320")])
@example(edits=[(_TAP, "replace", "1e-300")])
@example(edits=[(_TAP, "replace", "1e-160")])
@example(edits=[(_R, "replace", "5e-324"), (_X, "replace", "0")])
@example(edits=[(_R, "replace", "1e-308"), (_X, "replace", "1e-308"), (_TAP, "replace", "0.5")])
@given(edits=st.lists(st.tuples(st.integers(0, len(_TOKENS) - 1),
                                st.sampled_from(["replace", "delete", "insert"]), _VALUES),
                      max_size=4))
def test_a_mutated_case_fails_only_with_a_typed_error(edits):
    pieces = list(_PIECES)
    for index, op, value in edits:
        token = pieces[2 * index + 1]
        pieces[2 * index + 1] = {"replace": value, "delete": "", "insert": f"{value} {token}"}[op]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            case = parse_case("".join(pieces))
            adm = build_admittances(case)
        except CaseError:
            return
    for matrix in (adm.ybus, adm.yf, adm.yt):
        assert np.isfinite(matrix).all()
    pd = np.array([b.pd for b in case.buses])
    qd = np.array([b.qd for b in case.buses])
    try:
        solve_ac_power_flow(case, pd, qd, newton=NewtonPlan.build(case, adm.ybus))
    except PowerFlowError:
        pass
