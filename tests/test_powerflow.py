import warnings
from pathlib import Path

import numpy as np
import pytest

from pmufdi import blocks, powerflow
from pmufdi.admittance import build_admittances
from pmufdi.cases import PQ, SLACK, CaseError, parse_case
from pmufdi.loads import DisturbancePolicy
from pmufdi.experiment import load_config
from pmufdi.powerflow import NewtonPlan, PowerFlowError, solve_ac_power_flow

from conftest import TWO_BUS_CASE
from oracles import dense_jacobian, gauss_seidel_power_flow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

THREE_BUS_RING = """\
function mpc = ring3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1 0 138 1 1.1 0.9;
    2 1 0 0 0 0 1 1 0 138 1 1.1 0.9;
    3 1 0 0 0 0 1 1 0 138 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1.0 100 1 200 0;
];
mpc.branch = [
    1 2 0.01 0.05 0 0 0 0 0 0 1;
    2 3 0.01 0.05 0 0 0 0 0 0 1;
    1 3 0.02 0.08 0 0 0 0 0 0 1;
];
"""


def _demands(case):
    return (np.array([b.pd for b in case.buses]),
            np.array([b.qd for b in case.buses]))


def test_zero_demand_flat_fixed_point():
    case = parse_case(THREE_BUS_RING)
    sol = solve_ac_power_flow(case, np.zeros(3), np.zeros(3))
    assert sol.iterations == 0
    assert np.array_equal(sol.v, np.ones(3, dtype=complex))


def test_two_bus_matches_gauss_seidel_oracle(two_bus_case):
    pd, qd = _demands(two_bus_case)
    sol = solve_ac_power_flow(two_bus_case, pd, qd)
    oracle = gauss_seidel_power_flow(two_bus_case, pd, qd)
    assert np.max(np.abs(sol.v - oracle)) < 1e-8
    assert abs(sol.v[1]) < 1.0          # load depresses the far-end voltage


def test_rts_base_case_convergence(ieee24_case):
    pd, qd = _demands(ieee24_case)
    sol = solve_ac_power_flow(ieee24_case, pd, qd)
    assert sol.iterations <= 6
    assert sol.mismatch < 1e-8


def test_118_base_case_convergence(ieee118_case):
    pd, qd = _demands(ieee118_case)
    sol = solve_ac_power_flow(ieee118_case, pd, qd)
    assert sol.iterations <= 6
    assert sol.mismatch < 1e-8


def test_pv_magnitudes_pinned(ieee24_case):
    pd, qd = _demands(ieee24_case)
    sol = solve_ac_power_flow(ieee24_case, pd, qd)
    setpoints = {g.bus: g.vg for g in ieee24_case.generators}
    for bus_id, vg in setpoints.items():
        if bus_id == ieee24_case.slack_bus.id:
            continue
        assert abs(sol.v[ieee24_case.bus_index(bus_id)]) == pytest.approx(vg, abs=1e-12)


def test_power_balance_at_solution(ieee24_case):
    pd, qd = _demands(ieee24_case)
    sol = solve_ac_power_flow(ieee24_case, pd, qd)
    ybus = build_admittances(ieee24_case).ybus
    s = sol.v * np.conj(ybus @ sol.v)
    spec = -(pd + 1j * qd)
    for gen in ieee24_case.generators:
        spec[ieee24_case.bus_index(gen.bus)] += gen.pg + 1j * gen.qg
    for bus in ieee24_case.buses:
        i = ieee24_case.bus_index(bus.id)
        if bus.type == 1:
            assert abs(s[i] - spec[i]) < 1e-8
        elif bus.id != ieee24_case.slack_bus.id:
            assert abs(s[i].real - spec[i].real) < 1e-8


def test_warm_start_agrees_with_flat_start(ieee24_case):
    pd, qd = _demands(ieee24_case)
    flat = solve_ac_power_flow(ieee24_case, pd, qd)
    warm = solve_ac_power_flow(ieee24_case, pd * 1.0, qd, v0=flat.v)
    assert warm.iterations == 0
    assert np.max(np.abs(warm.v - flat.v)) < 1e-10


def test_nonconvergence_carries_mismatch(two_bus_case):
    pd = np.array([0.0, 80.0])          # absurd demand, far past collapse
    qd = np.array([0.0, 40.0])
    with pytest.raises(PowerFlowError) as err:
        solve_ac_power_flow(two_bus_case, pd, qd)
    assert err.value.mismatch > 0
    assert err.value.iterations >= 1


def test_iteration_budget_respected(two_bus_case, monkeypatch):
    pd, qd = _demands(two_bus_case)
    monkeypatch.setattr(powerflow, "_MAX_ITER", 1)
    with pytest.raises(PowerFlowError):
        solve_ac_power_flow(two_bus_case, pd * 3, qd * 3)


def test_jacobian_matches_finite_differences(ieee24_case):
    adm = build_admittances(ieee24_case)
    ybus = adm.ybus
    types = np.array([b.type for b in ieee24_case.buses])
    pq = np.flatnonzero(types == PQ)
    pvpq = np.flatnonzero(types != SLACK)
    rng = np.random.default_rng(3)
    va = 0.2 * rng.standard_normal(ieee24_case.n_bus)
    vm = 1.0 + 0.05 * rng.standard_normal(ieee24_case.n_bus)

    def mismatch(x):
        # the specified injection is constant, so S(V) stands in for S - S_spec
        a, m = va.copy(), vm.copy()
        a[pvpq], m[pq] = x[:pvpq.size], x[pvpq.size:]
        v = m * np.exp(1j * a)
        s = v * np.conj(ybus @ v)
        return np.concatenate([s.real[pvpq], s.imag[pq]])

    x0 = np.concatenate([va[pvpq], vm[pq]])
    h = 1e-6
    fd = np.column_stack([(mismatch(x0 + h * e) - mismatch(x0 - h * e)) / (2 * h)
                          for e in np.eye(x0.size)])
    v = vm * np.exp(1j * va)
    jac = powerflow._jacobian(NewtonPlan.build(ieee24_case, adm.ybus), v, ybus @ v)
    assert jac.shape == (x0.size, x0.size)
    assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(jac))


def test_nonfinite_demand_rejected(two_bus_case):
    with pytest.raises(ValueError):
        solve_ac_power_flow(two_bus_case, np.array([0.0, np.nan]), np.zeros(2))


ISOLATED_BUS = THREE_BUS_RING.replace(
    "    2 3 0.01 0.05 0 0 0 0 0 0 1;\n", ""
).replace(
    "    1 3 0.02 0.08 0 0 0 0 0 0 1;\n", ""
)


def test_singular_jacobian_reported():
    # an electrically isolated demand bus has an all-zero Jacobian row
    case = parse_case(ISOLATED_BUS)
    with pytest.raises(PowerFlowError, match="singular"):
        solve_ac_power_flow(case, np.array([0.0, 0.0, 0.5]), np.zeros(3))


@pytest.mark.parametrize("name", ["two_bus", "ring", "ieee24", "ieee118", "isolated"])
def test_jacobian_matches_dense_oracle(name, request):
    if name in ("ring", "isolated"):
        case = parse_case(THREE_BUS_RING if name == "ring" else ISOLATED_BUS)
    else:
        case = request.getfixturevalue(f"{name}_case")
    adm = build_admittances(case)
    plan, ybus, n = NewtonPlan.build(case, adm.ybus), adm.ybus, case.n_bus
    rng = np.random.default_rng(11)
    starts = [np.ones(n, dtype=complex)] + [
        (1.0 + 0.05 * rng.standard_normal(n)) * np.exp(0.2j * rng.standard_normal(n))
        for _ in range(3)]
    for v in starts:
        dense = dense_jacobian(ybus, v, plan.pvpq, plan.pq)
        assert np.array_equal(powerflow._jacobian(plan, v, ybus @ v), dense)


@pytest.mark.parametrize("config", ["ieee24.yaml", "ieee118.yaml"])
def test_blocks_bit_identical_with_dense_jacobian(config, monkeypatch):
    cfg = load_config(CONFIG_DIR / config)
    case, plan = cfg.load_grid()

    def generate():
        state, block, _ = blocks.generate_block(case, plan, cfg.duration_s, cfg.rate_hz,
                                                cfg.seed, policy=cfg.disturbance)
        return state, block

    state, block = generate()
    ybus = build_admittances(case).ybus
    monkeypatch.setattr(powerflow, "_jacobian",
                        lambda plan, v, ibus: dense_jacobian(ybus, v, plan.pvpq, plan.pq))
    dense_state, dense_block = generate()
    assert state.x.tobytes() == dense_state.x.tobytes()
    assert block.z.tobytes() == dense_block.z.tobytes()
    assert state.iterations == dense_state.iterations
    assert state.mismatches == dense_state.mismatches


def test_newton_plan_built_once_per_block(ieee118_case, ieee118_plan, monkeypatch):
    built, solves = [], []

    def counting(original):
        def build(cls, *args):
            built.append(cls)
            return original(*args)
        return classmethod(build)

    def solve(*args, **kwargs):
        solves.append(kwargs["newton"])
        return solve_ac_power_flow(*args, **kwargs)

    monkeypatch.setattr(powerflow.NewtonPlan, "build", counting(powerflow.NewtonPlan.build))
    monkeypatch.setattr(blocks, "solve_ac_power_flow", solve)
    blocks.generate_block(ieee118_case, ieee118_plan, 5.0, 30.0, seed=2024)
    assert len(solves) == 121
    assert len(set(map(id, solves))) == 1
    assert built == [powerflow.NewtonPlan]


def test_a_plan_built_for_the_case_gives_the_voltages_of_none(ieee24_case):
    pd, qd = _demands(ieee24_case)
    newton = NewtonPlan.build(ieee24_case, build_admittances(ieee24_case).ybus)
    sol = solve_ac_power_flow(ieee24_case, pd, qd, newton=newton)
    assert sol.v.tobytes() == solve_ac_power_flow(ieee24_case, pd, qd).v.tobytes()


@pytest.mark.parametrize("vg, cause", [
    ("1e200", "non-finite power mismatch at bus 1 "),   # the slack's injection overflows
    ("1e150", "singular"),                              # the first step sets |V2| to 0
])
def test_an_extreme_setpoint_fails_with_a_typed_error_and_no_warning(vg, cause):
    case = parse_case(TWO_BUS_CASE.replace("1 0 0 100 -100 1.0", f"1 0 0 100 -100 {vg}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PowerFlowError, match=cause):
            solve_ac_power_flow(case, *_demands(case))


@pytest.mark.parametrize("vg", ["0", "-1"])
def test_a_non_positive_setpoint_is_refused(vg):
    with pytest.raises(CaseError, match="generator at bus 1: voltage setpoint"):
        parse_case(TWO_BUS_CASE.replace("1 0 0 100 -100 1.0", f"1 0 0 100 -100 {vg}"))


def test_a_failed_instant_names_its_mismatch_once(ieee24_case, ieee24_plan):
    with pytest.raises(PowerFlowError, match="failed at instant") as err:
        blocks.generate_block(ieee24_case, ieee24_plan, 20.0, 30.0, seed=2024,
                              policy=DisturbancePolicy(decay=0.5))
    assert str(err.value).count("max mismatch") == 1
