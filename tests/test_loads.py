import warnings

import numpy as np
import pytest

from pmufdi.loads import DisturbancePolicy, perturb_loads

from oracles import per_instant_loads


def base_pd(case):
    return np.array([b.pd for b in case.buses])


def test_pre_onset_rows_equal_base(ieee24_case):
    traj = perturb_loads(ieee24_case, 150, 31, seed=1)
    expected = base_pd(ieee24_case)
    for t in range(30):
        assert np.array_equal(traj.pd[t], expected)
    assert not np.array_equal(traj.pd[30], expected)


def test_decay_schedule_value_at_onset():
    policy = DisturbancePolicy()
    assert policy.parameter(31, 31) == 60.0
    assert policy.parameter(32, 31) == pytest.approx(60.0 / 1.1)
    # variance of 60 MW^2 on a 100 MVA base
    assert policy.sigma_pu(31, 31, 100.0) == pytest.approx(np.sqrt(60.0) / 100.0)


def test_same_seed_same_trajectory(ieee24_case):
    a = perturb_loads(ieee24_case, 60, 10, seed=42)
    b = perturb_loads(ieee24_case, 60, 10, seed=42)
    assert np.array_equal(a.pd, b.pd)
    assert np.array_equal(a.qd, b.qd)
    c = perturb_loads(ieee24_case, 60, 10, seed=43)
    assert not np.array_equal(a.pd, c.pd)


def test_shared_draw_is_uniform_across_buses(ieee24_case):
    traj = perturb_loads(ieee24_case, 40, 2, seed=3)
    delta = traj.pd[10] - base_pd(ieee24_case)
    unclamped = traj.pd[10] > 0
    assert np.ptp(delta[unclamped]) < 1e-15


def test_negative_demand_clamped(ieee24_case):
    policy = DisturbancePolicy(magnitude=1e6)
    traj = perturb_loads(ieee24_case, 20, 1, seed=5, policy=policy)
    assert traj.clamped > 0
    assert np.min(traj.pd) == 0.0
    # every entry at zero is a clamped draw: no draw lands exactly on zero
    assert traj.clamped == np.count_nonzero(traj.pd == 0.0)


def test_power_factor_preserved(ieee24_case):
    traj = perturb_loads(ieee24_case, 60, 2, seed=9)
    pd0 = base_pd(ieee24_case)
    qd0 = np.array([b.qd for b in ieee24_case.buses])
    t = 30
    loaded = pd0 > 0
    ratio = traj.qd[t][loaded] / np.where(traj.pd[t][loaded] == 0, np.nan, traj.pd[t][loaded])
    expected = qd0[loaded] / pd0[loaded]
    good = ~np.isnan(ratio)
    assert np.allclose(ratio[good], expected[good], atol=1e-12)


def test_empirical_sigma_of_shared_draws(ieee24_case):
    # with no decay every draw shares one sigma, so pooling is legitimate;
    # the most loaded bus is never clamped at this sigma
    policy = DisturbancePolicy(decay=1.0)
    traj = perturb_loads(ieee24_case, 2000, 1, seed=17, policy=policy)
    bus = np.argmax(base_pd(ieee24_case))
    draws = traj.pd[:, bus] - base_pd(ieee24_case)[bus]
    sigma = policy.sigma_pu(1, 1, ieee24_case.base_mva)
    assert np.std(draws) == pytest.approx(sigma, rel=0.05)


def test_policy_and_onset_validation(ieee24_case):
    with pytest.raises(ValueError):
        DisturbancePolicy(magnitude=-1.0)
    with pytest.raises(ValueError):
        DisturbancePolicy(decay=0.0)
    with pytest.raises(ValueError):
        DisturbancePolicy(magnitude=float("nan"))
    with pytest.raises(ValueError):
        perturb_loads(ieee24_case, 10, 0, seed=1)
    with pytest.raises(ValueError):
        perturb_loads(ieee24_case, 10, 11, seed=1)


def test_trajectories_are_immutable(ieee24_case):
    traj = perturb_loads(ieee24_case, 10, 1, seed=1)
    with pytest.raises(ValueError):
        traj.pd[0, 0] = 99.0


@pytest.mark.parametrize("policy, onset", [
    (DisturbancePolicy(), 31),
    (DisturbancePolicy(magnitude=0.0), 31),
    (DisturbancePolicy(magnitude=1e6), 31),        # most draws clamped
    (DisturbancePolicy(decay=1.0), 31),
    (DisturbancePolicy(), 1),
    (DisturbancePolicy(), 150),
    (DisturbancePolicy(magnitude=3e4, decay=1.01), 2),
], ids=["default", "magnitude-0", "magnitude-1e6", "decay-1", "onset-1", "onset-150",
        "slow-decay"])
def test_trajectory_equals_the_per_instant_oracle(ieee24_case, policy, onset):
    traj = perturb_loads(ieee24_case, 150, onset, seed=7, policy=policy)
    pd, qd, clamped = per_instant_loads(ieee24_case, 150, onset, 7, policy)
    assert traj.pd.tobytes() == pd.tobytes()
    assert traj.qd.tobytes() == qd.tobytes()
    assert traj.clamped == clamped


def test_a_long_trajectory_decays_to_exact_zero_draws(ieee24_case):
    # 1.1**(t - onset) passes the float range about 7,450 instants after the onset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = perturb_loads(ieee24_case, 9000, 31, seed=1)
    assert np.array_equal(traj.pd[-1000:], np.tile(base_pd(ieee24_case), (1000, 1)))
    assert DisturbancePolicy().parameter(9000, 31) == 0.0


def test_a_variance_past_the_float_range_is_refused(ieee24_case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"decay 0\.9 .* at instant \d+"):
            perturb_loads(ieee24_case, 9000, 31, seed=1, policy=DisturbancePolicy(decay=0.9))
