"""Stochastic cooling-cycle simulator against its analytic oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from thermolight import (
    CycleConfig,
    cycle_rate,
    default_transfer_prob,
    ensemble_stats,
    rate_equation_trajectory,
    simulate_ensemble,
    simulate_trajectory,
)
from thermolight.acceptance import markov_steady_state_occupation, renewal_slope
from thermolight.cooling_sim import ensemble_counters

BASE = CycleConfig(
    gamma=11.06,
    eta_sp=0.74,
    step_duration_s=1e-3,
    t_max_s=3.0,
    seed=777_001,
    n_initial=20,
)


def test_config_validation():
    from dataclasses import replace

    for bad in (dict(gamma=0.0), dict(gamma=-1.0), dict(eta_sp=-0.1), dict(eta_sp=1.5),
                dict(step_duration_s=0.0), dict(t_max_s=-1.0), dict(heating_rate=-2.0),
                dict(n_initial=-1), dict(seed=-5)):
        with pytest.raises(ValueError):
            replace(BASE, **bad)


def test_default_transfer_prob():
    assert default_transfer_prob(0) == 0.0
    assert default_transfer_prob(1) == 1.0
    assert default_transfer_prob(7) == 1.0


def test_trajectory_determinism_and_seed_sensitivity():
    from dataclasses import replace

    a = simulate_trajectory(BASE)
    b = simulate_trajectory(BASE)
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.phonon_numbers, b.phonon_numbers)
    assert a.states == b.states
    assert a.to_csv_text() == b.to_csv_text()
    c = simulate_trajectory(replace(BASE, seed=777_002))
    assert not np.array_equal(a.times_s, c.times_s)


def test_trajectory_event_contract():
    traj = simulate_trajectory(BASE)
    t, n = traj.times_s, traj.phonon_numbers
    assert t[0] == 0.0 and n[0] == BASE.n_initial and traj.states[0] == "S"
    assert np.all(np.diff(t) >= 0.0)
    assert t[-1] <= BASE.t_max_s
    assert np.all(n >= 0)
    dn = np.diff(n)
    assert np.max(np.abs(dn)) <= 1  # phonons move one at a time
    for k in range(1, len(t)):
        tag = traj.states[k]
        assert tag in ("S", "D", "P")
        if tag == "S":
            assert dn[k - 1] == 1  # only heating happens in S
        elif tag == "D":
            assert dn[k - 1] in (-1, 1)  # transfer in, or heating while waiting
        else:
            assert dn[k - 1] == 0  # scatter does not move the phonon number
    assert traj.final_n == n[-1]


def test_ground_state_is_quiescent():
    from dataclasses import replace

    cfg = replace(BASE, n_initial=0, heating_rate=0.0)
    traj = simulate_trajectory(cfg)
    assert traj.final_n == 0
    assert len(traj.times_s) == 1  # nothing can happen: single initial record
    grid = np.linspace(0.0, cfg.t_max_s, 11)
    assert np.all(traj.occupation_on_grid(grid) == 0.0)
    assert traj.time_average(0.0, cfg.t_max_s) == 0.0
    assert traj.counters["stop_reason"] == "quiescent"


def test_heating_only_is_poisson():
    # transfer disabled: n(t) is a pure Poisson process at the heating rate
    cfg = CycleConfig(
        gamma=10.0,
        eta_sp=0.5,
        step_duration_s=1e-3,
        t_max_s=2.0,
        seed=777_003,
        heating_rate=5.0,
        n_initial=0,
        transfer_prob=lambda n: 0.0,
    )
    trajs = simulate_ensemble(cfg, 200)
    finals = np.array([tr.final_n for tr in trajs], dtype=float)
    want = cfg.heating_rate * cfg.t_max_s
    stderr = math.sqrt(want / len(trajs))
    assert abs(finals.mean() - want) < 4.0 * stderr
    assert abs(finals.var(ddof=1) - want) < 8.0 * stderr * math.sqrt(want)
    for tr in trajs[:10]:
        assert np.all(np.diff(tr.phonon_numbers) == 1)
        # every interval ends empty, the ones skipped at n = 0 included
        assert tr.counters["empty_intervals"] in (1999, 2000)
        assert tr.counters["transfers"] == 0


def test_ensemble_reproducibility_and_distinct_members():
    trajs1 = simulate_ensemble(BASE, 8)
    trajs2 = simulate_ensemble(BASE, 8)
    for a, b in zip(trajs1, trajs2):
        assert a.seed == b.seed
        assert np.array_equal(a.times_s, b.times_s)
        assert np.array_equal(a.phonon_numbers, b.phonon_numbers)
    seeds = {tr.seed for tr in trajs1}
    assert len(seeds) == 8
    # each member rebuilds identically from its own recorded seed
    from dataclasses import replace

    redo = simulate_trajectory(replace(BASE, seed=trajs1[3].seed))
    assert np.array_equal(redo.times_s, trajs1[3].times_s)


def test_ensemble_stats_rejects_mixed_configs():
    from dataclasses import replace

    trajs = simulate_ensemble(BASE, 4)
    alien = simulate_trajectory(replace(BASE, gamma=9.0, seed=1))
    with pytest.raises(ValueError):
        ensemble_stats(trajs + [alien])
    with pytest.raises(ValueError):
        ensemble_stats(trajs[:1])


def test_ensemble_stats_rejects_tiny_grid():
    trajs = simulate_ensemble(BASE, 2)
    with pytest.raises(ValueError, match="three grid points"):
        ensemble_stats(trajs, grid_points=2)
    assert ensemble_stats(trajs, grid_points=3).n_trajectories == 2


def test_ensemble_stats_rejects_fractional_grid():
    trajs = simulate_ensemble(BASE, 2)
    with pytest.raises(ValueError, match="grid_points"):
        ensemble_stats(trajs, grid_points=50.5)


def test_trajectories_and_stats_compare_by_identity():
    trajs = simulate_ensemble(replace(BASE, t_max_s=0.1), 2)
    stats = ensemble_stats(trajs, grid_points=3)
    for record in (trajs[0], stats):
        assert record == record
        assert record in {record}
    assert trajs[0] != trajs[1]


def test_cycle_rate_formula():
    ge = BASE.gamma * BASE.eta_sp
    assert cycle_rate(BASE) == pytest.approx(ge / (1.0 + ge * BASE.step_duration_s), rel=1e-12)


def test_ensemble_slope_matches_renewal_rate():
    trajs = simulate_ensemble(BASE, 300)
    stats = ensemble_stats(trajs)
    assert stats.mean_n[0] == pytest.approx(BASE.n_initial)
    want = -renewal_slope(BASE.gamma, BASE.eta_sp, BASE.step_duration_s)
    assert abs(stats.slope_per_s - want) < 4.0 * stats.slope_stderr
    # the fit window must start after the synchronized first cycle
    cycle = BASE.step_duration_s + 1.0 / (BASE.gamma * BASE.eta_sp)
    assert stats.slope_window_s[0] >= cycle
    assert stats.slope_window_s[1] > stats.slope_window_s[0]


def test_ensemble_steady_state_matches_markov_chain():
    cfg = CycleConfig(
        gamma=30.0,
        eta_sp=0.5,
        step_duration_s=0.005,
        t_max_s=4.0,
        seed=777_004,
        heating_rate=1.0,
        n_initial=0,
    )
    trajs = simulate_ensemble(cfg, 150)
    stats = ensemble_stats(trajs)
    want = markov_steady_state_occupation(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.heating_rate)
    assert abs(stats.steady_state_n - want) < 4.0 * stats.steady_state_stderr


def test_summary_dict_contents():
    trajs = simulate_ensemble(BASE, 16)
    stats = ensemble_stats(trajs, grid_points=51)
    d = stats.to_summary_dict()
    for key in ("slope_per_s", "slope_stderr", "slope_ci95", "steady_state_n",
                "steady_state_stderr", "steady_state_ci95", "slope_window_s",
                "n_trajectories", "grid_s", "mean_n", "var_n"):
        assert key in d
    assert d["n_trajectories"] == 16
    assert len(d["grid_s"]) == 51
    lo, hi = d["slope_ci95"]
    assert lo < d["slope_per_s"] < hi


def test_trajectory_csv_round_trip():
    traj = simulate_trajectory(BASE)
    lines = traj.to_csv_text().strip().splitlines()
    assert lines[0] == "time_s,n,internal_state"
    assert len(lines) == 1 + len(traj.times_s)
    t, n, s = lines[1].split(",")
    assert float(t) == 0.0 and int(n) == BASE.n_initial and s == "S"
    k = len(lines) - 2
    t, n, s = lines[-1].split(",")
    assert float(t) == traj.times_s[k] and int(n) == traj.phonon_numbers[k]


def test_rate_equation_cooling_phase_is_linear():
    from dataclasses import replace

    cfg = replace(BASE, n_initial=50, t_max_s=2.0)
    curve = rate_equation_trajectory(cfg)
    r = cycle_rate(cfg)
    k = int(np.searchsorted(curve.times_s, 1.0))
    linear = 50.0 - r * curve.times_s[k]
    assert curve.n[k] == pytest.approx(linear, rel=5e-3)
    assert np.all(np.diff(curve.n) <= 1e-12)  # monotone cooling without heating
    assert np.all(curve.n >= 0.0)


def test_rate_equation_heated_steady_state():
    cfg = CycleConfig(
        gamma=11.06,
        eta_sp=0.74,
        step_duration_s=1e-3,
        t_max_s=3.0,
        seed=1,
        heating_rate=4.0,
        n_initial=0,
    )
    curve = rate_equation_trajectory(cfg)
    r = cycle_rate(cfg)
    want = 0.5 * cfg.heating_rate / (r - cfg.heating_rate)
    assert curve.n[-1] == pytest.approx(want, rel=1e-2)


HEATED = CycleConfig(
    gamma=11.06,
    eta_sp=0.74,
    step_duration_s=1e-3,
    t_max_s=3.0,
    seed=777_005,
    heating_rate=2.0,
    n_initial=0,
)


def test_counters_agree_with_the_record():
    traj = simulate_trajectory(HEATED)
    c = traj.counters
    dn = np.diff(traj.phonon_numbers)
    assert c["transfers"] == np.count_nonzero(dn == -1) > 0
    assert c["heating_events"] == np.count_nonzero(dn == 1) > 0
    assert c["scatters"] == traj.states.count("P") > 0
    assert c["cycles"] == c["empty_intervals"] + c["transfers"]
    # mostly idle at n = 0: far more intervals than transfers
    assert c["empty_intervals"] > 10 * c["transfers"]
    assert c["stop_reason"] == "t_max"

    trajs = simulate_ensemble(HEATED, 5) + [simulate_trajectory(replace(HEATED, heating_rate=0.0))]
    totals = ensemble_counters(trajs)
    for key in ("cycles", "empty_intervals", "transfers", "scatters", "heating_events"):
        assert totals[key] == sum(tr.counters[key] for tr in trajs)
    assert totals["stop_reasons"] == {"t_max": 5, "quiescent": 1}


def test_skip_ahead_transfers_at_the_end_of_the_interval_of_the_first_heating():
    tau = HEATED.step_duration_s
    checked = 0
    for traj in simulate_ensemble(HEATED, 50):
        if len(traj.times_s) == 1:
            continue  # no heating before t_max
        assert traj.states[1] == "S"  # from n = 0 the first event is heating in S
        t_transfer = math.ceil(traj.times_s[1] / tau) * tau
        if t_transfer > HEATED.t_max_s:
            continue
        k = traj.states.index("D")
        assert traj.phonon_numbers[k] == 0
        assert traj.times_s[k] == pytest.approx(t_transfer, rel=1e-12)
        checked += 1
    assert checked >= 45


def test_first_heating_time_is_exponential():
    # from n = 0 every interval before the first heating is skipped in one
    # draw, so the first heating time must still be Exp(h)
    cfg = CycleConfig(
        gamma=50.0,
        eta_sp=1.0,
        step_duration_s=1e-3,
        t_max_s=2.5,
        seed=777_007,
        heating_rate=6.0,
        n_initial=0,
    )
    trajs = simulate_ensemble(cfg, 2000)
    first = np.sort([tr.times_s[1] if len(tr.times_s) > 1 else math.inf for tr in trajs])
    size = first.size
    cdf = 1.0 - np.exp(-cfg.heating_rate * first)
    rank = np.arange(1, size + 1)
    ks = max(np.max(rank / size - cdf), np.max(cdf - (rank - 1) / size))
    assert ks < 1.95 / math.sqrt(size)  # Kolmogorov-Smirnov, alpha = 0.001


def test_long_window_steady_state_matches_markov_chain():
    # criterion 8's slowest-relaxing triple, averaged well after it settles
    gamma, eta_sp, tau_i, h = 8.0, 0.90, 0.020, 4.0
    cfg = CycleConfig(
        gamma=gamma,
        eta_sp=eta_sp,
        step_duration_s=tau_i,
        t_max_s=15.0,
        seed=777_006,
        heating_rate=h,
        n_initial=0,
    )
    averages = np.array([tr.time_average(5.0, 15.0) for tr in simulate_ensemble(cfg, 400)])
    stderr = averages.std(ddof=1) / math.sqrt(averages.size)
    want = markov_steady_state_occupation(gamma, eta_sp, tau_i, h)
    assert abs(averages.mean() - want) <= 4.0 * stderr
