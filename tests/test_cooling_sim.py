"""Stochastic cooling-cycle simulator against its analytic oracles."""

import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermolight import (
    CycleConfig,
    cycle_rate,
    ensemble_stats,
    rate_equation_trajectory,
    simulate_ensemble,
    simulate_trajectory,
)
from thermolight.acceptance import markov_steady_state_occupation, renewal_slope
from thermolight import cooling_parse, cooling_sim
from thermolight.cooling_sim import EnsembleStats, ensemble_counters


def rate_of(cfg):
    """The cycle rate of a config's fields, as the simulator's callers compute it."""
    return cycle_rate(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.transfer_prob)


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

    for bad in (dict(gamma=0.0), dict(gamma=-1.0), dict(eta_sp=-0.1), dict(eta_sp=0.0), dict(eta_sp=1.5),
                dict(step_duration_s=0.0), dict(t_max_s=-1.0), dict(heating_rate=-2.0),
                dict(n_initial=-1), dict(n_initial=2 ** 62), dict(seed=-5)):
        with pytest.raises(ValueError):
            replace(BASE, **bad)
    for bad in (-0.1, 1.1, math.nan, True, lambda n: 0.5):
        with pytest.raises(ValueError, match="transfer_prob"):
            replace(BASE, transfer_prob=bad)


def test_default_transfer_prob():
    assert BASE.transfer_prob == 1.0
    # every busy interval transfers: one per phonon, none once n = 0
    c = simulate_trajectory(BASE).counters
    assert (c["transfers"], c["empty_intervals"], c["stop_reason"]) == (BASE.n_initial, 0, "quiescent")
    for traj in simulate_ensemble(replace(HEATED, t_max_s=0.5), 20):
        dn = np.diff(traj.phonon_numbers)
        assert not np.any((dn == -1) & (traj.phonon_numbers[:-1] == 0))


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


def test_ground_state_is_quiescent():
    from dataclasses import replace

    cfg = replace(BASE, n_initial=0, heating_rate=0.0)
    traj = simulate_trajectory(cfg)
    assert traj.phonon_numbers[-1] == 0
    assert len(traj.times_s) == 1  # nothing can happen: single initial record
    # n >= 0, so a zero ensemble mean means every member samples 0 at every grid time
    stats = ensemble_stats([traj, simulate_trajectory(replace(cfg, seed=cfg.seed + 1))], grid_points=11)
    assert np.all(stats.mean_n == 0.0)
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
        transfer_prob=0.0,
    )
    trajs = simulate_ensemble(cfg, 200)
    finals = np.array([tr.phonon_numbers[-1] for tr in trajs], dtype=float)
    want = cfg.heating_rate * cfg.t_max_s
    stderr = math.sqrt(want / len(trajs))
    assert abs(finals.mean() - want) < 4.0 * stderr
    assert abs(finals.var(ddof=1) - want) < 8.0 * stderr * math.sqrt(want)
    for tr in trajs[:10]:
        assert np.all(np.diff(tr.phonon_numbers) == 1)
        # every interval ends empty, the ones skipped at n = 0 included
        assert tr.counters["empty_intervals"] in (1999, 2000)
        assert tr.counters["transfers"] == 0
    # with no cycles there is no phase lock to skip: the slope window opens at t = 0
    stats = ensemble_stats(trajs)
    assert stats.slope_window_s[0] == 0.0
    assert abs(stats.slope_per_s - cfg.heating_rate) <= 4.0 * stats.slope_stderr


def test_ensemble_reproducibility_and_distinct_members():
    trajs1 = simulate_ensemble(BASE, 8)
    trajs2 = simulate_ensemble(BASE, 8)
    for a, b in zip(trajs1, trajs2):
        assert a.config.seed == b.config.seed
        assert np.array_equal(a.times_s, b.times_s)
        assert np.array_equal(a.phonon_numbers, b.phonon_numbers)
    seeds = {tr.config.seed for tr in trajs1}
    assert len(seeds) == 8
    # each member rebuilds identically from its own recorded seed
    from dataclasses import replace

    redo = simulate_trajectory(replace(BASE, seed=trajs1[3].config.seed))
    assert np.array_equal(redo.times_s, trajs1[3].times_s)
    # members copy the validated config rather than rebuild it; they must equal a rebuilt one
    seeds = np.random.SeedSequence(BASE.seed).generate_state(8, dtype=np.uint64)
    for tr, seed in zip(trajs1, seeds):
        assert type(tr.config.seed) is int
        assert tr.config == replace(BASE, seed=int(seed))


# one other value for every CycleConfig field a member shares with its ensemble
ALTERED = {"gamma": 9.0, "eta_sp": 0.5, "step_duration_s": 2e-3, "t_max_s": 2.0, "heating_rate": 1.0,
           "n_initial": 19, "transfer_prob": 0.5}


def test_ensemble_stats_rejects_mixed_configs():
    assert set(ALTERED) == {f.name for f in fields(CycleConfig)} - {"seed"}
    trajs = simulate_ensemble(BASE, 4)
    accepted = []
    for name, value in ALTERED.items():
        alien = simulate_trajectory(replace(BASE, **{name: value}, seed=1))
        try:
            ensemble_stats(trajs + [alien])
        except ValueError as exc:
            assert "differing configs" in str(exc), name
        else:
            accepted.append(name)
    assert accepted == []
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


@settings(deadline=None)
@given(t_max=st.floats(math.log10(5e-324), 308.0).map(lambda e: max(10.0 ** e, 5e-324)),
       points=st.integers(3, 401))
@example(t_max=5e-324, points=3)
@example(t_max=1e-200, points=201)  # squares of the grid times underflow
@example(t_max=1e200, points=201)  # and overflow
@example(t_max=1e308, points=401)
@example(t_max=math.sqrt(np.finfo(float).tiny) * 200, points=201)  # the shortest step taken
def test_stats_over_any_horizon_are_finite_or_refused_naming_t_max(t_max, points):
    cfg = replace(BASE, gamma=11.0, n_initial=5, t_max_s=t_max)
    step = t_max / (points - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        members = simulate_ensemble(cfg, 3)
        if step * step < np.finfo(float).tiny:
            with pytest.raises(ValueError, match=r"^t_max_s "):
                ensemble_stats(members, grid_points=points)
            return
        stats = ensemble_stats(members, grid_points=points)
    for field in fields(EnsembleStats):
        assert np.isfinite(getattr(stats, field.name)).all(), field.name


def test_trajectories_and_stats_compare_by_identity():
    trajs = simulate_ensemble(replace(BASE, t_max_s=0.1), 2)
    stats = ensemble_stats(trajs, grid_points=3)
    for record in (trajs[0], stats):
        assert record == record
        assert record in {record}
    assert trajs[0] != trajs[1]


def test_cycle_rate_formula():
    ge = BASE.gamma * BASE.eta_sp
    assert rate_of(BASE) == pytest.approx(ge / (1.0 + ge * BASE.step_duration_s), rel=1e-12)


@pytest.mark.parametrize("n0", [0, 3])
def test_no_transfer_has_no_cycle_rate(n0):
    # Gamma eta_SP tau_I underflows to 0 here, where the formula alone reads 0/0
    cfg = CycleConfig(gamma=1e-200, eta_sp=0.5, step_duration_s=1e-200, t_max_s=1, seed=1, transfer_prob=0,
                      n_initial=n0)
    assert rate_of(cfg) == 0.0
    assert renewal_slope(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.transfer_prob) == 0.0
    stats = ensemble_stats(simulate_ensemble(cfg, 4))
    assert stats.slope_window_s[0] == 0.0 and abs(stats.slope_per_s) < 1e-12 and np.all(stats.mean_n == n0)
    assert np.all(rate_equation_trajectory(cfg).n == n0)


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


# tau_I comparable to 1/(Gamma eta_SP), so that p = 0.6 moves both oracles by many standard errors
def test_partial_transfer_slope_matches_renewal_rate():
    cfg = replace(BASE, step_duration_s=0.05, t_max_s=8.0, seed=777_021, n_initial=30, transfer_prob=0.6)
    stats = ensemble_stats(simulate_ensemble(cfg, 400))
    want = -renewal_slope(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, transfer_prob=0.6)
    assert abs(stats.slope_per_s - want) <= 3.0 * stats.slope_stderr
    assert rate_of(cfg) == pytest.approx(-want, rel=1e-12)  # the rate equation's R takes the same p


def test_partial_transfer_steady_state_matches_markov_chain():
    cfg = CycleConfig(gamma=30.0, eta_sp=0.5, step_duration_s=0.05, t_max_s=6.0, seed=777_022,
                      heating_rate=2.0, transfer_prob=0.6)
    stats = ensemble_stats(simulate_ensemble(cfg, 400))
    want = markov_steady_state_occupation(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.heating_rate,
                                          transfer_prob=0.6)
    assert abs(stats.steady_state_n - want) <= 3.0 * stats.steady_state_stderr


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
    r = rate_of(cfg)
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
    r = rate_of(cfg)
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


@pytest.mark.parametrize("cfg", [
    BASE,
    HEATED,
    replace(HEATED, n_initial=3, transfer_prob=0.6),
], ids=["cooling", "heated", "heated-partial-transfer"])
def test_trajectory_does_not_depend_on_the_uniform_block(monkeypatch, cfg):
    # the event loop negates each refill of BLOCK uniforms as it draws it; heated runs take the loop, and the cooling
    # one, whose parse draws no block, takes it too once the parse leaves every member to it
    monkeypatch.setattr(cooling_parse, "PARSE_WIDTH", 0)
    runs = []
    for block in (1, 7, cooling_sim.BLOCK):
        monkeypatch.setattr(cooling_sim, "BLOCK", block)
        runs.append(simulate_trajectory(cfg))
    first = runs[0]
    assert len(first.times_s) > 20  # many blocks of one and of seven uniforms
    for other in runs[1:]:
        assert first.times_s.tobytes() == other.times_s.tobytes()
        assert first.phonon_numbers.tobytes() == other.phonon_numbers.tobytes()
        assert first.states == other.states
        assert first.counters == other.counters


# the ends of each 32-bit word of a uint64 seed, and of SeedSequence's one-word and two-word entropy
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


def test_member_seeding_equals_default_rng(monkeypatch):
    seeds = np.random.SeedSequence(20261019).generate_state(1000, dtype=np.uint64).tolist() + EDGE_SEEDS
    states = cooling_sim._pcg64_states(np.array(seeds, dtype=np.uint64))
    assert len(states) == len(seeds)
    for seed, state in zip(seeds, states):
        assert np.random.PCG64(seed).state == state, seed
    # each member's stream starts where its own default_rng(seed) would, buffered bits included
    started = []
    uniforms = cooling_sim._uniforms
    monkeypatch.setattr(cooling_sim, "_uniforms", lambda rng: started.append(rng.bit_generator.state) or uniforms(rng))
    members = cooling_sim._simulate(HEATED, np.array(EDGE_SEEDS, dtype=np.uint64))
    assert started == [np.random.default_rng(seed).bit_generator.state for seed in EDGE_SEEDS]
    assert [traj.config.seed for traj in members] == EDGE_SEEDS
    # and the loop reads that stream negated, value after value across the refills of BLOCK uniforms
    for seed in EDGE_SEEDS:
        count = 3 * cooling_sim.BLOCK + 5
        drawn = np.fromiter(uniforms(np.random.default_rng(seed)), np.float64, count=count)
        assert drawn.tobytes() == np.negative(np.random.default_rng(seed).random(count)).tobytes(), seed


def address(values):
    return values.__array_interface__["data"][0]


def test_members_hold_read_only_views_of_the_ensembles_buffers_in_member_order(monkeypatch):
    def laid_out(ensemble):
        """Each member's rows view the ensemble's one pair of read-only buffers, right after the previous member's."""
        row = 0
        for traj in ensemble:
            for values, buffer, dtype in ((traj.times_s, ensemble.times_s, np.float64),
                                          (traj.phonon_numbers, ensemble.phonon_numbers, np.int64)):
                assert values.dtype == buffer.dtype == dtype and not buffer.flags.writeable
                assert values.base is buffer and address(values) == address(buffer) + 8 * row
                with pytest.raises(ValueError):
                    values[0] = 1
            row += traj.times_s.size
        assert row == ensemble.times_s.size == ensemble.phonon_numbers.size == ensemble.ends[-1]

    laid_out(cooling_sim._simulate(HEATED, np.array([HEATED.seed], dtype=np.uint64)))  # simulate_trajectory's
    laid_out(simulate_ensemble(replace(HEATED, t_max_s=0.5), 6))  # one event-loop call
    laid_out(simulate_ensemble(BASE, 300))  # one parse pass
    # passes of 400 cells, streams of a fifth of the mean drawn again, none over 200 uniforms: the event loop takes
    # the rest
    for name, value in (("STREAM_MARGIN", 0.2), ("STREAM_SPARE", 1), ("PARSE_CELLS", 400), ("PARSE_WIDTH", 200)):
        monkeypatch.setattr(cooling_parse, name, value)
    event_runs, looped = cooling_sim._event_runs, []
    monkeypatch.setattr(cooling_sim, "_event_runs", lambda cfg, seeds: looped.append(seeds) or event_runs(cfg, seeds))
    ensemble = simulate_ensemble(replace(BASE, eta_sp=0.3, transfer_prob=0.5, n_initial=30, t_max_s=6.0), 60)
    laid_out(ensemble)
    # the passes finished out of member order: the event loop's remainder is not the last members
    assert len(looped) == 1 and looped[0].tolist() != ensemble.seeds[-looped[0].size:]


def test_an_ensemble_is_a_read_only_sequence_of_members_made_on_access():
    ensemble = simulate_ensemble(replace(HEATED, t_max_s=0.5), 5)
    seeds = np.random.SeedSequence(HEATED.seed).generate_state(5, dtype=np.uint64).tolist()
    assert len(ensemble) == 5 and ensemble.seeds == seeds
    assert [traj.config.seed for traj in ensemble] == seeds  # iteration in member order
    assert ensemble[4].config.seed == ensemble[-1].config.seed == seeds[4]
    assert ensemble[0].config.seed == ensemble[-5].config.seed == seeds[0]
    for index in (5, -6):
        with pytest.raises(IndexError):
            ensemble[index]
    for part in (slice(1, 3), slice(None, None, -2), slice(7, None)):
        picked = ensemble[part]
        assert type(picked) is list and [traj.config.seed for traj in picked] == seeds[part]
    extra = simulate_trajectory(HEATED)
    for joined, order in ((ensemble + [extra], seeds + [HEATED.seed]), ([extra] + ensemble, [HEATED.seed] + seeds)):
        assert type(joined) is list and [traj.config.seed for traj in joined] == order
    member = ensemble[2]
    assert member is not ensemble[2] and member.config == replace(HEATED, t_max_s=0.5, seed=seeds[2])
    start, end = ensemble.ends[1], ensemble.ends[2]
    assert member.times_s.tobytes() == ensemble.times_s[start:end].tobytes()
    assert member.phonon_numbers.tobytes() == ensemble.phonon_numbers[start:end].tobytes()
    assert member.states == tuple(ensemble.tags[start:end])
    assert member.counters == ensemble.counters[2] and member.counters is not ensemble.counters[2]
    assert all(type(value) is int for key, value in member.counters.items() if key != "stop_reason")
    with pytest.raises(FrozenInstanceError):
        ensemble.config = HEATED


# a heated ensemble, a cooling one, and one whose parse passes finish out of member order
RECORD_ENSEMBLES = {
    "heated": replace(HEATED, t_max_s=0.5),
    "cooling": replace(BASE, t_max_s=1.0),
    "out-of-order": replace(BASE, eta_sp=0.3, transfer_prob=0.5, n_initial=30, t_max_s=6.0),
}


def record_ensemble(kind, seed, members):
    """simulate_ensemble of RECORD_ENSEMBLES[kind] with the seed and members given."""
    with pytest.MonkeyPatch.context() as mp:
        if kind == "out-of-order":  # passes of 400 cells, short streams drawn again, the longest left to the event loop
            for name, value in (("STREAM_MARGIN", 0.2), ("STREAM_SPARE", 1), ("PARSE_CELLS", 400), ("PARSE_WIDTH", 200)):
                mp.setattr(cooling_parse, name, value)
        return simulate_ensemble(replace(RECORD_ENSEMBLES[kind], seed=seed), members)


@settings(deadline=None)
@given(kind=st.sampled_from(sorted(RECORD_ENSEMBLES)), seed=st.integers(0, 2 ** 64 - 1), members=st.integers(2, 60))
@example(kind="heated", seed=HEATED.seed, members=20)
@example(kind="cooling", seed=BASE.seed, members=300)
@example(kind="out-of-order", seed=BASE.seed, members=60)
def test_stats_and_counters_of_the_record_equal_those_of_its_members_listed(kind, seed, members):
    ensemble = record_ensemble(kind, seed, members)
    listed = list(ensemble)
    got, want = ensemble_stats(ensemble), ensemble_stats(listed)
    for field in fields(EnsembleStats):
        assert np.asarray(getattr(got, field.name)).tobytes() == np.asarray(getattr(want, field.name)).tobytes(), field
    assert repr(ensemble_counters(ensemble)) == repr(ensemble_counters(listed))


def reference_stats(trajectories, grid_points=201):
    """Grid samples, quartile averages and slope computed member by member, independently of the one-pass code."""
    t_max = trajectories[0].config.t_max_s
    grid = np.linspace(0.0, t_max, grid_points)

    def on_grid(traj, g):
        idx = np.clip(np.searchsorted(traj.times_s, g, side="right") - 1, 0, len(traj.times_s) - 1)
        return traj.phonon_numbers[idx].astype(float)

    def average(traj, t0, t1):
        inside = traj.times_s[(traj.times_s > t0) & (traj.times_s < t1)]
        edges = np.concatenate(([t0], inside, [t1]))
        return float(np.sum(on_grid(traj, edges[:-1]) * np.diff(edges)) / (t1 - t0))

    samples = np.vstack([on_grid(traj, grid) for traj in trajectories])
    mean_n = samples.mean(axis=0)
    quartiles = np.array([average(traj, 0.75 * t_max, t_max) for traj in trajectories])
    steady = quartiles.mean()
    start = min(int(np.searchsorted(grid, 1.0 / rate_of(trajectories[0].config))), grid_points - 3)
    target = mean_n[0] - 0.2 * (mean_n[0] - steady)
    below = np.nonzero(mean_n <= target)[0] if target < mean_n[0] else []
    stop = max(int(below[0]) if len(below) else int(0.2 * (grid_points - 1)), start + 2)
    slopes = np.polyfit(grid[start:stop + 1], samples[:, start:stop + 1].T, 1)[0]
    return {
        "grid_s": grid, "mean_n": mean_n, "var_n": samples.var(axis=0),
        "slope_per_s": slopes.mean(), "slope_stderr": slopes.std(ddof=1) / math.sqrt(len(slopes)),
        "slope_window_s": (grid[start], grid[stop]),
        "steady_state_n": steady, "steady_state_stderr": quartiles.std(ddof=1) / math.sqrt(len(quartiles)),
        "averages": quartiles,
    }


@pytest.mark.parametrize("cfg, members, grid_points", [
    (BASE, 300, 201),
    (replace(BASE, t_max_s=5.0, n_initial=8), 200, 201),  # most members end quiescent
    (HEATED, 150, 201),
    (replace(HEATED, heating_rate=4.0, step_duration_s=0.02, gamma=8.0, eta_sp=0.9, t_max_s=6.0), 100, 37),
    (BASE, 5, 3),
], ids=["cooling", "to-ground", "heated", "criterion-8-third", "tiny-grid"])
def test_one_pass_stats_match_the_member_by_member_reference(cfg, members, grid_points):
    trajectories = simulate_ensemble(cfg, members)
    stats = ensemble_stats(trajectories, grid_points=grid_points)
    want = reference_stats(trajectories, grid_points)
    for key in ("grid_s", "mean_n", "var_n"):
        assert getattr(stats, key).tobytes() == want[key].tobytes(), key
    assert stats.slope_window_s == want["slope_window_s"]
    # the slopes are fitted in grid steps, the reference's in seconds: they agree to rounding, on the slope's scale
    for key in ("slope_per_s", "slope_stderr"):
        assert getattr(stats, key) == pytest.approx(want[key], rel=1e-13, abs=1e-13 * abs(want["slope_per_s"])), key
    for key in ("steady_state_n", "steady_state_stderr"):
        assert getattr(stats, key) == pytest.approx(want[key], rel=1e-13, abs=0.0), key
    t_max = cfg.t_max_s
    averages = np.array([traj.time_average(0.75 * t_max, t_max) for traj in trajectories])
    assert np.allclose(averages, want["averages"], rtol=1e-13, atol=0.0)


def closure_rate_equation(cfg):
    """The fixed-step RK4 integration rate_equation_trajectory once ran, kept as a reference for the closed form."""
    r = rate_of(cfg)
    h = cfg.heating_rate
    dt = cfg.t_max_s / 200.0
    if r > 0.0:
        dt = min(dt, 0.01 / r)
    steps = max(int(math.ceil(cfg.t_max_s / dt)), 1)
    dt = cfg.t_max_s / steps

    def f(n):
        return -r * n / (n + 0.5) + h

    out = np.empty(steps + 1)
    out[0] = float(cfg.n_initial)
    n = out[0]
    for i in range(steps):
        k1 = f(n)
        k2 = f(max(n + 0.5 * dt * k1, 0.0))
        k3 = f(max(n + 0.5 * dt * k2, 0.0))
        k4 = f(max(n + dt * k3, 0.0))
        n = max(n + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, 0.0)
        out[i + 1] = n
    return np.linspace(0.0, cfg.t_max_s, steps + 1), out


def bisection_rate_equation(cfg, grid_points=201):
    """The bisection rate_equation_trajectory once ran, kept as a reference for Newton's method on the same t(n).

    Each grid time bisects the bit patterns of the doubles between n0 and the fixed point to one ulp,
    comparing the closed form t(n) with the grid time; a NaN counts as not reached. ln(1 + y) comes
    from log1p, as in the library: a logarithm of the rounded ratio (a n + b)/c is up to 1e-12 off
    just above the series' |y| = 0.01 near balance.
    """
    r = rate_of(cfg)
    h, n0 = cfg.heating_rate, float(cfg.n_initial)
    times = np.linspace(0.0, cfg.t_max_s, grid_points)
    scale = max(r, h) or 1.0
    a, b, r = (h - r) / scale, 0.5 * h / scale, r / scale
    c = a * n0 + b
    series = [(-1.0) ** (k + 1) / (k + 2) for k in range(8, -1, -1)]
    cooling = c < 0.0
    end = b / -a if a < 0.0 else n0 + h * cfg.t_max_s
    bracket = (min(end, n0), n0) if cooling else (n0, max(end, n0))
    lo, hi = (np.full(grid_points, v).view(np.int64) for v in bracket)
    with np.errstate(all="ignore"):
        clock = times * scale
        for _ in range(int(hi[0] - lo[0] - 1).bit_length()):
            mid = lo + (hi - lo) // 2
            n = mid.view(np.float64)
            dc = (n - n0) / c
            y = a * dc
            # ln(1 + y) as rate_equation_trajectory takes it where y > -1/2; nearer n_f, from 1 + y = (a n + b)/c
            ln = np.where(y > -0.5, np.log1p(y), np.log(abs(a * n + b)) - np.log(abs(c)))
            g = (ln - y) / (y * y)
            small = abs(y) < 0.01
            g[small] = np.polyval(series, y[small])
            t = dc * (n0 + 0.5) - 0.5 * r * dc * dc * g
            below = t <= clock if cooling else ~(t < clock)
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    return times, (hi if cooling else lo).view(np.float64)


@pytest.mark.parametrize("cfg", [
    replace(BASE, n_initial=50, t_max_s=8.0),
    replace(HEATED, heating_rate=4.0, n_initial=3),
    replace(HEATED, heating_rate=rate_of(HEATED) * (1.0 - 1e-9)),
    replace(HEATED, heating_rate=2.6 * rate_of(HEATED), transfer_prob=0.6, n_initial=40),
    # R = 3 and h = 2 put the fixed point h/(2(R - h)) at n0 = 1, where dn/dt is exactly 0
    CycleConfig(gamma=3.0, eta_sp=1.0, step_duration_s=1e-300, t_max_s=3.0, seed=1, heating_rate=2.0, n_initial=1),
], ids=["cooling", "heated", "near-balance", "runaway", "fixed-point-start"])
def test_rate_equation_agrees_with_the_rk4_closure(cfg):
    times, want = closure_rate_equation(cfg)
    curve = rate_equation_trajectory(cfg, grid_points=times.size)
    assert curve.times_s.tobytes() == times.tobytes()
    big = want > 1e-3  # below, RK4's own error is about 5e-11 absolute
    np.testing.assert_allclose(curve.n[big], want[big], rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(curve.n[~big], want[~big], rtol=0.0, atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(n0=st.integers(0, 1000), gamma=st.floats(1.0, 100.0), eta_sp=st.floats(0.1, 1.0),
       tau=st.floats(1e-4, 0.1), p=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       load=st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]), st.floats(0.0, 3.0)),
       span=st.floats(0.1, 80.0))
@example(n0=36, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.0, span=80.0)  # down to n of about 1e-37
@example(n0=0, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=1.0 - 1e-9, span=30.0)  # h just below R
def test_rate_equation_solves_its_ode(n0, gamma, eta_sp, tau, p, load, span):
    cfg = CycleConfig(gamma=gamma, eta_sp=eta_sp, step_duration_s=tau, t_max_s=1.0, seed=1, transfer_prob=p,
                      n_initial=n0)
    r = rate_of(cfg)
    h = load * r if r > 0.0 else load  # h as a share of R, or in 1/s where nothing cools
    cfg = replace(cfg, heating_rate=h, t_max_s=span / r if r > 0.0 else span)
    curve = rate_equation_trajectory(cfg, grid_points=4001)
    n, t = curve.n, curve.times_s
    assert n[0] == n0
    rate0 = -r * n0 / (n0 + 0.5) + h
    steps = np.diff(n)
    if rate0 == 0.0:
        assert np.all(n == n0)
    else:
        assert np.all(steps >= 0.0 if rate0 > 0.0 else steps <= 0.0)
    if h < r:  # the curve approaches the fixed point from its own side, to within the fixed point's rounding
        fixed = 0.5 * h / (r - h)
        ulps = 4.0 * np.spacing(fixed)
        assert np.all(n <= fixed + ulps if rate0 > 0.0 else n >= fixed - ulps)
    # a centred difference against the ODE, down to the rounding of the difference itself
    slope = (n[2:] - n[:-2]) / (t[2:] - t[:-2])
    rate = -r * n[1:-1] / (n[1:-1] + 0.5) + h
    rounding = 4.0 * np.spacing(np.maximum(n[2:], n[:-2])) / (t[2:] - t[:-2])
    assert np.all(np.abs(slope - rate) <= 1e-3 * np.abs(rate) + rounding)


@settings(deadline=None)
@given(n0=st.integers(0, 1000), gamma=st.floats(1.0, 100.0), eta_sp=st.floats(0.1, 1.0),
       tau=st.floats(1e-4, 0.1), p=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       load=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]), st.floats(0.0, 3.0)),
       span=st.floats(0.1, 80.0), grid_points=st.sampled_from([1, 2, 201, 4001]))
@example(n0=36, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.0, span=80.0, grid_points=4001)  # n to 1e-37
@example(n0=60, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.5, span=80.0, grid_points=201)  # cooling to 1/2
@example(n0=0, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.5, span=80.0, grid_points=201)  # heating to 1/2
@example(n0=0, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=1.0 - 1e-9, span=30.0, grid_points=4001)
@example(n0=20, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=1.0 + 1e-9, span=30.0, grid_points=201)
@example(n0=3, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=1.0, span=30.0, grid_points=201)  # h = R
@example(n0=40, gamma=11.06, eta_sp=0.74, tau=1e-3, p=0.6, load=2.6, span=10.0, grid_points=201)  # runaway
@example(n0=10, gamma=11.06, eta_sp=0.74, tau=1e-3, p=0.0, load=0.5, span=10.0, grid_points=201)  # R = 0
@example(n0=0, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.0, span=10.0, grid_points=201)  # c = 0
@example(n0=30, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.0, span=10.0, grid_points=1)
@example(n0=30, gamma=11.06, eta_sp=0.74, tau=1e-3, p=1.0, load=0.5, span=10.0, grid_points=2)
def test_rate_equation_matches_the_bisection(n0, gamma, eta_sp, tau, p, load, span, grid_points):
    cfg = CycleConfig(gamma=gamma, eta_sp=eta_sp, step_duration_s=tau, t_max_s=1.0, seed=1, transfer_prob=p,
                      n_initial=n0)
    r = rate_of(cfg)
    h = load * r if r > 0.0 else load  # h as a share of R, or in 1/s where nothing cools
    cfg = replace(cfg, heating_rate=h, t_max_s=span / r if r > 0.0 else span)
    times, want = bisection_rate_equation(cfg, grid_points)
    curve = rate_equation_trajectory(cfg, grid_points)
    assert curve.times_s.tobytes() == times.tobytes()
    assert curve.n[0] == n0
    np.testing.assert_allclose(curve.n, want, rtol=1e-12, atol=0.0)
    steps = np.diff(curve.n)
    assert np.all(steps <= 0.0) or np.all(steps >= 0.0)
    if h < r:  # on its fixed point's side, to within the fixed point's rounding
        fixed = 0.5 * h / (r - h)
        ulps = 4.0 * np.spacing(fixed)
        assert np.all(curve.n >= fixed - ulps) if n0 > fixed else np.all(curve.n <= fixed + ulps)


@pytest.mark.parametrize("load, n0", [(0.9, 0), (0.0, 20)], ids=["heating-to-n_f", "cooling-to-zero"])
def test_rate_equation_past_the_underflow_of_n_minus_n_f_ends_at_the_bisection(load, n0):
    # n - n_f falls below the smallest double long before t_max = 1e300 s: the step in v stops at the smallest
    # normal n - n_f, and the curve reads n_f from there on, as the bisection does to within its last ulps
    cfg = replace(BASE, heating_rate=load * rate_of(BASE), n_initial=n0, t_max_s=1e300)
    times, want = bisection_rate_equation(cfg)
    curve = rate_equation_trajectory(cfg)
    assert curve.times_s.tobytes() == times.tobytes() and curve.n[0] == n0
    assert np.all(np.abs(curve.n[1:] - want[1:]) <= 4.0 * np.spacing(want[1:]))


WINDOW_ENSEMBLES = {
    "cooling": replace(BASE, t_max_s=1.0),
    "heated": HEATED,
    "partial-transfer": replace(BASE, transfer_prob=0.6, heating_rate=3.0, t_max_s=1.0),
}


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(sorted(WINDOW_ENSEMBLES)), seed=st.integers(0, 2 ** 64 - 1),
       members=st.integers(2, 6), data=st.data())
def test_time_average_is_its_entry_of_the_ensemble_pass(kind, seed, members, data):
    trajectories = simulate_ensemble(replace(WINDOW_ENSEMBLES[kind], seed=seed), members)
    t_max = trajectories[0].config.t_max_s
    times = np.concatenate([tr.times_s for tr in trajectories])
    numbers = np.concatenate([tr.phonon_numbers for tr in trajectories], dtype=float)
    sizes = np.array([tr.times_s.size for tr in trajectories])
    # windows from 0, to t_max, at event times and between two consecutive events of the ensemble
    events = sorted(set(times.tolist()) | {t_max})
    inner = st.one_of(st.floats(0.0, t_max), st.sampled_from(events))
    gaps = st.integers(0, len(events) - 2).map(lambda i: (events[i], events[i + 1]))
    t0, t1 = data.draw(st.one_of(st.just((0.0, t_max)), st.tuples(st.just(0.0), inner), st.tuples(inner, st.just(t_max)),
                                 st.tuples(inner, inner).map(sorted), gaps))
    assume(t0 < t1)
    wide = cooling_sim._window_means(times, numbers, sizes, t0, t1)
    assert [tr.time_average(t0, t1) for tr in trajectories] == wide.tolist()


def built_directly(member):
    """A copy of an ensemble's member built as a CoolingTrajectory of its own, which makes its own window pass."""
    return cooling_sim.CoolingTrajectory(member.times_s, member.phonon_numbers, member.states, member.config,
                                         member.counters)


@settings(deadline=None)
@given(kind=st.sampled_from(sorted(RECORD_ENSEMBLES)), seed=st.integers(0, 2 ** 64 - 1), members=st.integers(2, 60),
       data=st.data())
@example(kind="out-of-order", seed=BASE.seed, members=60, data=None)
def test_time_averages_of_the_record_equal_its_members_own_passes(kind, seed, members, data):
    ensemble = record_ensemble(kind, seed, members)
    t_max = ensemble.config.t_max_s
    # the whole run, or windows whose edges are event times of the ensemble, t_max or any time in between
    events = st.sampled_from(sorted(set(ensemble.times_s.tolist()) | {t_max}))
    edges = st.tuples(st.one_of(events, st.floats(0.0, t_max)), st.one_of(events, st.floats(0.0, t_max)))
    t0, t1 = (0.0, t_max) if data is None else data.draw(st.one_of(st.just((0.0, t_max)), edges.map(sorted)))
    assume(t0 < t1)
    got = ensemble.time_averages(t0, t1)
    assert got.dtype == np.float64 and got.size == members and not got.flags.writeable
    listed = list(ensemble)
    # each member's time_average, each member's own pass as a trajectory built directly, and one pass over the
    # members laid out as a list
    direct = [built_directly(tr) for tr in listed]
    wide = cooling_sim._window_means(np.concatenate([tr.times_s for tr in listed]),
                                     np.concatenate([tr.phonon_numbers for tr in listed], dtype=float),
                                     [tr.times_s.size for tr in listed], t0, t1)
    for want in ([tr.time_average(t0, t1) for tr in listed], [tr.time_average(t0, t1) for tr in direct], wide):
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_members_asking_for_one_window_share_one_pass(monkeypatch):
    passes = []
    window_means = cooling_sim._window_means
    monkeypatch.setattr(cooling_sim, "_window_means", lambda *args: passes.append(args[3:]) or window_means(*args))
    ensemble = simulate_ensemble(replace(HEATED, t_max_s=1.0), 200)
    first = [tr.time_average(0.25, 1.0) for tr in ensemble]
    assert passes == [(0.25, 1.0)]
    second = [tr.time_average(0.5, 1.0) for tr in ensemble]
    assert passes == [(0.25, 1.0), (0.5, 1.0)] and first != second
    again = [tr.time_average(0.25, 1.0) for tr in ensemble]  # only the last window is kept: one more pass
    assert passes == [(0.25, 1.0), (0.5, 1.0), (0.25, 1.0)]
    assert np.array(again).tobytes() == np.array(first).tobytes() == ensemble.time_averages(0.25, 1.0).tobytes()
    # ensemble_stats reads the last quartile through the same pass, which a member asking for it then reuses
    stats = ensemble_stats(ensemble)
    assert ensemble[7].time_average(0.75, 1.0) == ensemble.time_averages(0.75, 1.0)[7]
    assert passes[3:] == [(0.75, 1.0)] and stats.steady_state_n == ensemble.time_averages(0.75, 1.0).mean()


@pytest.mark.parametrize("t_max", [1e-13, 3.0])
def test_a_window_may_reach_past_t_max_by_1e_12_of_it_and_no_more(t_max):
    cfg = CycleConfig(gamma=11.0, eta_sp=0.74, step_duration_s=1e-3, t_max_s=t_max, seed=5, heating_rate=2.0,
                      n_initial=3)
    ensemble = simulate_ensemble(cfg, 3)
    member = ensemble[1]
    averages = (ensemble.time_averages, member.time_average, built_directly(member).time_average)
    for t1 in (t_max, t_max * (1.0 + 0.5e-12)):
        for average in averages:
            average(0.0, t1)
    for t1 in (t_max * (1.0 + 2e-12), 10.0 * t_max, 12.0 * t_max, math.inf, math.nan):
        for average in averages:
            with pytest.raises(ValueError, match=r"outside \[0, "):
                average(0.0, t1)
    for t0, t1 in ((0.5 * t_max, 0.5 * t_max), (0.5 * t_max, 0.25 * t_max), (-0.1 * t_max, t_max), (math.nan, t_max)):
        for average in averages:
            with pytest.raises(ValueError, match=r"outside \[0, "):
                average(t0, t1)
