"""The no-heating kernel (cooling_parse) against the event loop, bit for bit; grid cells against np.searchsorted.

The event loop (`_event_runs`) is the reference: the members an ensemble
returns, their rows laid end to end in member order, must equal its buffers
byte for byte, and their counters and configs must equal its counters and
the members' configs. Run with `--hypothesis-profile=ci` to explore many
more configs than the default profile does.
"""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermolight import CycleConfig, simulate_ensemble, simulate_trajectory
from thermolight import cooling_parse, cooling_sim
from thermolight.acceptance import _BASE_SEED, renewal_slope


def laid_end_to_end(members):
    """Members' rows end to end, their end rows, counters and configs, laid out as event_loop returns them."""
    return (np.concatenate([m.times_s for m in members]).tobytes(),
            np.concatenate([m.phonon_numbers for m in members]).tobytes(),
            "".join(chain.from_iterable(m.states for m in members)),
            np.cumsum([m.times_s.size for m in members]).tolist(),
            [m.counters for m in members], [vars(m.config) for m in members])


def event_loop(cfg, seeds):
    times, numbers, tags, ends, counters = cooling_sim._event_runs(cfg, seeds)
    return (times.tobytes(), numbers.tobytes(), "".join(tags), ends, counters,
            [dict(vars(cfg), seed=seed) for seed in seeds.tolist()])


def member_seeds(cfg, members):
    return np.random.SeedSequence(cfg.seed).generate_state(members, dtype=np.uint64)


def cooling_config(n0, p, eta_sp, tau, gamma, horizon, seed):
    """A cooling run cut at 10**horizon times its full transient, and within a few thousand draws per member."""
    transient = (n0 + 1) * (tau / p + 1.0 / (gamma * eta_sp)) if p > 0.0 else tau
    t_max = 10.0 ** horizon * transient
    if n0 > 1000 * p:  # many empty intervals: at most a thousand
        t_max = min(t_max, 1000 * tau)
    if n0 > 1000 * eta_sp:  # many scatters per transfer: about a thousand
        t_max = min(t_max, 1000 / gamma)
    return CycleConfig(gamma=gamma, eta_sp=eta_sp, step_duration_s=tau, t_max_s=t_max, seed=seed,
                       n_initial=n0, transfer_prob=p)


unit = st.floats(1e-6, 1.0)  # (0, 1] down to where a transient is still a finite time


@settings(deadline=None)
@given(n0=st.integers(0, 80), p=st.one_of(st.just(1.0), unit), eta_sp=st.one_of(st.just(1.0), unit),
       tau=st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e), gamma=st.floats(-1.0, 4.0).map(lambda e: 10.0 ** e),
       horizon=st.floats(-2.0, 0.5), seed=st.integers(0, 2 ** 64 - 1), members=st.integers(1, 40),
       cells=st.integers(1, 4000), margin=st.floats(0.2, 1.25), widest=st.one_of(st.just(4096), st.integers(32, 1024)))
@example(n0=0, p=1.0, eta_sp=0.74, tau=1e-3, gamma=11.06, horizon=0.0, seed=1, members=5, cells=4000,
         margin=1.25, widest=4096)  # quiescent at once
@example(n0=20, p=0.0, eta_sp=0.74, tau=1e-3, gamma=11.06, horizon=0.0, seed=2, members=5, cells=4000,
         margin=1.25, widest=4096)  # no transfer ever
@example(n0=35, p=1.0, eta_sp=0.74, tau=1e-3, gamma=11.06, horizon=0.2, seed=3, members=40, cells=1600,
         margin=1.25, widest=4096)  # the simulate default, eight members a pass
@example(n0=20, p=0.3, eta_sp=1.0, tau=1e-3, gamma=11.06, horizon=-0.5, seed=4, members=40, cells=500,
         margin=1.25, widest=4096)  # cut mid-transient
@example(n0=20, p=0.6, eta_sp=0.05, tau=1e-3, gamma=11.06, horizon=-0.3, seed=5, members=40, cells=1,
         margin=0.2, widest=4096)  # drawn again, several times, one member a pass
@example(n0=80, p=1e-3, eta_sp=1e-3, tau=1e-3, gamma=10.0, horizon=0.5, seed=6, members=12, cells=2000,
         margin=0.2, widest=1000)  # the longest streams take the event loop
def test_parse_kernel_equals_the_event_loop(n0, p, eta_sp, tau, gamma, horizon, seed, members, cells, margin,
                                            widest):
    cfg = cooling_config(n0, p, eta_sp, tau, gamma, horizon, seed)
    seeds = member_seeds(cfg, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cooling_parse, "PARSE_CELLS", cells)
        mp.setattr(cooling_parse, "STREAM_MARGIN", margin)
        mp.setattr(cooling_parse, "PARSE_WIDTH", widest)
        got = laid_end_to_end(cooling_sim._simulate(cfg, seeds))
    assert got == event_loop(cfg, seeds)


def test_a_wait_that_lands_on_t_max_stops_the_run():
    # waits of about 1e-22 s vanish against t, so the third transfer lands on t_max exactly: it is made
    # (an interval stops the run only when it ends past t_max), and the wait after it, at t_max, stops the run
    tau = 1e-3
    cfg = CycleConfig(gamma=1e22, eta_sp=1.0, step_duration_s=tau, t_max_s=tau + tau + tau, seed=10, n_initial=10)
    seeds = member_seeds(cfg, 5)
    members = cooling_sim._simulate(cfg, seeds)
    assert laid_end_to_end(members) == event_loop(cfg, seeds)
    for member in members:
        assert (member.times_s[-1], member.states[-1], member.counters["transfers"]) == (cfg.t_max_s, "D", 3)


def test_short_streams_are_drawn_again_and_long_ones_take_the_event_loop(monkeypatch):
    cfg = cooling_config(30, 0.5, 0.3, 1e-3, 11.06, -0.2, 6)
    seeds = member_seeds(cfg, 60)
    want = event_loop(cfg, seeds)
    passes, looped = [], []
    parse_pass, event_runs = cooling_parse._parse_pass, cooling_sim._event_runs

    def counted_pass(cfg, u):
        (size, span), (finished, *rows) = u.shape, parse_pass(cfg, u)
        passes.append((span - 3, size, int(finished.sum())))
        return finished, *rows

    def counted_loop(cfg, seeds):
        looped.append(seeds.size)
        return event_runs(cfg, seeds)

    # a stream of a fifth of the mean, passes of 400 cells, and no stream over 200 uniforms
    monkeypatch.setattr(cooling_parse, "STREAM_MARGIN", 0.2)
    monkeypatch.setattr(cooling_parse, "STREAM_SPARE", 1)
    monkeypatch.setattr(cooling_parse, "PARSE_CELLS", 400)
    monkeypatch.setattr(cooling_parse, "PARSE_WIDTH", 200)
    monkeypatch.setattr(cooling_parse, "_parse_pass", counted_pass)
    monkeypatch.setattr(cooling_sim, "_event_runs", counted_loop)
    assert laid_end_to_end(simulate_ensemble(cfg, 60)) == want
    widths = sorted({width for width, _, _ in passes})
    assert len(widths) >= 2 and all(b == 2 * a for a, b in zip(widths, widths[1:]))  # drawn again, twice as long
    assert all(size * (width + 3) <= 400 or size == 1 for width, size, _ in passes)  # a row is width + 3 cells
    assert max(size for _, size, _ in passes) == 400 // (widths[0] + 3) > 1
    assert len(looped) == 1 and looped[0] + sum(done for _, _, done in passes) == 60  # one event-loop call


def test_a_pass_takes_as_many_members_as_parse_cells_holds(monkeypatch):
    shapes, parse_pass = [], cooling_parse._parse_pass

    def counted_pass(cfg, u):
        shapes.append(u.shape)
        return parse_pass(cfg, u)

    monkeypatch.setattr(cooling_parse, "_parse_pass", counted_pass)
    # the default budget: the widest rows of the benchmark's cooling ensembles (n0 = 60, the longest interval,
    # the slowest decay; 500 members) and criterion 8's cooling ensemble each take one pass
    rate = renewal_slope(9.0, 0.74, 5e-3)
    widest = CycleConfig(gamma=9.0, eta_sp=0.74, step_duration_s=5e-3, t_max_s=1.3 * 60 / rate + 0.5, seed=11,
                         n_initial=60)
    criterion_8 = CycleConfig(gamma=11.06, eta_sp=0.74, step_duration_s=1e-3, t_max_s=3.0, seed=_BASE_SEED + 8,
                              n_initial=20)
    for cfg, members in ((widest, 500), (criterion_8, 1000)):
        shapes.clear()
        simulate_ensemble(cfg, members)
        assert len(shapes) == 1 and shapes[0][0] == members and members * shapes[0][1] <= cooling_parse.PARSE_CELLS
    # a budget below one row: one member a pass, and still the event loop's runs
    cfg = cooling_config(25, 0.8, 0.5, 1e-3, 11.06, -0.3, 12)
    seeds = member_seeds(cfg, 9)
    shapes.clear()
    monkeypatch.setattr(cooling_parse, "PARSE_CELLS", cooling_parse._stream_width(cfg) + 2)
    assert laid_end_to_end(cooling_sim._simulate(cfg, seeds)) == event_loop(cfg, seeds)
    assert len(shapes) >= 9 and all(size == 1 for size, _ in shapes)


def test_no_heating_is_parsed_and_heating_takes_the_event_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel not expected here")

    cooling = cooling_config(20, 1.0, 0.74, 1e-3, 11.06, 0.0, 7)
    with monkeypatch.context() as mp:
        mp.setattr(cooling_sim, "_event_runs", refuse)
        simulate_ensemble(cooling, 50)
    with monkeypatch.context() as mp:
        mp.setattr(cooling_parse, "parsed_runs", refuse)
        simulate_ensemble(CycleConfig(gamma=11.06, eta_sp=0.74, step_duration_s=1e-3, t_max_s=0.5, seed=8,
                                      heating_rate=2.0, n_initial=5), 5)


@pytest.mark.parametrize("horizon", [-0.5, 0.3], ids=["cut", "to-ground"])
def test_trajectory_of_a_member_equals_its_ensemble_row(horizon):
    members = simulate_ensemble(cooling_config(25, 0.8, 0.5, 1e-3, 11.06, horizon, 9), 30)
    for member in members[::7]:
        assert laid_end_to_end([simulate_trajectory(member.config)]) == laid_end_to_end([member])


SHORTEST_STEP = math.sqrt(np.finfo(float).tiny)  # ensemble_stats refuses grid steps whose square is not normal


@settings(deadline=None)
@given(t_max=st.floats(SHORTEST_STEP, 1e308), points=st.integers(2, 5000),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=50))
@example(t_max=3.0, points=201, fractions=[])
@example(t_max=SHORTEST_STEP * 200, points=201, fractions=[0.5])  # the shortest step ensemble_stats takes
def test_grid_cells_equal_searchsorted(t_max, points, fractions):
    step = t_max / (points - 1)
    assume(step * step >= np.finfo(float).tiny)  # the grids ensemble_stats takes
    grid = np.linspace(0.0, t_max, points)
    # every grid time, the doubles on either side of it, and times in between
    times = np.concatenate([grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf),
                            np.array(fractions) * t_max])
    assert cooling_sim._grid_cells(grid, times).tolist() == np.searchsorted(grid, times).tolist()
