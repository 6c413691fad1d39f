"""Monte-Carlo and rate-equation models of the two-step cooling cycle.

Each cycle: a deterministic sideband interval of length tau_I that, with
probability p for n >= 1, removes one phonon and parks the ion in D; then an
exponential wait (rate Gamma) for thermal excitation D -> P followed by an
instantaneous decay that returns to S with probability eta_SP or back to D
otherwise. Poisson heating at rate h adds phonons at any time.

Each trajectory draws from one stream of uniforms u on [0, 1): numpy's
PCG64 generator, in the state np.random.default_rng(seed) starts from for
the config's seed (an ensemble computes all its members' states in one
pass), read BLOCK values at a time. Every draw takes the next u of the
stream. A wait at rate r is the inversion -log(1 - u)/r (Devroye 1986,
sec. II.2), a Bernoulli of probability p succeeds when u < p. The block
size changes no draw, and a trajectory is bit-reproducible from (config,
seed). The event loop reads each block negated, v = -u, once per block:
a wait is log1p(v)/-r and a Bernoulli succeeds when v > -p. Negation is
exact and a quotient's sign does not change its magnitude, so every wait
and every decision is the same double as with u. Both kernels compute a
wait with math.log1p, not numpy's log1p or log: numpy picks SIMD code by
the CPU's features, so a stream built on it would change with the CPU.
With numpy 2.4 on an AVX-512 Xeon, np.log1p differs from math.log1p on
about 7% of uniforms and np.log from math.log on about 0.3%; with those
features disabled (NPY_DISABLE_CPU_FEATURES) both agree exactly. The
uniforms feed, in this order within a cycle (a transfer probability p
below 1 spends no extra draw, so the stream order is the same for every
p):

1. at n = 0 with h > 0, one heating wait, which skips the empty intervals
   before it and is used as the first heating wait of the interval it
   falls in;
2. the remaining heating waits within the sideband interval, up to the
   first that overruns its end;
3. the transfer Bernoulli of probability p, drawn only when n > 0;
4. after a transfer, per event in D: an excitation wait, then a heating
   wait when h > 0 (the shorter one happens); after an excitation, the
   branching Bernoulli of probability eta_SP, back to S on success.

Two kernels compute these runs, bit for bit alike, and the heating rate
alone picks one. With h > 0 the event loop (_event_runs) takes each
member's draws one at a time. With h = 0 which draw a uniform feeds depends
on the uniforms alone: a transfer draw at each interval start, then after a
success (excitation wait, branching draw) pairs until a branching success.
So cooling_parse draws each member's first uniforms into one row of an
array, finds every run's tokens for many members at once (a reversed
running minimum for the next ending branch draw, one gather per cycle for
the chain of interval starts; Blelloch 1990), and sums the waits along the
rows. Heating cannot take that path: each heating wait within an interval
is compared with the interval's end, t + dt >= t_end, in absolute times, so
whether the next uniform is another heating wait or the transfer draw
depends on the times the earlier uniforms made.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .ion_thermo import cycle_rate
from .radiometry import int_value, real_value
from .spectra import atomic_write_text, csv_text


@dataclass(frozen=True)
class CycleConfig:
    """Parameters of one cooling-cycle simulation."""

    gamma: float                 # D -> P excitation rate, 1/s
    eta_sp: float                # P -> S branching fraction
    step_duration_s: float       # deterministic sideband interval tau_I
    t_max_s: float
    seed: int
    heating_rate: float = 0.0    # Poisson phonon gain, 1/s
    n_initial: int = 0
    transfer_prob: float = 1.0   # sideband transfer probability for n >= 1; none at n = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", real_value("gamma", self.gamma))
        object.__setattr__(self, "eta_sp", real_value("eta_sp", self.eta_sp, 0.0, 1.0))
        object.__setattr__(self, "step_duration_s", real_value("step_duration_s", self.step_duration_s))
        object.__setattr__(self, "t_max_s", real_value("t_max_s", self.t_max_s))
        object.__setattr__(self, "heating_rate", real_value("heating_rate", self.heating_rate, open_lo=False))
        if self.heating_rate > 0.0 and not math.isfinite(self.t_max_s / self.step_duration_s):
            raise ValueError(f"step_duration_s {self.step_duration_s!r} splits t_max_s {self.t_max_s!r} into more "
                             "intervals than a double holds, and a heated run counts them")
        # the record holds n as int64; the margin below 2**63 leaves room for heating
        object.__setattr__(self, "n_initial", int_value("n_initial", self.n_initial, 0, 2 ** 62))
        object.__setattr__(self, "transfer_prob", real_value("transfer_prob", self.transfer_prob, 0, 1, open_lo=False))
        object.__setattr__(self, "seed", int_value("seed", self.seed, 0, 2 ** 64))


@dataclass(frozen=True, eq=False)
class CoolingTrajectory:
    """Event record of one simulated run: a member an Ensemble makes, whose time_average reads its ensemble's pass.

    Rows are (time, n, state tag). Tags: 'S' and 'D' mark heating or
    transfer events while in that internal state; 'P' marks a scatter
    (decay through P), which leaves n unchanged, so n moves by at most
    one per event. The first row is the t = 0 initial condition. n(t) is
    piecewise constant, holding its last value until t_max.

    `counters` summarises the run: completed sideband intervals
    (`cycles`), of which `empty_intervals` ended without a transfer
    (skipped ones included) and `transfers` with one; `scatters` and
    `heating_events` are counted from the record; `stop_reason` is
    `t_max` or `quiescent` (no future event possible).
    """

    times_s: np.ndarray
    phonon_numbers: np.ndarray
    states: tuple
    config: CycleConfig
    counters: dict

    def time_average(self, t0: float, t1: float) -> float:
        """Time average of the piecewise-constant n over [t0, t1], 0 <= t0 < t1 <= t_max_s (1 + 1e-12).

        The member's entry of its ensemble's time_averages: members asking for one window share one pass.
        """
        return float(self._ensemble.time_averages(t0, t1)[self._index])

    def to_csv_text(self) -> str:
        return csv_text("time_s,n,internal_state", map(repr, self.times_s.tolist()),
                        map(repr, self.phonon_numbers.tolist()), self.states)

    def to_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())


@dataclass(frozen=True, eq=False, repr=False)
class Ensemble(Sequence):
    """One config's members, their rows (times_s, phonon_numbers, tags) end to end; member k's end at ends[k].

    Each index or iteration makes a new CoolingTrajectory: read-only views of its rows, config with the
    seed seeds[k], a copy of counters[k], and a reference to this ensemble and k, through which its
    time_average reads time_averages. A slice gives a list of members. The ensemble keeps the last
    window's time_averages, so its members asking for one window in turn make one pass between them.
    """

    config: CycleConfig
    seeds: list
    times_s: np.ndarray
    phonon_numbers: np.ndarray
    tags: str
    ends: list
    counters: list

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, index):
        picked = range(len(self.seeds))[index]
        return [self._member(k) for k in picked] if isinstance(index, slice) else self._member(picked)

    def __iter__(self):
        return map(self._member, range(len(self.seeds)))

    _last_window = None, None  # the last window time_averages computed, and its read-only result

    def time_averages(self, t0: float, t1: float) -> np.ndarray:
        """Every member's time average of n over [t0, t1], from one _window_means pass over the record.

        Returns a read-only array of len(self) floats, entry k bit for bit self[k].time_average(t0, t1).
        The last window's array is kept and returned again while the window stays the same; another
        window replaces it.
        """
        window, means = self._last_window
        if window != (t0, t1):
            t_max = self.config.t_max_s
            if not (0.0 <= t0 < t1 and t1 - t_max <= 1e-12 * t_max):
                raise ValueError(f"window [{t0}, {t1}] outside [0, {t_max}]")
            means = _window_means(self.times_s, self.phonon_numbers, np.diff(self.ends, prepend=0), t0, t1)
            means.setflags(write=False)
            object.__setattr__(self, "_last_window", ((t0, t1), means))
        return means

    def _member(self, k: int) -> CoolingTrajectory:
        start, end = self.ends[k - 1] if k else 0, self.ends[k]
        # the member copies config's validated fields; its seed, a uint64 word, is in range too
        config = object.__new__(CycleConfig)
        config.__dict__.update(vars(self.config), seed=self.seeds[k])
        # set through __dict__, past the frozen dataclass's __init__: the views are float64, int64 and read-only already
        traj = object.__new__(CoolingTrajectory)
        traj.__dict__.update(times_s=self.times_s[start:end], phonon_numbers=self.phonon_numbers[start:end],
                             states=tuple(self.tags[start:end]), config=config, counters=dict(self.counters[k]),
                             _ensemble=self, _index=k)
        return traj


BLOCK = 128  # uniforms per refill of a member's stream; no trajectory depends on it


def _uniforms(rng: np.random.Generator):
    """The generator's uniforms on [0, 1), negated, in stream order, drawn and negated BLOCK at a time."""
    return chain.from_iterable(iter(lambda: np.negative(rng.random(BLOCK)).tolist(), None))


# numpy's SeedSequence hash constants and PCG's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_pairs(init: int, mult: int, count: int) -> list:
    """SeedSequence's hash constants in the order it uses them, as (xor word, multiplier) pairs.

    The constant evolves by multiplication alone, so the pairs are the same for every seed.
    """
    pairs, h = [], init
    for _ in range(count):
        x, h = h, h * mult & 0xFFFFFFFF
        pairs.append((np.uint32(x), np.uint32(h)))
    return pairs


_POOL_HASHES = _hash_pairs(_INIT_A, _MULT_A, 16)  # 4 fill the pool, 12 mix it
_STATE_HASHES = _hash_pairs(_INIT_B, _MULT_B, 8)  # one per 32-bit word of four uint64 state words


def _hashmix(words: np.ndarray, pair) -> np.ndarray:
    x, h = pair
    words = words ^ x
    words *= h
    words ^= words >> np.uint32(16)
    return words


def _pcg64_states(seeds: np.ndarray) -> list:
    """PCG64's state dict for each uint64 seed, bit for bit as np.random.default_rng(seed) sets it.

    default_rng(seed) hashes the seed's low and high 32-bit words (the high one is 0 below 2**32,
    like the padding SeedSequence uses then) into a pool of four words, mixes the pool, draws four
    uint64 words from it and hands them to PCG's srandom as (initstate, initseq) (O'Neill 2014;
    numpy keeps these streams stable, NEP 19). The hash constants do not depend on the seed, so all
    seeds go through one uint32 pass; only srandom's 128-bit arithmetic runs seed by seed.
    """
    hashes = iter(_POOL_HASHES)
    zero = np.zeros(seeds.size, dtype=np.uint32)
    words = ((seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32))
    pool = [_hashmix(w, next(hashes)) for w in (*words, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hashmix(pool[k % 4], pair).astype(np.uint64) for k, pair in enumerate(_STATE_HASHES)]
    # the uint64 words are the uint32 ones paired little end first
    quads = [(out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    states = []
    for s0, s1, s2, s3 in zip(*quads):
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


# a row's code in _event_runs: the t = 0 row, heating in S, a transfer, heating in D, a scatter
_TAGS = bytes.maketrans(b"\1\2\3\4\5", b"SSDDP")  # the row's tag by its code
_STEPS = np.array([0, 0, 1, -1, 1, 0], dtype=np.int64)  # the row's change of n by its code


def _event_runs(cfg: CycleConfig, seeds: np.ndarray) -> tuple:
    """The event loop: each member's draws taken one at a time, in time order, for any heating rate.

    Returns the members' records laid end to end (times, n, tags as one str), each member's end row and counters.
    Each member's generator state comes from _pcg64_states and is set on one reused Generator. The loop
    reads the negated uniforms of _uniforms and appends a time and a code per row; the tags and n follow
    from the codes afterwards, n by one running sum that each member's first row restarts at n_initial.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    log1p, inf = math.log1p, math.inf
    # negated rates and probabilities: with v = -u a wait is log1p(v)/-r, and u < p is v > -p
    to_h, to_gamma, to_p, to_eta = -cfg.heating_rate, -cfg.gamma, -cfg.transfer_prob, -cfg.eta_sp
    heating = cfg.heating_rate > 0.0
    n0, tau, t_max = cfg.n_initial, cfg.step_duration_s, cfg.t_max_s
    times, codes = array("d"), bytearray()
    put_t, put_code = times.append, codes.append
    ends, runs, lasts = [], [], []

    for state in _pcg64_states(seeds):
        bit_generator.state = state
        draw = _uniforms(rng).__next__
        t = 0.0
        n = n0
        put_t(t)
        put_code(1)
        empty_intervals = transfers = scatters = 0
        stop_reason = None

        while stop_reason is None:
            wait = None  # heating wait already drawn for the coming interval
            if not heating:
                if n == 0 or to_p == 0.0:
                    stop_reason = "quiescent"  # no heating and the sideband has no effect
                    break
            elif n == 0:
                dt = log1p(draw()) / to_h
                if t + dt >= t_max:
                    empty_intervals += int((t_max - t) // tau)
                    stop_reason = "t_max"
                    break
                skipped, wait = divmod(dt, tau)
                t += skipped * tau
                empty_intervals += int(skipped)
            # step I: deterministic interval with Poisson heating
            t_end = t + tau
            if heating:
                horizon = t_end if t_end < t_max else t_max
                while True:
                    dt = log1p(draw()) / to_h if wait is None else wait
                    wait = None
                    if t + dt >= horizon:
                        break
                    t += dt
                    n += 1
                    put_t(t)
                    put_code(2)
            if t_end > t_max:
                stop_reason = "t_max"
                break
            t = t_end
            if n == 0 or draw() <= to_p:
                empty_intervals += 1
                continue  # no transfer this cycle; remain in S
            n -= 1
            transfers += 1
            put_t(t)
            put_code(3)
            # step II: wait in D for thermal excitation, racing against heating
            while True:
                dt = log1p(draw()) / to_gamma
                dt_heat = log1p(draw()) / to_h if heating else inf
                heated = dt_heat < dt
                if heated:
                    dt = dt_heat
                if t + dt >= t_max:
                    stop_reason = "t_max"
                    break
                t += dt
                if heated:
                    n += 1
                    put_t(t)
                    put_code(4)
                    continue
                scatters += 1
                put_t(t)
                put_code(5)
                if draw() > to_eta:
                    break  # back in S; cycle complete

        runs.append({
            "cycles": empty_intervals + transfers,
            "empty_intervals": empty_intervals,
            "transfers": transfers,
            "scatters": scatters,
            "heating_events": n - n0 + transfers,  # n moves only by heating (+1) and transfer (-1)
            "stop_reason": stop_reason,
        })
        ends.append(len(codes))
        lasts.append(n)
    numbers = _STEPS[np.frombuffer(codes, dtype=np.uint8)]
    numbers[[0, *ends[:-1]]] = n0 - np.array([0, *lasts[:-1]], dtype=np.int64)  # back to n0 from the last member's n
    np.cumsum(numbers, out=numbers)
    return np.frombuffer(times, dtype=np.float64), numbers, codes.translate(_TAGS).decode("ascii"), ends, runs


def _simulate(cfg: CycleConfig, seeds: np.ndarray) -> Ensemble:
    """One trajectory, as simulate_trajectory runs it, for each uint64 seed with cfg's other fields.

    Runs with no heating are parsed in passes of up to PARSE_CELLS cells (cooling_parse.parsed_runs);
    heated runs, and the members a parse leaves, take one call of the event loop (_event_runs).
    The passes' records are laid end to end in the order the passes finish, and gathered into
    member order where a redraw or the event loop's remainder leaves them out of it.
    """
    parts, pending = [], np.arange(seeds.size)
    if cfg.heating_rate == 0.0:
        from .cooling_parse import parsed_runs  # compiled on the first run with no heating only
        parts, pending = parsed_runs(cfg, seeds)
    if pending.size:
        parts.append((pending, _event_runs(cfg, seeds[pending])))
    members, runs = zip(*parts)
    times, numbers, tags, ends, counters = zip(*runs)
    order, times, numbers = (x[0] if len(x) == 1 else np.concatenate(x) for x in (members, times, numbers))
    tags, counters = "".join(tags), list(chain.from_iterable(counters))
    sizes = np.concatenate([np.diff([0, *part]) for part in ends])
    if (order[1:] < order[:-1]).any():
        rank = np.argsort(order)  # where each member's run sits among those laid end to end
        starts, sizes = (np.cumsum(sizes) - sizes)[rank], sizes[rank]
        rows = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(times.size)
        times, numbers = times[rows], numbers[rows]
        tags = np.frombuffer(tags.encode("ascii"), dtype=np.uint8)[rows].tobytes().decode("ascii")
        counters = [counters[k] for k in rank.tolist()]
    times.setflags(write=False)
    numbers.setflags(write=False)
    return Ensemble(cfg, seeds.tolist(), times, numbers, tags, np.cumsum(sizes).tolist(), counters)


def simulate_trajectory(cfg: CycleConfig) -> CoolingTrajectory:
    """Run one stochastic trajectory of the two-step cycle.

    Conventions: the transfer Bernoulli resolves at the end of the
    sideband interval using the phonon number at that instant (heating
    during the interval counts); transfer at n = 0 is suppressed so n
    stays non-negative; P decay is instantaneous; competing exponential
    clocks are redrawn after every event, which is distributionally exact
    for memoryless processes. With h = 0 the run stops early once no
    future event is possible (ground-state fixed point).

    At a cycle start with n = 0 and h > 0 every interval is empty until
    the next heating event, so one heating wait is drawn and the run jumps
    to the start of the interval that contains it (Gillespie 1977; Gibson
    & Bruck 2000). By memorylessness this leaves the distribution of the
    trajectory unchanged.
    """
    return _simulate(cfg, np.array([cfg.seed], dtype=np.uint64))[0]


def simulate_ensemble(cfg: CycleConfig, n_trajectories: int) -> Ensemble:
    """Independent trajectories with per-member seeds derived from cfg.seed.

    Seeds come from numpy's SeedSequence state expansion; each member
    re-runs bit for bit from the config recorded on it, through
    simulate_trajectory. An Ensemble holds the members' rows in member
    order; each access makes a new member, so ens[0] is ens[0] is False.
    """
    n = int_value("n_trajectories", n_trajectories, 1)
    return _simulate(cfg, np.random.SeedSequence(cfg.seed).generate_state(n, dtype=np.uint64))


def _window_means(times, numbers, sizes, t0: float, t1: float) -> np.ndarray:
    """Each member's time average of its piecewise-constant n over [t0, t1].

    times and numbers are the members' records laid end to end, sizes their
    lengths. Every row holds its n until the member's next row, the last
    one to the end; its duration clipped to the window weights that n.
    bincount adds each member's weights from 0.0 in row order, so a
    member's mean is bit for bit the same whatever members lie beside it.
    """
    held = np.empty_like(times)
    held[:-1] = times[1:]
    held[np.cumsum(sizes) - 1] = math.inf
    np.minimum(held, t1, out=held)
    held -= np.maximum(times, t0)
    np.maximum(held, 0.0, out=held)
    held *= numbers
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(owner, weights=held, minlength=len(sizes)) / (t1 - t0)


def _grid_cells(grid, times) -> np.ndarray:
    """np.searchsorted(grid, times), the first grid time at or after each time, on a linspace grid from 0.

    The cell index is ceil(t/step), moved by one where the grid's own values say so: t/step and the grid's
    k*step each round by half an ulp, so at the normal steps ensemble_stats takes they are at most one cell apart.
    """
    step = grid[-1] / (grid.size - 1)
    cells = np.ceil(times / step)
    np.clip(cells, 0, grid.size, out=cells)
    cells = cells.astype(np.intp)
    edges = np.concatenate(([-math.inf], grid, [math.inf]))  # edges[c] = grid[c - 1]
    cells -= edges[cells] >= times
    cells += edges[cells + 1] < times
    return cells


def _grid_samples(times, numbers, sizes, grid) -> np.ndarray:
    """Each member's n at each grid time, one row per member, laid out as in _window_means.

    A grid time takes the member's last row at or before it. The running
    count of rows, member after member and grid cell after grid cell, is
    that row's index plus one, exact and with no time shifted to tell the
    members apart.
    """
    cells = grid.size + 1
    key = _grid_cells(grid, times)
    key += np.repeat(np.arange(0, len(sizes) * cells, cells), sizes)
    counts = np.bincount(key, minlength=len(sizes) * cells)
    del key  # the gather below needs the memory more
    np.cumsum(counts, out=counts)
    counts -= 1
    return numbers[counts.reshape(len(sizes), cells)[:, :-1]]


def ensemble_counters(trajectories: Ensemble) -> dict:
    """An Ensemble's totals of its members' counters, with a count of each stop reason."""
    counted = ("cycles", "empty_intervals", "transfers", "scatters", "heating_events")
    totals = {key: sum(run[key] for run in trajectories.counters) for key in counted}
    totals["stop_reasons"] = dict(Counter(run["stop_reason"] for run in trajectories.counters))
    return totals


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    grid_s: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray
    steady_state_n: float
    steady_state_stderr: float
    slope_per_s: float
    slope_stderr: float
    slope_window_s: tuple
    n_trajectories: int

    def to_summary_dict(self) -> dict:
        z = 1.959963984540054  # two-sided 95% normal quantile
        return {
            "n_trajectories": self.n_trajectories,
            "slope_per_s": self.slope_per_s,
            "slope_stderr": self.slope_stderr,
            "slope_ci95": [self.slope_per_s - z * self.slope_stderr,
                           self.slope_per_s + z * self.slope_stderr],
            "steady_state_n": self.steady_state_n,
            "steady_state_stderr": self.steady_state_stderr,
            "steady_state_ci95": [self.steady_state_n - z * self.steady_state_stderr,
                                  self.steady_state_n + z * self.steady_state_stderr],
            "slope_window_s": list(self.slope_window_s),
            "grid_s": self.grid_s.tolist(),
            "mean_n": self.mean_n.tolist(),
            "var_n": self.var_n.tolist(),
        }


def ensemble_stats(trajectories: Ensemble, grid_points: int = 201) -> EnsembleStats:
    """Grid-resampled statistics of an Ensemble's members.

    The initial cooling slope is a per-trajectory least-squares fit over
    the first 20% of the cooling transient (from n_initial toward the
    steady state), averaged across the ensemble; the steady state is the
    mean of per-trajectory last-quartile time averages.

    The slope window starts one nominal cycle time in, not at t = 0.
    All trajectories begin a transfer interval together at t = 0, so the
    ensemble mean is phase-locked and steeper than the sustained cooling
    rate until the exponential waits decorrelate the cycles; skipping
    one busy-cycle period 1/cycle_rate removes that bias.

    Each member's slope is a least-squares fit in grid steps, small exact
    numbers whose squares stay within the doubles, divided by the step
    t_max_s/(grid_points - 1). The slopes' variance is in 1/s^2, so a step
    whose square is not a normal double is refused.
    """
    if not isinstance(trajectories, Ensemble):
        raise TypeError(f"ensemble_stats takes an Ensemble, got {type(trajectories).__name__}")
    if len(trajectories) < 2:
        raise ValueError("need at least two trajectories")
    grid_points = int_value("grid_points", grid_points)
    if grid_points < 3:
        raise ValueError(f"need at least three grid points, got {grid_points}")
    cfg, times, numbers = trajectories.config, trajectories.times_s, trajectories.phonon_numbers.astype(float)
    sizes = np.diff(trajectories.ends, prepend=0)
    t_max = cfg.t_max_s
    step = t_max / (grid_points - 1)
    if not step * step >= _TINY:
        raise ValueError(f"t_max_s {t_max!r} over {grid_points - 1} grid steps gives steps of {step!r} s, "
                         f"below the {math.sqrt(_TINY):.3g} s whose square is the smallest normal double")
    grid = np.linspace(0.0, t_max, grid_points)
    quartiles = trajectories.time_averages(0.75 * t_max, t_max)
    samples = _grid_samples(times, numbers, sizes, grid)
    del times, numbers  # free the records before the (members x grid) temporaries below
    mean_n = samples.mean(axis=0)
    var_n = samples.var(axis=0)

    steady = float(quartiles.mean())
    steady_err = float(quartiles.std(ddof=1) / math.sqrt(len(trajectories)))

    rate = cycle_rate(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.transfer_prob)
    start = int(np.searchsorted(grid, 1.0 / rate)) if rate > 0.0 else 0  # no cycles, no phase lock
    n0 = mean_n[0]
    target = n0 - 0.2 * (n0 - steady)
    below = np.nonzero(mean_n <= target)[0] if target < n0 else np.array([], dtype=int)
    if below.size:
        stop = int(below[0])
    else:
        stop = int(0.2 * (grid_points - 1))
    start = min(start, grid_points - 3)
    stop = max(stop, start + 2)
    window = slice(start, stop + 1)
    # least squares in grid steps counted from the window's middle, where they sum to zero and the samples need no
    # centring
    steps = np.arange(stop + 1 - start) - (stop - start) / 2
    slopes = samples[:, window] @ (steps / (steps @ steps)) / step
    slope = float(slopes.mean())
    slope_err = float(slopes.std(ddof=1) / math.sqrt(len(slopes)))

    return EnsembleStats(
        grid_s=grid,
        mean_n=mean_n,
        var_n=var_n,
        steady_state_n=steady,
        steady_state_stderr=steady_err,
        slope_per_s=slope,
        slope_stderr=slope_err,
        slope_window_s=(float(grid[start]), float(grid[stop])),
        n_trajectories=len(trajectories),
    )


_NEWTON_TOL = 2.0 ** -26
_TINY = np.finfo(float).tiny  # the smallest normal double


class RateCurve(NamedTuple):
    times_s: np.ndarray
    n: np.ndarray


def rate_equation_trajectory(cfg: CycleConfig, grid_points: int = 201) -> RateCurve:
    """Mean-field companion to the Monte Carlo, dn/dt = -R n/(n + 1/2) + h, on ensemble_stats' grid.

    R is the busy-cycle rate; n/(n + 1/2) turns the sideband off smoothly at the ground state. With
    a = h - R, b = h/2, c = a n0 + b, d = n - n0 and y = a d/c, the time to reach n is exactly
    t(n) = d (n0 + 1/2)/c - (R/2) (d/c)^2 g(y), g(y) = (ln(1 + y) - y)/y^2, in every regime; a
    series gives g where |y| < 0.01, where the direct form cancels. All grid times t_k solve
    t(n) = t_k together by Newton's method from n0, with the ODE's own slope
    dt/dn = (n + 1/2)/(a n + b). Where a < 0 the curve approaches the fixed point n_f = -b/a, and
    each step is taken in v = ln|n - n_f|, along which t is close to linear near n_f; s = n - n_f is
    carried beside n, so no iterate rounds onto n_f. With no fixed point (h >= R) the step is taken
    in n. Along either variable t is convex or concave, so after at most one overshoot the iterates
    approach the root from one side, and once every grid time's step is below 2^-26 of n, a last
    step leaves an error of the order of its square, below n's rounding. A step that leaves the
    bracket between n0 and n_f (n0 + h t_max if h >= R), narrowed by the sign of each t(n) computed,
    is replaced by a halving of the bracket's bit patterns. A step in v stops where |s| reaches the
    smallest normal double, whose ln is still exact, and a root past that point is n_f. There are at
    most 64 passes: 8 or 9 on a cooling curve, more only where scaled times overflow. The result is the
    root of t(n) to within t's own rounding, about 1e-14 relative against a 40-digit root; ln(1 + y)
    comes from log1p, since ln(1 + y) - y cancels near |y| = 0.01 and a logarithm of the rounded
    1 + y would leave about 1e-12 there near balance. The result is clamped into its bracket, so it
    stays on its fixed point's side, and a running minimum (cooling) or maximum (heating) keeps it
    monotone. n[0] = n0, and where c = 0 the curve stays at n0.
    """
    grid_points = int_value("grid_points", grid_points, 1)
    r = cycle_rate(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.transfer_prob)
    h, n0 = cfg.heating_rate, float(cfg.n_initial)
    times = np.linspace(0.0, cfg.t_max_s, grid_points)
    curve = np.full(grid_points, n0)
    # rates in units of the larger one keep a n0 + b finite; t(n) is then in units of 1/scale
    scale = max(r, h) or 1.0
    a, b, r = (h - r) / scale, 0.5 * h / scale, r / scale
    c = a * n0 + b
    # g's series, highest power first, where |y| < 0.01: the direct form cancels there (as h -> R)
    series = [(-1.0) ** (k + 1) / (k + 2) for k in range(8, -1, -1)]
    if c == 0.0:  # n0 is the fixed point, or nothing moves
        return RateCurve(times_s=times, n=curve)
    cooling = c < 0.0
    fixed = b / -a if a < 0.0 else None
    end = fixed if a < 0.0 else n0 + h * cfg.t_max_s
    lo, hi = (np.full(grid_points - 1, v) for v in ((min(end, n0), n0) if cooling else (n0, max(end, n0))))
    n = np.full(grid_points - 1, n0)
    s = n - fixed if a < 0.0 else None  # n - n_f, to full precision however close n comes to n_f
    with np.errstate(all="ignore"):  # overflowing scaled times, an underflowing s
        clock = times[1:] * scale
        f = -clock  # t(n0) - t_k
        for _ in range(64):
            if s is None:
                new, grown = n - f * (a * n + b) / (n + 0.5), None
            else:  # the step in v: s grows by exp(dv), but not below the smallest normal |s|, whose ln is exact
                dv = f * -a / (n + 0.5)
                grown = s * np.exp(dv)
                beyond = abs(grown) < _TINY  # the root is closer to n_f than that
                if beyond.any():
                    dv[beyond] = np.log(_TINY / np.maximum(abs(s[beyond]), _TINY))
                    grown = s * np.exp(dv)
                # above n_f, n from s keeps n's precision; below it, from n, where n << n_f
                new = fixed + grown if cooling else n + s * np.expm1(dv)
            if (abs(new - n) <= _NEWTON_TOL * n).all():
                if s is not None:
                    new[beyond] = fixed
                n = np.clip(new, lo, hi)
                break
            inside = (lo <= new) & (new <= hi)
            if not inside.all():
                lb, hb = lo.view(np.int64), hi.view(np.int64)
                new = np.where(inside, new, (lb + (hb - lb) // 2).view(np.float64))
                if s is not None:
                    grown = np.where(inside, grown, new - fixed)
            n, s = new, grown
            dc = (n - n0) / c
            y = a * dc
            # ln(1 + y), with 1 + y = a (n - n_f)/c from s where y nears -1 and loses the digits of 1 + y
            ln = np.log1p(y) if s is None else np.where(y > -0.5, np.log1p(y), np.log(s * (a / c)))
            g = (ln - y) / (y * y)
            small = abs(y) < 0.01
            g[small] = np.polyval(series, y[small])
            f = dc * (n0 + 0.5) - 0.5 * r * dc * dc * g - clock
            below = f <= 0.0 if cooling else ~(f < 0.0)  # the root is at most n; a NaN (past n_f) puts it on n0's side
            np.copyto(hi, n, where=below)
            np.copyto(lo, n, where=~below)
    curve[1:] = n
    return RateCurve(times_s=times, n=(np.minimum if cooling else np.maximum).accumulate(curve))
