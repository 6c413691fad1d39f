"""Monte-Carlo and rate-equation models of the two-step cooling cycle.

Each cycle: a deterministic sideband interval of length tau_I that, with
probability p_I(n), removes one phonon and parks the ion in D; then an
exponential wait (rate Gamma) for thermal excitation D -> P followed by an
instantaneous decay that returns to S with probability eta_SP or back to D
otherwise. Poisson heating at rate h adds phonons at any time.

All draws come from numpy's PCG64 generator seeded from the config, in a
fixed order per cycle, so a trajectory is bit-reproducible from (config,
seed):

1. at n = 0 with h > 0, one heating wait, which skips the empty intervals
   before it and is used as the first heating wait of the interval it
   falls in;
2. the remaining heating waits within the sideband interval;
3. the transfer Bernoulli, drawn only when n > 0;
4. after a transfer, alternating excitation/heating waits in D, each
   excitation followed by the branching Bernoulli.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .radiometry import int_value, real_value
from .spectra import atomic_write_text


def default_transfer_prob(n: int) -> float:
    """Ideal sideband transfer: certain for n >= 1, impossible at n = 0."""
    return 1.0 if n >= 1 else 0.0


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
    transfer_prob: "Callable[[int], float] | None" = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", real_value("gamma", self.gamma))
        object.__setattr__(self, "eta_sp", real_value("eta_sp", self.eta_sp, 0.0, 1.0, open_lo=False))
        object.__setattr__(self, "step_duration_s", real_value("step_duration_s", self.step_duration_s))
        object.__setattr__(self, "t_max_s", real_value("t_max_s", self.t_max_s))
        object.__setattr__(self, "heating_rate", real_value("heating_rate", self.heating_rate, open_lo=False))
        object.__setattr__(self, "n_initial", int_value("n_initial", self.n_initial))
        object.__setattr__(self, "seed", int_value("seed", self.seed, 0, 2 ** 64))


def _transfer_probability(cfg: CycleConfig, n: int) -> float:
    fn = cfg.transfer_prob or default_transfer_prob
    p = float(fn(n))
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"transfer probability {p!r} at n={n} outside [0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class CoolingTrajectory:
    """Event record of one simulated run.

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
    seed: int
    t_max_s: float
    config: CycleConfig
    counters: dict

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        n = np.asarray(self.phonon_numbers, dtype=np.int64)
        t.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "phonon_numbers", n)

    @property
    def final_n(self) -> int:
        return int(self.phonon_numbers[-1])

    def occupation_on_grid(self, grid_s) -> np.ndarray:
        g = np.asarray(grid_s, dtype=float)
        idx = np.searchsorted(self.times_s, g, side="right") - 1
        idx = np.clip(idx, 0, len(self.times_s) - 1)
        return self.phonon_numbers[idx].astype(float)

    def time_average(self, t0: float, t1: float) -> float:
        """Time average of the piecewise-constant n over [t0, t1]."""
        if not (0.0 <= t0 < t1 <= self.t_max_s + 1e-12):
            raise ValueError(f"window [{t0}, {t1}] outside [0, {self.t_max_s}]")
        edges = np.concatenate(([t0], self.times_s[(self.times_s > t0) & (self.times_s < t1)], [t1]))
        vals = self.occupation_on_grid(edges[:-1])
        return float(np.sum(vals * np.diff(edges)) / (t1 - t0))

    @property
    def last_quartile_average(self) -> float:
        return self.time_average(0.75 * self.t_max_s, self.t_max_s)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("time_s,n,internal_state\n")
        for t, n, s in zip(self.times_s, self.phonon_numbers, self.states):
            buf.write(f"{float(t)!r},{int(n)},{s}\n")
        return buf.getvalue()

    def to_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())


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
    rng = np.random.default_rng(cfg.seed)
    h = cfg.heating_rate
    tau = cfg.step_duration_s
    t = 0.0
    n = cfg.n_initial
    times = [0.0]
    numbers = [n]
    states = ["S"]
    empty_intervals = 0
    stop_reason = None

    def record(time, number, tag):
        times.append(time)
        numbers.append(number)
        states.append(tag)

    while stop_reason is None:
        wait = None  # heating wait already drawn for the coming interval
        if h == 0.0:
            # n cannot change inside the interval, so this p serves its end too
            p = _transfer_probability(cfg, n) if n > 0 else 0.0
            if p == 0.0:
                stop_reason = "quiescent"  # no heating and the sideband has no effect
                break
        elif n == 0:
            dt = rng.exponential(1.0 / h)
            if t + dt >= cfg.t_max_s:
                empty_intervals += int((cfg.t_max_s - t) // tau)
                stop_reason = "t_max"
                break
            skipped, wait = divmod(dt, tau)
            t += skipped * tau
            empty_intervals += int(skipped)
        # step I: deterministic interval with Poisson heating
        t_end = t + tau
        horizon = min(t_end, cfg.t_max_s)
        if h > 0.0:
            while True:
                dt = rng.exponential(1.0 / h) if wait is None else wait
                wait = None
                if t + dt >= horizon:
                    break
                t += dt
                n += 1
                record(t, n, "S")
        if t_end > cfg.t_max_s:
            stop_reason = "t_max"
            break
        t = t_end
        if h > 0.0:
            p = _transfer_probability(cfg, n)
        if n == 0 or rng.random() >= p:
            empty_intervals += 1
            continue  # no transfer this cycle; remain in S
        n -= 1
        record(t, n, "D")
        # step II: wait in D for thermal excitation, racing against heating
        while True:
            dt_exc = rng.exponential(1.0 / cfg.gamma)
            dt_heat = rng.exponential(1.0 / h) if h > 0.0 else math.inf
            dt = min(dt_exc, dt_heat)
            if t + dt >= cfg.t_max_s:
                stop_reason = "t_max"
                break
            t += dt
            if dt_heat < dt_exc:
                n += 1
                record(t, n, "D")
                continue
            record(t, n, "P")
            if rng.random() < cfg.eta_sp:
                break  # back in S; cycle complete

    phonons = np.array(numbers, dtype=np.int64)
    steps = np.diff(phonons)
    transfers = int(np.count_nonzero(steps < 0))
    counters = {
        "cycles": empty_intervals + transfers,
        "empty_intervals": empty_intervals,
        "transfers": transfers,
        "scatters": states.count("P"),
        "heating_events": int(np.count_nonzero(steps > 0)),
        "stop_reason": stop_reason,
    }
    return CoolingTrajectory(
        times_s=np.array(times),
        phonon_numbers=phonons,
        states=tuple(states),
        seed=cfg.seed,
        t_max_s=cfg.t_max_s,
        config=cfg,
        counters=counters,
    )


def simulate_ensemble(cfg: CycleConfig, n_trajectories: int) -> list:
    """Independent trajectories with per-member seeds derived from cfg.seed.

    Seeds come from numpy's SeedSequence state expansion, so each member
    can be re-run individually from the integer recorded on it.
    """
    n = int_value("n_trajectories", n_trajectories, 1)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(n, dtype=np.uint64)
    return [simulate_trajectory(replace(cfg, seed=s)) for s in seeds]


def ensemble_counters(trajectories: list) -> dict:
    """Ensemble totals of the per-trajectory counters, with a count of each stop reason."""
    counted = ("cycles", "empty_intervals", "transfers", "scatters", "heating_events")
    totals = {key: sum(tr.counters[key] for tr in trajectories) for key in counted}
    totals["stop_reasons"] = dict(Counter(tr.counters["stop_reason"] for tr in trajectories))
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


def ensemble_stats(trajectories: list, grid_points: int = 201) -> EnsembleStats:
    """Grid-resampled ensemble statistics.

    The initial cooling slope is a per-trajectory least-squares fit over
    the first 20% of the cooling transient (from n_initial toward the
    steady state), averaged across the ensemble; the steady state is the
    mean of per-trajectory last-quartile time averages.

    The slope window starts one nominal cycle time in, not at t = 0.
    All trajectories begin a transfer interval together at t = 0, so the
    ensemble mean is phase-locked and steeper than the sustained cooling
    rate until the exponential waits decorrelate the cycles; skipping
    step_duration_s + 1/(gamma * eta_sp) removes that bias.
    """
    if len(trajectories) < 2:
        raise ValueError("need at least two trajectories")
    grid_points = int_value("grid_points", grid_points)
    if grid_points < 3:
        raise ValueError(f"need at least three grid points, got {grid_points}")
    shared = [f.name for f in fields(CycleConfig) if f.name != "seed"]
    ref = [getattr(trajectories[0].config, name) for name in shared]
    for traj in trajectories[1:]:
        if [getattr(traj.config, name) for name in shared] != ref:
            raise ValueError("trajectories come from differing configs")
    t_max = trajectories[0].t_max_s
    grid = np.linspace(0.0, t_max, grid_points)
    samples = np.vstack([traj.occupation_on_grid(grid) for traj in trajectories])
    mean_n = samples.mean(axis=0)
    var_n = samples.var(axis=0)

    quartiles = np.array([traj.last_quartile_average for traj in trajectories])
    steady = float(quartiles.mean())
    steady_err = float(quartiles.std(ddof=1) / math.sqrt(len(trajectories)))

    cfg = trajectories[0].config
    cycle_s = cfg.step_duration_s + 1.0 / (cfg.gamma * cfg.eta_sp)
    start = int(np.searchsorted(grid, cycle_s))
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
    coeffs = np.polyfit(grid[window], samples[:, window].T, 1)
    slopes = coeffs[0]
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


class RateCurve(NamedTuple):
    times_s: np.ndarray
    n: np.ndarray


def cycle_rate(cfg: CycleConfig) -> float:
    """Phonons removed per unit time for a busy cycle: R = Gamma eta_SP/(1 + Gamma eta_SP tau_I)."""
    ge = cfg.gamma * cfg.eta_sp
    return ge / (1.0 + ge * cfg.step_duration_s)


def rate_equation_trajectory(cfg: CycleConfig) -> RateCurve:
    """Deterministic mean-field companion to the Monte Carlo.

    Integrates dn/dt = -R n/(n + 1/2) + h by fixed-step RK4, where R is
    the busy-cycle rate and the n/(n + 1/2) factor turns the sideband off
    smoothly at the ground state. Step size at most 0.01/R.
    """
    r = cycle_rate(cfg)
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
    return RateCurve(times_s=np.linspace(0.0, cfg.t_max_s, steps + 1), n=out)
