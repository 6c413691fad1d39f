"""The no-heating kernel of cooling_sim: members' uniform streams parsed in passes of up to PARSE_CELLS cells.

A member's row holds its drawn uniforms and three spare cells; a pass takes as many rows as PARSE_CELLS
holds, at least one, so a 500-member ensemble of a few hundred uniforms each takes one pass.

cooling_sim's docstring gives the grammar that makes this possible and why heated runs cannot use it.
cooling_sim._simulate runs the members the passes leave in one event-loop call, and lays every pass's
records end to end in member order in one Ensemble. It imports this module on its first run with h = 0,
so a process that simulates no cooling run never compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .cooling_sim import CycleConfig, _pcg64_states
from .ion_thermo import cycle_rate

PARSE_CELLS = 2 ** 18  # cells parsed together, at least one member's row; a pass peaks at about 42 bytes a cell
PARSE_WIDTH = 4096   # the longest stream a parse pass draws; members that need more take the event loop
STREAM_MARGIN = 1.25  # a parse pass draws this many times a member's expected uniforms, plus STREAM_SPARE
STREAM_SPARE = 32
_TAGS = bytes.maketrans(b"\1\2\3", b"SDP")  # a row's tag by its code in _parse_pass


def _stream_width(cfg: CycleConfig) -> int:
    """Uniforms a pass first draws per member: the mean a cooling run uses, with a margin, within its horizon.

    A run draws one per sideband interval, n0/p intervals or t_max/tau_I, whichever is fewer, and two per
    excitation (the wait and the branching), 1/eta_SP per transfer.
    """
    intervals = min(cfg.n_initial / cfg.transfer_prob, cfg.t_max_s / cfg.step_duration_s)
    rate = cycle_rate(cfg.gamma, cfg.eta_sp, cfg.step_duration_s, cfg.transfer_prob)
    transfers = min(cfg.n_initial, rate * cfg.t_max_s)
    mean = intervals + 2.0 * transfers / cfg.eta_sp
    return int(min(STREAM_MARGIN * mean, 2 * PARSE_WIDTH)) + STREAM_SPARE


def _streams(seeds: np.ndarray, width: int) -> np.ndarray:
    """Each seed's first `width` uniforms, in columns 1 to width of its row.

    Column 0 stands for the member's t = 0 row and columns width + 1 and width + 2 for the stream's
    end; they hold 2.0, which passes no Bernoulli.
    """
    u = np.full((seeds.size, width + 3), 2.0)
    rng = np.random.Generator(np.random.PCG64(0))
    for row, state in zip(u, _pcg64_states(seeds)):
        rng.bit_generator.state = state
        rng.random(out=row[1:width + 1])
    return u


def _parse_pass(cfg: CycleConfig, u: np.ndarray) -> tuple:
    """The runs of the members whose streams _streams laid out in u, parsed for all rows at once (h = 0).

    With no heating a run's draws follow a grammar of the uniforms alone: a transfer draw T at each
    interval start (success when u < p); after a success, pairs of an excitation wait W and a
    branching draw B until some B has u < eta_SP. T moves the clock by tau_I, W by -log1p(-u)/Gamma
    (math.log1p, as the event loop: numpy's log1p rounds as the CPU's SIMD features have it, see
    cooling_sim), B not at all; the running sum along a row adds them in the event loop's order, so
    the times are its times bit for bit. Returns whether each member's run ended within its stream,
    and the finished members' runs as _event_runs lays them out (times, n, tags, end rows,
    counters). Spends u.
    """
    (m, span), k = u.shape, u.shape[1] - 3
    n0, p, eta_sp = cfg.n_initial, cfg.transfer_prob, cfg.eta_sp
    tau, t_max = cfg.step_duration_s, cfg.t_max_s
    need = min(n0, k + 1)  # transfers one pass can see at most

    col = np.arange(span, dtype=np.int32)
    # first[c]: the first B at or after column c with c's parity that ends a transfer (u < eta_SP), else
    # k + 1; after a transfer at c every later draw of c's parity is a B up to the one that ends it
    first = np.where(u < eta_sp, col, np.int32(k + 1))
    for parity in (0, 1):
        run = first[:, parity::2][:, ::-1]
        np.minimum.accumulate(run, axis=1, out=run)
    moved = u < p
    # the interval start after one at column c, as a flat index; the spare columns keep a walk that left the stream
    base = np.arange(0, m * span, span, dtype=np.int32)  # a pass holds fewer than 2**31 cells
    jump = np.empty((m, span), dtype=np.int32)
    np.add(first[:, 2:], 1, out=jump[:, :-2], where=moved[:, :-2])
    np.copyto(jump[:, :-2], col[1:-1], where=~moved[:, :-2])
    jump[:, -2:] = col[-2:]
    jump += base[:, None]
    gain = first  # first is spent: its buffer takes each start's transfer count
    np.copyto(gain, moved)
    del first, moved
    gain[:, -2:] = need  # a walk that left the stream counts as done

    # walk every member's chain of interval starts together, one gather per cycle
    jump, gain = jump.ravel(), gain.ravel()
    at, done = base + 1, np.zeros(m, dtype=np.int32)
    chain = [at]
    while done.min() < need:
        done += gain[at]
        at = jump[at]
        chain.append(at)
    chain = np.array(chain)
    gains = gain[chain]
    del jump, gain
    before = np.cumsum(gains, axis=0, dtype=np.int32) - gains  # transfers before each start
    starts = chain - base
    kept = (before < need) & (starts <= k)
    past = kept.sum(axis=0)  # each member's first start past its run: after its n0-th transfer, or off the stream
    members = np.arange(m)
    end = starts[past, members]
    # the n0-th transfer's cycle ends inside the stream; need is n0, or k + 1, more than k draws can hold
    quiet = (before[past, members] == need) & (end <= k + 1)
    length = np.minimum(end, k + 1)

    # a transfer at c opens a run of W, B pairs up to the next start; mark each run with 1 + the parity of its
    # waits, and a running sum fills the mark in
    opened = kept & (gains == 1)
    runs = np.zeros(m * span, dtype=np.int8)
    runs[chain[opened] + 1] = 1 + ((starts[opened] + 1) & 1)
    runs[chain[1:][opened[:-1]]] = -runs[chain[opened] + 1]
    runs = np.cumsum(runs.reshape(m, span), axis=1, dtype=np.int8)
    is_w = runs == (1 + (col & 1)).astype(np.int8)
    del runs
    is_w[:, -2:] = False  # a run that the stream cuts short fills the spare column
    waits = np.flatnonzero(is_w)
    drawn = np.negative(u.ravel()[waits])
    times = u  # the uniforms are spent: their buffer takes the times
    times.fill(0.0)
    times.ravel()[chain[kept]] = tau
    times.ravel()[waits] = -np.fromiter(map(math.log1p, memoryview(drawn)), np.float64, count=drawn.size) / cfg.gamma
    np.cumsum(times, axis=1, out=times)

    # the run stops at the first interval that ends past t_max or the first wait that reaches it: the first
    # column past t_max, unless a wait lies among the columns at exactly t_max before it
    cut = np.count_nonzero(times <= t_max, axis=1)
    for r in np.flatnonzero(times.ravel()[base + cut - 1] == t_max).tolist():
        exact = np.count_nonzero(times[r] < t_max)
        tied = np.flatnonzero(is_w[r, exact:cut[r]])
        if tied.size:
            cut[r] = exact + tied[0]
    timed_out = cut < length
    finished = timed_out | quiet
    stop = np.where(timed_out, cut, length)
    stop[~finished] = 0

    # codes: 1 the t = 0 row, 2 a transfer (D), 3 a scatter (P); nothing from the stop on
    codes = is_w.view(np.int8) * np.int8(3)
    codes[:, 0] = 1
    codes.ravel()[chain[opened]] = 2
    ended = np.flatnonzero(~quiet | timed_out)  # quiet runs mark nothing past their end
    codes[ended] *= col < stop[ended, None]
    rows = np.flatnonzero(codes)
    code = codes.ravel()[rows]
    sizes = np.count_nonzero(codes, axis=1)[finished]
    in_run = kept & (starts < stop)
    intervals = in_run.sum(axis=0)
    transfers = (in_run & opened).sum(axis=0)
    # n counts down by one per D row; a head row takes back the previous member's transfers
    down = (code == 2).astype(np.int64)
    down[np.cumsum(sizes)[:-1]] = -transfers[finished][:-1]
    counters = [{"cycles": c, "empty_intervals": c - t, "transfers": t, "scatters": s - 1 - t,
                 "heating_events": 0, "stop_reason": "t_max" if late else "quiescent"}
                for c, t, s, late in zip(intervals[finished].tolist(), transfers[finished].tolist(), sizes.tolist(),
                                         timed_out[finished].tolist())]
    tags = code.tobytes().translate(_TAGS).decode("ascii")
    return finished, times.ravel()[rows], n0 - np.cumsum(down), tags, np.cumsum(sizes).tolist(), counters


def parsed_runs(cfg: CycleConfig, seeds: np.ndarray) -> tuple:
    """The h = 0 runs of _event_runs, bit for bit, from _parse_pass over up to PARSE_CELLS cells at a time.

    Returns (parts, pending): parts holds, per pass, the indices of the members it finished and their
    runs as _event_runs lays them out; pending holds the members left to the event loop. A member
    whose stream ends before its run does is drawn again with twice the width; past PARSE_WIDTH
    uniforms it is pending, as is every member of a run quiescent at t = 0.
    """
    pending = np.arange(seeds.size)
    if cfg.n_initial == 0 or cfg.transfer_prob == 0.0:  # quiescent at t = 0: the event loop draws nothing either
        return [], pending
    parts, width = [], _stream_width(cfg)
    while pending.size and width <= PARSE_WIDTH:
        short, chunk = [], max(1, PARSE_CELLS // (width + 3))  # members whose rows PARSE_CELLS holds
        for lo in range(0, pending.size, chunk):
            members = pending[lo:lo + chunk]
            finished, *runs = _parse_pass(cfg, _streams(seeds[members], width))
            parts.append((members[finished], runs))
            short.append(members[~finished])
        pending, width = np.concatenate(short), 2 * width
    return parts, pending
