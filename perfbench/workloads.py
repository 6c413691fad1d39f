"""The four benchmark workloads: inputs drawn from a seed, one op, and its correctness check.

Each workload builds a fixed list of inputs at set-up and the harness
cycles through it. The in-process workloads draw their parameters as a
Latin hypercube of 32 strata (see `latin`): the mix of op costs repeats
from seed to seed, and only the draws inside each stratum change. With
fewer strata, or with parameters drawn freely, the median op moves
between seeds and with the number of ops a run completes.
thermolight receives only these inputs.

`run(inp, pass_index, tracer)` performs one op and returns None when its
outputs are correct, or a one-line reason when they are not. The harness
counts an op that raises as failed too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from thermolight import (
    AngularFrequency,
    BathSet,
    CoolingDrive,
    CycleConfig,
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SampledSpectrum,
    SlitGeometry,
    SpectrumKind,
    Temperature,
    apply_response,
    apply_slit_correction,
    atmospheric_correction,
    calibrate_power,
    cooling_rate_report,
    ensemble_stats,
    extract_efficiency,
    fit_temperature,
    grayness,
    load_ion,
    planck_irradiance_per_wavelength,
    q1d_psd_per_wavelength,
    rate_equation_trajectory,
    read_spectrum_csv,
    simulate_ensemble,
    top_hat_area,
    virtual_temperature,
    virtual_temperature_room_limit,
    write_spectrum_csv,
)
from thermolight.acceptance import markov_steady_state_occupation, renewal_slope

from cli_child import MARK
from provenance import check_copy, child_env

# SI constants, kept apart from thermolight.constants so the synthesis is independent
_C = 299_792_458.0
_HBAR = 6.626_070_15e-34 / (2.0 * math.pi)
_K_B = 1.380_649e-23

BAND_NM = (400.0, 900.0)
SLIT = {"slit_width_m": 50e-6, "distance_m": 10e-3, "mode_field_radius_m": 2.25e-6}
Z_MAX = 5.0

STRATA = 32
# input i takes stratum ORDER[i] of the first parameter: bit-reversed order, so every
# prefix of a run covers that parameter's range evenly
ORDER = [int(format(i, f"0{(STRATA - 1).bit_length()}b")[::-1], 2) for i in range(STRATA)]
# the second and third parameters take their strata through these fixed
# permutations, the same for every seed
PAIRING = np.random.default_rng(0).permuted(np.tile(np.arange(STRATA), (2, 1)), axis=1)
# the harness times inputs in blocks of this many: in bit-reversed order each block
# of 8 takes every fourth stratum of the first parameter, so it spans its whole range
BLOCK = 8


def latin(rng: np.random.Generator, ranges: list[tuple[float, float, bool]]) -> list[list[float]]:
    """STRATA rows of draws, one per stratum of every (lo, hi, log) range: a Latin hypercube.

    Which strata share a row is fixed (ORDER, PAIRING); the seed only
    moves each draw inside its stratum, so the cost mix of the rows
    repeats from seed to seed.
    """
    rows = []
    for i, first in enumerate(ORDER):
        row = []
        for j, (lo, hi, log) in enumerate(ranges):
            stratum = first if j == 0 else int(PAIRING[j - 1][first])
            a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
            x = a + (stratum + rng.uniform()) * (b - a) / STRATA
            row.append(math.exp(x) if log else x)
        rows.append(row)
    return rows


def digest(inputs: list[dict], files: list[str]) -> str:
    """sha256 of the input parameters and of the bytes of every generated file."""
    h = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rel_err(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


# -- independent synthesis of a spectrometer measurement ------------------


def _q1d_per_nm(wl_nm: np.ndarray, t_k: float) -> np.ndarray:
    """Two-polarisation single-mode PSD per nm: (hbar w / pi) n(w, T) |dw/dlambda|."""
    lam = wl_nm * 1e-9
    w = 2.0 * math.pi * _C / lam
    occupation = 1.0 / np.expm1(_HBAR * w / (_K_B * t_k))
    return _HBAR * w / math.pi * occupation * (2.0 * math.pi * _C / lam ** 2) * 1e-9


def _planck_per_nm(wl_nm: np.ndarray, t_k: float) -> np.ndarray:
    """Blackbody exitance per nm: pi B_w |dw/dlambda|."""
    lam = wl_nm * 1e-9
    w = 2.0 * math.pi * _C / lam
    occupation = 1.0 / np.expm1(_HBAR * w / (_K_B * t_k))
    radiance = _HBAR * w ** 3 / (4.0 * math.pi ** 3 * _C ** 2) * occupation
    return math.pi * radiance * (2.0 * math.pi * _C / lam ** 2) * 1e-9


def _read_reference(root: str) -> tuple[np.ndarray, np.ndarray]:
    path = os.path.join(root, "src", "thermolight", "data", "solar_reference.csv")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line[:1].isdigit():
                rows.append([float(x) for x in line.split(",")])
    table = np.array(rows)
    return table[:, 0], table[:, 1]


def _atmosphere(reference: tuple[np.ndarray, np.ndarray], t_k: float, grid_nm: np.ndarray) -> np.ndarray:
    """Reference / (amplitude * Planck), amplitude fitted over BAND_NM, clipped to [0, 1.2]."""
    wl, irr = reference
    planck = _planck_per_nm(wl, t_k)
    band = (wl >= BAND_NM[0]) & (wl <= BAND_NM[1])
    amplitude = np.dot(planck[band], irr[band]) / np.dot(planck[band], planck[band])
    return np.interp(grid_nm, wl, np.clip(irr / (amplitude * planck), 0.0, 1.2))


def _slit_transmission(grid_nm: np.ndarray) -> np.ndarray:
    wf, d, s = SLIT["mode_field_radius_m"], SLIT["distance_m"], SLIT["slit_width_m"]
    w = wf * np.sqrt(1.0 + (grid_nm * 1e-9 * d / (math.pi * wf ** 2)) ** 2)
    return np.array([math.erf(math.sqrt(2.0) * (s / 2.0) / x) for x in w])


def _write_two_column(path: str, grid: np.ndarray, values: np.ndarray, kind: str | None) -> None:
    head = f"# kind={kind}\n" if kind else ""
    rows = "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(grid, values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "wavelength_nm,value\n" + rows)


def write_measurement(rng, reference, directory: str, stem: str, points: int, t_k: float, eta: float) -> dict:
    """Raw counts and a noisy response on one grid over 380-1000 nm, the true band power, and the truth.

    The delivered PSD is eta * atmosphere * ideal single-mode PSD; counts
    are that times slit transmission times response. Power is integrated
    on a 0.025 nm grid so it does not share the reduction's quadrature.
    """
    grid = np.linspace(380.0, 1000.0, points)
    response = np.clip(0.75 + 0.2 * np.sin(grid / 90.0) + 0.02 * rng.standard_normal(points), 0.3, None)
    delivered = eta * _atmosphere(reference, t_k, grid) * _q1d_per_nm(grid, t_k)
    counts = delivered * _slit_transmission(grid) * response * 1e9
    fine = np.linspace(*BAND_NM, 20001)
    band_psd = eta * _atmosphere(reference, t_k, fine) * _q1d_per_nm(fine, t_k)
    power = float(np.sum((band_psd[1:] + band_psd[:-1]) * np.diff(fine)) / 2.0)
    raw_path = os.path.join(directory, f"{stem}_raw.csv")
    response_path = os.path.join(directory, f"{stem}_response.csv")
    _write_two_column(raw_path, grid, counts, "counts")
    _write_two_column(response_path, grid, response, None)
    return {"points": points, "T_K": t_k, "power_w": power, "raw": raw_path, "response": response_path,
            "expect": {"T_K": t_k, "eta": eta}}


def grid_evaluator(fn):
    """(evaluate(grid, T), mode): one call on the whole grid if fn takes arrays, else one per point.

    Deciding from the function itself lets the per-point cost follow
    radiometry unchanged when it becomes array-native (ROADMAP item 2).
    """
    probe = np.array([500.0, 800.0])
    try:
        whole = np.asarray(fn(probe, 5800.0), dtype=float)
        if whole.shape == probe.shape and np.allclose(whole, [fn(float(x), 5800.0) for x in probe], rtol=1e-12):
            return (lambda grid, t_k: fn(grid, t_k)), "array"
    except (TypeError, ValueError):
        pass
    return (lambda grid, t_k: [fn(float(x), t_k) for x in grid]), "scalar"


# -- workloads -------------------------------------------------------------


class ReduceSweep:
    """In-process reduction of synthetic measurements read from files, over grid sizes 300-5000."""

    name = "reduce_sweep"
    in_process = True
    block = BLOCK

    def __init__(self, seed: int, root: str, workdir: str):
        rng = np.random.default_rng([seed, 2])
        reference = _read_reference(root)
        self.workdir = workdir
        self.inputs = []
        rows = latin(rng, [(300, 5000, True), (4000.0, 8000.0, False), (0.3, 0.95, False)])
        for i, (points, t_k, eta) in enumerate(rows):
            self.inputs.append(write_measurement(rng, reference, workdir, f"m{i}", round(points), t_k, eta))
        self.files = [inp[f] for inp in self.inputs for f in ("raw", "response")]
        self.slit = SlitGeometry(**SLIT)
        self.reference = ReferenceSolarSpectrum.load_bundled()
        self.probes = {}
        for fn in (q1d_psd_per_wavelength, planck_irradiance_per_wavelength):
            self.probes[f"radiometry.{fn.__name__}"] = grid_evaluator(fn)

    def run(self, inp: dict, pass_index: int, tr) -> str | None:
        t_k = inp["T_K"]
        with tr.span("spectra.read_spectrum_csv"):
            raw = read_spectrum_csv(inp["raw"])
        with tr.span("data_pipeline.InstrumentResponse.from_csv"):
            response = InstrumentResponse.from_csv(inp["response"])
        with tr.span("data_pipeline.apply_response"):
            divided = apply_response(raw, response)
        with tr.span("data_pipeline.apply_slit_correction"):
            shape = apply_slit_correction(divided, self.slit)
        with tr.span("data_pipeline.calibrate_power"):
            calibrated = calibrate_power(shape, inp["power_w"], BAND_NM)
        with tr.span("data_pipeline.atmospheric_correction"):
            correction = atmospheric_correction(self.reference, t_k)
        with tr.span("data_pipeline.extract_efficiency"):
            efficiency = extract_efficiency(calibrated, t_k, band_nm=BAND_NM, correction=correction)
        # the `reduce` command fits the spectrum with the atmosphere divided out
        c = correction.interpolate(calibrated.wavelengths_nm)
        keep = c >= 0.2
        flattened = SampledSpectrum(calibrated.wavelengths_nm[keep], calibrated.values[keep] / c[keep],
                                    SpectrumKind.PSD_PER_WAVELENGTH)
        with tr.span("data_pipeline.fit_temperature"):
            fit = fit_temperature(flattened, model="q1d")
        out = os.path.join(self.workdir, "calibrated_psd.csv")
        with tr.span("spectra.write_spectrum_csv"):
            write_spectrum_csv(out, calibrated)
        tr.count("data_pipeline.fit_temperature.iterations", fit.iterations)
        tr.count("spectra.csv_rows", raw.values.size + response.values.size + calibrated.values.size)
        truth, t_fit, eta_avg = inp["expect"], fit.temperature.kelvin, efficiency.band_average
        if _rel_err(t_fit, truth["T_K"]) > 0.01 or _rel_err(eta_avg, truth["eta"]) > 0.02:
            return f"T {t_fit:.1f} vs {truth['T_K']:.1f} K, eta {eta_avg:.4f} vs {truth['eta']:.4f}"
        return None

    def details(self) -> dict:
        return {"radiometry_probe_mode": {k: mode for k, (_, mode) in self.probes.items()},
                "largest_grid_kb": max(inp["points"] for inp in self.inputs) * 8 / 1024}

    def probe(self, inp: dict, tr) -> None:
        """Time the radiometry functions over this op's grid (traced runs only, outside the op)."""
        grid = np.linspace(380.0, 1000.0, inp["points"])
        for name, (evaluate, _) in self.probes.items():
            t0 = time.perf_counter()
            evaluate(grid, inp["T_K"])
            tr.record(f"{name}.ns_per_point", (time.perf_counter() - t0) * 1e9 / grid.size)


def _member_seed(seed: int, index: int, pass_index: int, stage: int = 0) -> int:
    """Simulator seed for one op; each pass gets fresh draws so no result can be reused."""
    return int(np.random.SeedSequence([seed, index, pass_index, stage]).generate_state(1, np.uint64)[0])


def _simulate(cfg: CycleConfig, members: int, tr) -> list:
    t0 = time.perf_counter()
    with tr.span("cooling_sim.simulate_ensemble"):
        trajectories = simulate_ensemble(cfg, members)
    elapsed = time.perf_counter() - t0
    if tr.enabled:
        events = sum(len(t.times_s) - 1 for t in trajectories)
        tr.count("cooling_sim.events", events)
        tr.record("cooling_sim.events_per_s", events / elapsed)
        tr.record("cooling_sim.trajectories_per_s", members / elapsed)
    return trajectories


class EnsembleHeated:
    """Criterion 8's heated flow: ensemble from n0 = 0, statistics, Markov oracle, z check.

    The z check compares the mean of each member's time-averaged n over
    window_s with the oracle. Those averages are strongly right-skewed
    (skewness 3-4 measured), so the sample stderr collapses when an
    ensemble happens to miss its rare long excursions, and z > 5 occurs
    for a correct simulator in about 1e-4 of ensembles of 200. When the
    first ensemble exceeds Z_MAX, an independent confirmation ensemble of
    the same configuration decides; a correct simulator then fails about
    once in 1e7 ops, while a biased one fails both.
    """

    name = "ensemble_heated"
    in_process = True
    block = BLOCK
    members = 200
    t_max_s = 6.0
    window_s = (1.5, 6.0)

    def __init__(self, seed: int, root: str, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.inputs = []
        self.files = []
        self.confirmations = 0
        rows = latin(rng, [(0.002, 0.020, True), (8.0, 30.0, False), (0.0, 1.0, False)])
        for i, (tau, gamma, u) in enumerate(rows):
            # eta_SP shares tau's stratum, which keeps the cycle rate R below 20 /s, so
            # that h in 1-4 /s always allows a load h/R in 0.2-0.6: a steady state well
            # inside t_max and not too sparse; u places h within that interval
            eta_sp = 0.5 + (ORDER[i] + rng.uniform()) * 0.4 / STRATA
            rate = renewal_slope(gamma, eta_sp, tau)
            lo, hi = max(1.0, 0.2 * rate), min(4.0, 0.6 * rate)
            self.inputs.append({"index": i, "gamma": gamma, "eta_sp": eta_sp,
                                "step_duration_s": tau, "heating_rate": lo + u * (hi - lo)})

    def details(self) -> dict:
        return {"confirmation_ensembles": self.confirmations}

    def _ensemble(self, inp: dict, pass_index: int, stage: int, tr) -> list:
        cfg = CycleConfig(gamma=inp["gamma"], eta_sp=inp["eta_sp"], step_duration_s=inp["step_duration_s"],
                          t_max_s=self.t_max_s, seed=_member_seed(self.seed, inp["index"], pass_index, stage),
                          heating_rate=inp["heating_rate"], n_initial=0)
        return _simulate(cfg, self.members, tr)

    def _z(self, trajectories: list, oracle: float) -> float:
        averages = np.array([t.time_average(*self.window_s) for t in trajectories])
        return abs(averages.mean() - oracle) / (averages.std(ddof=1) / math.sqrt(averages.size))

    def run(self, inp: dict, pass_index: int, tr) -> str | None:
        trajectories = self._ensemble(inp, pass_index, 0, tr)
        with tr.span("cooling_sim.ensemble_stats"):
            stats = ensemble_stats(trajectories)
        with tr.span("acceptance.markov_steady_state_occupation"):
            oracle = markov_steady_state_occupation(inp["gamma"], inp["eta_sp"], inp["step_duration_s"],
                                                    inp["heating_rate"])
        if stats.n_trajectories != self.members or not stats.steady_state_stderr > 0.0:
            return f"ensemble_stats over {stats.n_trajectories} members, stderr {stats.steady_state_stderr}"
        z = self._z(trajectories, oracle)
        if z <= Z_MAX:
            return None
        self.confirmations += 1
        z2 = self._z(self._ensemble(inp, pass_index, 1, tr), oracle)
        return None if z2 <= Z_MAX else f"steady-state z {z:.2f}, then {z2:.2f} on confirmation, > {Z_MAX}"


class EnsembleTransient:
    """The `simulate` flow: cooling from n0 = 10-60 with no heating, slope z check, rate equation."""

    name = "ensemble_transient"
    in_process = True
    block = BLOCK
    # fewer, longer ops than with 200 members keep the tail percentile off the run's rarest stalls
    members = 500

    def __init__(self, seed: int, root: str, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.seed = seed
        self.inputs = []
        self.files = []
        for n0, tau, gamma in latin(rng, [(10, 61, False), (5e-4, 5e-3, True), (9.0, 13.0, False)]):
            rate = renewal_slope(gamma, 0.74, tau)
            # long enough for every member to reach the ground state, where it stops
            self.inputs.append({"index": len(self.inputs), "gamma": gamma, "eta_sp": 0.74,
                                "step_duration_s": tau, "n_initial": int(n0),
                                "t_max_s": 1.3 * int(n0) / rate + 0.5})

    def run(self, inp: dict, pass_index: int, tr) -> str | None:
        cfg = CycleConfig(gamma=inp["gamma"], eta_sp=inp["eta_sp"], step_duration_s=inp["step_duration_s"],
                          t_max_s=inp["t_max_s"], seed=_member_seed(self.seed, inp["index"], pass_index),
                          heating_rate=0.0, n_initial=inp["n_initial"])
        trajectories = _simulate(cfg, self.members, tr)
        with tr.span("cooling_sim.ensemble_stats"):
            stats = ensemble_stats(trajectories)
        predicted = -renewal_slope(cfg.gamma, cfg.eta_sp, cfg.step_duration_s)
        z = abs(stats.slope_per_s - predicted) / stats.slope_stderr
        with tr.span("cooling_sim.rate_equation_trajectory"):
            curve = rate_equation_trajectory(cfg)
        if z > Z_MAX:
            return f"slope {stats.slope_per_s:.3f} vs {predicted:.3f}/s, z {z:.2f} > {Z_MAX}"
        if curve.n[0] != cfg.n_initial or np.any(np.diff(curve.n) > 0.0) or curve.n[-1] > 1.0:
            return f"rate equation from {curve.n[0]} to {curve.n[-1]} is not a cooling curve"
        return None


class CliOneshot:
    """One fresh interpreter per op running `rate`, `virtual-temp`, `spectrum` or `reduce`."""

    name = "cli_oneshot"
    in_process = False
    commands = ("rate", "virtual-temp", "spectrum", "reduce")
    block = len(commands)  # one op of each command
    timeout_s = 60
    n_inputs = 16

    def __init__(self, seed: int, root: str, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.root = root
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.env = child_env(root)
        self.child_cpu_s = 0.0
        self.child_peak_rss_kb = 0
        measurement = write_measurement(rng, _read_reference(root), workdir, "cli",
                                        621, rng.uniform(4000.0, 8000.0), rng.uniform(0.3, 0.95))
        self.files = [measurement["raw"], measurement["response"]]
        self.ion = load_ion("ba138p")
        self.inputs = []
        for i in range(self.n_inputs):
            command = self.commands[i % len(self.commands)]
            params = getattr(self, "_draw_" + command.replace("-", "_"))(rng, measurement)
            self.inputs.append({"command": command, **params})

    # parameters and in-process reference values, one method per command

    def _draw_rate(self, rng, _):
        t_k, eta = rng.uniform(4000.0, 8000.0), rng.uniform(0.3, 1.0)
        omega2 = AngularFrequency(self.ion.omega2_rad_s)
        if rng.uniform() < 0.5:
            flag, value = "--grayness", math.exp(rng.uniform(math.log(1e-5), math.log(1e-3)))
            g = value
        else:
            flag, value = "--waist-um", rng.uniform(5.0, 50.0)
            g = grayness(top_hat_area(value * 1e-6), omega2)
        drive = CoolingDrive(eta_delivery=eta, grayness=g, omega_motion=AngularFrequency(2.0 * math.pi * 1e6))
        report = cooling_rate_report(self.ion, drive, Temperature(t_k))
        return {"argv": ["--ion", "ba138p", "--eta", repr(eta), "--temperature-k", repr(t_k), flag, repr(value)],
                "expect": {"phonon_rate_per_s": report.phonon_rate, "gamma_per_s": report.gamma,
                           "energy_density_j_m3_per_rad_s": report.energy_density}}

    def _draw_virtual_temp(self, rng, _):
        t_sun, t_room, motion_hz = rng.uniform(4000.0, 8000.0), rng.uniform(250.0, 350.0), rng.uniform(0.5e6, 3e6)
        wm = AngularFrequency(2.0 * math.pi * motion_hz)
        sun, room = Temperature(t_sun), Temperature(t_room)
        return {"argv": ["--ion", "ba138p", "--t-room-k", repr(t_room), "--t-sun-k", repr(t_sun),
                         "--motion-hz", repr(motion_hz)],
                "expect": {
                    "t_v_k": virtual_temperature(self.ion, BathSet(Temperature.infinite(), sun, room), wm).kelvin,
                    "t_v_room_limit_k": virtual_temperature_room_limit(self.ion, room, wm).kelvin,
                    "t_v_all_thermal_k": virtual_temperature(
                        self.ion, BathSet(Temperature.infinite(), sun, sun), wm).kelvin,
                }}

    def _draw_spectrum(self, rng, _):
        family, domain = ("q1d", "planck")[rng.integers(2)], ("wavelength", "omega")[rng.integers(2)]
        points = int(rng.integers(201, 2002))
        return {"argv": ["--temperature-k", repr(rng.uniform(4000.0, 8000.0)), "--family", family,
                         "--domain", domain, "--points", str(points)],
                "expect": {"points": points}}

    def _draw_reduce(self, rng, m):
        return {"argv": ["--raw", m["raw"], "--response", m["response"], "--power-w", repr(m["power_w"]),
                         "--temperature-k", repr(m["T_K"])],
                "expect": m["expect"]}

    def _check(self, command: str, out: dict, expect: dict) -> str | None:
        if command in ("rate", "virtual-temp"):
            for key, value in expect.items():
                if not _rel_err(out[key], value) <= 1e-9:
                    return f"{key} {out[key]!r} vs in-process {value!r}"
        elif command == "spectrum":
            step = (out["band_nm"][1] - out["band_nm"][0]) / (out["points"] - 1)
            peak = out["analytic_peak_nm"]
            if out["points"] != expect["points"] or not out["band_integral"] > 0.0:
                return f"spectrum report {out['points']} points, band integral {out['band_integral']}"
            if peak is not None and out["band_nm"][0] < peak < out["band_nm"][1] \
                    and abs(out["grid_peak_nm"] - peak) > step:
                return f"grid peak {out['grid_peak_nm']} nm vs analytic {peak} nm"
        elif _rel_err(out["T_K"], expect["T_K"]) > 0.01 or _rel_err(out["eta_band_avg"], expect["eta"]) > 0.02:
            return f"reduce T {out['T_K']:.1f} vs {expect['T_K']:.1f} K, eta {out['eta_band_avg']:.4f}"
        return None

    def _spawn(self, argv: list[str]) -> tuple[int, str, str]:
        """Run one child to completion; adds its CPU time and peak RSS to the totals."""
        stdout_path, stderr_path = (os.path.join(self.workdir, f"child.{s}") for s in ("out", "err"))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
        # os.wait4 rather than Popen.wait: it returns the child's own resource usage
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(self.timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            proc.returncode = -1  # reaped here; keeps Popen from waiting on the pid again
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        with open(stdout_path, encoding="utf-8") as fh_out, open(stderr_path, encoding="utf-8") as fh_err:
            return os.waitstatus_to_exitcode(status), fh_out.read(), fh_err.read()

    def run(self, inp: dict, pass_index: int, tr) -> str | None:
        command = inp["command"]
        script = os.path.join(self.root, "perfbench", "cli_child.py")
        argv = [sys.executable, script, command, *inp["argv"], "--json", "--out", self.out]
        code, stdout, stderr = self._spawn(argv)
        lines = [l for l in stderr.splitlines() if l.startswith(MARK)]
        if not lines:
            return f"exit {code} without a timing line: {stderr.strip()[-200:]}"
        child = json.loads(lines[-1][len(MARK):])
        check_copy(self.root, child["file"])
        tr.add_span("cli.import", *child["import"])
        tr.add_span(f"cli.main.{command}", *child["main"])
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        return self._check(command, json.loads(stdout), inp["expect"])


def _on_alarm(signum, frame):
    raise TimeoutError("child process timed out")


WORKLOADS = {w.name: w for w in (CliOneshot, ReduceSweep, EnsembleHeated, EnsembleTransient)}
