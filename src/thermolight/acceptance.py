"""End-to-end correctness checks with independent oracles.

Each check answers one question about the package against a value computed
by a different route: closed forms, quadrature, renewal theory, a
brute-force Markov chain, or a synthetic round trip. `run_all` is shared
by the test suite and the `check` CLI subcommand. The oracles need numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .cooling_sim import CycleConfig, ensemble_stats, simulate_ensemble
from .data_pipeline import (
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SlitGeometry,
    atmospheric_correction,
    reduce_spectrum,
    slit_transmission,
)
from .ion_thermo import (
    BathSet,
    CoolingDrive,
    cooling_rate_report,
    ground_state_occupation,
    load_ion,
    virtual_temperature,
    virtual_temperature_room_limit,
)
from .mode_optics import (
    FiberModeModel,
    gaussian_angular_radiance,
    grayness,
    mode_area,
    mode_solid_angle,
    top_hat_area,
)
from .radiometry import (
    AngularFrequency,
    Temperature,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    q1d_total_power,
    wien_peak,
)
from .spectra import SampledSpectrum, SpectrumKind

_BASE_SEED = 20260825


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def markov_steady_state_occupation(
    gamma: float, eta_sp: float, tau_i: float, heating_rate: float, n_max: int = 200
) -> float:
    """Brute-force long-run time-averaged phonon number of the cycle model.

    The phonon number observed at cycle starts is a Markov chain: the
    deterministic interval adds a Poisson(h tau_I) count, an ideal transfer
    removes one phonon when possible, and the wait in D adds a geometric
    number of heating phonons (each heating event beats the successful
    scatter with probability h/(h + Gamma eta_SP)). Dwell-time integrals
    of n over both phases have closed forms per starting state, so the
    stationary vector gives the exact time average. Independent of the
    event-by-event simulator.
    """
    ge = gamma * eta_sp
    if ge <= 0.0:
        raise ValueError("needs a positive successful-scatter rate")
    h = heating_rate
    size = n_max + 1

    # Poisson(h tau_I) pmf, truncated with tail lumped at the last entry
    mean_i = h * tau_i
    pois = [math.exp(-mean_i)]
    while sum(pois) < 1.0 - 1e-15 and len(pois) < size:
        k = len(pois)
        pois.append(pois[-1] * mean_i / k)
    pois = np.array(pois)
    pois[-1] += max(0.0, 1.0 - pois.sum())

    q = h / (h + ge)
    # geometric heating count during the wait in D, same tail treatment
    geom = [(1.0 - q)]
    while sum(geom) < 1.0 - 1e-15 and len(geom) < size:
        geom.append(geom[-1] * q)
    geom = np.array(geom)
    geom[-1] += max(0.0, 1.0 - geom.sum())

    # one Poisson term at a time, all start states at once; np.add.at adds
    # repeated (row, column) pairs in index order, as the element loop did
    p_matrix = np.zeros((size, size))
    start = np.arange(size)
    expected_nt = start * tau_i + h * tau_i ** 2 / 2.0  # E[integral of n dt over one cycle | start n]
    expected_t = np.full(size, tau_i)                    # E[cycle duration | start n]
    for i, pi in enumerate(pois):
        m_mid = np.minimum(start + i, n_max)
        busy = m_mid > 0
        p_matrix[~busy, 0] += pi  # empty interval, no transfer possible
        m = m_mid[busy] - 1
        # wait in D: E[n dt] = m/ge + h/ge^2, duration 1/ge
        expected_nt[busy] += pi * (m / ge + h / ge ** 2)
        expected_t[busy] += pi / ge
        cols = np.minimum(m[:, None] + np.arange(geom.size), n_max)
        np.add.at(p_matrix, (start[busy, None], cols), pi * geom)

    # stationary vector: solve (P^T - I) pi = 0 with sum(pi) = 1
    a = p_matrix.T - np.eye(size)
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi_vec = np.linalg.solve(a, b)
    pi_vec = np.clip(pi_vec, 0.0, None)
    pi_vec /= pi_vec.sum()
    return float(np.dot(pi_vec, expected_nt) / np.dot(pi_vec, expected_t))


def renewal_slope(gamma: float, eta_sp: float, tau_i: float) -> float:
    """Phonons per second removed while far from the ground state: one per cycle."""
    ge = gamma * eta_sp
    return ge / (1.0 + ge * tau_i)


# -- the nine criteria ---------------------------------------------------


def _criterion_1_cooling_rate() -> CriterionResult:
    ion = load_ion("ba138p")
    drive = CoolingDrive(
        eta_delivery=0.5,
        grayness=5e-5,
        omega_motion=AngularFrequency(2.0 * math.pi * 1e6),
        p_d=1.0,
    )
    report = cooling_rate_report(ion, drive, Temperature(5800.0))
    target = -8.2
    ok = abs(report.phonon_rate - target) <= 0.10 * abs(target)
    return CriterionResult(
        1,
        "sunlight cooling rate",
        ok,
        f"phonon rate {report.phonon_rate:+.4f}/s vs {target}+-10% "
        f"(Gamma={report.gamma:.4f}/s, eta_SP={report.eta_sp:.4f})",
    )


def _criterion_2_grayness() -> CriterionResult:
    g = grayness(top_hat_area(20e-6), AngularFrequency.from_wavelength_nm(614.0))
    ok = abs(g - 5e-5) <= 0.05 * 5e-5
    return CriterionResult(2, "top-hat grayness", ok, f"G = {g:.4e} vs 5e-5 +-5%")


def _criterion_3_total_power() -> CriterionResult:
    # composite Gauss-Legendre (Golub & Welsch 1969), 30 panels of 64 nodes
    # over [0, 60 k_B T / hbar]; the nodes are interior, so omega > 0 throughout
    x, w = np.polynomial.legendre.leggauss(64)
    details = []
    ok = True
    for t_k in (300.0, 1000.0, 5800.0):
        t = Temperature(t_k)
        panel = 60.0 * K_B * t_k / HBAR / 30
        nodes = panel * (np.arange(30)[:, None] + 0.5 * (x + 1.0))
        value = 0.5 * panel * float(np.sum(w * q1d_psd(nodes, t)))
        closed = q1d_total_power(t)
        rel = abs(value - closed) / closed
        ok &= rel <= 1e-6
        details.append(f"T={t_k:g}K rel={rel:.2e}")
    p5800 = q1d_total_power(Temperature(5800.0))
    ok &= abs(p5800 - 3.19e-5) <= 0.005 * 3.19e-5
    details.append(f"P(5800K)={p5800:.4e}W")
    return CriterionResult(3, "integrated single-mode power", bool(ok), "; ".join(details))


def _criterion_4_virtual_temperature() -> CriterionResult:
    ion = load_ion("ba138p")
    wm = AngularFrequency(2.0 * math.pi * 1e6)
    t_v = virtual_temperature_room_limit(ion, Temperature(300.0), wm)
    in_range = 0.1e-6 <= t_v.kelvin <= 2e-6
    occ = ground_state_occupation(t_v, wm)
    log_n = math.log10(occ.n_exact)
    decade_ok = abs(log_n - (-46.0)) <= 1.0
    t_fix = 456.78
    baths = BathSet(Temperature(t_fix), Temperature(t_fix), Temperature(t_fix))
    fixed = virtual_temperature(ion, baths, wm)
    fix_rel = abs(fixed.kelvin - t_fix) / t_fix
    fix_ok = fix_rel <= 1e-12
    ok = in_range and decade_ok and fix_ok
    return CriterionResult(
        4,
        "virtual temperature",
        ok,
        f"T_V = {t_v.kelvin * 1e6:.3f} uK, log10(n) = {log_n:.2f}, "
        f"equal-bath fixed-point rel err = {fix_rel:.2e}",
    )


def _criterion_5_factor_of_four() -> CriterionResult:
    rng = np.random.default_rng(_BASE_SEED + 5)
    worst = 0.0
    for _ in range(100):
        lam_nm = rng.uniform(300.0, 2000.0)
        w0 = rng.uniform(5e-6, 100e-6)
        t = Temperature(rng.uniform(300.0, 12000.0))
        omega = AngularFrequency.from_wavelength_nm(lam_nm)
        s = q1d_psd(omega, t)
        ratio = gaussian_angular_radiance(omega, 0.0, w0, s) / planck_radiance(omega, t)
        worst = max(worst, abs(ratio - 4.0) / 4.0)
    ok = worst <= 1e-9
    return CriterionResult(5, "on-axis radiance factor 4", ok, f"worst relative deviation {worst:.2e}")


def _criterion_6_radiance_closure() -> CriterionResult:
    rng = np.random.default_rng(_BASE_SEED + 6)
    band = (300.0, 2000.0)
    models = [
        FiberModeModel("constant_divergence", band, omega0_sr=0.05),
        FiberModeModel("constant_area", band, area_m2=8e-11),
    ]
    worst = 0.0
    for model in models:
        for _ in range(50):
            lam_nm = rng.uniform(*band)
            t = Temperature(rng.uniform(300.0, 12000.0))
            omega = AngularFrequency.from_wavelength_nm(lam_nm)
            a = mode_area(model, omega)
            solid = mode_solid_angle(model, omega)
            b = q1d_psd(omega, t) / (a * solid)
            worst = max(worst, abs(b - planck_radiance(omega, t)) / planck_radiance(omega, t))
    ok = worst <= 1e-12
    return CriterionResult(6, "etendue radiance closure", ok, f"worst relative deviation {worst:.2e}")


def _criterion_7_peak_discrimination() -> CriterionResult:
    q1d_peak = wien_peak("q1d_per_wavelength", Temperature(5800.0))
    planck_peak = wien_peak("planck_per_wavelength", Temperature(5800.0))
    ok = abs(q1d_peak - 879.0) <= 2.0 and abs(planck_peak - 500.0) <= 2.0
    return CriterionResult(
        7,
        "spectral peak discrimination",
        ok,
        f"single-mode peak {q1d_peak:.2f} nm (879+-2), blackbody peak {planck_peak:.2f} nm (500+-2)",
    )


def _criterion_8_simulator() -> CriterionResult:
    details = []
    # slope against the renewal prediction
    cfg = CycleConfig(
        gamma=11.06, eta_sp=0.74, step_duration_s=1e-3, t_max_s=3.0,
        seed=_BASE_SEED + 8, heating_rate=0.0, n_initial=20,
    )
    stats = ensemble_stats(simulate_ensemble(cfg, 1000))
    predicted = -renewal_slope(cfg.gamma, cfg.eta_sp, cfg.step_duration_s)
    z_slope = abs(stats.slope_per_s - predicted) / stats.slope_stderr
    ok = z_slope <= 3.0
    details.append(f"slope {stats.slope_per_s:.3f}/s vs {predicted:.3f}/s (z={z_slope:.2f})")
    # heated steady states against the Markov-chain oracle
    triples = [
        (11.06, 0.74, 0.010, 2.0),
        (30.0, 0.50, 0.005, 1.0),
        (8.0, 0.90, 0.020, 4.0),
    ]
    for k, (gamma, eta_sp, tau_i, h) in enumerate(triples):
        cfg_h = CycleConfig(
            gamma=gamma, eta_sp=eta_sp, step_duration_s=tau_i, t_max_s=6.0,
            seed=_BASE_SEED + 80 + k, heating_rate=h, n_initial=0,
        )
        st = ensemble_stats(simulate_ensemble(cfg_h, 400))
        oracle = markov_steady_state_occupation(gamma, eta_sp, tau_i, h)
        z = abs(st.steady_state_n - oracle) / st.steady_state_stderr
        ok &= z <= 3.0
        details.append(f"steady {st.steady_state_n:.3f} vs oracle {oracle:.3f} (z={z:.2f})")
    return CriterionResult(8, "simulator against oracles", bool(ok), "; ".join(details))


def _criterion_9_pipeline_round_trip() -> CriterionResult:
    t_true = Temperature(5800.0)
    eta_true = 0.72
    band = (400.0, 900.0)
    reference = ReferenceSolarSpectrum.load_bundled()
    correction = atmospheric_correction(reference, t_true)
    slit = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)
    rng = np.random.default_rng(_BASE_SEED + 9)
    resp_grid = np.linspace(380.0, 1000.0, 125)
    resp_vals = 0.75 + 0.2 * np.sin(resp_grid / 90.0) + 0.02 * rng.standard_normal(resp_grid.size)
    response = InstrumentResponse(resp_grid, np.clip(resp_vals, 0.3, None))

    fine = np.linspace(380.0, 1000.0, 2481)  # 0.25 nm synthesis grid
    ideal_fine = q1d_psd_per_wavelength(fine, t_true)
    delivered_fine = eta_true * correction.interpolate(fine) * ideal_fine
    in_band = np.where((fine >= band[0]) & (fine <= band[1]), delivered_fine, 0.0)
    # trapezoid rule written out: the pipeline under test calls numpy.trapezoid
    measured_power = float(0.5 * np.sum((in_band[1:] + in_band[:-1]) * np.diff(fine)))
    coarse = np.arange(380.0, 1000.1, 1.0)  # 1 nm spectrometer sampling
    delivered = np.interp(coarse, fine, delivered_fine)
    counts = delivered * slit_transmission(slit, coarse) * response.interpolate(coarse) * 1e9
    raw = SampledSpectrum(coarse, counts, SpectrumKind.COUNTS)

    _, eff, fit = reduce_spectrum(raw, response, slit, measured_power, band, t_true, correction)
    eta_err = abs(eff.band_average - eta_true) / eta_true
    t_err = abs(fit.temperature.kelvin - t_true.kelvin) / t_true.kelvin

    ok = eta_err <= 0.02 and t_err <= 0.01 and 0.6 <= eff.band_average <= 0.9
    return CriterionResult(
        9,
        "pipeline round trip",
        ok,
        f"eta {eff.band_average:.4f} vs {eta_true} (err {eta_err:.2%}), "
        f"T {fit.temperature.kelvin:.1f} K vs 5800 K (err {t_err:.2%})",
    )


_CRITERIA = [
    _criterion_1_cooling_rate,
    _criterion_2_grayness,
    _criterion_3_total_power,
    _criterion_4_virtual_temperature,
    _criterion_5_factor_of_four,
    _criterion_6_radiance_closure,
    _criterion_7_peak_discrimination,
    _criterion_8_simulator,
    _criterion_9_pipeline_round_trip,
]


def run_all() -> list:
    """Run every acceptance criterion; returns one result per criterion."""
    return [fn() for fn in _CRITERIA]
