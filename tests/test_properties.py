"""Property-based invariants: array radiometry, domain conversion, CSV round trips, the simulator record."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolight import (
    CoolingTrajectory,
    CycleConfig,
    SampledSpectrum,
    SpectrumKind,
    Temperature,
    convert_spectral_domain,
    mean_occupation,
    planck_energy_density,
    planck_irradiance,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    read_spectrum_csv,
    simulate_trajectory,
)
from thermolight.spectra import spectrum_to_csv_text

HBAR = 6.62607015e-34 / (2.0 * math.pi)
KB = 1.380649e-23

PER_OMEGA = [
    mean_occupation,
    planck_radiance,
    planck_irradiance,
    planck_energy_density,
    q1d_psd,
    lambda w, t: q1d_psd(w, t, polarizations=1),
]
PER_WAVELENGTH = [
    planck_irradiance_per_wavelength,
    q1d_psd_per_wavelength,
    lambda lam, t: q1d_psd_per_wavelength(lam, t, polarizations=1),
]

finite_kelvin = st.floats(1.0, 1e5)
# x = hbar omega / (k_B T) from the classical limit to past the e^-x cut at 700 and the underflow
x_values = st.lists(st.floats(1e-6, 900.0), min_size=1, max_size=40)


def _same_as_scalars(fn, points: np.ndarray, temperature) -> None:
    whole = fn(points, temperature)
    one_by_one = [fn(float(p), temperature) for p in points]
    assert all(type(v) is float for v in one_by_one)
    assert isinstance(whole, np.ndarray) and whole.shape == points.shape
    np.testing.assert_allclose(whole, one_by_one, rtol=1e-13, atol=0.0)


@settings(deadline=None)
@given(x=x_values, t_k=finite_kelvin)
def test_per_omega_arrays_match_scalars(x, t_k):
    omega = np.array(x) * KB * t_k / HBAR
    for fn in PER_OMEGA:
        _same_as_scalars(fn, omega, t_k)


@settings(deadline=None)
@given(omega=st.lists(st.floats(1e9, 1e17), min_size=1, max_size=40))
def test_per_omega_arrays_match_scalars_at_infinite_temperature(omega):
    for fn in PER_OMEGA:
        _same_as_scalars(fn, np.array(omega), Temperature.infinite())


@settings(deadline=None)
@given(wavelengths=st.lists(st.floats(50.0, 1e5), min_size=1, max_size=40), t_k=finite_kelvin)
def test_per_wavelength_arrays_match_scalars(wavelengths, t_k):
    for fn in PER_WAVELENGTH:
        _same_as_scalars(fn, np.array(wavelengths), t_k)


@st.composite
def spectra(draw, kind, value=st.floats(0.0, 1e300)):
    grid = sorted(draw(st.lists(st.floats(100.0, 3000.0), min_size=2, max_size=60, unique=True)))
    values = draw(st.lists(value, min_size=len(grid), max_size=len(grid)))
    return SampledSpectrum(np.array(grid), np.array(values), kind)


# zero, or large enough to stay a normal double per rad/s (|d omega/d lambda| < 2e14 rad/s/nm here)
density = st.one_of(st.just(0.0), st.floats(1e-290, 1e6))


@settings(deadline=None)
@given(s=st.one_of(spectra(SpectrumKind.PSD_PER_WAVELENGTH, density),
                   spectra(SpectrumKind.IRRADIANCE_PER_WAVELENGTH, density)))
def test_domain_conversion_round_trips_and_keeps_band_power(s):
    per_omega_kind = {
        SpectrumKind.PSD_PER_WAVELENGTH: SpectrumKind.PSD_PER_ANGULAR_FREQUENCY,
        SpectrumKind.IRRADIANCE_PER_WAVELENGTH: SpectrumKind.IRRADIANCE_PER_ANGULAR_FREQUENCY,
    }[s.kind]
    w = convert_spectral_domain(s, per_omega_kind)
    back = convert_spectral_domain(w, s.kind)
    assert np.array_equal(w.wavelengths_nm, s.wavelengths_nm)
    np.testing.assert_allclose(back.values, s.values, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(w.band_power(), s.band_power(), rtol=1e-12, atol=0.0)


def _read_back(text: str, **kwargs) -> SampledSpectrum:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return read_spectrum_csv(path, **kwargs)


@settings(deadline=None)
@given(s=spectra(SpectrumKind.RATIO))
def test_ratio_spectrum_csv_round_trip_is_exact(s):
    back = _read_back(spectrum_to_csv_text(s))
    assert back.kind == SpectrumKind.RATIO
    assert np.array_equal(back.wavelengths_nm, s.wavelengths_nm)
    assert np.array_equal(back.values, s.values)


@settings(deadline=None)
@given(s=spectra(SpectrumKind.COUNTS))
def test_file_without_kind_line_round_trips_with_default_kind(s):
    rows = "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(s.wavelengths_nm, s.values))
    back = _read_back("wavelength_nm,value\n" + rows, default_kind=SpectrumKind.RATIO)
    assert back.kind == SpectrumKind.RATIO
    assert np.array_equal(back.wavelengths_nm, s.wavelengths_nm)
    assert np.array_equal(back.values, s.values)


@st.composite
def cycle_configs(draw):
    """Small random configs: short runs, few phonons, any transfer probability."""
    return CycleConfig(
        gamma=draw(st.floats(0.5, 200.0)),
        eta_sp=draw(st.floats(0.0, 1.0, exclude_min=True)),  # a cycle with eta_sp = 0 never completes
        step_duration_s=draw(st.floats(1e-3, 0.1)),
        t_max_s=draw(st.floats(1e-3, 0.5)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        heating_rate=draw(st.one_of(st.just(0.0), st.floats(0.1, 100.0))),
        n_initial=draw(st.integers(0, 5)),
        # the default or any p in [0, 1]; at n = 0 none may transfer
        transfer_prob=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
    )


@settings(deadline=None, max_examples=40)
@given(cfg=cycle_configs())
def test_simulator_record_invariants(cfg):
    traj = simulate_trajectory(cfg)
    t, n, tags = traj.times_s, traj.phonon_numbers, traj.states
    assert (t[0], n[0], tags[0]) == (0.0, cfg.n_initial, "S")
    assert np.all(n >= 0)
    dn = np.diff(n)
    assert np.all(np.abs(dn) <= 1)
    assert np.all(np.diff(t) >= 0.0) and t[-1] <= cfg.t_max_s
    scatters = np.array(tags[1:]) == "P"
    assert np.all(dn[scatters] == 0)
    assert all(tag == "D" for tag, step in zip(tags[1:], dn) if step == -1)
    c = traj.counters
    assert c["transfers"] == np.count_nonzero(dn == -1)
    assert c["heating_events"] == np.count_nonzero(dn == 1)
    assert c["scatters"] == np.count_nonzero(scatters)
    assert c["cycles"] == c["empty_intervals"] + c["transfers"]
    assert c["stop_reason"] in (("t_max", "quiescent") if cfg.heating_rate == 0.0 else ("t_max",))


def test_csv_writers_match_the_row_format():
    # rows used to be written one f-string at a time; the column writers must give the same bytes
    rng = np.random.default_rng(20261018)
    special = [5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.0, 3.0, 2.0 ** 53, 1e16, 1e22, 123456789.0,
               6.02214076e23, 1e300, 1.7976931348623157e308]
    drawn = rng.random(300) * 10.0 ** rng.integers(-330, 300, 300).astype(float)
    values = rng.permutation(np.concatenate([special, drawn, np.floor(drawn[:40] * 1e6)]))
    grid = np.unique(values[values > 0.0])
    spectrum = SampledSpectrum(grid, rng.permutation(values)[:grid.size], SpectrumKind.COUNTS)
    rows = "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(spectrum.wavelengths_nm, spectrum.values))
    assert spectrum_to_csv_text(spectrum) == "# kind=counts\nwavelength_nm,value\n" + rows

    numbers = rng.integers(0, 2 ** 62, values.size)
    states = tuple(rng.choice(["S", "D", "P"], values.size).tolist())
    cfg = CycleConfig(gamma=1.0, eta_sp=1.0, step_duration_s=1.0, t_max_s=1.0, seed=0)
    traj = CoolingTrajectory(times_s=values, phonon_numbers=numbers, states=states, config=cfg, counters={})
    rows = "".join(f"{float(t)!r},{int(n)},{s}\n" for t, n, s in zip(traj.times_s, traj.phonon_numbers, traj.states))
    assert traj.to_csv_text() == "time_s,n,internal_state\n" + rows
