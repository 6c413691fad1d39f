"""Spectrometer reduction chain: response, slit, calibration, efficiency, T fit."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erf

from thermolight import (
    AtmosphericCorrection,
    EfficiencyCurve,
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SampledSpectrum,
    SlitGeometry,
    SpectrumKind,
    apply_response,
    apply_slit_correction,
    atmospheric_correction,
    beam_radius_at_slit,
    calibrate_power,
    convert_spectral_domain,
    extract_efficiency,
    fit_temperature,
    planck_irradiance_per_wavelength,
    q1d_psd_per_wavelength,
    slit_transmission,
    write_spectrum_csv,
)
from thermolight.data_pipeline import FitConvergenceError


def _q1d_spectrum(t=5800.0, scale=1.0, lo=400.0, hi=900.0, n=251):
    grid = np.linspace(lo, hi, n)
    vals = scale * np.array([q1d_psd_per_wavelength(l, t) for l in grid])
    return SampledSpectrum(grid, vals, SpectrumKind.PSD_PER_WAVELENGTH)


def _planck_reference(t=5800.0, scale=2.2e-5, dip=None):
    grid = np.arange(350.0, 1101.0, 1.0)
    irr = scale * np.array([planck_irradiance_per_wavelength(l, t) for l in grid])
    if dip is not None:
        irr = irr * dip(grid)
    return ReferenceSolarSpectrum(grid, irr)


# -- instrument response -------------------------------------------------

def test_response_validation():
    wl = np.array([400.0, 500.0, 600.0])
    with pytest.raises(ValueError):
        InstrumentResponse(wl, np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        InstrumentResponse(wl, np.array([0.5, -0.1, 0.5]))
    r = InstrumentResponse(wl, np.array([0.5, 0.6, 0.7]))
    with pytest.raises(ValueError):
        r.interpolate([399.0])


def test_response_csv_round_trip(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("wavelength_nm,value\n400.0,0.5\n500.0,0.6\n600.0,0.7\n")
    r = InstrumentResponse.from_csv(path)
    assert np.array_equal(r.wavelengths_nm, [400.0, 500.0, 600.0])
    assert np.array_equal(r.values, [0.5, 0.6, 0.7])


def test_csv_of_another_kind_is_rejected(tmp_path):
    rows = "wavelength_nm,value\n400.0,0.5\n500.0,0.6\n600.0,0.7\n"
    path = tmp_path / "resp.csv"
    path.write_text("# kind=ratio\n" + rows)
    assert InstrumentResponse.from_csv(path).kind == SpectrumKind.RATIO
    path.write_text("# kind=counts\n" + rows)
    with pytest.raises(ValueError, match=r"resp\.csv.*'counts'.*'ratio'"):
        InstrumentResponse.from_csv(path)

    grid = np.arange(350.0, 1101.0, 5.0)
    path = tmp_path / "ref.csv"
    write_spectrum_csv(path, SampledSpectrum(grid, np.ones(grid.size), SpectrumKind.RATIO))
    with pytest.raises(ValueError, match=r"ref\.csv.*'ratio'.*'irradiance_per_wavelength'"):
        ReferenceSolarSpectrum.from_csv(path)
    path.write_text("\n".join(["wavelength_nm,value"] + [f"{float(w)!r},1.0" for w in grid]) + "\n")
    assert ReferenceSolarSpectrum.from_csv(path).kind == SpectrumKind.IRRADIANCE_PER_WAVELENGTH


def test_apply_response_identity_and_scale():
    grid = np.arange(400.0, 901.0, 2.0)
    raw = SampledSpectrum(grid, np.linspace(1.0, 2.0, grid.size), SpectrumKind.COUNTS)
    ones = InstrumentResponse(grid, np.ones(grid.size))
    out = apply_response(raw, ones)
    assert out.kind == SpectrumKind.COUNTS
    assert np.array_equal(out.wavelengths_nm, grid)
    assert np.allclose(out.values, raw.values, rtol=1e-14)
    halved = InstrumentResponse(grid, np.full(grid.size, 0.5))
    assert np.allclose(apply_response(raw, halved).values, 2.0 * raw.values, rtol=1e-14)


def test_apply_response_lands_on_coarser_grid():
    fine = np.arange(400.0, 501.0, 1.0)
    raw = SampledSpectrum(fine, np.full(fine.size, 10.0), SpectrumKind.COUNTS)
    coarse = np.arange(420.0, 481.0, 5.0)
    resp = InstrumentResponse(coarse, np.full(coarse.size, 2.0))
    out = apply_response(raw, resp)
    assert np.array_equal(out.wavelengths_nm, coarse)
    assert np.allclose(out.values, 5.0, rtol=1e-14)


def test_apply_response_requires_overlap():
    raw = SampledSpectrum(
        np.array([400.0, 500.0]), np.array([1.0, 1.0]), SpectrumKind.COUNTS
    )
    resp = InstrumentResponse(np.array([600.0, 700.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        apply_response(raw, resp)


# -- slit clipping -------------------------------------------------------

def test_beam_radius_formula():
    geom = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)
    lam = 600.0
    wf, d = geom.mode_field_radius_m, geom.distance_m
    want = wf * math.sqrt(1.0 + (lam * 1e-9 * d / (math.pi * wf ** 2)) ** 2)
    assert beam_radius_at_slit(geom, lam) == pytest.approx(want, rel=1e-12)


def test_slit_transmission_known_point_and_monotonicity():
    # pick a slit exactly sqrt(2) beam radii wide so T = erf(1)
    probe = SlitGeometry(slit_width_m=1e-4, distance_m=5e-3, mode_field_radius_m=2e-6)
    w = beam_radius_at_slit(probe, 600.0)
    geom = SlitGeometry(slit_width_m=math.sqrt(2.0) * w, distance_m=5e-3, mode_field_radius_m=2e-6)
    assert slit_transmission(geom, 600.0) == pytest.approx(float(erf(1.0)), rel=1e-12)
    # longer wavelengths diverge harder and clip more
    grid = np.linspace(400.0, 1000.0, 31)
    t = slit_transmission(geom, grid)
    assert np.all(np.diff(t) < 0.0)
    assert np.all((t > 0.0) & (t < 1.0))


def test_apply_slit_correction_round_trip():
    geom = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)
    s = _q1d_spectrum(n=51)
    clipped = SampledSpectrum(
        s.wavelengths_nm,
        s.values * slit_transmission(geom, s.wavelengths_nm),
        s.kind,
    )
    recovered = apply_slit_correction(clipped, geom)
    assert np.allclose(recovered.values, s.values, rtol=1e-12)


def test_slit_geometry_warns_when_too_close():
    with pytest.warns(UserWarning):
        SlitGeometry(slit_width_m=50e-6, distance_m=1e-4, mode_field_radius_m=2.25e-6)
    with pytest.raises(ValueError):
        SlitGeometry(slit_width_m=0.0, distance_m=10e-3, mode_field_radius_m=2.25e-6)


# -- atmospheric correction ----------------------------------------------

def test_correction_is_unity_for_scaled_blackbody():
    ref = _planck_reference()
    corr = atmospheric_correction(ref, 5800.0)
    assert corr.amplitude == pytest.approx(2.2e-5, rel=1e-10)
    band = (corr.wavelengths_nm >= 400.0) & (corr.wavelengths_nm <= 900.0)
    assert np.allclose(corr.values[band], 1.0, atol=1e-10)
    with pytest.raises(ValueError):
        corr.interpolate([120.0])


def test_correction_preserves_absorption_dip_ratio():
    def dip(grid):
        return 1.0 - 0.5 * np.exp(-((grid - 760.0) ** 2) / (2.0 * 10.0 ** 2))

    ref = _planck_reference(dip=dip)
    corr = atmospheric_correction(ref, 5800.0)
    c760 = float(corr.interpolate(760.0))
    c700 = float(corr.interpolate(700.0))
    want = dip(np.array([760.0]))[0] / dip(np.array([700.0]))[0]
    assert c760 / c700 == pytest.approx(want, rel=1e-9)
    assert c760 < 0.7  # the dip survives the normalization


def test_correction_expected_ground_psd():
    ref = _planck_reference()
    corr = atmospheric_correction(ref, 5800.0)
    expected = corr.expected_q1d_psd(np.array([500.0, 700.0]))
    assert expected.kind == SpectrumKind.PSD_PER_WAVELENGTH
    assert expected.values[0] == pytest.approx(
        float(corr.interpolate(500.0)) * q1d_psd_per_wavelength(500.0, 5800.0), rel=1e-10
    )


def test_bundled_reference_properties():
    ref = ReferenceSolarSpectrum.load_bundled()
    assert ref.wavelengths_nm[0] <= 350.0 and ref.wavelengths_nm[-1] >= 1100.0
    assert np.all(np.isfinite(ref.values)) and np.all(ref.values >= 0.0)
    peak_nm = ref.wavelengths_nm[int(np.argmax(ref.values))]
    assert 400.0 < peak_nm < 700.0  # visible-band peak, solar-like
    again = ReferenceSolarSpectrum.load_bundled()
    assert np.array_equal(again.values, ref.values)


def test_reference_must_cover_wide_band():
    grid = np.arange(400.0, 901.0, 1.0)
    with pytest.raises(ValueError):
        ReferenceSolarSpectrum(grid, np.ones(grid.size))


# -- power calibration and efficiency ------------------------------------

def test_calibrate_power_fixes_band_integral():
    shape = _q1d_spectrum(scale=123.0)  # arbitrary counts-like scale
    out = calibrate_power(shape, 2.5e-6, (450.0, 850.0))
    assert out.kind == SpectrumKind.PSD_PER_WAVELENGTH
    assert out.band_power((450.0, 850.0)) == pytest.approx(2.5e-6, rel=1e-12)
    doubled = calibrate_power(shape, 5.0e-6, (450.0, 850.0))
    assert np.allclose(doubled.values, 2.0 * out.values, rtol=1e-12)


def test_calibrate_power_rejects_bad_inputs():
    shape = _q1d_spectrum(n=51)
    with pytest.raises(ValueError):
        calibrate_power(shape, -1.0, (450.0, 850.0))
    with pytest.raises(ValueError):
        calibrate_power(shape, 1e-6, (350.0, 850.0))  # band leaves the grid
    per_omega = convert_spectral_domain(shape, SpectrumKind.PSD_PER_ANGULAR_FREQUENCY)
    with pytest.raises(ValueError):
        calibrate_power(per_omega, 1e-6, (450.0, 850.0))


def test_extract_efficiency_flat():
    cal = _q1d_spectrum(scale=0.75)
    eff = extract_efficiency(cal, 5800.0)
    assert eff.band_average == pytest.approx(0.75, rel=1e-10)
    assert np.allclose(eff.values, 0.75, rtol=1e-10)


def test_extract_efficiency_with_correction_and_conversion():
    ref = _planck_reference()
    corr = atmospheric_correction(ref, 5800.0)
    grid = np.linspace(400.0, 900.0, 251)
    ideal = np.array([q1d_psd_per_wavelength(l, 5800.0) for l in grid])
    ground = SampledSpectrum(
        grid, 0.6 * ideal * corr.interpolate(grid), SpectrumKind.PSD_PER_WAVELENGTH
    )
    eff = extract_efficiency(ground, 5800.0, band_nm=(450.0, 850.0), correction=corr)
    assert eff.band_average == pytest.approx(0.6, rel=1e-9)
    # a per-angular-frequency calibrated input converts internally
    per_omega = convert_spectral_domain(
        SampledSpectrum(grid, 0.6 * ideal, SpectrumKind.PSD_PER_WAVELENGTH),
        SpectrumKind.PSD_PER_ANGULAR_FREQUENCY,
    )
    eff2 = extract_efficiency(per_omega, 5800.0, band_nm=(450.0, 850.0))
    assert eff2.band_average == pytest.approx(0.6, rel=1e-9)


def test_extract_efficiency_warns_above_unity():
    cal = _q1d_spectrum(scale=1.5)
    with pytest.warns(UserWarning):
        eff = extract_efficiency(cal, 5800.0)
    assert eff.band_average == pytest.approx(1.5, rel=1e-9)


@pytest.mark.filterwarnings("ignore:efficiency exceeds 1")
@pytest.mark.parametrize("scale, band_nm, with_correction", [
    (0.75, None, False),
    (0.6, (450.0, 850.0), True),
    (1.5, None, False),
])
def test_efficiency_is_a_ratio_spectrum(scale, band_nm, with_correction):
    corr = atmospheric_correction(_planck_reference(), 5800.0) if with_correction else None
    cal = _q1d_spectrum(scale=scale)
    if corr is not None:
        cal = SampledSpectrum(cal.wavelengths_nm, cal.values * corr.interpolate(cal.wavelengths_nm), cal.kind)
    eff = extract_efficiency(cal, 5800.0, band_nm=band_nm, correction=corr)
    assert isinstance(eff, SampledSpectrum)
    assert eff.kind == SpectrumKind.RATIO
    assert eff.band_average == scale
    with pytest.raises(TypeError):  # band_average is keyword-only
        EfficiencyCurve(eff.wavelengths_nm, eff.values, eff.band_average)


# -- temperature fitting -------------------------------------------------

def test_fit_recovers_temperature_from_exact_shape():
    fit = fit_temperature(_q1d_spectrum(scale=0.4))
    assert fit.temperature.kelvin == pytest.approx(5800.0, rel=1e-4)
    assert fit.amplitude == pytest.approx(0.4, rel=1e-4)
    assert fit.residual < 1e-6
    assert not fit.flagged
    assert 34 <= fit.iterations <= 40


def test_fit_accepts_per_omega_input():
    per_omega = convert_spectral_domain(
        _q1d_spectrum(scale=0.4), SpectrumKind.PSD_PER_ANGULAR_FREQUENCY
    )
    fit = fit_temperature(per_omega)
    assert fit.temperature.kelvin == pytest.approx(5800.0, rel=1e-4)


def test_fit_wrong_model_family_is_much_worse():
    s = _q1d_spectrum(scale=0.4)
    matched = fit_temperature(s)
    crossed = fit_temperature(s, model="3d")
    assert crossed.residual > 1000.0 * max(matched.residual, 1e-30)
    assert abs(crossed.temperature.kelvin - 5800.0) > 1000.0


def test_fit_flags_non_thermal_shape():
    grid = np.linspace(400.0, 900.0, 101)
    flat = SampledSpectrum(grid, np.full(grid.size, 3e-12), SpectrumKind.PSD_PER_WAVELENGTH)
    fit = fit_temperature(flat)
    assert fit.flagged
    assert fit.residual > 0.05


def test_fit_rejects_degenerate_inputs():
    s = _q1d_spectrum(n=10)
    with pytest.raises(ValueError):
        fit_temperature(s)  # too few samples
    narrow = _q1d_spectrum(lo=600.0, hi=700.0, n=51)
    with pytest.raises(ValueError):
        fit_temperature(narrow)  # wavelength span below 1.5x
    hot = _q1d_spectrum(t=25000.0)
    with pytest.raises(FitConvergenceError):
        fit_temperature(hot)  # optimum pinned at the bracket edge


def test_apply_response_loads_no_numpy_ma():
    # np.median imports numpy.ma on its first call, about 20 ms of every `reduce`
    code = (
        "import sys, numpy as np, thermolight; "
        "from thermolight import InstrumentResponse, SampledSpectrum, SpectrumKind, apply_response; "
        "g = np.linspace(400.0, 900.0, 501); "
        "raw = SampledSpectrum(g, np.ones_like(g), SpectrumKind.COUNTS); "
        "apply_response(raw, InstrumentResponse(np.linspace(380.0, 1000.0, 125), np.ones(125))); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
