"""Sampled-spectrum container, domain conversion, and CSV round trips."""

import math

import numpy as np
import pytest

from thermolight import (
    InstrumentResponse,
    SampledSpectrum,
    SpectrumKind,
    convert_spectral_domain,
    q1d_psd,
    q1d_psd_per_wavelength,
    read_spectrum_csv,
    write_spectrum_csv,
)
from thermolight.spectra import atomic_write_text, spectrum_to_csv_text

C = 299792458.0


def _psd_lambda(t=5800.0, lo=400.0, hi=900.0, n=501):
    grid = np.linspace(lo, hi, n)
    vals = np.array([q1d_psd_per_wavelength(l, t) for l in grid])
    return SampledSpectrum(grid, vals, SpectrumKind.PSD_PER_WAVELENGTH)


def test_spectra_compare_and_hash_by_identity():
    s = _psd_lambda(n=11)
    response = InstrumentResponse(s.wavelengths_nm, np.ones(11))
    for spectrum in (s, response):
        assert spectrum == spectrum
        assert spectrum in {spectrum}
    assert s != SampledSpectrum(s.wavelengths_nm, s.values, s.kind)


def test_grid_validation():
    good = np.array([400.0, 500.0, 600.0])
    with pytest.raises(ValueError):
        SampledSpectrum(good[::-1].copy(), np.ones(3), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([400.0, 400.0, 600.0]), np.ones(3), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(good, np.array([1.0, -2.0, 1.0]), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(good, np.array([1.0, math.nan, 1.0]), SpectrumKind.COUNTS)


def test_arrays_are_immutable_copies():
    grid = np.array([400.0, 500.0, 600.0])
    vals = np.array([1.0, 2.0, 3.0])
    s = SampledSpectrum(grid, vals, SpectrumKind.COUNTS)
    grid[0] = 1.0  # caller's array, not the spectrum's
    assert s.wavelengths_nm[0] == 400.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_interpolate_and_resample():
    s = SampledSpectrum(
        np.array([400.0, 500.0, 600.0]), np.array([0.0, 10.0, 20.0]), SpectrumKind.COUNTS
    )
    assert s.interpolate(450.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        s.interpolate(399.0)
    again = s.resample(s.wavelengths_nm)
    assert np.array_equal(again.values, s.values)
    assert again.kind == s.kind


def test_band_power_constant_density():
    # trapezoid is exact for a constant: P = value * width
    grid = np.linspace(400.0, 900.0, 173)
    s = SampledSpectrum(grid, np.full(grid.size, 2.5), SpectrumKind.PSD_PER_WAVELENGTH)
    assert s.band_power() == pytest.approx(2.5 * 500.0, rel=1e-12)
    assert s.band_power((500.0, 700.0)) == pytest.approx(2.5 * 200.0, rel=1e-12)


def test_domain_conversion_round_trip_and_power():
    s = _psd_lambda()
    w = convert_spectral_domain(s, SpectrumKind.PSD_PER_ANGULAR_FREQUENCY)
    assert w.kind == SpectrumKind.PSD_PER_ANGULAR_FREQUENCY
    # same wavelength grid, values divided by |d omega / d lambda|
    assert np.array_equal(w.wavelengths_nm, s.wavelengths_nm)
    back = convert_spectral_domain(w, SpectrumKind.PSD_PER_WAVELENGTH)
    assert np.allclose(back.values, s.values, rtol=1e-12)
    # integrated band power is invariant under the domain swap
    assert w.band_power((450.0, 850.0)) == pytest.approx(
        s.band_power((450.0, 850.0)), rel=1e-12
    )


def test_domain_conversion_matches_pointwise_density():
    t = 5800.0
    s = _psd_lambda(t)
    w = convert_spectral_domain(s, SpectrumKind.PSD_PER_ANGULAR_FREQUENCY)
    k = 137
    omega = 2.0 * math.pi * C / (s.wavelengths_nm[k] * 1e-9)
    assert w.values[k] == pytest.approx(q1d_psd(omega, t), rel=1e-12)


def test_conversion_rejects_counts_and_cross_family():
    counts = SampledSpectrum(
        np.array([400.0, 500.0]), np.array([1.0, 2.0]), SpectrumKind.COUNTS
    )
    with pytest.raises(ValueError):
        convert_spectral_domain(counts, SpectrumKind.PSD_PER_WAVELENGTH)
    s = _psd_lambda(n=11)
    with pytest.raises(ValueError):
        convert_spectral_domain(s, SpectrumKind.IRRADIANCE_PER_ANGULAR_FREQUENCY)


def test_csv_round_trip_is_exact(tmp_path):
    s = _psd_lambda(n=41)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, s)
    back = read_spectrum_csv(path)
    assert back.kind == s.kind
    assert np.array_equal(back.wavelengths_nm, s.wavelengths_nm)
    assert np.array_equal(back.values, s.values)


def test_csv_text_layout():
    s = SampledSpectrum(
        np.array([400.0, 500.0]), np.array([1.5, 2.5]), SpectrumKind.COUNTS
    )
    text = spectrum_to_csv_text(s)
    lines = text.strip().splitlines()
    assert lines[0] == "# kind=counts"
    assert lines[1] == "wavelength_nm,value"
    assert lines[2].startswith("400.0,")


def test_csv_reader_requires_kind(tmp_path):
    path = tmp_path / "nokind.csv"
    path.write_text("wavelength_nm,value\n400.0,1.0\n500.0,2.0\n")
    with pytest.raises(ValueError):
        read_spectrum_csv(path)
    bad = tmp_path / "badrow.csv"
    bad.write_text("# kind=counts\nwavelength_nm,value\n400.0,1.0\n500.0\n")
    with pytest.raises(ValueError):
        read_spectrum_csv(bad)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first version, quite long " * 10)
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind
