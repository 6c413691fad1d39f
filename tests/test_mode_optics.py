"""Single-mode geometry: areas, solid angles, grayness, focused radiance."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermolight import (
    AngularFrequency,
    FocusGeometry,
    divergence_half_angle,
    gaussian_angular_radiance,
    grayness,
    planck_radiance,
    q1d_psd,
    top_hat_area,
)

C = 299792458.0


def test_top_hat_area():
    assert top_hat_area(20e-6) == pytest.approx(math.pi * (20e-6) ** 2 / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        top_hat_area(0.0)


def test_grayness_formula_and_bound():
    w = AngularFrequency.from_wavelength_nm(614.0)
    area = top_hat_area(20e-6)
    lam = w.wavelength_m
    assert grayness(area, w) == pytest.approx(lam ** 2 / (4.0 * math.pi) / area, rel=1e-12)
    # a focal spot smaller than one mode's worth is unphysical
    with pytest.raises(ValueError):
        grayness(1e-15, w)


def test_diffraction_limited_waist_is_where_grayness_reaches_one():
    w = AngularFrequency.from_wavelength_nm(614.3)
    w0 = w.wavelength_m / (math.pi * math.sqrt(2.0))  # top-hat area pi w0^2 / 2 = lambda^2 / (4 pi)
    assert grayness(top_hat_area(1.001 * w0), w) == pytest.approx(1.0 / 1.001 ** 2, rel=1e-12)
    with pytest.raises(ValueError, match="exceeds 1"):
        grayness(top_hat_area(0.999 * w0), w)


def test_radiance_closure_psd_over_etendue():
    # a single mode's etendue is A * Omega = lambda^2, so its PSD over lambda^2 is the blackbody radiance
    rng = np.random.default_rng(707)
    for _ in range(100):
        lam_nm = rng.uniform(300.0, 2000.0)
        t = rng.uniform(500.0, 10000.0)
        w = AngularFrequency.from_wavelength_nm(lam_nm)
        assert q1d_psd(w, t) / w.wavelength_m ** 2 == pytest.approx(planck_radiance(w, t), rel=1e-12)


def test_divergence_and_focus_geometry():
    w = AngularFrequency.from_wavelength_nm(614.0)
    w0 = 20e-6
    assert divergence_half_angle(w0, w) == pytest.approx(
        2.0 * C / (w.rad_per_s * w0), rel=1e-12
    )
    geom = FocusGeometry.from_waist(w0, w)
    assert geom.half_angle_rad == pytest.approx(divergence_half_angle(w0, w), rel=1e-12)
    with pytest.warns(UserWarning):
        FocusGeometry(1e-6, 0.2)  # marginal paraxial angle
    with pytest.raises(ValueError):
        FocusGeometry(1e-6, 0.35)  # beyond the paraxial model


def test_paraxial_warning_points_at_the_caller():
    w = AngularFrequency.from_wavelength_nm(1762.0)  # 2.5 um waist: half angle 0.22 rad
    for make in (lambda: FocusGeometry(1e-6, 0.2), lambda: FocusGeometry.from_waist(2.5e-6, w)):
        with pytest.warns(UserWarning, match="paraxial model marginal") as record:
            make()
        assert [warning.filename for warning in record] == [__file__]


def test_on_axis_radiance_is_four_blackbody_radiances():
    rng = np.random.default_rng(808)
    for _ in range(50):
        lam_nm = rng.uniform(400.0, 1000.0)
        t = rng.uniform(1000.0, 10000.0)
        w0 = rng.uniform(5e-6, 50e-6)
        w = AngularFrequency.from_wavelength_nm(lam_nm)
        b0 = gaussian_angular_radiance(w, 0.0, w0, q1d_psd(w, t))
        assert b0 == pytest.approx(4.0 * planck_radiance(w, t), rel=1e-12)


def test_angular_radiance_integrates_back_to_psd():
    # projected-area integral over the hemisphere recovers the guided PSD
    w = AngularFrequency.from_wavelength_nm(614.0)
    w0 = 2.0 * C / (w.rad_per_s * 0.01)  # divergence half-angle 10 mrad
    s = 3.7e-12

    def integrand(theta):
        b = gaussian_angular_radiance(w, theta, w0, s)
        return b * math.cos(theta) * 2.0 * math.pi * math.sin(theta)

    # the lobe is ~10 mrad wide; 0.1 rad already holds all of it
    total, _ = quad(integrand, 0.0, 0.1, limit=200)
    assert total * top_hat_area(w0) == pytest.approx(s, rel=1e-6)
