"""Single-mode geometry: areas, solid angles, grayness, focused radiance."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermolight import (
    AngularFrequency,
    FiberModeModel,
    FocusGeometry,
    divergence_half_angle,
    focused_energy_density,
    gaussian_angular_radiance,
    grayness,
    mode_area,
    mode_solid_angle,
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


def test_etendue_product_both_regimes():
    div = FiberModeModel(regime="constant_divergence", band_nm=(300.0, 2000.0), omega0_sr=0.05)
    fix = FiberModeModel(regime="constant_area", band_nm=(300.0, 2000.0), area_m2=8e-11)
    rng = np.random.default_rng(606)
    for model in (div, fix):
        for _ in range(100):
            lam_nm = rng.uniform(300.0, 2000.0)
            w = AngularFrequency.from_wavelength_nm(lam_nm)
            prod = mode_area(model, w) * mode_solid_angle(model, w)
            assert prod == pytest.approx(w.wavelength_m ** 2, rel=1e-12)


def test_radiance_closure_psd_over_etendue():
    model = FiberModeModel(regime="constant_divergence", band_nm=(300.0, 2000.0), omega0_sr=0.05)
    rng = np.random.default_rng(707)
    for _ in range(100):
        lam_nm = rng.uniform(300.0, 2000.0)
        t = rng.uniform(500.0, 10000.0)
        w = AngularFrequency.from_wavelength_nm(lam_nm)
        etendue = mode_area(model, w) * mode_solid_angle(model, w)
        assert q1d_psd(w, t) / etendue == pytest.approx(planck_radiance(w, t), rel=1e-12)


def test_out_of_band_and_oversized_solid_angle():
    model = FiberModeModel(regime="constant_divergence", band_nm=(400.0, 900.0), omega0_sr=0.05)
    with pytest.raises(ValueError):
        mode_area(model, AngularFrequency.from_wavelength_nm(1000.0))
    tiny = FiberModeModel(regime="constant_area", band_nm=(400.0, 900.0), area_m2=1e-14)
    with pytest.raises(ValueError):
        mode_solid_angle(tiny, AngularFrequency.from_wavelength_nm(900.0))


def test_tabulated_regime_interpolates():
    table_l = np.array([400.0, 600.0, 800.0])
    table_a = np.array([5e-11, 7e-11, 9e-11])
    model = FiberModeModel(
        regime="tabulated",
        band_nm=(450.0, 750.0),
        table_wavelength_nm=table_l,
        table_area_m2=table_a,
    )
    w = AngularFrequency.from_wavelength_nm(500.0)
    assert mode_area(model, w) == pytest.approx(6e-11, rel=1e-12)
    # band outside the table is rejected at construction
    with pytest.raises(ValueError):
        FiberModeModel(
            regime="tabulated",
            band_nm=(300.0, 750.0),
            table_wavelength_nm=table_l,
            table_area_m2=table_a,
        )


def test_model_json_round_trip(tmp_path):
    model = FiberModeModel(regime="constant_divergence", band_nm=(350.0, 1100.0), omega0_sr=0.07)
    path = tmp_path / "mode.json"
    model.to_json_file(path)
    back = FiberModeModel.from_json_file(path)
    assert back == model
    with pytest.raises(ValueError):
        FiberModeModel.from_json_dict({**model.to_json_dict(), "surprise": 1})


@pytest.mark.parametrize("document", [5, [1]])
def test_model_json_must_be_an_object(document):
    with pytest.raises(ValueError, match="must be a JSON object"):
        FiberModeModel.from_json_dict(document)


def test_tabulated_json_round_trip(tmp_path):
    model = FiberModeModel(
        regime="tabulated",
        band_nm=(450.0, 750.0),
        table_wavelength_nm=np.array([400.0, 600.0, 800.0]),
        table_area_m2=np.array([5e-11, 7e-11, 9e-11]),
    )
    back = FiberModeModel.from_json_dict(model.to_json_dict())
    assert back.regime == model.regime and back.band_nm == model.band_nm
    assert np.array_equal(back.table_wavelength_nm, model.table_wavelength_nm)
    assert np.array_equal(back.table_area_m2, model.table_area_m2)


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


def test_focused_energy_density():
    assert focused_energy_density(2.0e-12, 1e-9) == pytest.approx(
        2.0e-12 / (1e-9 * C), rel=1e-12
    )


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
