"""One rule for scalar inputs at every boundary.

A scalar field or argument takes a real (or integer) number, Python's or
numpy's, and stores it as a builtin float (or int). A bool is not a
number here, and NaN, infinities and strings are rejected with a
ValueError that names the field.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from thermolight import (
    AngularFrequency,
    CoolingDrive,
    CycleConfig,
    FiberModeModel,
    FocusGeometry,
    SampledSpectrum,
    SlitGeometry,
    SpectrumKind,
    calibrate_power,
    divergence_half_angle,
    excitation_rate,
    focused_energy_density,
    gaussian_angular_radiance,
    grayness,
    load_ion,
    phonon_cooling_rate,
    q1d_psd,
    q1d_total_power,
    simulate_ensemble,
    top_hat_area,
)

ION = load_ion()
CFG = CycleConfig(gamma=11.0, eta_sp=0.74, step_duration_s=1e-3, t_max_s=0.01, seed=7)
DRIVE = CoolingDrive(eta_delivery=0.5, grayness=5e-5, omega_motion=2e6)
SLIT = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)
SHAPE = SampledSpectrum(np.linspace(400.0, 900.0, 11), np.ones(11), SpectrumKind.COUNTS)
W = AngularFrequency.from_wavelength_nm(614.0)
UNSET = object()


def stored(obj, name):
    """For a frozen dataclass: build with one field replaced, return what it stored."""
    return lambda v: getattr(replace(obj, **{name: v}), name)


def called(fn, **kwargs):
    """For a function: call it with the UNSET argument set; nothing is stored, so return None."""
    (name,) = [k for k, v in kwargs.items() if v is UNSET]

    def build(v):
        fn(**{**kwargs, name: v})

    return build


# (label in the error, good value, build)
CASES = {
    **{f"CycleConfig.{f}": (f, getattr(CFG, f), stored(CFG, f))
       for f in ("gamma", "eta_sp", "step_duration_s", "t_max_s", "heating_rate", "n_initial", "seed")},
    **{f"IonSpec.{f}": (f, getattr(ION, f), stored(ION, f))
       for f in ("omega1_rad_s", "omega2_rad_s", "omega3_rad_s", "a_ps_s", "a_pd_s",
                 "g_e", "g_g", "a_pd_driven_s")},
    **{f"CoolingDrive.{f}": (f, getattr(DRIVE, f), stored(DRIVE, f))
       for f in ("eta_delivery", "grayness", "p_d")},
    **{f"SlitGeometry.{f}": (f, getattr(SLIT, f), stored(SLIT, f))
       for f in ("slit_width_m", "distance_m", "mode_field_radius_m")},
    "FiberModeModel.band_nm": ("band_nm", 400.0, lambda v: FiberModeModel(
        "constant_area", (v, 900.0), area_m2=1e-10).band_nm[0]),
    "FiberModeModel.omega0_sr": ("omega0_sr", 0.1, lambda v: FiberModeModel(
        "constant_divergence", (400.0, 900.0), omega0_sr=v).omega0_sr),
    "FiberModeModel.area_m2": ("area_m2", 1e-10, lambda v: FiberModeModel(
        "constant_area", (400.0, 900.0), area_m2=v).area_m2),
    "FocusGeometry.waist_m": ("waist_m", 1e-5, lambda v: FocusGeometry(v, 0.05).waist_m),
    "FocusGeometry.half_angle_rad": ("half_angle_rad", 0.05, lambda v: FocusGeometry(1e-5, v).half_angle_rad),
    "AngularFrequency.rad_per_s": ("angular frequency", 3e15, lambda v: AngularFrequency(v).rad_per_s),
    "AngularFrequency.from_wavelength_nm": ("wavelength_nm", 614.0, called(
        AngularFrequency.from_wavelength_nm, wavelength_nm=UNSET)),
    **{f"excitation_rate.{a}": (a, good, called(excitation_rate, **{
        "a_eg": 4e7, "g_e": 4, "g_g": 6, "omega_eg": W, "rho": 1e-20, a: UNSET}))
       for a, good in (("a_eg", 4e7), ("g_e", 4), ("g_g", 6), ("rho", 1e-20))},
    **{f"phonon_cooling_rate.{a}": (a, 0.5, called(phonon_cooling_rate, **{
        "gamma": 10.0, "p_d": 1.0, "eta_sp": 0.74, a: UNSET})) for a in ("gamma", "p_d", "eta_sp")},
    "calibrate_power.measured_power_w": ("measured_power_w", 1e-6, called(
        calibrate_power, spectrum=SHAPE, measured_power_w=UNSET, band_nm=(400.0, 900.0))),
    "top_hat_area.waist_m": ("waist_m", 1e-5, called(top_hat_area, waist_m=UNSET)),
    "grayness.area_m2": ("area_m2", 1e-10, called(grayness, area_m2=UNSET, omega=W)),
    **{f"focused_energy_density.{a}": (a, 1e-10, called(focused_energy_density, **{
        "psd_w_per_rad_s": 1e-12, "area_m2": 1e-10, a: UNSET})) for a in ("psd_w_per_rad_s", "area_m2")},
    "divergence_half_angle.waist_m": ("waist_m", 1e-5, called(divergence_half_angle, waist_m=UNSET, omega=W)),
    **{f"gaussian_angular_radiance.{a}": (a, good, called(gaussian_angular_radiance, **{
        "omega": W, "theta_rad": 0.01, "waist_m": 1e-5, "psd_w_per_rad_s": 1e-12, a: UNSET}))
       for a, good in (("theta_rad", 0.01), ("waist_m", 1e-5), ("psd_w_per_rad_s", 1e-12))},
    "q1d_psd.polarizations": ("polarizations", 1, called(q1d_psd, omega=W, temperature=5800.0,
                                                         polarizations=UNSET)),
    "q1d_total_power.polarizations": ("polarizations", 1, called(q1d_total_power, temperature=5800.0,
                                                                 polarizations=UNSET)),
    "simulate_ensemble.n_trajectories": ("n_trajectories", 2, called(simulate_ensemble, cfg=CFG,
                                                                     n_trajectories=UNSET)),
}


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1"], ids=["bool", "nan", "inf", "str"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_scalar_is_rejected_by_name(case, bad):
    label, _, build = CASES[case]
    with pytest.raises(ValueError, match=label):
        build(bad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_scalar_is_stored_as_builtin(case):
    _, good, build = CASES[case]
    builtin = int if isinstance(good, int) else float
    numpy_types = (np.int64, np.uint64) if builtin is int else (np.float32, np.float64)
    for numpy_type in numpy_types:
        value = build(numpy_type(good))
        assert value is None or (type(value) is builtin and value == numpy_type(good))
