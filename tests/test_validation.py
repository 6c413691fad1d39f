"""One rule for scalar and array inputs at every boundary.

A scalar field or argument takes a real (or integer) number, Python's or
numpy's, and stores it as a builtin float (or int). A bool is not a
number here, and NaN, infinities, strings and arrays are rejected with a
ValueError that names the field. An argument that takes an array as well
applies the scalar's rule to each element: an array of bools or strings,
or one holding a NaN or an element out of range, is rejected with a
ValueError that names the first bad element as label[index].
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from thermolight import (
    AngularFrequency,
    BathSet,
    CoolingDrive,
    CycleConfig,
    FocusGeometry,
    InstrumentResponse,
    SampledSpectrum,
    SlitGeometry,
    SpectrumKind,
    beam_radius_at_slit,
    calibrate_power,
    cycle_rate,
    divergence_half_angle,
    ensemble_stats,
    excitation_rate,
    gaussian_angular_radiance,
    grayness,
    ground_state_occupation,
    load_ion,
    mean_occupation,
    planck_energy_density,
    planck_irradiance,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    q1d_total_power,
    rate_equation_trajectory,
    simulate_ensemble,
    slit_transmission,
    top_hat_area,
    virtual_temperature,
    virtual_temperature_room_limit,
)

ION = load_ion()
CFG = CycleConfig(gamma=11.0, eta_sp=0.74, step_duration_s=1e-3, t_max_s=0.01, seed=7)
DRIVE = CoolingDrive(eta_delivery=0.5, grayness=5e-5, omega_motion=2e6)
SLIT = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)
TRAJECTORIES = simulate_ensemble(CFG, 2)
SHAPE = SampledSpectrum(np.linspace(400.0, 900.0, 11), np.ones(11), SpectrumKind.COUNTS)
W = AngularFrequency.from_wavelength_nm(614.0)
WM = 2.0 * math.pi * 1e6  # a trap frequency, rad/s
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
       for f in ("gamma", "eta_sp", "step_duration_s", "t_max_s", "heating_rate", "n_initial", "seed",
                 "transfer_prob")},
    **{f"IonSpec.{f}": (f, getattr(ION, f), stored(ION, f))
       for f in ("omega1_rad_s", "omega2_rad_s", "omega3_rad_s", "a_ps_s", "a_pd_s",
                 "g_e", "g_g", "a_pd_driven_s")},
    **{f"CoolingDrive.{f}": (f, getattr(DRIVE, f), stored(DRIVE, f))
       for f in ("eta_delivery", "grayness", "step_duration_s")},
    "CoolingDrive.omega_motion": ("angular frequency", WM,
                                  lambda v: replace(DRIVE, omega_motion=v).omega_motion.rad_per_s),
    **{f"SlitGeometry.{f}": (f, getattr(SLIT, f), stored(SLIT, f))
       for f in ("slit_width_m", "distance_m", "mode_field_radius_m")},
    "FocusGeometry.waist_m": ("waist_m", 1e-5, lambda v: FocusGeometry(v, 0.05).waist_m),
    "FocusGeometry.half_angle_rad": ("half_angle_rad", 0.05, lambda v: FocusGeometry(1e-5, v).half_angle_rad),
    "AngularFrequency.rad_per_s": ("angular frequency", 3e15, lambda v: AngularFrequency(v).rad_per_s),
    "AngularFrequency.from_wavelength_nm": ("wavelength_nm", 614.0, called(
        AngularFrequency.from_wavelength_nm, wavelength_nm=UNSET)),
    **{f"excitation_rate.{a}": (a, good, called(excitation_rate, **{
        "a_eg": 4e7, "g_e": 4, "g_g": 6, "omega_eg": W, "rho": 1e-20, a: UNSET}))
       for a, good in (("a_eg", 4e7), ("g_e", 4), ("g_g", 6), ("rho", 1e-20))},
    **{f"cycle_rate.{a}": (a, 0.5, called(cycle_rate, **{
        "gamma": 10.0, "eta_sp": 0.74, "step_duration_s": 1e-3, "transfer_prob": 1.0, a: UNSET}))
       for a in ("gamma", "eta_sp", "step_duration_s", "transfer_prob")},
    "calibrate_power.measured_power_w": ("measured_power_w", 1e-6, called(
        calibrate_power, spectrum=SHAPE, measured_power_w=UNSET, band_nm=(400.0, 900.0))),
    "top_hat_area.waist_m": ("waist_m", 1e-5, called(top_hat_area, waist_m=UNSET)),
    "grayness.area_m2": ("area_m2", 1e-10, called(grayness, area_m2=UNSET, omega=W)),
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
    "ensemble_stats.grid_points": ("grid_points", 201, called(ensemble_stats, trajectories=TRAJECTORIES,
                                                              grid_points=UNSET)),
    "rate_equation_trajectory.grid_points": ("grid_points", 201, called(rate_equation_trajectory, cfg=CFG,
                                                                        grid_points=UNSET)),
    # the functions that take one angular frequency, a scalar only
    **{f"{fn.__name__}.{a}": ("angular frequency", good, called(fn, **{**kwargs, a: UNSET}))
       for fn, a, good, kwargs in (
           (grayness, "omega", W.rad_per_s, {"area_m2": 1e-10}),
           (divergence_half_angle, "omega", W.rad_per_s, {"waist_m": 1e-5}),
           (excitation_rate, "omega_eg", W.rad_per_s, {"a_eg": 4e7, "g_e": 4, "g_g": 6, "rho": 1e-20}),
           (gaussian_angular_radiance, "omega", W.rad_per_s,
            {"theta_rad": 0.01, "waist_m": 1e-5, "psd_w_per_rad_s": 1e-12}),
           (virtual_temperature, "omega_motion", WM, {"ion": ION, "baths": BathSet(math.inf, 5800.0, 300.0)}),
           (virtual_temperature_room_limit, "omega_motion", WM, {"ion": ION, "t_room": 300.0}),
           (ground_state_occupation, "omega_motion", WM, {"t_v": 1e-3}),
       )},
}


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1", np.array([1.0, 2.0])],
                         ids=["bool", "nan", "inf", "str", "array"])
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


LAMS = np.array([400.0, 500.0, 600.0])  # wavelengths in nm; the interpolated spectrum below spans just these
OMEGAS = 2.0 * math.pi * 299792458.0 / (LAMS * 1e-9)

# (label in the error, a valid array, build) for each input that takes a scalar or an array
ARRAY_CASES = {
    **{fn.__name__: ("omega", OMEGAS, lambda v, fn=fn: fn(v, 5800.0))
       for fn in (mean_occupation, planck_radiance, planck_irradiance, planck_energy_density, q1d_psd)},
    **{fn.__name__: ("wavelength_nm", LAMS, lambda v, fn=fn: fn(v, 5800.0))
       for fn in (q1d_psd_per_wavelength, planck_irradiance_per_wavelength)},
    "SampledSpectrum.wavelengths_nm": ("wavelengths_nm", LAMS, lambda v: SampledSpectrum(v, np.ones(3), "counts")),
    "SampledSpectrum.values": ("values", np.ones(3), lambda v: SampledSpectrum(LAMS, v, "counts")),
    "InstrumentResponse.wavelengths_nm": ("wavelengths_nm", LAMS, lambda v: InstrumentResponse(v, np.ones(3))),
    "InstrumentResponse.values": ("values", np.ones(3), lambda v: InstrumentResponse(LAMS, v)),
    "SampledSpectrum.interpolate": ("wavelength_nm", LAMS, SampledSpectrum(LAMS, np.ones(3), "counts").interpolate),
    "slit_transmission": ("wavelength_nm", LAMS, lambda v: slit_transmission(SLIT, v)),
    "beam_radius_at_slit": ("wavelength_nm", LAMS, lambda v: beam_radius_at_slit(SLIT, v)),
}

# a bad array made from the valid one, and the index of its first bad element
BAD_ARRAYS = {
    "bool": (lambda good: np.ones(3, dtype=bool), 0),
    "str": (lambda good: good.astype(str), 0),
    "nan": (lambda good: np.array([good[0], math.nan, -1.0]), 1),  # the first of two bad elements
    "negative": (lambda good: np.array([good[0], good[1], -1.0]), 2),
}


@pytest.mark.parametrize("bad", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_bad_array_is_rejected_naming_its_first_bad_element(case, bad):
    label, good, build = ARRAY_CASES[case]
    build(good)
    make, index = BAD_ARRAYS[bad]
    array = make(good)
    named = re.escape(repr(array.tolist()[index]))
    with pytest.raises(ValueError, match=rf"^{label}\[{index}\] must be a finite real in .*, got {named}$"):
        build(array)


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_bool_in_a_list_of_numbers_is_rejected_by_index(case):
    # np.asarray would read it as 1.0; the list's own element is what is judged
    label, good, build = ARRAY_CASES[case]
    build(good.tolist())
    for bool_ in (True, np.True_):
        listed = good.tolist()
        listed[1] = bool_
        with pytest.raises(ValueError, match=rf"^{label}\[1\] must be a finite real in .*, got {bool_!r}$"):
            build(listed)
