"""Occupation numbers, spectral densities, and peak locations against closed forms."""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from thermolight import (
    AngularFrequency,
    Temperature,
    mean_occupation,
    planck_energy_density,
    planck_irradiance,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    q1d_total_power,
    wien_peak,
)
from thermolight.radiometry import DENSITY_BAND_NM, ElementError, _peak_root, real_values

# CODATA 2018 exact defining constants, typed out here so the checks do
# not share a constants module with the implementation.
C = 299792458.0
H = 6.62607015e-34
HBAR = H / (2.0 * math.pi)
KB = 1.380649e-23

# positive root of (3 - x) e^x = 3
X3 = 2.8214393721220787
# positive root of (5 - x) e^x = 5
X5 = 4.965114231744276


def test_temperature_validation():
    for bad in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError):
            Temperature(bad)
    t = Temperature.infinite()
    assert t.is_infinite
    assert t.inverse_kelvin == 0.0
    assert t.beta == 0.0
    assert not Temperature(300.0).is_infinite


def test_angular_frequency_round_trip():
    w = AngularFrequency.from_wavelength_nm(614.341)
    assert w.wavelength_nm == pytest.approx(614.341, rel=1e-12)
    assert w.rad_per_s == pytest.approx(2.0 * math.pi * C / 614.341e-9, rel=1e-12)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            AngularFrequency(bad)
    with pytest.raises(ValueError):
        AngularFrequency.from_wavelength_nm(-400.0)


# wavelengths whose omega or per-wavelength Jacobian is not a finite double, for each conversion
UNCONVERTIBLE = {
    "from_wavelength_nm": (AngularFrequency.from_wavelength_nm, (5e-324, 1e-300)),
    "q1d_psd_per_wavelength": (lambda lam: q1d_psd_per_wavelength(lam, 5800.0), (5e-324, 1e-300, 1e-280, 1e300)),
    "planck_irradiance_per_wavelength": (lambda lam: planck_irradiance_per_wavelength(lam, 5800.0),
                                         (5e-324, 1e-300, 1e-280, 1e300)),
}


@pytest.mark.parametrize("call", sorted(UNCONVERTIBLE))
def test_an_unconvertible_scalar_wavelength_is_refused_by_name(call):
    convert, bad = UNCONVERTIBLE[call]
    for wavelength_nm in bad:
        with pytest.raises(ValueError, match="wavelength_nm"):
            convert(wavelength_nm)
    # the Jacobian stays finite down to 3.237e-141 nm and up to 1.3407e163 nm
    assert math.isfinite(q1d_psd_per_wavelength(3.237e-141, 5800.0))
    assert math.isfinite(q1d_psd_per_wavelength(1.3407e163, 5800.0))


# above this many rad/s (below 3.34e-85 nm) omega^3 of the Planck prefactor is not a finite double
CUBE_MAX = sys.float_info.max ** (1 / 3)

# (density, an argument where omega^3 overflows, the name its ValueError gives, a valid argument)
CUBE_OVERFLOWS = {
    "planck_irradiance_per_wavelength": (planck_irradiance_per_wavelength, 1e-100, "wavelength_nm", 500.0),
    "planck_irradiance": (planck_irradiance, 1e200, "omega", 3e15),
    "planck_radiance": (planck_radiance, 1e200, "omega", 3e15),
    "planck_energy_density": (planck_energy_density, 1e200, "omega", 3e15),
}


@pytest.mark.parametrize("name", sorted(CUBE_OVERFLOWS))
def test_a_planck_density_refuses_by_name_where_omega_cubed_overflows(name):
    density, bad, named, good = CUBE_OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            density(bad, 5800.0)
        with pytest.raises(ValueError):
            density(np.array([good, bad]), 5800.0)
        edge = DENSITY_BAND_NM[0] if named == "wavelength_nm" else CUBE_MAX
        assert density(edge, 5800.0) == 0.0  # the band's edge still evaluates, deep in the Wien tail
        assert density(np.array([edge]), 5800.0).tolist() == [0.0]


@pytest.mark.parametrize("density, band", [
    (q1d_psd_per_wavelength, (3.237e-141, 1.3407e163)),  # the Jacobian's range
    (planck_irradiance_per_wavelength, DENSITY_BAND_NM),  # where omega^3 is finite as well
], ids=["q1d", "planck"])
def test_an_array_of_wavelengths_is_refused_where_a_scalar_is(density, band):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-200, band[0] / 2.0, band[1] * 2.0, 1e300):
            with pytest.raises(ValueError, match="wavelength_nm"):
                density(bad, 5800.0)
            with pytest.raises(ValueError, match=rf"^wavelength_nm\[0\] must be .*, got {re.escape(repr(bad))}$"):
                density(np.array([bad, 500.0]), 5800.0)
        inside = [band[0], 500.0, band[1]]
        assert density(np.array(inside), 5800.0).tolist() == [density(x, 5800.0) for x in inside]


def test_real_values_returns_a_float_or_a_float64_array_copying_none():
    grid = np.linspace(400.0, 900.0, 5)
    assert real_values("grid", grid) is grid
    assert real_values("grid", np.arange(1, 4, dtype=np.int32)).dtype == np.float64
    assert type(real_values("grid", np.float32(2.0))) is float


def test_real_values_refusal_carries_the_index_of_the_element():
    with pytest.raises(ElementError, match=r"^grid\[2\] must be .*, got nan$") as info:
        real_values("grid", np.array([1.0, 2.0, math.nan, -1.0]))
    assert info.value.index == 2


@pytest.mark.parametrize("cls", [Temperature, AngularFrequency])
@pytest.mark.parametrize("value", [np.float32(300.0), np.int64(300), True], ids=["float32", "int64", "bool"])
def test_numpy_scalars_are_accepted_and_bools_rejected(cls, value):
    if isinstance(value, bool):
        with pytest.raises(ValueError):
            cls(value)
        return
    (stored,) = dataclasses.astuple(cls(value))
    assert type(stored) is float and stored == 300.0


def test_mean_occupation_formula():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        w = rng.uniform(1e14, 5e15)
        t = rng.uniform(10.0, 20000.0)
        x = HBAR * w / (KB * t)
        # past ~700 the -1 is invisible and expm1 itself overflows
        want = math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)
        assert mean_occupation(w, t) == pytest.approx(want, rel=1e-12)


def test_mean_occupation_classical_limit():
    # n -> kT/(hbar w) - 1/2 + x/12 for small x
    w, t = 1e10, 300.0
    x = HBAR * w / (KB * t)
    n = mean_occupation(w, t)
    assert abs(n - (1.0 / x - 0.5 + x / 12.0)) < x ** 2


def test_mean_occupation_deep_tail_positive():
    # beta hbar w ~ 1e4: value underflows but must stay finite, not raise
    w = AngularFrequency.from_wavelength_nm(455.53)
    n = mean_occupation(w, 3.0)
    assert n >= 0.0 and math.isfinite(n)
    s = q1d_psd(w, 3.0)
    assert s >= 0.0 and math.isfinite(s)


def test_q1d_psd_identity_and_polarizations():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        w = rng.uniform(2e14, 5e15)
        t = rng.uniform(100.0, 10000.0)
        n = 1.0 / math.expm1(HBAR * w / (KB * t))
        assert q1d_psd(w, t) == pytest.approx(HBAR * w / math.pi * n, rel=1e-12)
        assert q1d_psd(w, t, polarizations=1) == pytest.approx(
            0.5 * q1d_psd(w, t), rel=1e-12
        )
    with pytest.raises(ValueError):
        q1d_psd(3e15, 5800.0, polarizations=3)


def test_single_mode_psd_equals_radiance_times_lambda_squared():
    # S(w) = lambda^2 B(w): one mode's worth of blackbody radiance
    rng = np.random.default_rng(303)
    for _ in range(1000):
        w = rng.uniform(2e14, 5e15)
        t = rng.uniform(100.0, 10000.0)
        lam = 2.0 * math.pi * C / w
        assert q1d_psd(w, t) == pytest.approx(lam ** 2 * planck_radiance(w, t), rel=1e-12)


def test_planck_energy_density_closure():
    rng = np.random.default_rng(404)
    for _ in range(200):
        w = rng.uniform(2e14, 5e15)
        t = rng.uniform(100.0, 10000.0)
        assert planck_energy_density(w, t) == pytest.approx(
            4.0 * math.pi / C * planck_radiance(w, t), rel=1e-12
        )


def test_planck_irradiance_integrates_to_stefan_boltzmann():
    sigma = 2.0 * math.pi ** 5 * KB ** 4 / (15.0 * H ** 3 * C ** 2)
    for t in (300.0, 5800.0):
        w_t = KB * t / HBAR  # integrate over x = hbar w / (k_B T)
        total, _ = quad(lambda x: planck_irradiance(x * w_t, t) * w_t, 1e-6, 60.0, epsabs=0.0, epsrel=1e-12)
        assert total == pytest.approx(sigma * t ** 4, rel=1e-9)


def test_q1d_total_power_closed_form():
    for t in (300.0, 1000.0, 5800.0):
        want = math.pi * (KB * t) ** 2 / (6.0 * HBAR)
        assert q1d_total_power(t) == pytest.approx(want, rel=1e-12)
        assert q1d_total_power(t, polarizations=1) == pytest.approx(0.5 * want, rel=1e-12)
    with pytest.raises(ValueError):
        q1d_total_power(Temperature.infinite())


def test_per_wavelength_densities_jacobian():
    lam_nm, t = 700.0, 5800.0
    w = AngularFrequency.from_wavelength_nm(lam_nm)
    jac = 2.0 * math.pi * C / (lam_nm * 1e-9) ** 2 * 1e-9  # rad/s per nm
    assert q1d_psd_per_wavelength(lam_nm, t) == pytest.approx(q1d_psd(w, t) * jac, rel=1e-12)
    assert planck_irradiance_per_wavelength(lam_nm, t) == pytest.approx(
        math.pi * planck_radiance(w, t) * jac, rel=1e-12
    )


def test_wien_peak_locations_at_5800():
    t = 5800.0
    lam3 = H * C / (X3 * KB * t) / 1e-9
    lam5 = H * C / (X5 * KB * t) / 1e-9
    assert wien_peak("q1d_per_wavelength", t) == pytest.approx(lam3, rel=1e-9)
    assert wien_peak("planck_per_omega", t) == pytest.approx(lam3, rel=1e-9)
    assert wien_peak("planck_per_wavelength", t) == pytest.approx(lam5, rel=1e-9)
    assert abs(wien_peak("q1d_per_wavelength", t) - 879.21) < 0.01
    assert abs(wien_peak("planck_per_wavelength", t) - 499.62) < 0.01


@pytest.mark.parametrize("p", [3, 5])
def test_peak_root_residual_and_brentq(p):
    from scipy.optimize import brentq

    x = _peak_root(p)

    def residual(v):
        return abs((p - v) * math.exp(v) - p)

    # Near the root one ulp of x moves (p - x) e^x by about e^x ulp(x), so
    # the floor of the residual is a few ulp of p times e^x, and no
    # neighbouring double does better.
    assert residual(x) <= 2.0 * math.ulp(float(p)) * math.exp(x)
    assert residual(x) <= residual(math.nextafter(x, 0.0))
    assert residual(x) <= residual(math.nextafter(x, math.inf))
    ref = brentq(lambda v: (p - v) * math.exp(v) - p, 1.0, float(p), xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    assert x == pytest.approx(ref, rel=1e-15)


def test_wien_peak_monotone_family_has_none():
    assert wien_peak("q1d_per_omega", 5800.0) is None
    with pytest.raises(ValueError):
        wien_peak("bogus_family", 5800.0)


def test_wien_displacement_scaling():
    # peak wavelength times T is a constant of each family
    ref = wien_peak("planck_per_wavelength", 5800.0) * 5800.0
    for t in (3000.0, 8000.0, 12000.0):
        assert wien_peak("planck_per_wavelength", t) * t == pytest.approx(ref, rel=1e-12)


def test_per_wavelength_grid_peak_matches_analytic():
    t = 5800.0
    grid = np.linspace(600.0, 1200.0, 6001)
    vals = np.array([q1d_psd_per_wavelength(l, t) for l in grid])
    lam_grid = grid[int(np.argmax(vals))]
    assert abs(lam_grid - wien_peak("q1d_per_wavelength", t)) <= 0.1
