"""Atomic data loading, excitation rates, and virtual-qubit temperatures."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from thermolight import (
    AngularFrequency,
    BathSet,
    CoolingDrive,
    IonSpec,
    PopulationInversionError,
    Temperature,
    branching_fraction,
    cooling_rate_report,
    cycle_rate,
    excitation_rate,
    ground_state_occupation,
    load_ion,
    planck_energy_density,
    mean_occupation,
    virtual_temperature,
    virtual_temperature_room_limit,
)

C = 299792458.0
H = 6.62607015e-34
HBAR = H / (2.0 * math.pi)
KB = 1.380649e-23

WM = AngularFrequency(2.0 * math.pi * 1.0e6)


def test_bundled_ion_is_consistent():
    ion = load_ion("ba138p")
    assert "Ba+" in ion.name
    # level closure: the two optical transitions bracket the shelving one
    assert ion.omega1_rad_s + ion.omega2_rad_s == pytest.approx(ion.omega3_rad_s, rel=1e-12)
    lam2_nm = 2.0 * math.pi * C / ion.omega2_rad_s / 1e-9
    assert lam2_nm == pytest.approx(614.341, abs=0.01)
    assert 0.0 < ion.a_pd_driven < ion.a_pd_s < ion.a_ps_s
    assert ion.g_e == 4 and ion.g_g == 6
    assert branching_fraction(ion) == pytest.approx(
        ion.a_ps_s / (ion.a_ps_s + ion.a_pd_s), rel=1e-12
    )
    assert branching_fraction(ion) == pytest.approx(0.7417, abs=1e-4)


def test_ion_spec_round_trip_and_schema(tmp_path):
    ion = load_ion()
    d = json.loads(resources.files("thermolight.data").joinpath("ba138p.json").read_text("utf-8"))
    assert IonSpec.from_dict(d) == ion
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(d))
    assert load_ion(str(path)) == ion
    with pytest.raises(ValueError, match=r"^unknown atomic-data keys: \['surprise_key'\]$"):
        IonSpec.from_dict({**d, "surprise_key": 1.0})
    missing = dict(d)
    missing.pop("A_PS_s")
    missing.pop("g_g")
    with pytest.raises(ValueError, match=r"^missing atomic-data keys: \['A_PS_s', 'g_g'\]$"):
        IonSpec.from_dict(missing)
    # the keys of fields with a default may be left out
    bare = IonSpec.from_dict({k: v for k, v in d.items() if k not in ("A_PD_driven_s", "references")})
    assert (bare.a_pd_driven_s, bare.references, bare.a_pd_s) == (None, (), ion.a_pd_s)
    broken = dict(d)
    broken["omega3_rad_s"] = d["omega3_rad_s"] * 1.01  # closure violated
    with pytest.raises(ValueError):
        IonSpec.from_dict(broken)


def test_excitation_rate_formula():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        a = rng.uniform(1e6, 1e9)
        ge = int(rng.integers(1, 9))
        gg = int(rng.integers(1, 9))
        w = rng.uniform(1e15, 5e15)
        rho = rng.uniform(1e-20, 1e-12)
        want = math.pi ** 2 * C ** 3 / (HBAR * w ** 3) * (ge / gg) * a * rho
        assert excitation_rate(a, ge, gg, w, rho) == pytest.approx(want, rel=1e-12)


def test_excitation_rate_reduces_to_occupation():
    # with rho = eta G rho_Planck the rate is (g_e/g_g) A eta G n_bar
    rng = np.random.default_rng(1010)
    for _ in range(200):
        a = rng.uniform(1e7, 1e9)
        w = rng.uniform(1e15, 5e15)
        t = rng.uniform(1000.0, 10000.0)
        eta_g = rng.uniform(1e-6, 1e-3)
        rho = eta_g * planck_energy_density(w, t)
        want = (4.0 / 6.0) * a * eta_g * mean_occupation(w, t)
        assert excitation_rate(a, 4, 6, w, rho) == pytest.approx(want, rel=1e-10)


def test_cycle_rate_is_gamma_eta_sp_times_the_share_in_d():
    # p_D = p/(p + Gamma eta_SP tau_I): 1 at tau_I = 0, 0 at p = 0, 1/2 at tau_I = 1/(Gamma eta_SP)
    assert cycle_rate(10.0, 0.74, 0.0) == 10.0 * 0.74
    assert cycle_rate(10.0, 0.74, 0.0, transfer_prob=0.0) == 0.0
    assert cycle_rate(10.0, 0.74, 1.0 / 7.4) == pytest.approx(3.7, rel=1e-12)
    assert cycle_rate(10.0, 0.74, 1.0 / 7.4, transfer_prob=0.5) == pytest.approx(7.4 / 3.0, rel=1e-12)


def test_sunlight_cooling_report_regression():
    ion = load_ion()
    drive = CoolingDrive(eta_delivery=0.5, grayness=5e-5, omega_motion=WM)
    rep = cooling_rate_report(ion, drive, 5800.0)
    assert rep.mean_occupation_sun == pytest.approx(0.01795099054626637, rel=1e-12)
    assert rep.gamma == pytest.approx(11.057847935005228, rel=1e-12)
    assert rep.eta_sp == pytest.approx(0.7417, abs=1e-4)
    assert rep.phonon_rate == pytest.approx(-8.201605813393378, rel=1e-12)
    # a few phonons per second of cooling from a 5800 K source
    assert -10.0 < rep.phonon_rate < -6.0
    # a 1 ms sideband interval leaves the ion in D for p_D = 1/(1 + Gamma eta_SP tau_I) of the time
    slow = cooling_rate_report(ion, CoolingDrive(0.5, 5e-5, WM, step_duration_s=1e-3), 5800.0)
    assert slow.gamma == rep.gamma
    assert slow.phonon_rate == pytest.approx(rep.phonon_rate / (1.0 - 1e-3 * rep.phonon_rate), rel=1e-12)


def test_drive_validation():
    with pytest.raises(ValueError):
        CoolingDrive(eta_delivery=0.0, grayness=5e-5, omega_motion=WM)
    with pytest.raises(ValueError):
        CoolingDrive(eta_delivery=0.5, grayness=1.5, omega_motion=WM)
    with pytest.raises(ValueError):
        CoolingDrive(eta_delivery=0.5, grayness=5e-5, omega_motion=WM, step_duration_s=-0.1)


def test_virtual_temperature_equal_bath_fixed_point():
    ion = load_ion()
    for t in (77.0, 300.0, 456.78, 5800.0):
        baths = BathSet(Temperature(t), Temperature(t), Temperature(t))
        tv = virtual_temperature(ion, baths, WM)
        assert tv.kelvin == pytest.approx(t, rel=1e-12)


def test_virtual_temperature_all_thermal_limit():
    # both optical baths at T_s, ideal laser: T_V = (w_m / w_1) T_s
    ion = load_ion()
    t_s = 5800.0
    baths = BathSet(Temperature.infinite(), Temperature(t_s), Temperature(t_s))
    tv = virtual_temperature(ion, baths, WM)
    want = WM.rad_per_s / ion.omega1_rad_s * t_s
    assert tv.kelvin == pytest.approx(want, rel=1e-12)


def test_virtual_temperature_room_limit_value():
    ion = load_ion()
    tv = virtual_temperature_room_limit(ion, 300.0, WM)
    want = WM.rad_per_s / ion.omega3_rad_s * 300.0
    assert tv.kelvin == pytest.approx(want, rel=1e-12)
    assert tv.kelvin == pytest.approx(4.558463326360321e-07, rel=1e-9)


def test_virtual_temperature_monotonicity():
    ion = load_ion()
    laser = Temperature.infinite()
    cold = virtual_temperature(ion, BathSet(laser, Temperature(5800.0), Temperature(300.0)), WM)
    warm = virtual_temperature(ion, BathSet(laser, Temperature(3000.0), Temperature(300.0)), WM)
    assert cold.kelvin < warm.kelvin  # hotter broadband source cools deeper
    hot_room = virtual_temperature(
        ion, BathSet(laser, Temperature(5800.0), Temperature(350.0)), WM
    )
    assert hot_room.kelvin > cold.kelvin


def test_population_inversion_raises():
    ion = load_ion()
    baths = BathSet(Temperature.infinite(), Temperature(300.0), Temperature(6000.0))
    with pytest.raises(PopulationInversionError):
        virtual_temperature(ion, baths, WM)


def test_bath_validation():
    with pytest.raises(ValueError):
        BathSet(Temperature.infinite(), Temperature.infinite(), Temperature(300.0))
    with pytest.raises(ValueError):
        BathSet(Temperature.infinite(), Temperature(5800.0), Temperature.infinite())


def test_ground_state_occupation_deep_cooling():
    rep = ground_state_occupation(Temperature(4.558463326360321e-07), WM)
    x = HBAR * WM.rad_per_s / (KB * 4.558463326360321e-07)
    assert rep.n_exact == pytest.approx(1.0 / math.expm1(x), rel=1e-9)
    assert rep.n_wien == pytest.approx(math.exp(-x), rel=1e-9)
    assert math.log10(rep.n_exact) == pytest.approx(-45.72340797440479, abs=1e-9)
    assert rep.n_exact - rep.n_wien < 1e-60  # exact and Wien forms agree deep in the tail


def test_ground_state_occupation_warm_trap():
    rep = ground_state_occupation(Temperature(1.0e-3), WM)  # 1 mK
    assert rep.n_exact > 1.0  # far from the ground state
    assert rep.n_exact > rep.n_wien
