"""Atomic excitation rates and multi-bath virtual-qubit thermodynamics.

A three-level ion (S, D, P) is driven on S-D by a red-sideband laser, on
D-P by broadband thermal light, and relaxes on P-S into room-temperature
vacuum modes. The three baths define a virtual qubit at the trap frequency
whose temperature bounds the achievable motional temperature.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from importlib import resources

from .constants import C, HBAR
from .radiometry import (
    AngularFrequency,
    Temperature,
    as_temperature,
    int_value,
    mean_occupation,
    omega_value,
    planck_energy_density,
    real_value,
)


class PopulationInversionError(ValueError):
    """Raised when the bath combination yields no cooling (inverted virtual qubit)."""


@dataclass(frozen=True)
class IonSpec:
    """Three-level ion data: S-D at omega1, D-P at omega2, S-P at omega3.

    a_ps_s and a_pd_s are the Einstein A rates out of P back to S and down
    to the D manifold (aggregate). a_pd_driven_s, when given, is the partial
    rate of the specific D-P transition being driven; it defaults to the
    aggregate. g_e/g_g are the degeneracies of the driven transition.
    """

    name: str
    omega1_rad_s: float
    omega2_rad_s: float
    omega3_rad_s: float
    a_ps_s: float
    a_pd_s: float
    g_e: int
    g_g: int
    a_pd_driven_s: "float | None" = None
    references: tuple = ()

    def __post_init__(self):
        for label in ("omega1_rad_s", "omega2_rad_s", "omega3_rad_s", "a_ps_s", "a_pd_s"):
            object.__setattr__(self, label, real_value(label, getattr(self, label)))
        closure = abs(self.omega1_rad_s + self.omega2_rad_s - self.omega3_rad_s)
        if closure > 1e-6 * self.omega3_rad_s:
            raise ValueError(
                f"level closure violated: |omega1 + omega2 - omega3| = {closure:.3g} rad/s"
            )
        for label in ("g_e", "g_g"):
            object.__setattr__(self, label, int_value(label, getattr(self, label), 1))
        if self.a_pd_driven_s is not None:
            v = real_value("a_pd_driven_s", self.a_pd_driven_s, hi=self.a_pd_s)
            object.__setattr__(self, "a_pd_driven_s", v)
        refs = self.references
        if not (isinstance(refs, (list, tuple)) and all(isinstance(r, str) for r in refs)):
            raise ValueError(f"references must be a list of strings, got {refs!r}")
        object.__setattr__(self, "references", tuple(refs))

    @property
    def a_pd_driven(self) -> float:
        return self.a_pd_s if self.a_pd_driven_s is None else self.a_pd_driven_s

    # -- JSON schema mapping --------------------------------------------

    _SCHEMA = {
        "name": "name",
        "omega1_rad_s": "omega1_rad_s",
        "omega2_rad_s": "omega2_rad_s",
        "omega3_rad_s": "omega3_rad_s",
        "A_PS_s": "a_ps_s",
        "A_PD_s": "a_pd_s",
        "A_PD_driven_s": "a_pd_driven_s",
        "g_e": "g_e",
        "g_g": "g_g",
        "references": "references",
    }

    @classmethod
    def from_dict(cls, d: dict) -> "IonSpec":
        if not isinstance(d, dict):
            raise ValueError(f"atomic data must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls._SCHEMA)
        if unknown:
            raise ValueError(f"unknown atomic-data keys: {sorted(unknown)}")
        required = {"name", "omega1_rad_s", "omega2_rad_s", "omega3_rad_s", "A_PS_s", "A_PD_s", "g_e", "g_g"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"missing atomic-data keys: {sorted(missing)}")
        return cls(**{cls._SCHEMA[k]: v for k, v in d.items()})

    def to_dict(self) -> dict:
        back = {v: k for k, v in self._SCHEMA.items()}
        d = {}
        for field_name, key in back.items():
            v = getattr(self, field_name)
            if field_name == "a_pd_driven_s" and v is None:
                continue
            d[key] = list(v) if field_name == "references" else v
        return d

    @classmethod
    def from_json_file(cls, path) -> "IonSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def load_ion(name_or_path: str = "ba138p") -> IonSpec:
    """Load atomic data from a JSON file path or a bundled data-set name."""
    if os.path.exists(name_or_path):
        return IonSpec.from_json_file(name_or_path)
    try:
        text = resources.files("thermolight.data").joinpath(f"{name_or_path}.json").read_text("utf-8")
    except FileNotFoundError:
        raise ValueError(f"no bundled atomic data named {name_or_path!r} and no such file") from None
    return IonSpec.from_dict(json.loads(text))


@dataclass(frozen=True)
class BathSet:
    """The three thermal environments: laser (possibly infinite), sun, room."""

    t_laser: Temperature
    t_sun: Temperature
    t_room: Temperature

    def __post_init__(self):
        for label in ("t_laser", "t_sun", "t_room"):
            object.__setattr__(self, label, as_temperature(getattr(self, label)))
        if self.t_sun.is_infinite or self.t_room.is_infinite:
            raise ValueError("sun and room temperatures must be finite")


@dataclass(frozen=True)
class CoolingDrive:
    """Delivered-light parameters for the rate estimate."""

    eta_delivery: float   # fiber + optics delivery efficiency, (0, 1]
    grayness: float       # geometric grayness G, (0, 1]
    omega_motion: AngularFrequency
    p_d: float = 1.0      # probability of sitting in D when step II light arrives

    def __post_init__(self):
        object.__setattr__(self, "eta_delivery", real_value("eta_delivery", self.eta_delivery, hi=1.0))
        object.__setattr__(self, "grayness", real_value("grayness", self.grayness, hi=1.0))
        object.__setattr__(self, "p_d", real_value("p_d", self.p_d, 0.0, 1.0, open_lo=False))
        object.__setattr__(self, "omega_motion", AngularFrequency(omega_value(self.omega_motion)))


def branching_fraction(ion: IonSpec) -> float:
    """Probability that a P-state decay lands in S rather than D."""
    return ion.a_ps_s / (ion.a_ps_s + ion.a_pd_s)


def excitation_rate(a_eg: float, g_e: int, g_g: int, omega_eg, rho: float) -> float:
    """Einstein-rate excitation Gamma = (pi^2 c^3 / hbar omega^3) (g_e/g_g) A_eg rho.

    rho is the isotropic spectral energy density at the transition frequency,
    J m^-3 (rad/s)^-1.
    """
    a_eg = real_value("a_eg", a_eg)
    g_ratio = int_value("g_e", g_e, 1) / int_value("g_g", g_g, 1)
    rho = real_value("rho", rho, open_lo=False)
    return (math.pi ** 2 * C ** 3) / (HBAR * omega_value(omega_eg) ** 3) * g_ratio * a_eg * rho


def phonon_cooling_rate(gamma: float, p_d: float, eta_sp: float) -> float:
    """Cycle-averaged phonon rate -Gamma p_D eta_SP; negative means cooling."""
    gamma = real_value("gamma", gamma, open_lo=False)
    p_d = real_value("p_d", p_d, 0.0, 1.0, open_lo=False)
    eta_sp = real_value("eta_sp", eta_sp, 0.0, 1.0, open_lo=False)
    return -gamma * p_d * eta_sp


@dataclass(frozen=True)
class CoolingRateReport:
    mean_occupation_sun: float
    energy_density: float     # J m^-3 (rad/s)^-1 delivered at omega2
    gamma: float              # D -> P excitation rate, 1/s
    gamma_over_a_pd: float    # the linear rate below assumes this is << 1
    eta_sp: float
    phonon_rate: float        # phonon/s, negative = cooling


def cooling_rate_report(ion: IonSpec, drive: CoolingDrive, t_sun: "Temperature | float") -> CoolingRateReport:
    """Full estimate chain: delivered energy density -> excitation -> phonon rate.

    Warns when Gamma/A_PD exceeds 0.1: the linear Einstein rate holds only
    while excitation is much slower than the decay it competes with.
    """
    t = as_temperature(t_sun)
    w2 = AngularFrequency(ion.omega2_rad_s)
    rho = drive.eta_delivery * drive.grayness * planck_energy_density(w2, t)
    gamma = excitation_rate(ion.a_pd_driven, ion.g_e, ion.g_g, w2, rho)
    eta_sp = branching_fraction(ion)
    ratio = gamma / ion.a_pd_s
    if ratio > 0.1:
        warnings.warn(f"Gamma/A_PD = {ratio:.3g} > 0.1: outside the linear regime Gamma << A_PD "
                      "that the phonon rate assumes", stacklevel=2)
    return CoolingRateReport(
        mean_occupation_sun=mean_occupation(w2, t),
        energy_density=rho,
        gamma=gamma,
        gamma_over_a_pd=ratio,
        eta_sp=eta_sp,
        phonon_rate=phonon_cooling_rate(gamma, drive.p_d, eta_sp),
    )


def virtual_temperature(ion: IonSpec, baths: BathSet, omega_motion) -> Temperature:
    """Temperature of the virtual qubit at the trap frequency.

    T_V = omega_motion / (omega3/T_room - omega2/T_sun - omega_l/T_laser)
    with omega_l = omega1 - omega_motion the red-sideband laser frequency.
    The denominator is evaluated with the level closure omega1 = omega3 -
    omega2 substituted, so equal baths cancel term-by-term and the fixed
    point T_V = T holds to rounding. Infinite baths contribute zero.
    """
    wm = omega_value(omega_motion)
    if wm >= ion.omega1_rad_s:
        raise ValueError("motional frequency must be far below the S-D splitting")
    inv_l = baths.t_laser.inverse_kelvin
    inv_s = baths.t_sun.inverse_kelvin
    inv_r = baths.t_room.inverse_kelvin
    # omega3/T3 - omega2/T2 - (omega3 - omega2 - wm)/Tl, grouped for exact cancellation
    denom = ion.omega3_rad_s * (inv_r - inv_l) - ion.omega2_rad_s * (inv_s - inv_l) + wm * inv_l
    if denom <= 0.0:
        raise PopulationInversionError(
            "no cooling: bath combination population-inverts the virtual qubit"
        )
    return Temperature(wm / denom)


def virtual_temperature_room_limit(ion: IonSpec, t_room: "Temperature | float", omega_motion) -> Temperature:
    """Scaled-room-temperature limit (omega_motion/omega3) T_room.

    The limit of virtual_temperature for an infinite laser bath and
    omega2/T_sun << omega3/T_room; the practical floor for sideband
    cooling in a room-temperature chamber.
    """
    t = as_temperature(t_room)
    if t.is_infinite:
        raise ValueError("room temperature must be finite")
    return Temperature(omega_value(omega_motion) / ion.omega3_rad_s * t.kelvin)


@dataclass(frozen=True)
class OccupationReport:
    n_exact: float          # Bose factor 1/(e^x - 1)
    n_wien: float           # e^-x approximation
    difference: float       # n_exact - n_wien


def ground_state_occupation(t_v: "Temperature | float", omega_motion) -> OccupationReport:
    """Motional occupation at the virtual temperature, exact and Wien-approximated."""
    t = as_temperature(t_v)
    wm = omega_value(omega_motion)
    n_exact = mean_occupation(wm, t)
    x = HBAR * wm * t.beta
    n_wien = math.exp(-x) if x < 745.0 else 0.0
    return OccupationReport(n_exact=n_exact, n_wien=n_wien, difference=n_exact - n_wien)
