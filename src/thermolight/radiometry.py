"""Closed-form thermal radiation in three dimensions and in quasi-1D.

Conventions: angular frequency omega in rad/s throughout; spectral
densities per angular frequency unless a name says per_wavelength.
The quasi-1D power spectral density defaults to two polarizations.
The spectral functions take a scalar (and return a float) or an array of
frequencies or wavelengths (and return an array); temperature is scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, K_B, NM, TWO_PI_C

# Smallest positive double; q1d_psd never returns below this so that
# ratios against it stay finite deep in the exponential tail.
_TINY = math.ulp(0.0)

# exp overflows above ~709; past this point 1/(e^x - 1) == e^-x exactly.
_EXP_CUT = 700.0


# Concrete types, not numbers.Real/Integral: an ABC isinstance costs about
# 1 us, and ensemble runs build a CycleConfig per member.
_REALS = (float, int, np.floating, np.integer)
_INTS = (int, np.integer)


def is_real(v) -> bool:
    """True for a real number, Python's or numpy's; a bool is not a quantity."""
    return isinstance(v, _REALS) and type(v) is not bool


def real_value(label: str, v, lo: float = 0.0, hi: float = math.inf, *, open_lo: bool = True) -> float:
    """v as a float if it is a finite real in (lo, hi], or in [lo, hi] when open_lo is False."""
    try:
        if is_real(v) and math.isfinite(v) and (v > lo if open_lo else v >= lo) and v <= hi:
            return float(v)
    except OverflowError:  # an int too large for a float
        pass
    interval = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{']' if hi < math.inf else ')'}"
    raise ValueError(f"{label} must be a finite real in {interval}, got {v!r}")


def int_value(label: str, v, lo: int = 0, hi: "int | float" = math.inf) -> int:
    """v as an int if it is an integer, Python's or numpy's, with lo <= v < hi."""
    if isinstance(v, _INTS) and type(v) is not bool and lo <= v < hi:
        return int(v)
    raise ValueError(f"{label} must be an integer in [{lo}, {hi}), got {v!r}")


@dataclass(frozen=True)
class Temperature:
    """Absolute temperature. kelvin > 0, or math.inf for a laser bath."""

    kelvin: float

    def __post_init__(self):
        k = self.kelvin
        if not is_real(k) or math.isnan(k) or k <= 0.0:
            raise ValueError(f"temperature must be positive, got {k!r}")
        object.__setattr__(self, "kelvin", float(k))

    @classmethod
    def infinite(cls) -> "Temperature":
        return cls(math.inf)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.kelvin)

    @property
    def inverse_kelvin(self) -> float:
        """1/T in 1/K; exactly 0.0 for the infinite sentinel."""
        return 0.0 if self.is_infinite else 1.0 / self.kelvin

    @property
    def beta(self) -> float:
        """1/(k_B T) in 1/J; exactly 0.0 for the infinite sentinel."""
        return 0.0 if self.is_infinite else 1.0 / (K_B * self.kelvin)


@dataclass(frozen=True)
class AngularFrequency:
    """Angular frequency in rad/s, finite and positive."""

    rad_per_s: float

    def __post_init__(self):
        object.__setattr__(self, "rad_per_s", real_value("angular frequency", self.rad_per_s))

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float) -> "AngularFrequency":
        return cls(TWO_PI_C / (real_value("wavelength_nm", wavelength_nm) * NM))

    @property
    def wavelength_m(self) -> float:
        return TWO_PI_C / self.rad_per_s

    @property
    def wavelength_nm(self) -> float:
        return self.wavelength_m / NM


def _positive_array(values, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise ValueError(f"{what} must be finite and positive")
    return a


def omega_value(omega: "AngularFrequency | float | np.ndarray"):
    """Validated rad/s: a float for an AngularFrequency or a number, a float array for an array."""
    if isinstance(omega, AngularFrequency):
        return omega.rad_per_s
    if np.ndim(omega):
        return _positive_array(omega, "angular frequencies")
    return AngularFrequency(omega).rad_per_s


def as_temperature(t: "Temperature | float") -> Temperature:
    return t if isinstance(t, Temperature) else Temperature(t)


def domega_dlambda(wavelength_nm):
    """|d omega / d lambda| = 2 pi c / lambda^2, in rad/s per nm."""
    return TWO_PI_C / (wavelength_nm * NM) ** 2 * NM


def _wavelength_and_omega(wavelength_nm):
    """Validated wavelength(s) in nm and the matching omega in rad/s."""
    if np.ndim(wavelength_nm):
        lam = _positive_array(wavelength_nm, "wavelengths")
        return lam, TWO_PI_C / (lam * NM)
    return float(wavelength_nm), AngularFrequency.from_wavelength_nm(wavelength_nm).rad_per_s


def _bose(x):
    """1/(e^x - 1) elementwise for x >= 0, with overflow guard; inf at x == 0."""
    with np.errstate(divide="ignore", over="ignore"):
        n = np.where(x > _EXP_CUT, np.exp(-x), 1.0 / np.expm1(x))
    return n if np.ndim(x) else float(n)


def mean_occupation(omega, temperature: "Temperature | float"):
    """Bose-Einstein occupation of a mode at omega in a bath at T.

    Diverges (returns inf) for the infinite-temperature sentinel and
    underflows to exactly 0.0 deep in the exponential tail.
    """
    return _bose(HBAR * omega_value(omega) * as_temperature(temperature).beta)


def planck_radiance(omega, temperature: "Temperature | float"):
    """Blackbody spectral radiance per angular frequency.

    Units W m^-2 sr^-1 (rad/s)^-1.
    """
    w = omega_value(omega)
    return HBAR * w ** 3 / (4.0 * math.pi ** 3 * C ** 2) * mean_occupation(w, temperature)


def planck_energy_density(omega, temperature: "Temperature | float"):
    """Isotropic blackbody energy density per angular frequency, J m^-3 (rad/s)^-1.

    Equals (4 pi / c) * planck_radiance.
    """
    w = omega_value(omega)
    return HBAR * w ** 3 / (math.pi ** 2 * C ** 3) * mean_occupation(w, temperature)


def q1d_psd(omega, temperature: "Temperature | float", polarizations: int = 2):
    """Thermal power spectral density guided in a single transverse mode.

    Units W s/rad (power per angular-frequency interval). With two
    polarizations S(omega) = (hbar omega / pi) / (e^{beta hbar omega} - 1);
    one polarization carries half that. The return value is floored at the
    smallest positive double so the deep Wien tail stays positive.
    """
    pol = int_value("polarizations", polarizations, 1, 3)
    w = omega_value(omega)
    s = (pol / 2.0) * (HBAR * w / math.pi) * mean_occupation(w, temperature)
    return np.maximum(s, _TINY) if np.ndim(s) else max(s, _TINY)


def q1d_total_power(temperature: "Temperature | float", polarizations: int = 2) -> float:
    """Frequency-integrated single-mode thermal power, pi (k_B T)^2 / (6 hbar) for two polarizations."""
    pol = int_value("polarizations", polarizations, 1, 3)
    t = as_temperature(temperature)
    if t.is_infinite:
        raise ValueError("integrated power diverges at infinite temperature")
    return (pol / 2.0) * math.pi * (K_B * t.kelvin) ** 2 / (6.0 * HBAR)


def q1d_psd_per_wavelength(wavelength_nm, temperature: "Temperature | float", polarizations: int = 2):
    """Single-mode thermal PSD expressed per wavelength interval, W/nm."""
    lam, w = _wavelength_and_omega(wavelength_nm)
    return q1d_psd(w, temperature, polarizations) * domega_dlambda(lam)


def planck_irradiance_per_wavelength(wavelength_nm, temperature: "Temperature | float"):
    """Blackbody spectral exitance pi * B_lambda, W m^-2 nm^-1."""
    lam, w = _wavelength_and_omega(wavelength_nm)
    return math.pi * planck_radiance(w, temperature) * domega_dlambda(lam)


@lru_cache(maxsize=None)
def _peak_root(p: int) -> float:
    """Positive root of (p - x) e^x = p, the stationary point of x^p/(e^x - 1).

    The root is x = p + W0(-p e^-p) (Corless et al. 1996). Newton's method on
    (p - x) e^x - p, which is concave and decreasing for x > p - 1, falls
    monotonically onto it from x = p; for p = 3 and 5 it reaches its fixed
    point within six steps.
    """
    x = float(p)
    for _ in range(8):
        e = math.exp(x)
        x -= ((p - x) * e - p) / ((p - x - 1.0) * e)
    return x


_WIEN_EXPONENT = {
    # distribution family -> power p in x^p / (e^x - 1), or None if monotone
    "q1d_per_omega": None,        # hbar omega n(omega): no interior maximum
    "q1d_per_wavelength": 3,
    "planck_per_omega": 3,
    "planck_per_wavelength": 5,
}


def wien_peak(family: str, temperature: "Temperature | float") -> "float | None":
    """Peak wavelength in nm of a thermal spectral family, or None if monotone.

    Families: 'q1d_per_omega', 'q1d_per_wavelength', 'planck_per_omega',
    'planck_per_wavelength'. For per-omega families the returned value is
    the wavelength of the peak angular frequency.
    """
    if family not in _WIEN_EXPONENT:
        raise ValueError(f"unknown spectral family {family!r}; expected one of {sorted(_WIEN_EXPONENT)}")
    t = as_temperature(temperature)
    if t.is_infinite:
        raise ValueError("peak wavelength is undefined at infinite temperature")
    p = _WIEN_EXPONENT[family]
    if p is None:
        return None
    x = _peak_root(p)
    if family.endswith("per_omega"):
        w_pk = x / (HBAR * t.beta)
        return TWO_PI_C / w_pk / NM
    # per-wavelength: x = beta h c / lambda at the peak
    return HBAR * t.beta * TWO_PI_C / x / NM
