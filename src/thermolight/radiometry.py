"""Closed-form thermal radiation in three dimensions and in quasi-1D.

Conventions: angular frequency omega in rad/s throughout; spectral
densities per angular frequency unless a name says per_wavelength.
The quasi-1D power spectral density defaults to two polarizations.
The spectral functions take a scalar (and return a float) or an array (and
return an array) of frequencies or wavelengths, each element checked as a
scalar is (see real_values); temperature is scalar.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, K_B, NM, TWO_PI_C

# Smallest positive double; q1d_psd never returns below this so that
# ratios against it stay finite deep in the exponential tail.
_TINY = math.ulp(0.0)

# exp overflows above ~709; past this point 1/(e^x - 1) == e^-x exactly.
_EXP_CUT = 700.0

# Wavelengths in nm: from _SHORTEST_NM up, 2 pi c / lambda is a finite double; within _JACOBIAN_NM the
# Jacobian 2 pi c / lambda^2 of the per-wavelength densities is one too. Both bounds are closed.
_DBL_MAX = sys.float_info.max
_SHORTEST_NM = TWO_PI_C / _DBL_MAX / NM
_JACOBIAN_NM = (math.sqrt(TWO_PI_C / _DBL_MAX) / NM, math.sqrt(_DBL_MAX) / NM)
# omega^3 of the Planck prefactor is a finite double up to _CUBE_MAX rad/s. DENSITY_BAND_NM is the
# closed band, about [3.34e-85, 1.34e163] nm, in which the Jacobian is finite and omega stays within
# that: there every density's frequency factors and Jacobian are finite doubles.
_CUBE_MAX = _DBL_MAX ** (1 / 3)
DENSITY_BAND_NM = (TWO_PI_C / _CUBE_MAX / NM, _JACOBIAN_NM[1])


# Concrete types, not numbers.Real/Integral: an ABC isinstance costs about
# 1 us, and ensemble runs build a CycleConfig per member.
_REALS = (float, int, np.floating, np.integer)
_INTS = (int, np.integer)


def is_real(v) -> bool:
    """True for a real number, Python's or numpy's; a bool is not a quantity."""
    return isinstance(v, _REALS) and type(v) is not bool


class ElementError(ValueError):
    """A refusal of one element of an array; index is its position in C order."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def real_value(label: str, v, lo: float = 0.0, hi: float = math.inf, *, open_lo: bool = True) -> float:
    """v as a float if it is a finite real in (lo, hi], or in [lo, hi] when open_lo is False."""
    try:
        if is_real(v) and math.isfinite(v) and (v > lo if open_lo else v >= lo) and v <= hi:
            return float(v)
    except OverflowError:  # an int too large for a float
        pass
    interval = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{']' if hi < math.inf else ')'}"
    raise ValueError(f"{label} must be a finite real in {interval}, got {v!r}")


def real_values(label: str, v, lo: float = 0.0, hi: float = math.inf, *, open_lo: bool = True):
    """real_value for a scalar; an array, as float64 and uncopied if it is float64, if each element passes real_value.

    An array of bools, complex numbers, strings or objects fails whatever it holds, and so does a bool in a
    sequence of numbers. A refusal names the first element that fails as label[i], i its index in C order, in
    an ElementError carrying i.
    """
    if not np.ndim(v):
        return real_value(label, v, lo, hi, open_lo=open_lo)
    a = np.asarray(v)
    items = v if isinstance(v, np.ndarray) else np.asarray(v, dtype=object)  # asarray reads a listed bool as 0 or 1
    if a.dtype.kind in "fiu":
        a = a.astype(float, copy=False)
        bad = ~(np.isfinite(a) & (a > lo if open_lo else a >= lo) & (a <= hi))
        if items.dtype == object:
            bad |= ~np.frompyfunc(is_real, 1, 1)(items).astype(bool)
    else:
        bad = np.ones(a.shape, dtype=bool)
    if bad.any():
        i = int(bad.argmax())
        try:
            real_value(f"{label}[{i}]", items.item(i), lo, hi, open_lo=open_lo)  # raises, unless an object holds a real
        except ValueError as exc:
            raise ElementError(str(exc), i) from None
        raise ValueError(f"{label} must be an array of real numbers, got one of dtype {a.dtype}")
    return a.astype(float, copy=False)


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
        return cls(TWO_PI_C / (real_value("wavelength_nm", wavelength_nm, _SHORTEST_NM, open_lo=False) * NM))

    @property
    def wavelength_m(self) -> float:
        return TWO_PI_C / self.rad_per_s

    @property
    def wavelength_nm(self) -> float:
        return self.wavelength_m / NM


def omega_value(omega: "AngularFrequency | float") -> float:
    """Validated rad/s of an AngularFrequency or a number."""
    return omega.rad_per_s if isinstance(omega, AngularFrequency) else AngularFrequency(omega).rad_per_s


def as_temperature(t: "Temperature | float") -> Temperature:
    return t if isinstance(t, Temperature) else Temperature(t)


def domega_dlambda(wavelength_nm):
    """|d omega / d lambda| = 2 pi c / lambda^2, in rad/s per nm."""
    return TWO_PI_C / (wavelength_nm * NM) ** 2 * NM


def _omegas(omega, hi: float = math.inf):
    """Validated rad/s at most hi: an AngularFrequency's, or a number's or an array's through real_values."""
    return real_values("omega", omega.rad_per_s if isinstance(omega, AngularFrequency) else omega, hi=hi)


def _omega_and_jacobian(wavelength_nm, band: tuple):
    """omega in rad/s and |d omega / d lambda| in rad/s per nm at wavelengths refused outside the closed band."""
    lam = real_values("wavelength_nm", wavelength_nm, *band, open_lo=False)
    return TWO_PI_C / (lam * NM), domega_dlambda(lam)


def _kernel(w, prefactor, scale: float = 1.0, jac=1.0, floor: float = 0.0):
    """beta = 1/(k_B T) -> max(scale * (prefactor * n), floor) * jac, n = 1/(e^x - 1) at x = hbar w beta.

    n is e^-x past _EXP_CUT, where e^x would overflow, and inf at x = 0. The caller validates w and
    computes the grid factors, once; a scalar w gives a float.
    """
    hw = HBAR * w

    def density(beta):
        x = hw * beta
        with np.errstate(divide="ignore", over="ignore"):
            n = np.where(x > _EXP_CUT, np.exp(-x), 1.0 / np.expm1(x))
        d = np.maximum(scale * (prefactor * n), floor) * jac
        return d if np.ndim(d) else float(d)
    return density


def mean_occupation(omega, temperature: "Temperature | float"):
    """Bose-Einstein occupation of a mode at omega in a bath at T.

    Diverges (returns inf) for the infinite-temperature sentinel and
    underflows to exactly 0.0 deep in the exponential tail.
    """
    return _kernel(_omegas(omega), 1.0)(as_temperature(temperature).beta)


def _planck_kernel(scale: float, w, jac=1.0):
    """scale * B_omega * jac as a kernel of beta; scale is 1.0 for the radiance B and pi for the exitance."""
    return _kernel(w, HBAR * w ** 3 / (4.0 * math.pi ** 3 * C ** 2), scale, jac)


def planck_radiance(omega, temperature: "Temperature | float"):
    """Blackbody spectral radiance per angular frequency.

    Units W m^-2 sr^-1 (rad/s)^-1.
    """
    return _planck_kernel(1.0, _omegas(omega, _CUBE_MAX))(as_temperature(temperature).beta)


def planck_irradiance(omega, temperature: "Temperature | float"):
    """Blackbody spectral exitance pi * B_omega, W m^-2 (rad/s)^-1."""
    return _planck_kernel(math.pi, _omegas(omega, _CUBE_MAX))(as_temperature(temperature).beta)


def planck_energy_density(omega, temperature: "Temperature | float"):
    """Isotropic blackbody energy density per angular frequency, J m^-3 (rad/s)^-1.

    Equals (4 pi / c) * planck_radiance.
    """
    w = _omegas(omega, _CUBE_MAX)
    return _kernel(w, HBAR * w ** 3 / (math.pi ** 2 * C ** 3))(as_temperature(temperature).beta)


def _q1d_kernel(polarizations: int, w, jac=1.0):
    """q1d_psd * jac as a kernel of beta, floored at the smallest positive double; jac as in _kernel."""
    pol = int_value("polarizations", polarizations, 1, 3)
    return _kernel(w, (pol / 2.0) * (HBAR * w / math.pi), jac=jac, floor=_TINY)


def q1d_psd(omega, temperature: "Temperature | float", polarizations: int = 2):
    """Thermal power spectral density guided in a single transverse mode.

    Units W s/rad (power per angular-frequency interval). With two
    polarizations S(omega) = (hbar omega / pi) / (e^{beta hbar omega} - 1);
    one polarization carries half that. The return value is floored at the
    smallest positive double so the deep Wien tail stays positive.
    """
    return _q1d_kernel(polarizations, _omegas(omega))(as_temperature(temperature).beta)


def q1d_total_power(temperature: "Temperature | float", polarizations: int = 2) -> float:
    """Frequency-integrated single-mode thermal power, pi (k_B T)^2 / (6 hbar) for two polarizations."""
    pol = int_value("polarizations", polarizations, 1, 3)
    t = as_temperature(temperature)
    if t.is_infinite:
        raise ValueError("integrated power diverges at infinite temperature")
    return (pol / 2.0) * math.pi * (K_B * t.kelvin) ** 2 / (6.0 * HBAR)


def q1d_psd_per_wavelength_on_grid(wavelength_nm, polarizations: int = 2):
    """q1d_psd_per_wavelength at these wavelengths as a function of beta = 1/(k_B T), validated once."""
    return _q1d_kernel(polarizations, *_omega_and_jacobian(wavelength_nm, _JACOBIAN_NM))


def planck_irradiance_per_wavelength_on_grid(wavelength_nm):
    """planck_irradiance_per_wavelength at these wavelengths as a function of beta, validated once."""
    return _planck_kernel(math.pi, *_omega_and_jacobian(wavelength_nm, DENSITY_BAND_NM))


def q1d_psd_per_wavelength(wavelength_nm, temperature: "Temperature | float", polarizations: int = 2):
    """Single-mode thermal PSD expressed per wavelength interval, W/nm."""
    return q1d_psd_per_wavelength_on_grid(wavelength_nm, polarizations)(as_temperature(temperature).beta)


def planck_irradiance_per_wavelength(wavelength_nm, temperature: "Temperature | float"):
    """Blackbody spectral exitance pi * B_lambda, W m^-2 nm^-1."""
    return planck_irradiance_per_wavelength_on_grid(wavelength_nm)(as_temperature(temperature).beta)


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
