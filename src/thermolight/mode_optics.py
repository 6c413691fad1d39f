"""Single-mode beam geometry: mode area, solid angle, grayness, focusing.

A single transverse mode has etendue A(omega) * Omega(omega) = lambda^2.
Fixing either the divergence solid angle or the focal area pins the other.
A Gaussian focus is checked against the paraxial limit: a divergence half
angle above 0.1 rad warns, one above 0.3 rad is refused.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C, NM, TWO_PI_C
from .radiometry import omega_value, real_value

_FOUR_PI = 4.0 * math.pi

# regime -> the fields it takes besides regime and band_nm
_REGIME_FIELDS = {
    "constant_divergence": ("omega0_sr",),
    "constant_area": ("area_m2",),
}


@dataclass(frozen=True)
class FiberModeModel:
    """How the collected mode's area varies with frequency, over a validity band.

    regime 'constant_divergence': solid angle omega0_sr is frequency
    independent, A = lambda^2 / omega0_sr. regime 'constant_area': A is
    fixed at area_m2. band_nm bounds the wavelengths the model may be
    evaluated at. A model leaves the other regime's field None; it holds
    band_nm as a tuple, so it compares and hashes by value.
    """

    regime: str
    band_nm: tuple
    omega0_sr: "float | None" = None
    area_m2: "float | None" = None

    def __post_init__(self):
        if not isinstance(self.regime, str) or self.regime not in _REGIME_FIELDS:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {tuple(_REGIME_FIELDS)}")
        stray = [name for regime, names in _REGIME_FIELDS.items() if regime != self.regime
                 for name in names if getattr(self, name) is not None]
        if stray:
            raise ValueError(f"regime {self.regime!r} takes no {', '.join(stray)}")
        if np.ndim(np.asarray(self.band_nm, dtype=object)) != 1:  # an array among the bounds is one element
            raise ValueError(f"band_nm must be a list of numbers, got {self.band_nm!r}")
        band = tuple(real_value("band_nm", v) for v in self.band_nm)
        if len(band) != 2 or not band[0] < band[1]:
            raise ValueError(f"band_nm must be (lo, hi) with 0 < lo < hi, got {self.band_nm!r}")
        object.__setattr__(self, "band_nm", band)
        if self.regime == "constant_divergence":
            object.__setattr__(self, "omega0_sr", real_value("omega0_sr", self.omega0_sr, hi=_FOUR_PI))
        else:
            object.__setattr__(self, "area_m2", real_value("area_m2", self.area_m2))

    def _check_band(self, wavelength_nm: float) -> None:
        lo, hi = self.band_nm
        if not (lo <= wavelength_nm <= hi):
            raise ValueError(
                f"wavelength {wavelength_nm:.6g} nm outside model band [{lo:.6g}, {hi:.6g}] nm"
            )


def mode_area(model: FiberModeModel, omega) -> float:
    """Mode area A(omega) in m^2 under the model's regime."""
    lam = TWO_PI_C / omega_value(omega)
    model._check_band(lam / NM)
    return lam ** 2 / model.omega0_sr if model.regime == "constant_divergence" else model.area_m2


def mode_solid_angle(model: FiberModeModel, omega) -> float:
    """Diffraction solid angle Omega = lambda^2 / A, in sr; capped at 4*pi."""
    lam = TWO_PI_C / omega_value(omega)
    solid = lam ** 2 / mode_area(model, omega)
    if solid > _FOUR_PI:
        raise ValueError(
            f"mode solid angle {solid:.4g} sr exceeds 4*pi; area below the diffraction limit"
        )
    return solid


def top_hat_area(waist_m: float) -> float:
    """Effective top-hat area pi w0^2 / 2 of a Gaussian focus with waist w0."""
    return math.pi * real_value("waist_m", waist_m) ** 2 / 2.0


def _diffraction_area(omega) -> float:
    """lambda^2 / (4 pi), the smallest area a single mode can be focused to."""
    return (TWO_PI_C / omega_value(omega)) ** 2 / _FOUR_PI


def grayness(area_m2: float, omega) -> float:
    """Geometric grayness G = (lambda^2 / 4 pi) / A, in (0, 1].

    The fraction of the full 4*pi étendue that a single mode focused to
    area A subtends. G > 1 would mean a sub-diffraction-limited area.
    """
    area_m2 = real_value("area_m2", area_m2)
    g = _diffraction_area(omega) / area_m2
    if g > 1.0:
        raise ValueError(f"grayness {g:.4g} exceeds 1: area below lambda^2/(4*pi)")
    return g


def divergence_half_angle(waist_m: float, omega) -> float:
    """Far-field 1/e^2 half angle 2c/(omega w0) of a Gaussian beam, rad."""
    return 2.0 * C / (omega_value(omega) * real_value("waist_m", waist_m))


def _caller_stacklevel() -> int:
    """warnings.warn's stacklevel, for the function calling this one, of the first frame outside this module.

    The dataclass-generated __init__ runs with this module's globals, so it and a classmethod
    constructor are skipped and the warning points at the code that asked for the focus.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class FocusGeometry:
    """Gaussian focus described by waist and far-field divergence half angle.

    The paraxial description degrades as the divergence grows: half angles
    above 0.1 rad trigger a warning, above 0.3 rad an error.
    """

    waist_m: float
    half_angle_rad: float

    def __post_init__(self):
        object.__setattr__(self, "waist_m", real_value("waist_m", self.waist_m))
        th = real_value("half_angle_rad", self.half_angle_rad, hi=0.3)
        object.__setattr__(self, "half_angle_rad", th)
        if th > 0.1:
            warnings.warn(
                f"half angle {th:.3g} rad exceeds 0.1: paraxial model marginal",
                stacklevel=_caller_stacklevel(),
            )

    @classmethod
    def from_waist(cls, waist_m: float, omega) -> "FocusGeometry":
        return cls(waist_m, divergence_half_angle(waist_m, omega))


def gaussian_angular_radiance(omega, theta_rad: float, waist_m: float, psd_w_per_rad_s: float) -> float:
    """Angular radiance B(omega, theta) of a Gaussian focus carrying PSD S.

    B = [S / A_TH] (2/pi) (omega w0 / 2c)^2 exp(-2 sin^2 theta / theta_d^2)
    with A_TH the top-hat area and theta_d the divergence half angle. For a
    thermal single-mode S the on-axis value is exactly 4x the blackbody
    radiance. Units W m^-2 sr^-1 (rad/s)^-1.
    """
    w = omega_value(omega)
    psd = real_value("psd_w_per_rad_s", psd_w_per_rad_s, open_lo=False)
    theta = real_value("theta_rad", theta_rad, -math.inf)
    a_th = top_hat_area(waist_m)
    theta_d = divergence_half_angle(waist_m, w)
    peak = (psd / a_th) * (2.0 / math.pi) * (w * waist_m / (2.0 * C)) ** 2
    return peak * math.exp(-2.0 * math.sin(theta) ** 2 / theta_d ** 2)
