"""Single-mode beam geometry: focal area, grayness, focusing.

A single transverse mode has etendue A(omega) * Omega(omega) = lambda^2,
so its focal area pins its solid angle.
A Gaussian focus is checked against the paraxial limit: a divergence half
angle above 0.1 rad warns, one above 0.3 rad is refused.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .constants import C, TWO_PI_C
from .radiometry import omega_value, real_value

_FOUR_PI = 4.0 * math.pi


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
