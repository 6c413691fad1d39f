"""Single-mode beam geometry: mode area, solid angle, grayness, focusing.

A single transverse mode has etendue A(omega) * Omega(omega) = lambda^2.
Fixing either the divergence solid angle or the focal area pins the other;
a tabulated regime covers measured mode areas.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C, NM, TWO_PI_C
from .radiometry import omega_value, real_value
from .spectra import atomic_write_text

_FOUR_PI = 4.0 * math.pi

_REGIMES = ("constant_divergence", "constant_area", "tabulated")


@dataclass(frozen=True)
class FiberModeModel:
    """How the collected mode's area varies with frequency, over a validity band.

    regime 'constant_divergence': solid angle omega0_sr is frequency
    independent, A = lambda^2 / omega0_sr. regime 'constant_area': A is
    fixed at area_m2. regime 'tabulated': A interpolated linearly from a
    measured table. band_nm bounds the wavelengths the model may be
    evaluated at.
    """

    regime: str
    band_nm: tuple
    omega0_sr: "float | None" = None
    area_m2: "float | None" = None
    table_wavelength_nm: "np.ndarray | None" = None
    table_area_m2: "np.ndarray | None" = None

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {_REGIMES}")
        band = tuple(real_value("band_nm", b) for b in self.band_nm)
        if len(band) != 2 or not band[0] < band[1]:
            raise ValueError(f"band_nm must be (lo, hi) with 0 < lo < hi, got {self.band_nm!r}")
        object.__setattr__(self, "band_nm", band)
        if self.regime == "constant_divergence":
            object.__setattr__(self, "omega0_sr", real_value("omega0_sr", self.omega0_sr, hi=_FOUR_PI))
        elif self.regime == "constant_area":
            object.__setattr__(self, "area_m2", real_value("area_m2", self.area_m2))
        else:
            wl = np.asarray(self.table_wavelength_nm, dtype=float)
            ar = np.asarray(self.table_area_m2, dtype=float)
            if wl.ndim != 1 or wl.size < 2 or ar.shape != wl.shape:
                raise ValueError("tabulated regime needs matching 1-d wavelength and area tables")
            if np.any(np.diff(wl) <= 0.0) or np.any(wl <= 0.0):
                raise ValueError("table wavelengths must be positive and strictly increasing")
            if np.any(~np.isfinite(ar)) or np.any(ar <= 0.0):
                raise ValueError("table areas must be finite and positive")
            if band[0] < wl[0] or band[1] > wl[-1]:
                raise ValueError("band_nm extends beyond the tabulated wavelength range")
            wl = wl.copy(); ar = ar.copy()
            wl.setflags(write=False); ar.setflags(write=False)
            object.__setattr__(self, "table_wavelength_nm", wl)
            object.__setattr__(self, "table_area_m2", ar)

    def _check_band(self, wavelength_nm: float) -> None:
        lo, hi = self.band_nm
        if not (lo <= wavelength_nm <= hi):
            raise ValueError(
                f"wavelength {wavelength_nm:.6g} nm outside model band [{lo:.6g}, {hi:.6g}] nm"
            )

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {"regime": self.regime, "band_nm": list(self.band_nm)}
        if self.regime == "constant_divergence":
            d["omega0_sr"] = self.omega0_sr
        elif self.regime == "constant_area":
            d["area_m2"] = self.area_m2
        else:
            d["table_wavelength_nm"] = self.table_wavelength_nm.tolist()
            d["table_area_m2"] = self.table_area_m2.tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiberModeModel":
        if not isinstance(d, dict):
            raise ValueError(f"mode model must be a JSON object, got {type(d).__name__}")
        known = {"regime", "band_nm", "omega0_sr", "area_m2", "table_wavelength_nm", "table_area_m2"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown mode-model keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "band_nm" not in kwargs or "regime" not in kwargs:
            raise ValueError("mode model requires 'regime' and 'band_nm'")
        kwargs["band_nm"] = tuple(kwargs["band_nm"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "FiberModeModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_file(self, path) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict(), indent=2) + "\n")


def mode_area(model: FiberModeModel, omega) -> float:
    """Mode area A(omega) in m^2 under the model's regime."""
    lam = TWO_PI_C / omega_value(omega)
    lam_nm = lam / NM
    model._check_band(lam_nm)
    if model.regime == "constant_divergence":
        return lam ** 2 / model.omega0_sr
    if model.regime == "constant_area":
        return model.area_m2
    return float(np.interp(lam_nm, model.table_wavelength_nm, model.table_area_m2))


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


def grayness(area_m2: float, omega) -> float:
    """Geometric grayness G = (lambda^2 / 4 pi) / A, in (0, 1].

    The fraction of the full 4*pi étendue that a single mode focused to
    area A subtends. G > 1 would mean a sub-diffraction-limited area.
    """
    area_m2 = real_value("area_m2", area_m2)
    lam = TWO_PI_C / omega_value(omega)
    g = lam ** 2 / _FOUR_PI / area_m2
    if g > 1.0:
        raise ValueError(f"grayness {g:.4g} exceeds 1: area below lambda^2/(4*pi)")
    return g


def focused_energy_density(psd_w_per_rad_s: float, area_m2: float) -> float:
    """Spectral energy density S/(A c) at the focus of a guided beam.

    Units J m^-3 (rad/s)^-1. For a thermal single-mode PSD this equals
    G * planck_energy_density by the étendue closure.
    """
    psd = real_value("psd_w_per_rad_s", psd_w_per_rad_s, open_lo=False)
    return psd / (real_value("area_m2", area_m2) * C)


def divergence_half_angle(waist_m: float, omega) -> float:
    """Far-field 1/e^2 half angle 2c/(omega w0) of a Gaussian beam, rad."""
    return 2.0 * C / (omega_value(omega) * real_value("waist_m", waist_m))


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
                stacklevel=2,
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
