"""Reduction of raw spectrometer counts to calibrated single-mode PSDs.

The chain: divide out the instrument response, divide out the
wavelength-dependent slit clipping of the diverging fiber mode, scale the
result so its band-integrated power matches a power-meter reading, then
compare against the ideal single-mode thermal spectrum to get a delivery
efficiency and a best-fit source temperature. An atmospheric correction
curve, built by ratioing a reference solar spectrum against an ideal
blackbody, converts the ideal spectrum into the expected one at ground
level. Every correction is multiplicative, so apply order is free.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .constants import NM
from .radiometry import (
    ElementError,
    Temperature,
    as_temperature,
    planck_irradiance_per_wavelength,
    planck_irradiance_per_wavelength_on_grid,
    q1d_psd_per_wavelength,
    q1d_psd_per_wavelength_on_grid,
    real_value,
    real_values,
)
from .spectra import (
    PER_WAVELENGTH_TWIN,
    SampledSpectrum,
    SpectrumKind,
    convert_spectral_domain,
    read_spectrum_columns,
    spectrum_from_rows,
)


class FitConvergenceError(RuntimeError):
    """Temperature fit found its optimum at a bracket edge, or a non-positive amplitude."""


class _FixedKindSpectrum(SampledSpectrum):
    """A spectrum whose subclass fixes its kind, read from a CSV file of that kind."""

    @classmethod
    def from_csv(cls, path):
        """Read a spectrum CSV of the class's kind; a file with no kind line is taken to be one."""
        wavelengths_nm, values, kind, linenos = read_spectrum_columns(path, default_kind=cls.kind)
        if kind != cls.kind:
            raise ValueError(f"{path}: file is of kind {kind.value!r}, expected {cls.kind.value!r}")
        return spectrum_from_rows(path, linenos, cls, wavelengths_nm, values)


@dataclass(frozen=True, eq=False)
class InstrumentResponse(_FixedKindSpectrum):
    """Relative spectrometer response on a wavelength grid; dimensionless, strictly positive."""

    kind: SpectrumKind = field(default=SpectrumKind.RATIO, init=False)

    def __post_init__(self):
        super().__post_init__()
        not_positive = self.values <= 0.0
        if not_positive.any():
            raise ElementError("response values must be strictly positive", int(not_positive.argmax()))


@dataclass(frozen=True)
class SlitGeometry:
    """Entrance-slit clipping geometry: slit width, fiber-to-slit distance, mode-field radius."""

    slit_width_m: float
    distance_m: float
    mode_field_radius_m: float

    def __post_init__(self):
        for label in ("slit_width_m", "distance_m", "mode_field_radius_m"):
            object.__setattr__(self, label, real_value(label, getattr(self, label)))
        if self.distance_m < 100.0 * self.mode_field_radius_m:
            warnings.warn(
                "fiber-to-slit distance is not large against the mode-field radius; "
                "paraxial far-field clipping model is marginal",
                stacklevel=2,
            )


def beam_radius_at_slit(geometry: SlitGeometry, wavelength_nm: float) -> float:
    """Gaussian beam 1/e^2 radius after propagating the fiber-to-slit distance."""
    lam = real_values("wavelength_nm", wavelength_nm) * NM
    wf = geometry.mode_field_radius_m
    spread = lam * geometry.distance_m / (math.pi * wf ** 2)
    return wf * np.sqrt(1.0 + spread ** 2)


# math.erf per element: grids are a few thousand points at most.
_erf = np.frompyfunc(math.erf, 1, 1)


def slit_transmission(geometry: SlitGeometry, wavelength_nm):
    """Fraction of a Gaussian beam passing a slit of the configured width.

    One-axis clipping: T = erf(sqrt(2) (s/2) / w(d, lambda)). Monotone
    decreasing in wavelength for fixed geometry.
    """
    w = beam_radius_at_slit(geometry, wavelength_nm)
    t = np.asarray(_erf(math.sqrt(2.0) * (geometry.slit_width_m / 2.0) / w), dtype=float)
    return float(t) if np.isscalar(wavelength_nm) else t


@dataclass(frozen=True, eq=False)
class ReferenceSolarSpectrum(_FixedKindSpectrum):
    """Direct-normal solar irradiance [W m^-2 nm^-1]; must cover 350-1100 nm."""

    kind: SpectrumKind = field(default=SpectrumKind.IRRADIANCE_PER_WAVELENGTH, init=False)

    def __post_init__(self):
        super().__post_init__()
        wl = self.wavelengths_nm
        if wl[0] > 350.0 or wl[-1] < 1100.0:
            short_edge = 0 if wl[0] > 350.0 else wl.size - 1
            raise ElementError("reference spectrum must cover at least [350, 1100] nm", short_edge)

    @classmethod
    def load_bundled(cls) -> "ReferenceSolarSpectrum":
        with resources.as_file(resources.files("thermolight.data") / "solar_reference.csv") as p:
            return cls.from_csv(p)


# -- corrections ---------------------------------------------------------


def apply_response(raw: SampledSpectrum, response: InstrumentResponse) -> SampledSpectrum:
    """Divide counts by the instrument response on the coarser grid of the overlap."""
    lo = max(raw.wavelengths_nm[0], response.wavelengths_nm[0])
    hi = min(raw.wavelengths_nm[-1], response.wavelengths_nm[-1])
    if hi <= lo:
        raise ValueError("raw spectrum and response share no wavelength overlap")

    def spacing(grid):
        # median step; np.median would import numpy.ma on its first call
        inside = grid[(grid >= lo) & (grid <= hi)]
        if inside.size < 2:
            return math.inf
        steps = np.sort(np.diff(inside))
        mid = steps.size // 2
        return steps[mid] if steps.size % 2 else 0.5 * (steps[mid - 1] + steps[mid])

    raw_dx = spacing(raw.wavelengths_nm)
    resp_dx = spacing(response.wavelengths_nm)
    source = raw.wavelengths_nm if raw_dx >= resp_dx else response.wavelengths_nm
    grid = source[(source >= lo) & (source <= hi)]
    if grid.size < 2:
        raise ValueError("overlap between raw spectrum and response is too narrow")
    values = raw.interpolate(grid) / response.interpolate(grid)
    return SampledSpectrum(grid, values, raw.kind)


def apply_slit_correction(spectrum: SampledSpectrum, geometry: SlitGeometry) -> SampledSpectrum:
    """Divide out the wavelength-dependent slit transmission on the spectrum's own grid."""
    t = slit_transmission(geometry, spectrum.wavelengths_nm)
    return SampledSpectrum(spectrum.wavelengths_nm, spectrum.values / t, spectrum.kind)


@dataclass(frozen=True, eq=False, kw_only=True)
class AtmosphericCorrection(SampledSpectrum):
    """Ratio of a measured solar reference to a fitted ideal blackbody, clipped to [0, 1.2].

    Multiplying the ideal single-mode thermal PSD by this curve gives the
    spectrum expected at ground level after atmospheric extinction.
    """

    kind: SpectrumKind = field(default=SpectrumKind.RATIO, init=False)
    amplitude: float
    temperature: Temperature


def atmospheric_correction(reference: ReferenceSolarSpectrum, temperature) -> AtmosphericCorrection:
    """Build c(lambda) = ref / (a * Planck_lambda) with a fitted by least squares.

    The single amplitude a minimizes |a * Planck - ref|^2 over 400-900 nm,
    absorbing the sun's solid-angle dilution and any gray loss; the residual
    wavelength dependence is the atmospheric (plus calibration) shape.
    """
    t = as_temperature(temperature)
    wl = reference.wavelengths_nm
    planck = planck_irradiance_per_wavelength(wl, t)
    in_band = (wl >= 400.0) & (wl <= 900.0)
    if np.count_nonzero(in_band) < 2:
        raise ValueError("fit band contains fewer than two reference samples")
    p, r = planck[in_band], reference.values[in_band]
    amplitude = float(np.dot(p, r) / np.dot(p, p))
    if amplitude <= 0.0:
        raise ValueError("degenerate amplitude fit: reference is not Planck-like in the fit band")
    c = np.clip(reference.values / (amplitude * planck), 0.0, 1.2)
    return AtmosphericCorrection(wavelengths_nm=wl, values=c, amplitude=amplitude, temperature=t)


# -- calibration and extraction -----------------------------------------


def calibrate_power(spectrum: SampledSpectrum, measured_power_w: float, band_nm: tuple) -> SampledSpectrum:
    """Scale a corrected spectrum so its band integral equals a power-meter reading.

    The input is treated as a per-wavelength shape (counts after response
    and slit correction, or an already-per-wavelength density); the output
    is a calibrated PSD in W/nm.
    """
    measured_power_w = real_value("measured_power_w", measured_power_w)
    if spectrum.kind in PER_WAVELENGTH_TWIN:
        raise ValueError("convert per-angular-frequency input to a per-wavelength kind first")
    lo, hi = band_nm
    wl = spectrum.wavelengths_nm
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got {band_nm!r}")
    if lo < wl[0] or hi > wl[-1]:
        raise ValueError(f"band {band_nm!r} not contained in the sampled grid [{wl[0]}, {wl[-1]}] nm")
    shape = SampledSpectrum(wl, spectrum.values, SpectrumKind.PSD_PER_WAVELENGTH)
    integral = shape.band_power(band_nm)
    if integral <= 0.0:
        raise ValueError("spectrum integrates to zero over the calibration band")
    return SampledSpectrum(wl, shape.values * (measured_power_w / integral), shape.kind)


@dataclass(frozen=True, eq=False, kw_only=True)
class EfficiencyCurve(SampledSpectrum):
    """Delivery efficiency eta(lambda), dimensionless, with its average over the analysis band."""

    kind: SpectrumKind = field(default=SpectrumKind.RATIO, init=False)
    band_average: float


def extract_efficiency(
    calibrated: SampledSpectrum,
    temperature,
    band_nm: "tuple | None" = None,
    correction: "AtmosphericCorrection | None" = None,
) -> EfficiencyCurve:
    """Delivery efficiency eta(lambda) = measured PSD / ideal single-mode thermal PSD.

    With an atmospheric correction supplied, the denominator is the expected
    ground-level spectrum c(lambda) * S_lambda instead of the bare ideal.
    Warns if eta exceeds 1 anywhere (super-thermal: calibration suspect).
    """
    if calibrated.kind == SpectrumKind.PSD_PER_ANGULAR_FREQUENCY:
        calibrated = convert_spectral_domain(calibrated, SpectrumKind.PSD_PER_WAVELENGTH)
    if calibrated.kind != SpectrumKind.PSD_PER_WAVELENGTH:
        raise ValueError(f"expected a calibrated PSD, got kind {calibrated.kind.value!r}")
    wl = calibrated.wavelengths_nm
    ideal = q1d_psd_per_wavelength(wl, temperature)
    if correction is not None:
        ideal = ideal * np.maximum(correction.interpolate(wl), 1e-6)
    eta = calibrated.values / ideal
    if band_nm is None:
        band_nm = (float(wl[0]), float(wl[-1]))
    lo, hi = band_nm
    in_band = (wl >= lo) & (wl <= hi)
    if np.count_nonzero(in_band) < 2:
        raise ValueError("efficiency band contains fewer than two samples")
    wb, eb = wl[in_band], eta[in_band]
    band_average = float(np.trapezoid(eb, wb) / (wb[-1] - wb[0]))
    if np.any(eta > 1.0):
        warnings.warn(
            "efficiency exceeds 1 at some wavelengths: super-thermal, check calibration",
            stacklevel=2,
        )
    return EfficiencyCurve(wavelengths_nm=wl, values=eta, band_average=band_average)


# -- temperature fitting -------------------------------------------------

# the golden-section fraction of a bracket: Brent's step where no parabola is trusted
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class TemperatureFit:
    temperature: Temperature
    residual: float          # RMS misfit / RMS data, dimensionless
    amplitude: float
    iterations: int
    flagged: bool            # residual beyond the shape-consistency threshold


# fit model -> its density per wavelength on a grid, as a function of beta = 1/(k_B T)
_FIT_MODELS = {"q1d": q1d_psd_per_wavelength_on_grid, "3d": planck_irradiance_per_wavelength_on_grid}


def fit_temperature(spectrum: SampledSpectrum, model: str = "q1d") -> TemperatureFit:
    """Brent's method on T in 1000-20000 K, the amplitude solved linearly at each step.

    Needs at least 20 samples spanning a factor 1.5 in wavelength. Each
    step fits a parabola through the three best points so far and, where
    the parabola is not trusted, takes a golden-section step instead
    (Brent 1973, ch. 5). The search stops when T is within 5e-8 relative of
    the bracketed minimum, as the midpoint of a golden-section bracket
    shrunk to 1e-7 relative is; that takes 10 to 16 steps on smooth
    spectra, where golden section alone took 34 to 40. Raises
    FitConvergenceError if the minimum sits at a bracket edge (degenerate
    shape) or the amplitude is not positive. A residual above 0.05 sets
    `flagged`.
    """
    if spectrum.kind in PER_WAVELENGTH_TWIN:
        spectrum = convert_spectral_domain(spectrum, PER_WAVELENGTH_TWIN[spectrum.kind])
    wl = spectrum.wavelengths_nm
    y = spectrum.values
    if wl.size < 20:
        raise ValueError(f"temperature fit needs at least 20 samples, got {wl.size}")
    if wl[-1] / wl[0] < 1.5:
        raise ValueError("temperature fit needs a wavelength span of at least a factor 1.5")
    lo, hi = 1000.0, 20000.0
    y_norm = math.sqrt(float(np.mean(y ** 2)))
    if y_norm == 0.0:
        raise ValueError("spectrum is identically zero")
    if model not in _FIT_MODELS:
        raise ValueError(f"unknown model {model!r}; expected 'q1d' or '3d'")
    density = _FIT_MODELS[model](wl)  # the grid is validated and its factors computed once

    def misfit(t_k: float):
        m = density(Temperature(t_k).beta)
        mm = float(np.dot(m, m))
        if mm == 0.0:
            return math.inf, 0.0
        amplitude = float(np.dot(m, y) / mm)
        r = y - amplitude * m
        return float(np.dot(r, r)), amplitude

    # [a, b] brackets the minimum; x is the best point, w the second best, v the previous w
    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    f_x, amp_x = misfit(x)
    f_w = f_v = f_x
    step = last = 0.0  # this step's length and the one before it
    iterations = 0
    while True:
        mid = 0.5 * (a + b)
        tol = 2.5e-8 * x
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):  # a and b both within 2 tol = 5e-8 x of x
            break
        iterations += 1
        golden = True
        if abs(last) > tol:
            # the vertex of the parabola through (x, f_x), (w, f_w), (v, f_v), as x + p/q
            r = (x - w) * (f_x - f_v)
            q = (x - v) * (f_x - f_w)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # trusted if it lands inside the bracket and moves less than half the step before last
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                last, step = step, p / q
                golden = False
                if (x + step) - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = math.copysign(tol, mid - x)  # no closer to an end than the tolerance
        if golden:
            last = (a - x) if x >= mid else (b - x)
            step = _GOLDEN_STEP * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        f_u, amp_u = misfit(u)
        if f_u <= f_x:
            if u >= x:
                a = x
            else:
                b = x
            v, f_v, w, f_w = w, f_w, x, f_x
            x, f_x, amp_x = u, f_u, amp_u
        else:
            if u < x:
                a = u
            else:
                b = u
            if f_u <= f_w or w == x:
                v, f_v, w, f_w = w, f_w, u, f_u
            elif f_u <= f_v or v == x or v == w:
                v, f_v = u, f_u
    t_best = x
    span = hi - lo
    if t_best - lo < 1e-3 * span or hi - t_best < 1e-3 * span:
        raise FitConvergenceError(
            f"best-fit temperature {t_best:.4g} K pinned at the bracket edge; "
            "spectrum shape is not thermal in the searched range"
        )
    if amp_x <= 0.0:
        raise FitConvergenceError("degenerate fit: non-positive amplitude")
    residual = math.sqrt(f_x / wl.size) / y_norm
    return TemperatureFit(
        temperature=Temperature(t_best),
        residual=residual,
        amplitude=amp_x,
        iterations=iterations,
        flagged=residual > 0.05,
    )


# -- the whole chain -----------------------------------------------------


def reduce_spectrum(
    raw: SampledSpectrum,
    response: InstrumentResponse,
    slit: SlitGeometry,
    measured_power_w: float,
    band_nm: tuple,
    correction: AtmosphericCorrection,
    model: str = "q1d",
) -> "tuple[SampledSpectrum, EfficiencyCurve, TemperatureFit]":
    """Raw counts to (calibrated PSD, delivery efficiency, best-fit temperature).

    Divides out the response and the slit clipping, calibrates the power
    over band_nm, and takes eta against the ground-level spectrum expected
    at the correction's temperature. The fit sees the calibrated PSD over
    c(lambda), on the samples where c >= 0.2: inside the deep absorption
    bands too little light is left for that division to be trusted.
    """
    shape = apply_slit_correction(apply_response(raw, response), slit)
    calibrated = calibrate_power(shape, measured_power_w, band_nm)
    efficiency = extract_efficiency(calibrated, correction.temperature, band_nm=band_nm, correction=correction)
    c = correction.interpolate(calibrated.wavelengths_nm)
    keep = c >= 0.2
    flattened = SampledSpectrum(
        calibrated.wavelengths_nm[keep], calibrated.values[keep] / c[keep], SpectrumKind.PSD_PER_WAVELENGTH
    )
    return calibrated, efficiency, fit_temperature(flattened, model=model)
