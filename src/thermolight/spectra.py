"""Sampled spectra on wavelength grids: kinds, domain conversion, CSV I/O.

All spectra live on a strictly increasing wavelength grid in nm. Power-like
kinds carry an exact Jacobian to the wavelength measure, so integration and
kind conversion share one quadrature rule and conserve power to rounding.

CSV format: optional comment lines starting with '#', one of which names
the kind as '# kind=<kind>' (required unless the reader is given a default
kind), then a 'wavelength_nm,value' header and data rows. UTF-8, LF line
endings.
"""

from __future__ import annotations

import enum
import io
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .radiometry import domega_dlambda


class SpectrumKind(str, enum.Enum):
    COUNTS = "counts"
    PSD_PER_ANGULAR_FREQUENCY = "psd_per_angular_frequency"
    PSD_PER_WAVELENGTH = "psd_per_wavelength"
    IRRADIANCE_PER_WAVELENGTH = "irradiance_per_wavelength"
    IRRADIANCE_PER_ANGULAR_FREQUENCY = "irradiance_per_angular_frequency"
    RATIO = "ratio"  # dimensionless: responses, transmissions, efficiencies


# each per-omega density kind -> the same quantity per wavelength; these
# pairs are the only allowed domain conversions
PER_WAVELENGTH_TWIN = {
    SpectrumKind.PSD_PER_ANGULAR_FREQUENCY: SpectrumKind.PSD_PER_WAVELENGTH,
    SpectrumKind.IRRADIANCE_PER_ANGULAR_FREQUENCY: SpectrumKind.IRRADIANCE_PER_WAVELENGTH,
}
_PER_WAVELENGTH = set(PER_WAVELENGTH_TWIN.values())


def _as_grid(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("expected a 1-d array with at least two samples")
    return a


@dataclass(frozen=True, eq=False)
class SampledSpectrum:
    """A spectral quantity sampled on a wavelength grid.

    wavelengths_nm strictly increasing and positive; values finite and
    non-negative, same length; kind fixes the units of `values`. Spectra
    compare and hash by identity, as the arrays they hold have no single
    truth value.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray
    kind: SpectrumKind

    def __post_init__(self):
        wl = _as_grid(self.wavelengths_nm)
        v = np.asarray(self.values, dtype=float)
        if v.shape != wl.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {wl.shape}")
        if not np.all(np.isfinite(wl)) or np.any(wl <= 0.0):
            raise ValueError("wavelengths must be finite and positive")
        if np.any(np.diff(wl) <= 0.0):
            raise ValueError("wavelength grid must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("values must be finite and non-negative")
        kind = SpectrumKind(self.kind)
        wl = wl.copy()
        v = v.copy()
        wl.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "kind", kind)

    # -- interpolation ---------------------------------------------------

    def interpolate(self, grid_nm) -> np.ndarray:
        """Linear-in-wavelength interpolation, a scalar for a scalar; raises outside the sampled band."""
        g = np.asarray(grid_nm, dtype=float)
        lo, hi = self.wavelengths_nm[0], self.wavelengths_nm[-1]
        if np.any(g < lo) or np.any(g > hi):
            raise ValueError(f"requested wavelengths outside sampled band [{lo}, {hi}] nm")
        return np.interp(g, self.wavelengths_nm, self.values)

    def resample(self, grid_nm) -> "SampledSpectrum":
        g = _as_grid(grid_nm)
        return SampledSpectrum(g, self.interpolate(g), self.kind)

    # -- integration -----------------------------------------------------

    def _wavelength_density(self) -> np.ndarray:
        """Values re-expressed per nm on this grid (exact pointwise Jacobian)."""
        if self.kind in _PER_WAVELENGTH:
            return self.values
        if self.kind in PER_WAVELENGTH_TWIN:
            return self.values * domega_dlambda(self.wavelengths_nm)
        raise ValueError(f"kind {self.kind.value!r} is not integrable over wavelength")

    def band_power(self, band_nm: "tuple[float, float] | None" = None) -> float:
        """Trapezoid-integrated power over a wavelength band (defaults to full grid)."""
        dens = self._wavelength_density()
        wl = self.wavelengths_nm
        if band_nm is None:
            return float(np.trapezoid(dens, wl))
        lo, hi = band_nm
        if not lo < hi:
            raise ValueError(f"band must satisfy lo < hi, got {band_nm!r}")
        lo = max(lo, wl[0])
        hi = min(hi, wl[-1])
        if hi <= lo:
            return 0.0
        inside = wl[(wl > lo) & (wl < hi)]
        grid = np.concatenate(([lo], inside, [hi]))
        return float(np.trapezoid(np.interp(grid, wl, dens), grid))


def convert_spectral_domain(spectrum: SampledSpectrum, target_kind: SpectrumKind) -> SampledSpectrum:
    """Convert a density between per-omega and per-wavelength measures.

    Pointwise exact Jacobian on the unchanged grid; integrated band power is
    preserved to rounding. Counts and ratios carry no measure and cannot be
    converted.
    """
    target = SpectrumKind(target_kind)
    if target == spectrum.kind:
        return spectrum
    to_wavelength = PER_WAVELENGTH_TWIN.get(spectrum.kind) == target
    if not to_wavelength and PER_WAVELENGTH_TWIN.get(target) != spectrum.kind:
        raise ValueError(f"no domain conversion from {spectrum.kind.value!r} to {target.value!r}")
    jac = domega_dlambda(spectrum.wavelengths_nm)
    values = spectrum.values * jac if to_wavelength else spectrum.values / jac
    return SampledSpectrum(spectrum.wavelengths_nm, values, target)


# -- CSV I/O -------------------------------------------------------------


def atomic_write_text(path: "str | os.PathLike", text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def spectrum_to_csv_text(spectrum: SampledSpectrum) -> str:
    buf = io.StringIO()
    buf.write(f"# kind={spectrum.kind.value}\n")
    buf.write("wavelength_nm,value\n")
    for wl, v in zip(spectrum.wavelengths_nm, spectrum.values):
        # plain-float repr: shortest digits that round-trip exactly
        buf.write(f"{float(wl)!r},{float(v)!r}\n")
    return buf.getvalue()


def write_spectrum_csv(path: "str | os.PathLike", spectrum: SampledSpectrum) -> None:
    atomic_write_text(path, spectrum_to_csv_text(spectrum))


def read_spectrum_csv(
    path: "str | os.PathLike", default_kind: "SpectrumKind | None" = None
) -> SampledSpectrum:
    """Read a spectrum CSV; without a '# kind=' comment the kind is default_kind, if given."""
    kind = default_kind
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("kind="):
                    kind = body[len("kind="):].strip()
                continue
            if line.lower().replace(" ", "") == "wavelength_nm,value":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'wavelength_nm,value', got {line!r}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from exc
    if kind is None:
        raise ValueError(f"{path}: missing '# kind=<kind>' header comment")
    try:
        kind_enum = SpectrumKind(kind)
    except ValueError:
        raise ValueError(f"{path}: unknown spectrum kind {kind!r}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    wl = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    return SampledSpectrum(wl, vals, kind_enum)
