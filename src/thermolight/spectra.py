"""Sampled spectra on wavelength grids: kinds, domain conversion, CSV I/O.

All spectra live on a strictly increasing wavelength grid in nm. Power-like
kinds carry an exact Jacobian to the wavelength measure, so integration and
kind conversion share one quadrature rule and conserve power to rounding.

CSV format: optional comment lines starting with '#', one of which names
the kind as '# kind=<kind>' (required unless the reader is given a default
kind), then a 'wavelength_nm,value' header and data rows. UTF-8, LF line
endings; the reader also takes a byte-order mark, CRLF, and comments, blank
lines and headers anywhere in the file.

The reader reads a file whole and parses the lines from the first data row
on a block at a time, each as a data row, with no Python work per line.
From the first block that holds another line, or a bad row, it goes on a
line at a time, keeping the blocks before it: that takes the same rows and
names the first bad one as path:lineno. A
sample the spectrum refuses (a negative or NaN value, a wavelength that does
not increase, a response that is not positive) is named by its row too.
"""

from __future__ import annotations

import enum
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .radiometry import ElementError, domega_dlambda, real_values


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
        wl = real_values("wavelengths_nm", self.wavelengths_nm)
        if np.ndim(wl) != 1 or wl.size < 2:
            raise ValueError("expected a 1-d array with at least two samples")
        v = real_values("values", self.values, open_lo=False)
        if np.shape(v) != wl.shape:
            raise ValueError(f"values shape {np.shape(v)} does not match grid shape {wl.shape}")
        not_increasing = np.diff(wl) <= 0.0
        if not_increasing.any():
            raise ElementError("wavelength grid must be strictly increasing", int(not_increasing.argmax()) + 1)
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
        wl = self.wavelengths_nm
        return np.interp(real_values("wavelength_nm", grid_nm, wl[0], wl[-1], open_lo=False), wl, self.values)

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


def csv_text(header: str, *columns) -> str:
    """The header, then one comma-joined row per element of the string columns; LF-terminated lines."""
    return "\n".join([header, *map(",".join, zip(*columns)), ""])


def spectrum_to_csv_text(spectrum: SampledSpectrum) -> str:
    # plain-float repr: shortest digits that round-trip exactly
    return csv_text(f"# kind={spectrum.kind.value}\nwavelength_nm,value",
                    map(repr, spectrum.wavelengths_nm.tolist()), map(repr, spectrum.values.tolist()))


def write_spectrum_csv(path: "str | os.PathLike", spectrum: SampledSpectrum) -> None:
    atomic_write_text(path, spectrum_to_csv_text(spectrum))


# rows parsed at once: a bound on the strings alive together, not on speed
_PARSE_BLOCK = 128


def _parse_block(rows: list) -> list:
    """At most _PARSE_BLOCK rows of two numbers as one list [x0, v0, x1, v1, ...]; ValueError if a row is not."""
    # rows joined by an empty field, which stays in every third place only if each row has two fields; a count
    # of the commas refuses most other lines before the split
    text = ",,".join(rows)
    if text.count(",") != 3 * len(rows) - 2:
        raise ValueError("a row without two fields")
    fields = text.split(",")
    if any(fields[2::3]):
        raise ValueError("a row without two fields")
    del fields[2::3]
    return list(map(float, fields))


def _parse_rows(rows: list) -> "tuple[np.ndarray, int]":
    """The rows up to the first block that _parse_block refuses, as one array [x0, v0, x1, v1, ...], and their
    count."""
    table = np.empty(2 * len(rows))
    for start in range(0, len(rows), _PARSE_BLOCK):
        try:
            table[2 * start:2 * (start + _PARSE_BLOCK)] = _parse_block(rows[start:start + _PARSE_BLOCK])
        except ValueError:
            return table[:2 * start], start
    return table, len(rows)


def _raise_bad_row(path, rows: list, linenos: list) -> None:
    """Raise for the first row that is not two numbers, naming its path:lineno."""
    for lineno, line in zip(linenos, rows):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'wavelength_nm,value', got {line!r}")
        try:
            float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from exc


def _take_rows(numbered_lines, kind, rows: list, linenos: list, first_only: bool = False):
    """Append the rows among (lineno, line) pairs to rows and their numbers to linenos, stopping after the first row
    if first_only; the kind after them. A '# kind=' comment sets the kind; comments, blank lines and headers are not
    rows."""
    for lineno, raw in numbered_lines:
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("kind="):
                kind = body[len("kind="):].strip()
        # only a line starting with w or W can be the header
        elif line and not (line[0] in "wW" and line.lower().replace(" ", "") == "wavelength_nm,value"):
            rows.append(line)
            linenos.append(lineno)
            if first_only:
                break
    return kind


def _rows_table(path, rows: list, linenos: list) -> np.ndarray:
    """The rows as one array [x0, v0, x1, v1, ...]; raises for the first bad row, naming its path:lineno."""
    table, parsed = _parse_rows(rows)
    if parsed < len(rows):
        _raise_bad_row(path, rows[parsed:], linenos[parsed:])
    return table


def _columns(path, table: np.ndarray, kind, linenos):
    """read_spectrum_columns' result from a parsed table, after the checks that concern the whole file."""
    if kind is None:
        raise ValueError(f"{path}: missing '# kind=<kind>' header comment")
    try:
        kind_enum = SpectrumKind(kind)
    except ValueError:
        raise ValueError(f"{path}: unknown spectrum kind {kind!r}") from None
    if len(linenos) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return table[0::2], table[1::2], kind_enum, linenos


def _read_lines(path, default_kind):
    """read_spectrum_columns one line at a time, for a file whose bytes are not all UTF-8."""
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            kind = _take_rows(enumerate(fh, start=1), default_kind, rows, linenos)
        except UnicodeDecodeError:
            _raise_bad_row(path, rows, linenos)  # a bad row before the undecodable bytes is reported first
            raise
    return _columns(path, _rows_table(path, rows, linenos), kind, linenos)


def read_spectrum_columns(
    path: "str | os.PathLike", default_kind: "SpectrumKind | None" = None
) -> "tuple[np.ndarray, np.ndarray, SpectrumKind, range | list[int]]":
    """Wavelengths, values, kind and row line numbers of a spectrum CSV, not yet checked as a spectrum.

    Read whole and parsed in blocks (see the module docstring); a file whose bytes are not UTF-8 goes to _read_lines.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        return _read_lines(path, default_kind)
    if not lines[-1]:
        lines.pop()  # the end of the last line, not a line
    first_row, first_lineno = [], [len(lines) + 1]  # the first row's line number, else one past the last line
    kind = _take_rows(enumerate(lines, start=1), default_kind, first_row, first_lineno, first_only=True)
    first = first_lineno[-1] - 1
    body = lines[first:]
    table, parsed = _parse_rows(body)
    if parsed == len(body):
        return _columns(path, table, kind, range(first + 1, len(lines) + 1))
    # from the first block that holds another line, or a bad row, a line at a time
    rows, linenos = [], []
    kind = _take_rows(enumerate(body[parsed:], start=first + parsed + 1), kind, rows, linenos)
    table = np.concatenate((table, _rows_table(path, rows, linenos)))
    return _columns(path, table, kind, [*range(first + 1, first + parsed + 1), *linenos])


def spectrum_from_rows(path, linenos, make, wavelengths_nm, values, *rest):
    """make(wavelengths_nm, values, *rest), read from path's rows at linenos; a refusal of a sample (an
    ElementError) is prefixed with its row's path:lineno."""
    try:
        return make(wavelengths_nm, values, *rest)
    except ElementError as exc:
        raise ValueError(f"{path}:{linenos[exc.index]}: {exc}") from None


def read_spectrum_csv(path: "str | os.PathLike", default_kind: "SpectrumKind | None" = None) -> SampledSpectrum:
    """Read a spectrum CSV; without a '# kind=' comment the kind is default_kind, if given."""
    wavelengths_nm, values, kind, linenos = read_spectrum_columns(path, default_kind)
    return spectrum_from_rows(path, linenos, SampledSpectrum, wavelengths_nm, values, kind)
