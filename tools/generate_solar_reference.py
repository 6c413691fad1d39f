"""Regenerate the bundled synthetic direct-normal solar reference spectrum.

The bundled file is a stand-in for a measured standard (no network access
at build time): a 5800 K blackbody diluted by the solar solid angle
(solar constant ~1.39 kW/m^2 checks out), attenuated by smooth Rayleigh
and aerosol extinction at airmass 1.5 and by Gaussian telluric dips at the
well-known O2 (687, 760 nm), H2O (719, 823, 940, 1130 nm) and broad O3
Chappuis bands. Shapes and depths are chosen to resemble ASTM G173-style
direct-normal data at 1 nm resolution; values are not metrologically
traceable and the file header says so.

Run from a checkout with the package installed:
    python tools/generate_solar_reference.py
"""

import io
import os

import numpy as np

from thermolight.radiometry import Temperature, planck_irradiance_per_wavelength

R_SUN_M = 6.957e8
AU_M = 1.495979e11
AIRMASS = 1.5
T_SUN = Temperature(5800.0)

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(HERE, "..", "src", "thermolight", "data", "solar_reference.csv")


def transmission(lam_nm: np.ndarray) -> np.ndarray:
    lam_um = lam_nm / 1000.0
    tau = 0.008735 * lam_um ** -4.08          # Rayleigh
    tau = tau + 0.05 * lam_um ** -1.3         # aerosol (Angstrom, beta=0.05)
    tau = tau + 0.03 * np.exp(-((lam_nm - 600.0) ** 2) / (2.0 * 60.0 ** 2))  # O3 Chappuis
    t = np.exp(-AIRMASS * tau)
    for center, sigma, depth in (
        (687.5, 1.6, 0.25),   # O2 B band
        (760.5, 2.5, 0.55),   # O2 A band
        (719.0, 7.0, 0.25),   # H2O
        (823.0, 8.0, 0.30),   # H2O
        (940.0, 14.0, 0.55),  # H2O
        (1130.0, 12.0, 0.50), # H2O
    ):
        t = t * (1.0 - depth * np.exp(-((lam_nm - center) ** 2) / (2.0 * sigma ** 2)))
    return t


def main() -> None:
    grid = np.arange(340.0, 1150.0 + 0.5, 1.0)
    dilution = (R_SUN_M / AU_M) ** 2
    top = planck_irradiance_per_wavelength(grid, T_SUN) * dilution
    ground = top * transmission(grid)
    buf = io.StringIO()
    buf.write("# kind=irradiance_per_wavelength\n")
    buf.write("# synthetic direct-normal solar irradiance [W m^-2 nm^-1], airmass 1.5\n")
    buf.write("# 5800 K Planck x solar solid angle x Rayleigh/aerosol/O3 extinction x O2+H2O band dips\n")
    buf.write("# stand-in resembling ASTM G173-03 direct-normal data; NOT traceable measured values\n")
    buf.write("# regenerate with tools/generate_solar_reference.py\n")
    buf.write("wavelength_nm,value\n")
    for wl, v in zip(grid, ground):
        buf.write(f"{wl:.1f},{v:.6e}\n")
    with open(os.path.abspath(TARGET), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())
    total = np.trapezoid(ground, grid)
    print(f"wrote {os.path.abspath(TARGET)}: {grid.size} rows, "
          f"band total {total:.1f} W/m^2, peak {ground.max():.3f} W/m^2/nm")


if __name__ == "__main__":
    main()
