"""Golden digests of the reduce chain: a change meant to keep its outputs bit-identical must keep these.

The synthetic measurement is written by numpy formulas of this file, not
by the library, so only the code under test moves a digest. A change
that intends to alter an output replaces the digest and says so.
"""

import hashlib
import math

import numpy as np
import pytest

from thermolight import (
    SampledSpectrum,
    SpectrumKind,
    Temperature,
    fit_temperature,
    mean_occupation,
    planck_energy_density,
    planck_irradiance,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
)

_C = 299_792_458.0
_HBAR = 6.626_070_15e-34 / (2.0 * math.pi)
_K_B = 1.380_649e-23


def _q1d_per_nm(grid_nm: np.ndarray, t_k: float) -> np.ndarray:
    lam = grid_nm * 1e-9
    w = 2.0 * math.pi * _C / lam
    return _HBAR * w / math.pi / np.expm1(_HBAR * w / (_K_B * t_k)) * (2.0 * math.pi * _C / lam ** 2) * 1e-9


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _rows(grid, values) -> str:
    return "".join(f"{x!r},{v!r}\n" for x, v in zip(grid.tolist(), values.tolist()))


def test_reduce_outputs_are_pinned(tmp_path, capsys):
    import thermolight.cli as cli

    grid = np.linspace(380.0, 1000.0, 1241)
    response = 0.75 + 0.2 * np.sin(grid / 90.0) + 0.01 * np.cos(grid / 3.0)
    counts = 0.6 * _q1d_per_nm(grid, 5600.0) * response * 1e9 * (1.0 + 0.02 * np.sin(grid / 11.0))
    (tmp_path / "raw.csv").write_text("# synthetic\n# kind=counts\nwavelength_nm,value\n" + _rows(grid, counts))
    (tmp_path / "resp.csv").write_text("wavelength_nm,value\n" + _rows(grid[::4], response[::4]))
    out = tmp_path / "out"
    code = cli.main(["reduce", "--raw", str(tmp_path / "raw.csv"), "--response", str(tmp_path / "resp.csv"),
                     "--power-w", "2.5e-9", "--temperature-k", "5750", "--out", str(out), "--json"])
    assert code == 0, capsys.readouterr().err
    files = [(out / name).read_bytes() for name in ("calibrated_psd.csv", "efficiency.csv", "fit_report.json")]
    assert sha(*files) == "c621ca6a3ea4f0545d398ff13dd4a4b8fed86aa2d81b90bf0e8405ae3a7e5a13"


@pytest.mark.parametrize("model, want", [
    ("q1d", "880f244ca30879240ccb9c964b65a798c6899d8f7f1db4b1eb71e791f1fd6537"),
    ("3d", "a808ead0590c64d64f23f8e6834100f55d2b56994522e810d708bc88dc8f1c55"),
])
def test_fit_temperature_is_pinned(model, want):
    grid = np.linspace(400.0, 900.0, 357)
    values = 0.4 * _q1d_per_nm(grid, 5800.0) * (1.0 + 0.03 * np.sin(grid / 17.0))
    fit = fit_temperature(SampledSpectrum(grid, values, SpectrumKind.PSD_PER_WAVELENGTH), model=model)
    text = repr((fit.temperature.kelvin, fit.residual, fit.amplitude, fit.iterations, fit.flagged))
    assert sha(text.encode()) == want


TEMPERATURES = [3.0, 300.0, 5800.0, 1e5, Temperature.infinite()]


@pytest.mark.parametrize("fn, want", [
    (q1d_psd_per_wavelength, "bde731e0025341898d367153048c61deb3b12faeee9079777580463b78408913"),
    (lambda lam, t: q1d_psd_per_wavelength(lam, t, polarizations=1),
     "f868d0d215a4842f7d6a6301cca28d2fc4157ea76700a48c6a3f554f94671c89"),
    (planck_irradiance_per_wavelength, "68917008a098adc9091ba0e11098cb15a257f2193d6e432e646dd06a476b85d9"),
], ids=["q1d_psd_per_wavelength", "q1d_psd_per_wavelength-1pol", "planck_irradiance_per_wavelength"])
def test_per_wavelength_densities_are_pinned(fn, want):
    grid = np.geomspace(50.0, 1e5, 401)
    chunks = []
    for t in TEMPERATURES:
        chunks.append(fn(grid, t).tobytes())
        for lam in (50.0, 200.0, 614.3, 1000.0, 5000.0, 1e5):
            v = fn(lam, t)
            assert type(v) is float
            chunks.append(repr(v).encode())
    assert sha(*chunks) == want


@pytest.mark.parametrize("fn, want", [
    (q1d_psd, "6e5ecf3e57110d0684291b1574efb3b4ddda34baa31df408b1eb380b3adc2d89"),
    (planck_irradiance, "9c7c9f3020f57a5f8ab138bf96243db3482b8457626c9edfdf62d9bbeb2ac4ef"),
    (planck_radiance, "00fda50add696680aaed9d6bef7ffc258abd26037c196c13e5725e8daae83bd7"),
    (planck_energy_density, "1458f0f7a33dfaec6c70eb47d59a6392bc2074679b7e31ced4c82a8fe6b94161"),
    (mean_occupation, "2cd5cfdffb7c2ee0154c672a90f6a5a49c5b1bcd918a475d8bd54f0c05c6b9fa"),
], ids=["q1d_psd", "planck_irradiance", "planck_radiance", "planck_energy_density", "mean_occupation"])
def test_per_omega_densities_are_pinned(fn, want):
    omega = np.geomspace(1e12, 4e16, 401)
    chunks = []
    for t in TEMPERATURES:
        chunks.append(fn(omega, t).tobytes())
        for w in (1e12, 3.07e15, 4e16):
            v = fn(w, t)
            assert type(v) is float
            chunks.append(repr(v).encode())
    assert sha(*chunks) == want
