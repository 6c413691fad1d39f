"""End-to-end command-line checks through subprocess, matching real usage."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from thermolight import (
    ReferenceSolarSpectrum,
    SampledSpectrum,
    SpectrumKind,
    atmospheric_correction,
    load_ion,
    q1d_psd_per_wavelength,
    read_spectrum_csv,
    slit_transmission,
    write_spectrum_csv,
)
from thermolight.data_pipeline import SlitGeometry
from scipy.integrate import trapezoid


def run_cli(*args, expect_code=0, python_flags=()):
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "thermolight", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == expect_code, f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    return proc


def test_spectrum_q1d_wavelength(tmp_path):
    proc = run_cli(
        "spectrum", "--temperature-k", "5800", "--family", "q1d",
        "--domain", "wavelength", "--band-nm", "500", "1200",
        "--points", "201", "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    assert out["analytic_peak_nm"] == pytest.approx(879.21, abs=0.01)
    assert abs(out["grid_peak_nm"] - 879.21) < 4.0  # grid is 3.5 nm coarse
    assert out["band_integral"] > 0.0
    spec = read_spectrum_csv(tmp_path / "spectrum_q1d_per_wavelength.csv")
    assert spec.kind == SpectrumKind.PSD_PER_WAVELENGTH
    assert spec.wavelengths_nm.size == 201


def test_spectrum_planck_wavelength_and_svg(tmp_path):
    proc = run_cli(
        "spectrum", "--temperature-k", "5800", "--family", "planck",
        "--domain", "wavelength", "--svg", "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    assert out["analytic_peak_nm"] == pytest.approx(499.62, abs=0.01)
    svg = (tmp_path / "spectrum_planck_per_wavelength.svg").read_text()
    assert svg.lstrip().startswith("<svg")


def test_global_flags_before_subcommand(tmp_path):
    proc = run_cli(
        "--json", "--out", str(tmp_path),
        "spectrum", "--temperature-k", "5800", "--family", "q1d", "--domain", "omega",
    )
    out = json.loads(proc.stdout)
    assert out["analytic_peak_nm"] is None  # per-omega single-mode curve is monotone


def test_rate_report(tmp_path):
    proc = run_cli(
        "rate", "--ion", "ba138p", "--grayness", "5e-5", "--eta", "0.5",
        "--temperature-k", "5800", "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    assert out["phonon_rate_per_s"] == pytest.approx(-8.2, abs=0.9)
    assert 0.7 < out["eta_sp"] < 0.8
    on_disk = json.loads((tmp_path / "rate_report.json").read_text())
    assert on_disk["phonon_rate_per_s"] == out["phonon_rate_per_s"]


def test_rate_waist_variant(tmp_path):
    proc = run_cli(
        "rate", "--ion", "ba138p", "--waist-um", "20", "--eta", "0.5",
        "--temperature-k", "5800", "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    assert -9.0 < out["phonon_rate_per_s"] < -7.0


def test_rate_rejects_conflicting_geometry(tmp_path):
    proc = run_cli(
        "rate", "--ion", "ba138p", "--grayness", "5e-5", "--waist-um", "20",
        "--eta", "0.5", "--temperature-k", "5800", "--out", str(tmp_path),
        expect_code=1,
    )
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("broken", [
    lambda d: {**d, "g_e": True},       # a bool is not a degeneracy
    lambda d: {**d, "A_PS_s": 10 ** 400},  # an integer too large for a float
    lambda d: {**d, "references": 5},
    lambda d: [d],                      # not a JSON object
], ids=["bool-g_e", "huge-A_PS_s", "int-references", "list"])
def test_rate_rejects_bad_atomic_data(tmp_path, capsys, broken):
    ion_file = tmp_path / "ion.json"
    ion_file.write_text(json.dumps(broken(load_ion().to_dict())))
    code, out, err = run_main(["rate", "--ion", str(ion_file), "--grayness", "5e-5", "--eta", "0.5",
                               "--temperature-k", "5800", "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_virtual_temp(tmp_path):
    proc = run_cli(
        "virtual-temp", "--ion", "ba138p", "--t-room-k", "300",
        "--t-sun-k", "5800", "--motion-hz", "1e6", "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    assert out["t_v_room_limit_k"] == pytest.approx(4.558463e-07, rel=1e-5)
    assert out["log10_n_bar_room_limit"] == pytest.approx(-45.723, abs=0.01)
    assert out["t_v_k"] == pytest.approx(4.74e-07, rel=1e-2)
    assert (tmp_path / "virtual_temp_report.json").exists()


def test_simulate_outputs_and_reproducibility(tmp_path):
    args = [
        "simulate", "--gamma", "11.06", "--eta-sp", "0.74",
        "--step-duration-s", "1e-3", "--n-initial", "5", "--t-max-s", "1.0",
        "--trajectories", "20", "--grid-points", "51",
        "--write-trajectories", "2", "--seed", "42", "--json",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    proc = run_cli(*args, "--out", str(a))
    out = json.loads(proc.stdout)
    stats = out["stats"]
    assert stats["n_trajectories"] == 20
    assert stats["slope_per_s"] < 0.0
    assert "mean_n" not in stats  # curves go to the file, not stdout
    assert out["renewal_slope_per_s"] == pytest.approx(-8.11796, abs=1e-4)
    header = (a / "trajectory_000.csv").read_text().splitlines()[0]
    assert header == "time_s,n,internal_state"
    assert (a / "trajectory_001.csv").exists()
    assert not (a / "trajectory_002.csv").exists()
    summary = json.loads((a / "ensemble_summary.json").read_text())
    assert len(summary["stats"]["mean_n"]) == 51
    counters = summary["counters"]
    assert sum(counters["stop_reasons"].values()) == 20
    assert set(counters["stop_reasons"]) <= {"t_max", "quiescent"}
    assert counters["cycles"] == counters["empty_intervals"] + counters["transfers"]
    assert counters["transfers"] > 0 and counters["heating_events"] == 0
    ode_lines = (a / "rate_equation.csv").read_text().splitlines()
    assert ode_lines[0] == "time_s,n"
    t0, n0 = ode_lines[1].split(",")
    assert float(t0) == 0.0 and float(n0) == 5.0

    run_cli(*args, "--out", str(b))
    assert (a / "ensemble_summary.json").read_bytes() == (b / "ensemble_summary.json").read_bytes()
    c = tmp_path / "c"
    run_cli(*[arg if arg != "42" else "43" for arg in args], "--out", str(c))
    assert (a / "ensemble_summary.json").read_bytes() != (c / "ensemble_summary.json").read_bytes()


def test_reduce_round_trip(tmp_path):
    t_true, eta_true = 5800.0, 0.72
    corr = atmospheric_correction(ReferenceSolarSpectrum.load_bundled(), t_true)
    geom = SlitGeometry(slit_width_m=50e-6, distance_m=10e-3, mode_field_radius_m=2.25e-6)

    resp_grid = np.linspace(380.0, 1000.0, 63)
    resp_vals = 0.8 + 0.1 * np.sin(resp_grid / 90.0)
    np.savetxt(
        tmp_path / "resp.csv",
        np.column_stack([resp_grid, resp_vals]),
        delimiter=",",
        header="wavelength_nm,value",
        comments="",
    )

    grid = np.arange(390.0, 950.5, 1.0)
    ideal = np.array([q1d_psd_per_wavelength(l, t_true) for l in grid])
    ground = eta_true * ideal * corr.interpolate(grid)
    counts = ground * slit_transmission(geom, grid) * np.interp(grid, resp_grid, resp_vals)
    write_spectrum_csv(
        tmp_path / "raw.csv", SampledSpectrum(grid, counts * 1e9, SpectrumKind.COUNTS)
    )
    in_band = (grid >= 400.0) & (grid <= 900.0)
    power = float(trapezoid(ground[in_band], grid[in_band]))

    proc = run_cli(
        "reduce", "--raw", str(tmp_path / "raw.csv"),
        "--response", str(tmp_path / "resp.csv"),
        "--power-w", repr(power), "--temperature-k", "5800",
        "--json", "--out", str(tmp_path),
    )
    out = json.loads(proc.stdout)
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert set(report) == {"T_K", "residual", "eta_band_avg", "band_nm"}
    assert report["T_K"] == pytest.approx(t_true, rel=0.02)
    assert report["eta_band_avg"] == pytest.approx(eta_true, rel=0.05)
    assert report["residual"] < 0.05
    assert out["T_K"] == report["T_K"]
    cal = read_spectrum_csv(tmp_path / "calibrated_psd.csv")
    assert cal.kind == SpectrumKind.PSD_PER_WAVELENGTH
    eff = read_spectrum_csv(tmp_path / "efficiency.csv")
    assert eff.kind == SpectrumKind.RATIO
    assert float(np.median(eff.values)) == pytest.approx(eta_true, rel=0.05)


def test_config_file_merge_and_rejection(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"temperature_k": 5000, "family": "q1d", "domain": "wavelength"}))
    proc = run_cli("spectrum", "--config", str(cfg), "--json", "--out", str(tmp_path))
    out = json.loads(proc.stdout)
    peak_5000 = 879.21 * 5800.0 / 5000.0
    assert out["analytic_peak_nm"] == pytest.approx(peak_5000, abs=0.02)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_knob": 1}))
    proc = run_cli("spectrum", "--config", str(bad), "--out", str(tmp_path), expect_code=1)
    assert proc.stderr.startswith("error:")


def test_simulate_rejects_tiny_grid(tmp_path):
    proc = run_cli(
        "simulate", "--gamma", "11.06", "--eta-sp", "0.74",
        "--step-duration-s", "1e-3", "--t-max-s", "0.1", "--trajectories", "2",
        "--grid-points", "1", "--out", str(tmp_path),
        expect_code=1,
    )
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "DLASCL" not in proc.stdout + proc.stderr


def test_simulate_validates_before_simulating(tmp_path, monkeypatch, capsys):
    import thermolight.cli as cli

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was simulated before the flags were checked")

    monkeypatch.setattr(cli, "simulate_ensemble", no_ensemble)
    for bad in (["--grid-points", "1"], ["--trajectories", "1"]):
        code = cli.main([
            "simulate", "--gamma", "11.06", "--eta-sp", "0.74",
            "--step-duration-s", "1e-3", "--t-max-s", "0.1", "--out", str(tmp_path), *bad,
        ])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_import_loads_no_scipy():
    code = (
        "import sys, thermolight, thermolight.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_required_flag_errors(tmp_path):
    proc = run_cli("rate", "--out", str(tmp_path), expect_code=1)
    assert proc.stderr.startswith("error:")


def test_check_reports_all_criteria(tmp_path):
    # -X importtime makes the fresh interpreter log every module it loads to stderr
    proc = run_cli("check", "--out", str(tmp_path), python_flags=("-X", "importtime"))
    lines = [l for l in proc.stdout.splitlines() if l.strip().startswith("PASS")]
    assert len(lines) == 9
    assert "FAIL" not in proc.stdout
    loaded = [l.rsplit("|", 1)[-1].strip() for l in proc.stderr.splitlines() if l.startswith("import time:")]
    assert "thermolight.acceptance" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


# -- config files, in process through cli.main ------------------------------

BASE_PARAMS = {
    "spectrum": {"temperature_k": 5800.0, "family": "q1d", "domain": "wavelength", "points": 11},
    "simulate": {"gamma": 11.06, "eta_sp": 0.74, "step_duration_s": 1e-3, "t_max_s": 0.05,
                 "trajectories": 2, "grid_points": 5, "write_trajectories": 1},
}


def as_flags(params):
    """The command-line spelling of a dict of parameters, written out independently of the CLI."""
    argv = []
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, *(str(v) for v in (value if isinstance(value, list) else [value]))]
    return argv


def run_main(argv, capsys):
    """cli.main in this process: (exit status, stdout, stderr), argparse's exits included."""
    import thermolight.cli as cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_config(params, tmp_path, capsys, *argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(params))
    return run_main([*argv, "--config", str(cfg)], capsys)


@pytest.mark.parametrize("command, key, value, has_flag_twin", [
    ("spectrum", "family", "bogus", True),
    ("spectrum", "points", 3.5, True),
    ("spectrum", "band_nm", 5, True),
    ("simulate", "trajectories", 2.5, True),
    ("spectrum", "svg", "no", False),
    ("spectrum", "domain", "bogus", True),
    ("spectrum", "polarizations", 3, True),
    ("simulate", "n_initial", 2.0, True),
    ("simulate", "seed", "abc", True),
])
def test_bad_config_value_fails_like_the_flag(tmp_path, capsys, command, key, value, has_flag_twin):
    params = {k: v for k, v in BASE_PARAMS[command].items() if k != key}
    out = tmp_path / "out"
    code, _, err = run_with_config({**params, key: value}, tmp_path, capsys, command, "--out", str(out))
    flag = "--" + key.replace("_", "-")
    assert code not in (0, None)
    assert "Traceback" not in err
    assert f"error: argument {flag}: " in err.splitlines()[-1]
    assert not out.exists()
    if has_flag_twin:
        twin = tmp_path / "twin"
        twin_code, _, twin_err = run_main(
            [command, *as_flags(params), flag, str(value), "--out", str(twin)], capsys)
        assert (code, err.splitlines()[-1]) == (twin_code, twin_err.splitlines()[-1])
        assert not twin.exists()


def test_config_precedence(tmp_path, capsys):
    spectrum = {k: v for k, v in BASE_PARAMS["spectrum"].items() if k != "points"}
    _, out, _ = run_main(["spectrum", *as_flags(spectrum), "--json", "--out", str(tmp_path)], capsys)
    assert json.loads(out)["points"] == 601  # the default
    _, out, _ = run_with_config({**spectrum, "points": 21}, tmp_path, capsys,
                                "spectrum", "--json", "--out", str(tmp_path))
    assert json.loads(out)["points"] == 21  # config beats the default
    _, out, _ = run_with_config({**spectrum, "points": 21}, tmp_path, capsys,
                                "spectrum", "--points", "31", "--json", "--out", str(tmp_path))
    assert json.loads(out)["points"] == 31  # a flag after the subcommand beats config
    _, out, _ = run_with_config({**spectrum, "points": None}, tmp_path, capsys,
                                "spectrum", "--json", "--out", str(tmp_path))
    assert json.loads(out)["points"] == 601  # null leaves the default

    simulate = {**BASE_PARAMS["simulate"], "write_trajectories": 0}

    def seed_of(params, *argv):
        code, out, err = run_with_config(params, tmp_path, capsys, *argv, "--json", "--out", str(tmp_path))
        assert code == 0, err
        return json.loads(out)["config"]["seed"]

    from thermolight.cli import DEFAULT_SEED

    assert seed_of(simulate, "simulate") == DEFAULT_SEED
    assert seed_of({**simulate, "seed": 5}, "simulate") == 5
    assert seed_of({**simulate, "seed": 5}, "--seed", "7", "simulate") == 7
    assert seed_of({**simulate, "seed": 5}, "simulate", "--seed", "7") == 7


@pytest.mark.parametrize("command, params", [
    ("spectrum", {"temperature_k": 5000.0, "family": "planck", "domain": "omega",
                  "band_nm": [400.0, 1000.0], "points": 51, "polarizations": 1, "svg": True}),
    ("simulate", {"gamma": 8.0, "eta_sp": 0.9, "step_duration_s": 0.02, "heating_rate": 4.0,
                  "n_initial": 3, "t_max_s": 0.5, "trajectories": 4, "grid_points": 21,
                  "write_trajectories": 2, "seed": 11, "svg": True}),
])
def test_config_run_writes_the_same_files_as_flags(tmp_path, capsys, command, params):
    by_config, by_flags = tmp_path / "config", tmp_path / "flags"
    code, _, err = run_with_config(params, tmp_path, capsys, command, "--out", str(by_config))
    assert code == 0, err
    code, _, err = run_main([command, *as_flags(params), "--out", str(by_flags)], capsys)
    assert code == 0, err
    names = sorted(p.name for p in by_flags.iterdir())
    assert names == sorted(p.name for p in by_config.iterdir()) and len(names) >= 2
    for name in names:
        assert (by_config / name).read_bytes() == (by_flags / name).read_bytes(), name


def test_rate_flags_gamma_beyond_the_linear_regime(tmp_path, capsys):
    argv = ["rate", "--ion", "ba138p", "--grayness", "5e-5", "--eta", "0.5", "--json", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the default case raises no warning
        code, out, _ = run_main([*argv, "--temperature-k", "5800"], capsys)
    assert code == 0
    assert json.loads(out)["gamma_over_a_pd"] == pytest.approx(2.66e-7, rel=0.01)
    with pytest.warns(UserWarning, match="A_PD"):
        code, out, _ = run_main([*argv, "--temperature-k", "1e30"], capsys)
    assert code == 0
    assert json.loads(out)["gamma_over_a_pd"] == pytest.approx(6.3e20, rel=0.01)
