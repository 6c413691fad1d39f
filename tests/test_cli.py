"""End-to-end command-line checks through subprocess, matching real usage."""

import io
import json
import os
import math
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolight import (
    CoolingDrive,
    ReferenceSolarSpectrum,
    SampledSpectrum,
    SpectrumKind,
    atmospheric_correction,
    cooling_rate_report,
    cycle_rate,
    load_ion,
    q1d_psd_per_wavelength,
    read_spectrum_csv,
    slit_transmission,
    write_spectrum_csv,
)
from thermolight.acceptance import renewal_slope
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
    lambda d: {**d, "name": 5},
], ids=["bool-g_e", "huge-A_PS_s", "int-references", "list", "int-name"])
def test_rate_rejects_bad_atomic_data(tmp_path, capsys, broken):
    ion_file = tmp_path / "ion.json"
    bundled = json.loads(resources.files("thermolight.data").joinpath("ba138p.json").read_text("utf-8"))
    ion_file.write_text(json.dumps(broken(bundled)))
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


def write_reduce_inputs(tmp_path, t_true=5800.0, eta_true=0.72) -> list:
    """raw.csv and resp.csv of a synthetic measurement; returns the matching `reduce` arguments."""
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
    return [
        "reduce", "--raw", str(tmp_path / "raw.csv"),
        "--response", str(tmp_path / "resp.csv"),
        "--power-w", repr(power), "--temperature-k", repr(t_true),
    ]


def test_reduce_round_trip(tmp_path):
    t_true, eta_true = 5800.0, 0.72
    proc = run_cli(*write_reduce_inputs(tmp_path, t_true, eta_true), "--json", "--out", str(tmp_path))
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

    monkeypatch.setattr("thermolight.cooling_sim.simulate_ensemble", no_ensemble)  # cmd_simulate imports it per call
    for bad in (["--grid-points", "1"], ["--trajectories", "1"]):
        code = cli.main([
            "simulate", "--gamma", "11.06", "--eta-sp", "0.74",
            "--step-duration-s", "1e-3", "--t-max-s", "0.1", "--out", str(tmp_path), *bad,
        ])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:") and bad[0] in lines[0]


@pytest.mark.parametrize("sizes, flag", [
    (["--trajectories", "100000000000"], "--trajectories"),
    (["--trajectories", "100001"], "--trajectories"),
    (["--grid-points", "100000000000"], "--grid-points"),
    (["--grid-points", "100001"], "--grid-points"),
    (["--trajectories", "100000", "--grid-points", "1001"], "--grid-points"),
    # each flag is valid on its own; the ensemble would record about 2e9 and 1.6e7 rows
    (["--gamma", "11", "--step-duration-s", "0.001", "--t-max-s", "1", "--heating-rate", "1e9",
      "--trajectories", "2"], "--heating-rate"),
    (["--gamma", "1e6", "--step-duration-s", "1e-7", "--t-max-s", "1", "--n-initial", "100000000",
      "--trajectories", "10"], "--step-duration-s"),
    (["--write-trajectories", "-5"], "--write-trajectories"),
], ids=["1e11-trajectories", "trajectories-ceiling", "1e11-grid-points", "grid-points-ceiling", "grid-samples",
        "heating-rows", "transfer-rows", "negative-write-trajectories"])
def test_simulate_refuses_sizes_above_the_ceiling(tmp_path, monkeypatch, capsys, sizes, flag):
    import thermolight.cli as cli

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble was simulated before the sizes were checked")

    monkeypatch.setattr("thermolight.cooling_sim.simulate_ensemble", no_ensemble)  # cmd_simulate imports it per call
    out = tmp_path / "out"
    run_main_refused(["simulate", "--gamma", "11.06", "--eta-sp", "0.74", "--step-duration-s", "1e-3",
                      "--t-max-s", "0.1", "--out", str(out), *sizes], capsys, flag)
    assert not out.exists()


class Simulated(Exception):
    """Raised in place of simulating: the flags passed every check that comes before the ensemble."""


def test_simulate_takes_a_fast_cycle_below_the_row_ceiling(tmp_path, monkeypatch, capsys):
    import thermolight.cli as cli

    def sentinel(*args, **kwargs):
        raise Simulated

    monkeypatch.setattr("thermolight.cooling_sim.simulate_ensemble", sentinel)  # cmd_simulate imports it per call
    # t_max/tau_I would count 2e6 transfers per member; at the cycle rate of about 6.9e3/s there are
    # 1.4e5, and the ensemble records about 6.5e5 rows
    with pytest.raises(Simulated):
        cli.main(["simulate", "--gamma", "1e4", "--eta-sp", "0.74", "--step-duration-s", "1e-5", "--t-max-s", "20",
                  "--n-initial", "100000000", "--trajectories", "2", "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""


def test_simulate_writes_the_rate_equation_on_the_grid(tmp_path, capsys):
    # R t_max is about 7e7 here; the mean-field curve costs the same at any R t_max
    argv = ["simulate", "--gamma", "1e6", "--eta-sp", "0.74", "--step-duration-s", "1e-7", "--t-max-s", "100",
            "--trajectories", "2", "--grid-points", "31", "--out", str(tmp_path)]
    code, _, err = run_main(argv, capsys)
    assert code == 0, err
    rows = (tmp_path / "rate_equation.csv").read_text().splitlines()
    assert rows[0] == "time_s,n" and len(rows) == 1 + 31
    assert rows[1] == "0.0,0.0" and rows[-1] == "100.0,0.0"  # n0 = 0 without heating stays there


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


@pytest.mark.parametrize("argv", [
    ["rate", "--ion", "ba138p", "--eta", "0.5", "--grayness", "5e-5", "--temperature-k", "5800", "--json"],
    ["check"],
], ids=["rate-json", "check"])
def test_a_closed_stdout_ends_without_a_traceback(tmp_path, argv):
    # the pipe's reading end is closed before the child starts, so its first write to stdout fails;
    # check's criteria are stubbed out, only its report is written
    code = ("import sys; from thermolight import acceptance, cli; "
            "acceptance.run_all = lambda: []; sys.exit(cli.main(sys.argv[1:]))")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path)], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr


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
    code, out, err = run_main([*argv, "--temperature-k", "5800"], capsys)
    assert code == 0 and err == ""  # the default case raises no warning
    assert json.loads(out)["gamma_over_a_pd"] == pytest.approx(2.66e-7, rel=0.01)
    code, out, err = run_main([*argv, "--temperature-k", "1e30"], capsys)
    assert code == 0
    assert err.splitlines() == ["warning: Gamma/A_PD = 6.33e+20 > 0.1: outside the linear regime Gamma << A_PD"
                                " that the phonon rate assumes"]
    assert json.loads(out)["gamma_over_a_pd"] == pytest.approx(6.3e20, rel=0.01)


@pytest.mark.parametrize("bad", [
    ["--band-nm", "900", "400"],
    ["--band-nm", "0", "900"],
    ["--points", "1"],
    ["--points", "100001"],  # one above the ceiling: a value that would allocate is never tried
], ids=["reversed-band", "zero-band", "one-point", "points-ceiling"])
def test_spectrum_rejects_bad_grid(tmp_path, capsys, bad):
    out = tmp_path / "out"
    run_main_refused(["spectrum", *as_flags(BASE_PARAMS["spectrum"]), *bad, "--out", str(out)], capsys, bad[0])
    assert not out.exists()


def test_simulate_refuses_a_cycle_that_never_completes(tmp_path, capsys):
    out = tmp_path / "out"
    params = {**BASE_PARAMS["simulate"], "eta_sp": 0}
    code, stdout, err = run_main(["simulate", *as_flags(params), "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--eta-sp" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--eta-sp", "0"], "--eta-sp"),
    (["--seed", "-1"], "--seed"),
    (["--n-initial", "99999999999999999999"], "--n-initial"),
], ids=["zero-eta-sp", "negative-seed", "huge-n-initial"])
def test_simulate_names_the_flag_of_a_bad_config(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    run_main_refused(["simulate", *as_flags(BASE_PARAMS["simulate"]), *flags, "--out", str(out)], capsys, named)
    assert not out.exists()


EXTREME_HORIZON = ["simulate", "--gamma", "11", "--eta-sp", "0.74", "--step-duration-s", "1e-3", "--n-initial", "5"]


def test_simulate_names_the_flag_of_a_horizon_too_short_for_its_grid(tmp_path, capsys):
    # 200 grid steps of 5e-203 s: the slopes' variance, in 1/s^2, is past the doubles
    out = tmp_path / "out"
    run_main_refused([*EXTREME_HORIZON, "--t-max-s", "1e-200", "--out", str(out)], capsys, "--t-max-s 1e-200")
    assert not out.exists()


def test_simulate_fits_a_slope_over_a_horizon_whose_squares_overflow(tmp_path, capsys):
    code, stdout, err = run_main([*EXTREME_HORIZON, "--t-max-s", "1e200", "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    stats = json.loads((tmp_path / "ensemble_summary.json").read_text())["stats"]
    assert stats["slope_per_s"] == 0.0 and stats["slope_window_s"] == [5e197, 1.5e198]  # at the ground state by then


@pytest.mark.parametrize("temperature", ["inf", "nan"])
def test_spectrum_names_the_flag_of_a_non_finite_temperature(tmp_path, capsys, temperature):
    out = tmp_path / "out"
    params = {**BASE_PARAMS["spectrum"], "temperature_k": temperature}
    code, stdout, err = run_main(["spectrum", *as_flags(params), "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--temperature-k" in lines[0]
    assert not out.exists()


def run_main_refused(argv, capsys, flag):
    """Run argv in-process; assert exit 1, no output and one `error:` line naming flag, so no `warning:` line."""
    code, stdout, err = run_main(argv, capsys)
    assert code == 1 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]


@pytest.mark.parametrize("flags, named", [
    (["--grayness", "5e-5", "--temperature-k", "inf"], "--temperature-k"),
    (["--grayness", "5e-5", "--temperature-k", "nan"], "--temperature-k"),
    (["--waist-um", "1e200", "--temperature-k", "5800"], "--waist-um"),
    (["--waist-um", "0.3", "--temperature-k", "5800"], "--waist-um 0.3 is outside the paraxial focus model"),
    (["--waist-um", "0.01", "--temperature-k", "5800"], "--waist-um 0.01 is outside the paraxial focus model"),
    (["--waist-um", "1e-300", "--temperature-k", "5800"], "--waist-um 1e-300 is outside the paraxial focus model"),
    (["--grayness", "5e-5", "--temperature-k", "5800", "--step-duration-s", "nan"],
     "--step-duration-s must be a finite real in [0, inf), got nan"),
    (["--grayness", "5e-5", "--temperature-k", "5800", "--step-duration-s", "-1"],
     "--step-duration-s must be a finite real in [0, inf), got -1.0"),
], ids=["inf-temperature", "nan-temperature", "huge-waist", "non-paraxial-waist", "sub-diffraction-waist",
        "tiny-waist", "nan-step-duration", "negative-step-duration"])
def test_rate_names_the_flag_of_a_bad_value(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    run_main_refused(["rate", "--ion", "ba138p", "--eta", "0.5", *flags, "--out", str(out)], capsys, named)
    assert not out.exists()


def test_rate_takes_the_smallest_waist_it_names(tmp_path, capsys):
    # the half angle lambda_2 / (pi w0) reaches the paraxial model's 0.3 rad at w0 = 0.65184 um; down to
    # there a waist is taken with a warning, and above 1.9555 um (0.1 rad) without one
    argv = ["rate", "--ion", "ba138p", "--eta", "0.5", "--temperature-k", "5800", "--json", "--out", str(tmp_path)]
    for waist, angle in (("0.6519", "0.3"), ("1", "0.196")):
        code, out, err = run_main([*argv, "--waist-um", waist], capsys)
        assert code == 0, err
        # one line on stderr, with no source line after it
        assert err.splitlines() == [f"warning: half angle {angle} rad exceeds 0.1: paraxial model marginal"]
        assert json.loads(out)["inputs"]["waist_um"] == float(waist)
    run_main_refused([*argv, "--waist-um", "0.6517"], capsys, "--waist-um")


@pytest.mark.parametrize("flags", [
    ["--domain", "omega", "--band-nm", "1e-300", "2e-300"],
    ["--domain", "wavelength", "--band-nm", "1e-300", "2e-300"],
    ["--domain", "wavelength", "--band-nm", "5e-324", "1"],
    ["--domain", "omega", "--band-nm", "300", "inf"],
    ["--domain", "wavelength", "--band-nm", "nan", "900"],
    ["--domain", "omega", "--band-nm", "1e-200", "2e-200"],
    ["--domain", "wavelength", "--band-nm", "300", "1e308"],
    ["--domain", "omega", "--band-nm", "300", "1e308"],
], ids=["omega-subnormal-band", "wavelength-subnormal-band", "smallest-double", "omega-inf", "nan",
        "omega-jacobian-underflow", "wavelength-jacobian-overflow", "omega-jacobian-overflow"])
@pytest.mark.parametrize("family", ["q1d", "planck"])
def test_spectrum_refuses_a_band_it_cannot_convert(tmp_path, capsys, flags, family):
    out = tmp_path / "out"
    params = {**BASE_PARAMS["spectrum"], "family": family}
    run_main_refused(["spectrum", *as_flags(params), *flags, "--out", str(out)], capsys, "--band-nm")
    assert not out.exists()


@pytest.mark.parametrize("temperature", ["inf", "nan"])
def test_reduce_names_the_flag_of_a_non_finite_temperature(tmp_path, capsys, temperature):
    argv = write_reduce_inputs(tmp_path)
    argv[argv.index("--temperature-k") + 1] = temperature
    out = tmp_path / "out"
    run_main_refused([*argv, "--out", str(out)], capsys, "--temperature-k")
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--slit-um", "-5"], "--slit-um must be a finite real in (1e-300, inf), got -5.0"),
    (["--distance-mm", "0"], "--distance-mm must be a finite real in (1e-300, inf), got 0.0"),
    (["--mode-field-radius-um", "nan"], "--mode-field-radius-um must be a finite real in (1e-300, inf), got nan"),
    (["--power-w", "-1"], "--power-w must be a finite real in (0, inf), got -1.0"),
    (["--band-nm", "900", "400"], "--band-nm must satisfy lo < hi, got [900.0, 400.0]"),
    (["--band-nm", "0", "900"], "--band-nm must be a finite real in (0, inf), got 0.0"),
    # positive in um, but 0 once converted to metres
    (["--slit-um", "1e-320"], "--slit-um must be a finite real in (1e-300, inf), got 1e-320"),
    (["--mode-field-radius-um", "1e-320"], "--mode-field-radius-um must be a finite real in (1e-300, inf), got 1e-320"),
], ids=["negative-slit", "zero-distance", "nan-mode-field-radius", "negative-power", "reversed-band", "zero-band",
        "underflowing-slit", "underflowing-mode-field-radius"])
def test_reduce_names_the_flag_of_a_bad_value(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    run_main_refused([*write_reduce_inputs(tmp_path), *flags, "--out", str(out)], capsys, named)
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--motion-hz", "-1"], "--motion-hz must be a finite real in (0, inf), got -1.0"),
    (["--t-room-k", "-300"], "--t-room-k must be a finite real in (0, inf), got -300.0"),
    (["--t-sun-k", "-300"], "--t-sun-k must be a finite real in (0, inf), got -300.0"),
    (["--t-room-k", "inf"], "--t-room-k must be a finite real in (0, inf), got inf"),
    # finite in Hz: 2 pi v overflows, or passes the S-D splitting
    (["--motion-hz", "1e308"], "--motion-hz must be below the S-D splitting, 1.701e+14 Hz, got 1e+308"),
    (["--motion-hz", "1e16"], "--motion-hz must be below the S-D splitting, 1.701e+14 Hz, got 1e+16"),
    # positive in Hz, but k_B T_V underflows to 0 (a ZeroDivisionError in its beta), or T_V itself does
    (["--motion-hz", "1e-300"], "--motion-hz must be at least 3.36e-275 Hz, where hbar w_m is a normal double, "
                                "got 1e-300"),
    (["--motion-hz", "5e-324"], "--motion-hz must be at least 3.36e-275 Hz, where hbar w_m is a normal double, "
                                "got 5e-324"),
    # hbar w_m is normal, but k_B T of the room limit is subnormal and its occupation would lose its digits
    (["--motion-hz", "1e-274"], "--motion-hz 1e-274 and --t-room-k 300.0 put the room-limit virtual temperature "
                                "at 4.56e-287 K, where k_B T is below the smallest normal double"),
    # positive in K, but omega3/T_room overflows, so T_V would be 0 K
    (["--t-room-k", "1e-300"], "--motion-hz 1000000.0 and --t-room-k 1e-300 put the room-limit virtual temperature "
                               "at 1.52e-309 K, where k_B T is below the smallest normal double"),
    (["--t-room-k", "1e-310"], "--motion-hz 1000000.0 and --t-room-k 1e-310 put the room-limit virtual temperature "
                               "at 1.52e-319 K, where k_B T is below the smallest normal double"),
], ids=["negative-motion", "negative-room", "negative-sun", "infinite-room", "overflowing-motion",
        "motion-above-splitting", "underflowing-motion", "smallest-motion", "subnormal-room-limit",
        "overflowing-room-ratio", "subnormal-room"])
def test_virtual_temp_names_the_flag_of_a_bad_value(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    argv = ["virtual-temp", "--ion", "ba138p", "--t-room-k", "300", "--t-sun-k", "5800", "--motion-hz", "1e6"]
    run_main_refused([*argv, *flags, "--out", str(out)], capsys, named)
    assert not out.exists()


def test_reduce_names_the_row_of_a_refused_count(tmp_path, capsys):
    argv = write_reduce_inputs(tmp_path)
    raw = tmp_path / "raw.csv"
    lines = raw.read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + ",-2.0\n"  # the second data row
    raw.write_text("".join(lines))
    run_main_refused([*argv, "--out", str(tmp_path / "out")], capsys,
                     f"{raw}:4: values[1] must be a finite real in [0, inf), got -2.0")
    assert not (tmp_path / "out").exists()


def test_reduce_reads_a_reference_file(tmp_path, capsys):
    argv = write_reduce_inputs(tmp_path)
    bundled = ReferenceSolarSpectrum.load_bundled()
    rows = "".join(f"{w!r},{v!r}\n" for w, v in zip(bundled.wavelengths_nm.tolist(), bundled.values.tolist()))
    kindless = tmp_path / "reference.csv"
    kindless.write_text("wavelength_nm,value\n" + rows)
    code, _, err = run_main([*argv, "--out", str(tmp_path / "bundled")], capsys)
    assert code == 0, err
    code, _, err = run_main([*argv, "--reference", str(kindless), "--out", str(tmp_path / "file")], capsys)
    assert code == 0, err
    for name in ("fit_report.json", "efficiency.csv", "calibrated_psd.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "bundled" / name).read_bytes(), name

    ratio = tmp_path / "ratio.csv"
    ratio.write_text("# kind=ratio\nwavelength_nm,value\n" + rows)
    code, out, err = run_main([*argv, "--reference", str(ratio), "--out", str(tmp_path / "ratio")], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'ratio'" in lines[0]


def test_virtual_temp_in_process(tmp_path, capsys):
    code, out, err = run_main(["virtual-temp", "--ion", "ba138p", "--t-room-k", "300", "--t-sun-k", "5800",
                               "--motion-hz", "1e6", "--json", "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["t_v_room_limit_k"] == pytest.approx(4.558463e-07, rel=1e-5)
    assert report["log10_n_bar_room_limit"] == pytest.approx(-45.723, abs=0.01)
    assert report["t_v_k"] == pytest.approx(4.74e-07, rel=1e-2)
    assert json.loads((tmp_path / "virtual_temp_report.json").read_text()) == report


def test_check_prints_one_pass_line_per_criterion_in_process(tmp_path, capsys):
    code, out, err = run_main(["check", "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split(maxsplit=2)[:2] for line in lines[:-1]] == [["PASS", f"{i}."] for i in range(1, 10)]
    assert "FAIL" not in out and lines[-1] == "all criteria passed"


def test_check_json_reports_a_failure(tmp_path, capsys, monkeypatch):
    import thermolight.cli as cli
    from thermolight.acceptance import CriterionResult

    monkeypatch.setattr(cli.acceptance_mod, "run_all",
                        lambda: [CriterionResult(1, "stub criterion", False, "stub detail")])
    code, out, _ = run_main(["check", "--json", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(out) == {
        "command": "check",
        "passed": False,
        "results": [{"index": 1, "name": "stub criterion", "passed": False, "detail": "stub detail"}],
    }


@settings(deadline=None, max_examples=25)
@given(a_ps=st.floats(1e6, 1e9), a_pd=st.floats(1e6, 1e9), grayness=st.floats(1e-6, 1.0),
       temperature_k=st.floats(3000.0, 10000.0), tau=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)))
def test_rate_and_simulate_price_one_cycle_rate(tmp_path_factory, a_ps, a_pd, grayness, temperature_k, tau):
    # an ion whose A rates set eta_SP, and a drive whose grayness and temperature set Gamma
    import thermolight.cli as cli

    out = tmp_path_factory.mktemp("chain")
    ion = json.loads(resources.files("thermolight.data").joinpath("ba138p.json").read_text("utf-8"))
    ion.update(A_PS_s=a_ps, A_PD_s=a_pd, A_PD_driven_s=a_pd)
    (out / "ion.json").write_text(json.dumps(ion))
    report = cooling_rate_report(load_ion(str(out / "ion.json")),
                                 CoolingDrive(0.5, grayness, 2e6, step_duration_s=tau), temperature_k)
    assert report.phonon_rate == -cycle_rate(report.gamma, report.eta_sp, tau)
    assert report.phonon_rate == pytest.approx(-renewal_slope(report.gamma, report.eta_sp, tau), rel=1e-12, abs=0.0)

    def report_of(name, *argv):
        with redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads((out / name).read_text())

    rate = report_of("rate_report.json", "rate", "--ion", str(out / "ion.json"), "--eta", "0.5", "--grayness",
                     repr(grayness), "--temperature-k", repr(temperature_k), "--step-duration-s", repr(tau))
    assert rate["phonon_rate_per_s"] == report.phonon_rate
    if tau > 0.0:  # simulate's sideband interval is positive
        summary = report_of("ensemble_summary.json", "simulate", "--gamma", repr(rate["gamma_per_s"]),
                            "--eta-sp", repr(rate["eta_sp"]), "--step-duration-s", repr(tau), "--t-max-s", "1",
                            "--trajectories", "2", "--grid-points", "3", "--write-trajectories", "0")
        assert summary["renewal_slope_per_s"] == rate["phonon_rate_per_s"]
