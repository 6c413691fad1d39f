"""Command-line interface.

Subcommands: spectrum, rate, virtual-temp, simulate, reduce, check.
Global flags work before or after the subcommand: --json for a single
machine-readable object on stdout, --out for the output directory,
--seed for stochastic commands, --config for a JSON file supplying any
of the subcommand's parameters (unknown keys are rejected; explicit
flags win). All files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance as acceptance_mod
from .constants import NM, TWO_PI_C
from .cooling_sim import (
    CycleConfig,
    cycle_rate,
    ensemble_counters,
    ensemble_stats,
    rate_equation_trajectory,
    simulate_ensemble,
)
from .data_pipeline import (
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SlitGeometry,
    apply_response,
    apply_slit_correction,
    atmospheric_correction,
    calibrate_power,
    extract_efficiency,
    fit_temperature,
)
from .ion_thermo import (
    BathSet,
    CoolingDrive,
    cooling_rate_report,
    ground_state_occupation,
    load_ion,
    virtual_temperature,
    virtual_temperature_room_limit,
)
from .mode_optics import grayness, top_hat_area
from .radiometry import (
    AngularFrequency,
    Temperature,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    wien_peak,
)
from .spectra import (
    SampledSpectrum,
    SpectrumKind,
    atomic_write_text,
    read_spectrum_csv,
    write_spectrum_csv,
)
from .svgplot import line_plot

DEFAULT_SEED = 20260825

# config-file keys each subcommand accepts (argparse dest names)
_CONFIG_KEYS = {
    "spectrum": {"temperature_k", "family", "domain", "band_nm", "points", "polarizations", "svg"},
    "rate": {"ion", "eta", "grayness", "waist_um", "temperature_k", "p_d"},
    "virtual-temp": {"ion", "t_room_k", "t_sun_k", "t_laser_k", "motion_hz"},
    "simulate": {
        "gamma", "eta_sp", "step_duration_s", "heating_rate", "n_initial",
        "t_max_s", "trajectories", "grid_points", "write_trajectories", "seed", "svg",
    },
    "reduce": {
        "raw", "response", "reference", "power_w", "temperature_k", "band_nm",
        "slit_um", "distance_mm", "mode_field_radius_um", "fit_model",
    },
    "check": set(),
}


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--json", action="store_true", help="emit one JSON object on stdout",
                        **({"default": argparse.SUPPRESS} if suppress else {"default": False}))
    parser.add_argument("--out", metavar="DIR", help="output directory (default .)",
                        **(kw if suppress else {"default": "."}))
    parser.add_argument("--seed", type=int, metavar="U64",
                        help=f"RNG seed for stochastic commands (default {DEFAULT_SEED})",
                        **(kw if suppress else {"default": None}))
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with parameters for the subcommand",
                        **(kw if suppress else {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="thermolight",
        description="Thermal light in a single spatial mode and sideband cooling with it.",
    )
    _common_flags(root, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = root.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spectrum", parents=[common], help="tabulate a thermal spectral curve")
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--family", choices=["q1d", "planck"], help="single-mode PSD or blackbody irradiance")
    p.add_argument("--domain", choices=["omega", "wavelength"], help="density per rad/s or per nm")
    p.add_argument("--band-nm", type=float, nargs=2, metavar=("LO", "HI"), help="wavelength band (default 300 1200)")
    p.add_argument("--points", type=int, help="grid size (default 601)")
    p.add_argument("--polarizations", type=int, choices=[1, 2], help="q1d polarization count (default 2)")
    p.add_argument("--svg", action="store_true", default=False, help="also write an SVG line plot")

    p = sub.add_parser("rate", parents=[common], help="sunlight-driven cooling-rate estimate")
    p.add_argument("--ion", help="atomic-data JSON path or bundled name (e.g. ba138p)")
    p.add_argument("--eta", type=float, help="delivery efficiency in (0, 1]")
    p.add_argument("--grayness", type=float, help="geometric grayness G (alternative to --waist-um)")
    p.add_argument("--waist-um", type=float, help="focus waist in um; G from the top-hat area at the driven line")
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--p-d", type=float, help="occupation probability of D (default 1)")

    p = sub.add_parser("virtual-temp", parents=[common], help="virtual-qubit temperature of the bath arrangement")
    p.add_argument("--ion", help="atomic-data JSON path or bundled name")
    p.add_argument("--t-room-k", type=float, help="room/vacuum-chamber temperature in K")
    p.add_argument("--t-sun-k", type=float, help="broadband source temperature in K")
    p.add_argument("--t-laser-k", help="laser effective temperature in K, or 'inf' (default)")
    p.add_argument("--motion-hz", type=float, help="trap frequency in Hz")

    p = sub.add_parser("simulate", parents=[common], help="stochastic two-step cooling-cycle ensemble")
    p.add_argument("--gamma", type=float, help="D->P excitation rate in 1/s")
    p.add_argument("--eta-sp", type=float, help="P->S branching fraction")
    p.add_argument("--step-duration-s", type=float, help="sideband interval tau_I in s")
    p.add_argument("--heating-rate", type=float, help="Poisson heating rate in phonon/s (default 0)")
    p.add_argument("--n-initial", type=int, help="starting phonon number (default 0)")
    p.add_argument("--t-max-s", type=float, help="simulated duration in s")
    p.add_argument("--trajectories", type=int, help="ensemble size (default 500)")
    p.add_argument("--grid-points", type=int, help="resampling grid size (default 201)")
    p.add_argument("--write-trajectories", type=int, help="how many member CSVs to write (default 3)")
    p.add_argument("--svg", action="store_true", default=False, help="also write an SVG of the mean curve")

    p = sub.add_parser("reduce", parents=[common], help="reduce raw spectrometer counts to a calibrated PSD")
    p.add_argument("--raw", help="raw counts CSV (kind=counts)")
    p.add_argument("--response", help="instrument response CSV")
    p.add_argument("--reference", help="reference solar spectrum CSV (default: bundled)")
    p.add_argument("--power-w", type=float, help="band-integrated power-meter reading in W")
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--band-nm", type=float, nargs=2, metavar=("LO", "HI"), help="analysis band (default 400 900)")
    p.add_argument("--slit-um", type=float, help="entrance slit width in um (default 50)")
    p.add_argument("--distance-mm", type=float, help="fiber-to-slit distance in mm (default 10)")
    p.add_argument("--mode-field-radius-um", type=float, help="fiber mode-field radius in um (default 2.25)")
    p.add_argument("--fit-model", choices=["q1d", "3d"], help="temperature-fit model (default q1d)")

    sub.add_parser("check", parents=[common], help="run the acceptance criteria and report pass/fail")
    return root


def _merge_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    allowed = _CONFIG_KEYS[args.command]
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(
            f"config {args.config}: unknown keys {sorted(unknown)} for command {args.command!r}"
        )
    for key, value in cfg.items():
        current = getattr(args, key, None)
        if current is None or current is False:
            setattr(args, key, value)


def _require(args: argparse.Namespace, *names: str):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required parameter(s): {flags} (flag or config key)")


def _default(args: argparse.Namespace, name: str, value):
    if getattr(args, name, None) is None:
        setattr(args, name, value)


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        else:
            print(f"{key}: {value}")


def _seed(args: argparse.Namespace) -> int:
    s = args.seed if args.seed is not None else DEFAULT_SEED
    if not (0 <= int(s) < 2 ** 64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {s!r}")
    return int(s)


# -- subcommands ---------------------------------------------------------


def cmd_spectrum(args) -> dict:
    _require(args, "temperature_k", "family", "domain")
    _default(args, "band_nm", [300.0, 1200.0])
    _default(args, "points", 601)
    _default(args, "polarizations", 2)
    lo, hi = (float(b) for b in args.band_nm)
    if not 0.0 < lo < hi:
        raise ValueError(f"band must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    if args.points < 2:
        raise ValueError("need at least two grid points")
    t = Temperature(float(args.temperature_k))
    grid = np.linspace(lo, hi, args.points)
    omega = TWO_PI_C / (grid * NM)
    if args.family == "q1d":
        if args.domain == "omega":
            kind = SpectrumKind.PSD_PER_ANGULAR_FREQUENCY
            values = q1d_psd(omega, t, args.polarizations)
        else:
            kind = SpectrumKind.PSD_PER_WAVELENGTH
            values = q1d_psd_per_wavelength(grid, t, args.polarizations)
        family_key = "q1d"
    else:
        if args.domain == "omega":
            kind = SpectrumKind.IRRADIANCE_PER_ANGULAR_FREQUENCY
            values = math.pi * planck_radiance(omega, t)
        else:
            kind = SpectrumKind.IRRADIANCE_PER_WAVELENGTH
            values = planck_irradiance_per_wavelength(grid, t)
        family_key = "planck"
    spectrum = SampledSpectrum(grid, values, kind)
    csv_path = _out_path(args, f"spectrum_{family_key}_per_{args.domain}.csv")
    write_spectrum_csv(csv_path, spectrum)
    svg_path = None
    if args.svg:
        svg_path = _out_path(args, f"spectrum_{family_key}_per_{args.domain}.svg")
        atomic_write_text(svg_path, line_plot(
            [(grid, values, "")],
            "wavelength [nm]", kind.value.replace("_", " "),
            f"{family_key} spectrum at {t.kelvin:g} K",
        ))
    peak = wien_peak(f"{family_key}_per_{args.domain}", t)
    return {
        "command": "spectrum",
        "family": family_key,
        "domain": args.domain,
        "temperature_k": t.kelvin,
        "kind": kind.value,
        "band_nm": [lo, hi],
        "points": args.points,
        "grid_peak_nm": float(grid[int(np.argmax(values))]),
        "analytic_peak_nm": peak,
        "band_integral": spectrum.band_power(),
        "csv": csv_path,
        "svg": svg_path,
    }


def cmd_rate(args) -> dict:
    _require(args, "ion", "eta", "temperature_k")
    _default(args, "p_d", 1.0)
    if (args.grayness is None) == (args.waist_um is None):
        raise ValueError("give exactly one of --grayness or --waist-um")
    ion = load_ion(args.ion)
    omega2 = AngularFrequency(ion.omega2_rad_s)
    if args.waist_um is not None:
        g = grayness(top_hat_area(float(args.waist_um) * 1e-6), omega2)
    else:
        g = float(args.grayness)
    drive = CoolingDrive(
        eta_delivery=float(args.eta),
        grayness=g,
        omega_motion=AngularFrequency(2.0 * math.pi * 1e6),  # not used by the rate
        p_d=float(args.p_d),
    )
    report = cooling_rate_report(ion, drive, Temperature(float(args.temperature_k)))
    out = {
        "command": "rate",
        "inputs": {
            "ion": args.ion,
            "ion_name": ion.name,
            "eta_delivery": drive.eta_delivery,
            "grayness": g,
            "waist_um": args.waist_um,
            "temperature_k": float(args.temperature_k),
            "p_d": drive.p_d,
            "driven_wavelength_nm": omega2.wavelength_nm,
        },
        "mean_occupation": report.mean_occupation_sun,
        "energy_density_j_m3_per_rad_s": report.energy_density,
        "gamma_per_s": report.gamma,
        "eta_sp": report.eta_sp,
        "phonon_rate_per_s": report.phonon_rate,
    }
    atomic_write_text(_out_path(args, "rate_report.json"), json.dumps(out, indent=2) + "\n")
    return out


def cmd_virtual_temp(args) -> dict:
    _require(args, "ion", "t_room_k", "t_sun_k", "motion_hz")
    _default(args, "t_laser_k", "inf")
    ion = load_ion(args.ion)
    t_laser = Temperature.infinite() if str(args.t_laser_k).lower() in ("inf", "infinite", "infinity") \
        else Temperature(float(args.t_laser_k))
    baths = BathSet(t_laser, Temperature(float(args.t_sun_k)), Temperature(float(args.t_room_k)))
    wm = AngularFrequency(2.0 * math.pi * float(args.motion_hz))
    t_v = virtual_temperature(ion, baths, wm)
    t_room_limit = virtual_temperature_room_limit(ion, baths.t_room, wm)
    all_thermal = virtual_temperature(
        ion, BathSet(Temperature.infinite(), baths.t_sun, baths.t_sun), wm
    )
    occ = ground_state_occupation(t_v, wm)
    occ_limit = ground_state_occupation(t_room_limit, wm)
    out = {
        "command": "virtual-temp",
        "inputs": {
            "ion": args.ion,
            "ion_name": ion.name,
            "t_room_k": baths.t_room.kelvin,
            "t_sun_k": baths.t_sun.kelvin,
            "t_laser_k": "inf" if t_laser.is_infinite else t_laser.kelvin,
            "motion_hz": float(args.motion_hz),
        },
        "t_v_k": t_v.kelvin,
        "t_v_uk": t_v.kelvin * 1e6,
        "t_v_room_limit_k": t_room_limit.kelvin,
        "t_v_all_thermal_k": all_thermal.kelvin,
        "n_bar": occ.n_exact,
        "n_bar_wien": occ.n_wien,
        "log10_n_bar": math.log10(occ.n_exact) if occ.n_exact > 0.0 else None,
        "n_bar_room_limit": occ_limit.n_exact,
        "log10_n_bar_room_limit": math.log10(occ_limit.n_exact) if occ_limit.n_exact > 0.0 else None,
    }
    atomic_write_text(_out_path(args, "virtual_temp_report.json"), json.dumps(out, indent=2) + "\n")
    return out


def cmd_simulate(args) -> dict:
    _require(args, "gamma", "eta_sp", "step_duration_s", "t_max_s")
    _default(args, "heating_rate", 0.0)
    _default(args, "n_initial", 0)
    _default(args, "trajectories", 500)
    _default(args, "grid_points", 201)
    _default(args, "write_trajectories", 3)
    cfg = CycleConfig(
        gamma=float(args.gamma),
        eta_sp=float(args.eta_sp),
        step_duration_s=float(args.step_duration_s),
        t_max_s=float(args.t_max_s),
        seed=_seed(args),
        heating_rate=float(args.heating_rate),
        n_initial=int(args.n_initial),
    )
    if args.trajectories < 2:
        raise ValueError("need at least two trajectories for ensemble statistics")
    if int(args.grid_points) < 3:
        raise ValueError(f"need at least three grid points, got {args.grid_points}")
    trajectories = simulate_ensemble(cfg, int(args.trajectories))
    stats = ensemble_stats(trajectories, grid_points=int(args.grid_points))
    ode = rate_equation_trajectory(cfg)

    files = {}
    for k in range(min(int(args.write_trajectories), len(trajectories))):
        path = _out_path(args, f"trajectory_{k:03d}.csv")
        trajectories[k].to_csv(path)
        files[f"trajectory_{k:03d}"] = path
    summary = {
        "command": "simulate",
        "config": {
            "gamma": cfg.gamma, "eta_sp": cfg.eta_sp,
            "step_duration_s": cfg.step_duration_s, "heating_rate": cfg.heating_rate,
            "n_initial": cfg.n_initial, "t_max_s": cfg.t_max_s, "seed": cfg.seed,
            "trajectories": int(args.trajectories),
        },
        "renewal_slope_per_s": -cycle_rate(cfg),
        "stats": stats.to_summary_dict(),
        "counters": ensemble_counters(trajectories),
    }
    path = _out_path(args, "ensemble_summary.json")
    atomic_write_text(path, json.dumps(summary, indent=2) + "\n")
    files["ensemble_summary"] = path
    ode_text = "time_s,n\n" + "".join(f"{float(t)!r},{float(n)!r}\n" for t, n in zip(ode.times_s, ode.n))
    path = _out_path(args, "rate_equation.csv")
    atomic_write_text(path, ode_text)
    files["rate_equation"] = path
    if args.svg:
        path = _out_path(args, "simulate.svg")
        atomic_write_text(path, line_plot(
            [
                (stats.grid_s, stats.mean_n, "ensemble mean"),
                (ode.times_s, ode.n, "rate equation"),
            ],
            "time [s]", "phonon number", "cooling-cycle ensemble",
        ))
        files["svg"] = path
    out = dict(summary)
    out["files"] = files
    # keep stdout digestible: drop the dense curves from the printed stats
    out["stats"] = {k: v for k, v in out["stats"].items() if k not in ("grid_s", "mean_n", "var_n")}
    return out


def cmd_reduce(args) -> dict:
    _require(args, "raw", "response", "power_w", "temperature_k")
    _default(args, "band_nm", [400.0, 900.0])
    _default(args, "slit_um", 50.0)
    _default(args, "distance_mm", 10.0)
    _default(args, "mode_field_radius_um", 2.25)
    _default(args, "fit_model", "q1d")
    band = tuple(float(b) for b in args.band_nm)
    t = Temperature(float(args.temperature_k))
    raw = read_spectrum_csv(args.raw)
    response = InstrumentResponse.from_csv(args.response)
    reference = (
        ReferenceSolarSpectrum.load_bundled()
        if args.reference is None
        else ReferenceSolarSpectrum.from_csv(args.reference)
    )
    slit = SlitGeometry(
        slit_width_m=float(args.slit_um) * 1e-6,
        distance_m=float(args.distance_mm) * 1e-3,
        mode_field_radius_m=float(args.mode_field_radius_um) * 1e-6,
    )
    correction = atmospheric_correction(reference, t)
    shape = apply_slit_correction(apply_response(raw, response), slit)
    calibrated = calibrate_power(shape, float(args.power_w), band)
    efficiency = extract_efficiency(calibrated, t, band_nm=band, correction=correction)

    c_on_grid = correction.interpolate(calibrated.wavelengths_nm)
    mask = c_on_grid >= 0.2
    flattened = SampledSpectrum(
        calibrated.wavelengths_nm[mask],
        calibrated.values[mask] / c_on_grid[mask],
        SpectrumKind.PSD_PER_WAVELENGTH,
    )
    fit = fit_temperature(flattened, model=args.fit_model)

    files = {}
    path = _out_path(args, "calibrated_psd.csv")
    write_spectrum_csv(path, calibrated)
    files["calibrated_psd"] = path
    path = _out_path(args, "efficiency.csv")
    write_spectrum_csv(path, SampledSpectrum(efficiency.wavelengths_nm, efficiency.values, SpectrumKind.RATIO))
    files["efficiency"] = path
    fit_report = {
        "T_K": fit.temperature.kelvin,
        "residual": fit.residual,
        "eta_band_avg": efficiency.band_average,
        "band_nm": [band[0], band[1]],
    }
    path = _out_path(args, "fit_report.json")
    atomic_write_text(path, json.dumps(fit_report, indent=2) + "\n")
    files["fit_report"] = path
    return {
        "command": "reduce",
        **fit_report,
        "fit_flagged": fit.flagged,
        "fit_model": args.fit_model,
        "files": files,
    }


def cmd_check(args) -> dict:
    results = acceptance_mod.run_all()
    return {
        "command": "check",
        "passed": all(r.passed for r in results),
        "results": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "rate": cmd_rate,
    "virtual-temp": cmd_virtual_temp,
    "simulate": cmd_simulate,
    "reduce": cmd_reduce,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        report = _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "check":
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            for r in report["results"]:
                status = "PASS" if r["passed"] else "FAIL"
                print(f"{status}  {r['index']}. {r['name']}: {r['detail']}")
            print("all criteria passed" if report["passed"] else "SOME CRITERIA FAILED")
        return 0 if report["passed"] else 1
    _print_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
