"""Command-line interface.

Subcommands: spectrum, rate, virtual-temp, simulate, reduce, check.
Global flags work before or after the subcommand: --json for a single
machine-readable object on stdout, --out for the output directory,
--seed for stochastic commands, --config for a JSON file supplying any
of the subcommand's flags by dest name. A config value is parsed by its
flag's own argparse action and then serves as that flag's default, so
explicit flags win and unknown keys are rejected. All files are written
atomically.
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
    atmospheric_correction,
    reduce_spectrum,
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


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="U64", help="RNG seed for stochastic commands")
    parser.add_argument("--config", metavar="PATH", help="JSON file with parameters for the subcommand")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="thermolight",
        description="Thermal light in a single spatial mode and sideband cooling with it.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _common_flags(root)
    root.set_defaults(out=".", seed=DEFAULT_SEED)
    # on the subcommands the shared flags default to SUPPRESS: the subcommand's
    # namespace is copied over the root's and must not undo a flag given before it
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _common_flags(common)
    sub = root.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spectrum", parents=[common], help="tabulate a thermal spectral curve")
    p.set_defaults(handler=cmd_spectrum)
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--family", choices=["q1d", "planck"], help="single-mode PSD or blackbody irradiance")
    p.add_argument("--domain", choices=["omega", "wavelength"], help="density per rad/s or per nm")
    p.add_argument("--band-nm", type=float, nargs=2, metavar=("LO", "HI"), default=[300.0, 1200.0],
                   help="wavelength band (default %(default)s)")
    p.add_argument("--points", type=int, default=601, help="grid size (default %(default)s)")
    p.add_argument("--polarizations", type=int, choices=[1, 2], default=2,
                   help="q1d polarization count (default %(default)s)")
    p.add_argument("--svg", action="store_true", help="also write an SVG line plot")

    p = sub.add_parser("rate", parents=[common], help="sunlight-driven cooling-rate estimate")
    p.set_defaults(handler=cmd_rate)
    p.add_argument("--ion", help="atomic-data JSON path or bundled name (e.g. ba138p)")
    p.add_argument("--eta", type=float, help="delivery efficiency in (0, 1]")
    p.add_argument("--grayness", type=float, help="geometric grayness G (alternative to --waist-um)")
    p.add_argument("--waist-um", type=float, help="focus waist in um; G from the top-hat area at the driven line")
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--p-d", type=float, default=1.0, help="occupation probability of D (default %(default)s)")

    def kelvin(text: str) -> Temperature:  # argparse names it: "invalid kelvin value"
        return Temperature(math.inf if text.lower() == "infinite" else float(text))

    p = sub.add_parser("virtual-temp", parents=[common], help="virtual-qubit temperature of the bath arrangement")
    p.set_defaults(handler=cmd_virtual_temp)
    p.add_argument("--ion", help="atomic-data JSON path or bundled name")
    p.add_argument("--t-room-k", type=float, help="room/vacuum-chamber temperature in K")
    p.add_argument("--t-sun-k", type=float, help="broadband source temperature in K")
    p.add_argument("--t-laser-k", type=kelvin, default="inf",
                   help="laser effective temperature in K, or 'inf' (default %(default)s)")
    p.add_argument("--motion-hz", type=float, help="trap frequency in Hz")

    p = sub.add_parser("simulate", parents=[common], help="stochastic two-step cooling-cycle ensemble")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("--gamma", type=float, help="D->P excitation rate in 1/s")
    p.add_argument("--eta-sp", type=float, help="P->S branching fraction")
    p.add_argument("--step-duration-s", type=float, help="sideband interval tau_I in s")
    p.add_argument("--heating-rate", type=float, default=0.0,
                   help="Poisson heating rate in phonon/s (default %(default)s)")
    p.add_argument("--n-initial", type=int, default=0, help="starting phonon number (default %(default)s)")
    p.add_argument("--t-max-s", type=float, help="simulated duration in s")
    p.add_argument("--trajectories", type=int, default=500, help="ensemble size (default %(default)s)")
    p.add_argument("--grid-points", type=int, default=201, help="resampling grid size (default %(default)s)")
    p.add_argument("--write-trajectories", type=int, default=3,
                   help="how many member CSVs to write (default %(default)s)")
    p.add_argument("--svg", action="store_true", help="also write an SVG of the mean curve")

    p = sub.add_parser("reduce", parents=[common], help="reduce raw spectrometer counts to a calibrated PSD")
    p.set_defaults(handler=cmd_reduce)
    p.add_argument("--raw", help="raw counts CSV (kind=counts)")
    p.add_argument("--response", help="instrument response CSV")
    p.add_argument("--reference", help="reference solar spectrum CSV (default: bundled)")
    p.add_argument("--power-w", type=float, help="band-integrated power-meter reading in W")
    p.add_argument("--temperature-k", type=float, help="source temperature in K")
    p.add_argument("--band-nm", type=float, nargs=2, metavar=("LO", "HI"), default=[400.0, 900.0],
                   help="analysis band (default %(default)s)")
    p.add_argument("--slit-um", type=float, default=50.0, help="entrance slit width in um (default %(default)s)")
    p.add_argument("--distance-mm", type=float, default=10.0,
                   help="fiber-to-slit distance in mm (default %(default)s)")
    p.add_argument("--mode-field-radius-um", type=float, default=2.25,
                   help="fiber mode-field radius in um (default %(default)s)")
    p.add_argument("--fit-model", choices=["q1d", "3d"], default="q1d",
                   help="temperature-fit model (default %(default)s)")

    p = sub.add_parser("check", parents=[common], help="run the acceptance criteria and report pass/fail")
    p.set_defaults(handler=cmd_check)
    return root


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, with each --config value parsed by its flag's own action and used as its default."""
    root = build_parser()
    args = root.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    parser = root._subparsers._group_actions[0].choices[args.command]
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "json", "out", "config")}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ValueError(f"config {args.config}: unknown keys {sorted(unknown)} for command {args.command!r}")
    cfg = {k: v for k, v in cfg.items() if v is not None}  # null leaves a flag unset, like a missing key
    tokens = []
    for key, value in cfg.items():
        flag, nargs = actions[key].option_strings[-1], actions[key].nargs
        if nargs == 0:  # a switch
            if not isinstance(value, bool):
                parser.error(f"argument {flag}: expected JSON true or false, got {value!r}")
            tokens += [flag] * value
            continue
        items = [v if isinstance(v, str) else json.dumps(v)
                 for v in (value if isinstance(value, list) and nargs else [value])]
        # "--flag=value" keeps a value that starts with "-" a value
        tokens += [flag, *items] if nargs else [f"{flag}={items[0]}"]
    typed = root.parse_args([args.command, *tokens])
    # the shared flags take their defaults from the root parser (see build_parser)
    shared = {a.dest for a in root._actions}
    root.set_defaults(**{k: getattr(typed, k) for k in cfg if k in shared})
    parser.set_defaults(**{k: getattr(typed, k) for k in cfg if k not in shared})
    return root.parse_args(argv)


def _require(args: argparse.Namespace, *names: str):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required parameter(s): {flags} (flag or config key)")


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_report(args: argparse.Namespace, name: str, report: dict) -> str:
    path = _out_path(args, name)
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")
    return path


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


# -- subcommands ---------------------------------------------------------


def cmd_spectrum(args) -> dict:
    _require(args, "temperature_k", "family", "domain")
    lo, hi = args.band_nm
    if not 0.0 < lo < hi:
        raise ValueError(f"band must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    if args.points < 2:
        raise ValueError("need at least two grid points")
    t = Temperature(args.temperature_k)
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
    if (args.grayness is None) == (args.waist_um is None):
        raise ValueError("give exactly one of --grayness or --waist-um")
    ion = load_ion(args.ion)
    omega2 = AngularFrequency(ion.omega2_rad_s)
    if args.waist_um is not None:
        g = grayness(top_hat_area(args.waist_um * 1e-6), omega2)
    else:
        g = args.grayness
    drive = CoolingDrive(
        eta_delivery=args.eta,
        grayness=g,
        omega_motion=AngularFrequency(2.0 * math.pi * 1e6),  # not used by the rate
        p_d=args.p_d,
    )
    report = cooling_rate_report(ion, drive, Temperature(args.temperature_k))
    out = {
        "command": "rate",
        "inputs": {
            "ion": args.ion,
            "ion_name": ion.name,
            "eta_delivery": drive.eta_delivery,
            "grayness": g,
            "waist_um": args.waist_um,
            "temperature_k": args.temperature_k,
            "p_d": drive.p_d,
            "driven_wavelength_nm": omega2.wavelength_nm,
        },
        "mean_occupation": report.mean_occupation_sun,
        "energy_density_j_m3_per_rad_s": report.energy_density,
        "gamma_per_s": report.gamma,
        "gamma_over_a_pd": report.gamma_over_a_pd,
        "eta_sp": report.eta_sp,
        "phonon_rate_per_s": report.phonon_rate,
    }
    _write_report(args, "rate_report.json", out)
    return out


def cmd_virtual_temp(args) -> dict:
    _require(args, "ion", "t_room_k", "t_sun_k", "motion_hz")
    ion = load_ion(args.ion)
    baths = BathSet(args.t_laser_k, Temperature(args.t_sun_k), Temperature(args.t_room_k))
    wm = AngularFrequency(2.0 * math.pi * args.motion_hz)
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
            "t_laser_k": "inf" if baths.t_laser.is_infinite else baths.t_laser.kelvin,
            "motion_hz": args.motion_hz,
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
    _write_report(args, "virtual_temp_report.json", out)
    return out


def cmd_simulate(args) -> dict:
    _require(args, "gamma", "eta_sp", "step_duration_s", "t_max_s")
    cfg = CycleConfig(
        gamma=args.gamma,
        eta_sp=args.eta_sp,
        step_duration_s=args.step_duration_s,
        t_max_s=args.t_max_s,
        seed=args.seed,
        heating_rate=args.heating_rate,
        n_initial=args.n_initial,
    )
    if args.trajectories < 2:
        raise ValueError("need at least two trajectories for ensemble statistics")
    if args.grid_points < 3:
        raise ValueError(f"need at least three grid points, got {args.grid_points}")
    trajectories = simulate_ensemble(cfg, args.trajectories)
    stats = ensemble_stats(trajectories, grid_points=args.grid_points)
    ode = rate_equation_trajectory(cfg)

    files = {}
    for k in range(min(args.write_trajectories, len(trajectories))):
        path = _out_path(args, f"trajectory_{k:03d}.csv")
        trajectories[k].to_csv(path)
        files[f"trajectory_{k:03d}"] = path
    summary = {
        "command": "simulate",
        "config": {
            "gamma": cfg.gamma, "eta_sp": cfg.eta_sp,
            "step_duration_s": cfg.step_duration_s, "heating_rate": cfg.heating_rate,
            "n_initial": cfg.n_initial, "t_max_s": cfg.t_max_s, "seed": cfg.seed,
            "trajectories": args.trajectories,
        },
        "renewal_slope_per_s": -cycle_rate(cfg),
        "stats": stats.to_summary_dict(),
        "counters": ensemble_counters(trajectories),
    }
    files["ensemble_summary"] = _write_report(args, "ensemble_summary.json", summary)
    ode_text = "time_s,n\n" + "".join(f"{float(t)!r},{float(n)!r}\n" for t, n in zip(ode.times_s, ode.n))
    files["rate_equation"] = _out_path(args, "rate_equation.csv")
    atomic_write_text(files["rate_equation"], ode_text)
    if args.svg:
        files["svg"] = _out_path(args, "simulate.svg")
        atomic_write_text(files["svg"], line_plot(
            [
                (stats.grid_s, stats.mean_n, "ensemble mean"),
                (ode.times_s, ode.n, "rate equation"),
            ],
            "time [s]", "phonon number", "cooling-cycle ensemble",
        ))
    out = dict(summary)
    out["files"] = files
    # keep stdout digestible: drop the dense curves from the printed stats
    out["stats"] = {k: v for k, v in out["stats"].items() if k not in ("grid_s", "mean_n", "var_n")}
    return out


def cmd_reduce(args) -> dict:
    _require(args, "raw", "response", "power_w", "temperature_k")
    band = tuple(args.band_nm)
    t = Temperature(args.temperature_k)
    raw = read_spectrum_csv(args.raw)
    response = InstrumentResponse.from_csv(args.response)
    reference = (
        ReferenceSolarSpectrum.load_bundled()
        if args.reference is None
        else ReferenceSolarSpectrum.from_csv(args.reference)
    )
    slit = SlitGeometry(
        slit_width_m=args.slit_um * 1e-6,
        distance_m=args.distance_mm * 1e-3,
        mode_field_radius_m=args.mode_field_radius_um * 1e-6,
    )
    correction = atmospheric_correction(reference, t)
    calibrated, efficiency, fit = reduce_spectrum(
        raw, response, slit, args.power_w, band, t, correction, model=args.fit_model
    )

    files = {name: _out_path(args, f"{name}.csv") for name in ("calibrated_psd", "efficiency")}
    write_spectrum_csv(files["calibrated_psd"], calibrated)
    write_spectrum_csv(files["efficiency"], efficiency)
    fit_report = {
        "T_K": fit.temperature.kelvin,
        "residual": fit.residual,
        "eta_band_avg": efficiency.band_average,
        "band_nm": [band[0], band[1]],
    }
    files["fit_report"] = _write_report(args, "fit_report.json", fit_report)
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


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        report = args.handler(args)
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
