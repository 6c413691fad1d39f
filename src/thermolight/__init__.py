"""Thermal light in a single spatial mode, and sideband cooling driven by it.

Closed-form radiometry in 3D and quasi-1D, single-mode beam geometry,
atomic excitation and virtual-qubit thermodynamics, a stochastic
cooling-cycle simulator, and a spectrometer-data reduction pipeline.

Each public name loads its module on first use (PEP 562), so importing
the package loads none of them.
"""

# module -> the public names it defines; run_acceptance is acceptance.run_all
_NAMES = {
    "radiometry": (
        "AngularFrequency",
        "Temperature",
        "mean_occupation",
        "planck_energy_density",
        "planck_irradiance",
        "planck_irradiance_per_wavelength",
        "planck_radiance",
        "q1d_psd",
        "q1d_psd_per_wavelength",
        "q1d_total_power",
        "wien_peak",
    ),
    "spectra": (
        "SampledSpectrum",
        "SpectrumKind",
        "convert_spectral_domain",
        "read_spectrum_csv",
        "write_spectrum_csv",
    ),
    "mode_optics": (
        "FocusGeometry",
        "divergence_half_angle",
        "gaussian_angular_radiance",
        "grayness",
        "top_hat_area",
    ),
    "ion_thermo": (
        "BathSet",
        "CoolingDrive",
        "IonSpec",
        "PopulationInversionError",
        "branching_fraction",
        "cooling_rate_report",
        "cycle_rate",
        "excitation_rate",
        "ground_state_occupation",
        "load_ion",
        "virtual_temperature",
        "virtual_temperature_room_limit",
    ),
    "cooling_sim": (
        "CoolingTrajectory",
        "CycleConfig",
        "Ensemble",
        "EnsembleStats",
        "ensemble_stats",
        "rate_equation_trajectory",
        "simulate_ensemble",
        "simulate_trajectory",
    ),
    "data_pipeline": (
        "AtmosphericCorrection",
        "EfficiencyCurve",
        "FitConvergenceError",
        "InstrumentResponse",
        "ReferenceSolarSpectrum",
        "SlitGeometry",
        "TemperatureFit",
        "apply_response",
        "apply_slit_correction",
        "atmospheric_correction",
        "beam_radius_at_slit",
        "calibrate_power",
        "extract_efficiency",
        "fit_temperature",
        "reduce_spectrum",
        "slit_transmission",
    ),
    "acceptance": ("run_acceptance",),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the module that defines `name` and keep the value, so the next lookup finds it here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    attribute = "run_all" if name == "run_acceptance" else name
    # an import statement, unlike importlib.import_module, shows in `python -X importtime`
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[attribute])
    value = globals()[name] = getattr(module, attribute)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_MODULE_OF})
