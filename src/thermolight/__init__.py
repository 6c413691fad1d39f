"""Thermal light in a single spatial mode, and sideband cooling driven by it.

Closed-form radiometry in 3D and quasi-1D, single-mode beam geometry,
atomic excitation and virtual-qubit thermodynamics, a stochastic
cooling-cycle simulator, and a spectrometer-data reduction pipeline.
"""

from .radiometry import (
    AngularFrequency,
    Temperature,
    mean_occupation,
    planck_energy_density,
    planck_irradiance_per_wavelength,
    planck_radiance,
    q1d_psd,
    q1d_psd_per_wavelength,
    q1d_total_power,
    wien_peak,
)
from .spectra import SampledSpectrum, SpectrumKind, convert_spectral_domain, read_spectrum_csv, write_spectrum_csv
from .mode_optics import (
    FiberModeModel,
    FocusGeometry,
    divergence_half_angle,
    focused_energy_density,
    gaussian_angular_radiance,
    grayness,
    mode_area,
    mode_solid_angle,
    top_hat_area,
)
from .ion_thermo import (
    BathSet,
    CoolingDrive,
    IonSpec,
    PopulationInversionError,
    branching_fraction,
    cooling_rate_report,
    excitation_rate,
    ground_state_occupation,
    load_ion,
    phonon_cooling_rate,
    virtual_temperature,
    virtual_temperature_room_limit,
)
from .cooling_sim import (
    CoolingTrajectory,
    CycleConfig,
    EnsembleStats,
    cycle_rate,
    default_transfer_prob,
    ensemble_stats,
    rate_equation_trajectory,
    simulate_ensemble,
    simulate_trajectory,
)
from .data_pipeline import (
    AtmosphericCorrection,
    EfficiencyCurve,
    FitConvergenceError,
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SlitGeometry,
    TemperatureFit,
    apply_response,
    apply_slit_correction,
    atmospheric_correction,
    beam_radius_at_slit,
    calibrate_power,
    extract_efficiency,
    fit_temperature,
    reduce_spectrum,
    slit_transmission,
)
from .acceptance import run_all as run_acceptance

__version__ = "0.1.0"
