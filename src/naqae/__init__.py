"""Noise-aware quantum amplitude estimation.

Closed-form and quadrature outcome probabilities for the Gaussian
rotation-noise model, depolarizing equivalents, MMSE model fitting with R^2,
noise-aware shot scheduling, depolarizing count correction, maximum-likelihood
amplitude estimation, and a seeded Monte Carlo benchmark harness.
"""

from .device import (
    PRESET_THETAS,
    ShotRecord,
    SimulatedDevice,
    preset_device,
    run_depth_sweep,
    sample_shots,
    subseed,
    substream,
)
from .errors import (
    DegenerateDataError,
    InternalConsistencyError,
    NaqaeError,
    QuadratureError,
)
from .estimation import (
    AmplitudeEstimate,
    CorrectionResult,
    ShotSchedule,
    VarianceBound,
    binomial_std_bound,
    correct_counts,
    correct_frequency,
    estimate_amplitude,
    estimate_prefixes,
    shot_schedule,
    worst_case_variance,
)
from .experiments import (
    SETTINGS,
    ExperimentConfig,
    RmseCurve,
    config_from_json,
    misspecification_sweep,
    run_monte_carlo,
    run_qae_trial,
)
from .fitting import (
    MODEL_KINDS,
    FitResult,
    FitSearchConfig,
    FrequencyPoint,
    fit_model,
    fit_report,
    points_from_records,
    r_squared,
)
from .models import (
    Amplitude,
    DepolParams,
    GaussianNoiseParams,
    depol_equivalent,
    noise_from_dict,
    noise_from_spec,
    p0_gaussian_quadrature,
    p1_depolarizing,
    p1_gaussian_closed,
    p1_gaussian_quadrature,
    p_diff_gaussian_closed,
)

__version__ = "0.1.0"
