"""Monte Carlo comparison of noise handling strategies for amplitude estimation.

Simulates the four-setting benchmark on a noisy device:

* ``noisy_a``     - flat shot counts, no use of the noise model;
* ``noisy_b``     - flat shot counts, depolarizing count correction only;
* ``noise_aware`` - count correction plus the noise-aware shot schedule;
* ``noiseless``   - flat shot counts on an ideal device, for reference.

Each replication samples a full depth sweep, estimates the amplitude from
every depth prefix, and the harness reports RMSE-versus-depth curves over
replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .device import SimulatedDevice, run_depth_sweep, subseed
# Nothing here calls estimate_amplitude; it stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps it in this module.
from .estimation import (  # noqa: F401
    AmplitudeEstimate,
    estimate_amplitude,
    estimate_prefixes,
    shot_schedule,
)
from .models import (
    Amplitude,
    DepolParams,
    GaussianNoiseParams,
    _json_number,
    depol_equivalent,
    noise_from_dict,
)

SETTINGS = ("noisy_a", "noisy_b", "noise_aware", "noiseless")

X_KINDS = ("depth", "queries")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one Monte Carlo comparison run.

    ``device`` carries the true angle and noise model; its own seed is
    ignored, replications derive per-run seeds from ``seed``.
    ``k_sigma_assumed`` feeds both the shot schedule and the count correction
    (via the zero-mean depolarizing equivalence).
    """

    device: SimulatedDevice
    truth_a: float
    max_depth: int
    n_shot_base: int
    k_sigma_assumed: float
    settings: tuple[str, ...] = SETTINGS
    replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.truth_a <= 1.0):
            raise ValueError(f"truth_a must lie in [0, 1], got {self.truth_a!r}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth!r}")
        if self.n_shot_base < 1:
            raise ValueError(f"n_shot_base must be >= 1, got {self.n_shot_base!r}")
        if not (self.k_sigma_assumed >= 0.0 and math.isfinite(self.k_sigma_assumed)):
            raise ValueError(
                f"k_sigma_assumed must be finite and >= 0, got {self.k_sigma_assumed!r}"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        unknown = [s for s in self.settings if s not in SETTINGS]
        if unknown or not self.settings or len(set(self.settings)) != len(self.settings):
            raise ValueError(f"settings must be a nonempty subset of {SETTINGS}, without repeats")


@dataclass(frozen=True)
class RmseCurve:
    """RMSE per depth prefix for one setting, against one x-axis kind."""

    setting: str
    x_kind: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.x_kind not in X_KINDS:
            raise ValueError(f"x_kind must be one of {X_KINDS}, got {self.x_kind!r}")
        xs = [x for x, _ in self.points]
        if any(r < 0.0 for _, r in self.points) or xs != sorted(xs):
            raise ValueError("points must be x-ordered with rmse >= 0")


def _setting_schedule(config: ExperimentConfig, setting: str):
    depths = list(range(config.max_depth + 1))
    if setting == "noise_aware":
        return shot_schedule(depths, config.n_shot_base, config.k_sigma_assumed)
    return shot_schedule(depths, config.n_shot_base, 0.0)


def _correction_params(config: ExperimentConfig) -> DepolParams:
    return depol_equivalent(GaussianNoiseParams(k_mu=0.0, k_sigma=config.k_sigma_assumed))


def run_qae_trial(
    config: ExperimentConfig, setting: str, replication_index: int
) -> list[AmplitudeEstimate]:
    """One replication of one setting: an estimate per depth prefix.

    Samples the full sweep m = 0..max_depth once, then estimates the
    amplitude from the records up to each prefix depth M.  Deterministic
    given (config.seed, replication_index, setting).
    """
    if setting not in config.settings:
        raise ValueError(f"setting {setting!r} not in config.settings")
    schedule = _setting_schedule(config, setting)
    device = replace(
        config.device,
        model=None if setting == "noiseless" else config.device.model,
        seed=subseed(config.seed, replication_index, SETTINGS.index(setting)),
    )
    records = run_depth_sweep(device, list(schedule.depths), list(schedule.shots))

    corrected = setting in ("noisy_b", "noise_aware")
    depol = _correction_params(config) if corrected else None
    return estimate_prefixes(records, method="corrected" if corrected else "naive", depol=depol)


def run_monte_carlo(config: ExperimentConfig) -> list[RmseCurve]:
    """RMSE curves over replications, two per setting (depth and query axes).

    rmse at prefix M is ``sqrt(mean over replications of (a_hat_M - truth_a)^2)``.
    The query axis is the cumulative oracle-call count
    ``sum_{m<=M} (2m+1) N_m`` of the setting's schedule.
    """
    n_prefixes = config.max_depth + 1
    curves = []
    for setting in config.settings:
        errs = np.array(
            [
                [e.a_hat - config.truth_a for e in run_qae_trial(config, setting, rep)]
                for rep in range(config.replications)
            ]
        )
        rmse = np.sqrt(np.mean(errs**2, axis=0))
        schedule = _setting_schedule(config, setting)
        queries = np.cumsum(
            [(2 * m + 1) * n for m, n in schedule.entries], dtype=float
        )
        curves.append(
            RmseCurve(
                setting=setting,
                x_kind="depth",
                points=tuple((float(m), float(r)) for m, r in zip(range(n_prefixes), rmse)),
            )
        )
        curves.append(
            RmseCurve(
                setting=setting,
                x_kind="queries",
                points=tuple((float(q), float(r)) for q, r in zip(queries, rmse)),
            )
        )
    return curves


def misspecification_sweep(
    config: ExperimentConfig,
    factors: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> dict[float, list[RmseCurve]]:
    """Robustness study: rerun the comparison with k_sigma_assumed scaled.

    Each factor multiplies the configured ``k_sigma_assumed`` (schedule and
    correction both follow), leaving the device itself untouched.
    """
    out = {}
    for factor in factors:
        scaled = replace(config, k_sigma_assumed=config.k_sigma_assumed * factor)
        out[float(factor)] = run_monte_carlo(scaled)
    return out


# ---------------------------------------------------------------------------
# JSON configuration (schema documented in schemas/experiment-config.schema.json).

_REQUIRED_FIELDS = ("device", "max_depth", "n_shot_base", "replications", "seed")
_OPTIONAL_FIELDS = ("truth_a", "k_sigma_assumed", "settings")


def _json_int(value, name: str) -> int:
    """A JSON integer; a float with zero fraction (``2.0``) counts, as in JSON Schema."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _unknown_keys(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {unknown}")


def _device_from_json(doc) -> SimulatedDevice:
    if not isinstance(doc, dict):
        raise ValueError("device must be a JSON object")
    _unknown_keys(doc, ("preset", "theta", "noise"), "device")
    if "preset" in doc and "theta" in doc:
        raise ValueError("device: give either 'preset' or 'theta', not both")
    if "preset" in doc:
        from .device import preset_device

        base = preset_device(str(doc["preset"]))
        amp = base.amp
    elif "theta" in doc:
        amp = Amplitude(_json_number(doc["theta"], "device.theta"))
    else:
        raise ValueError("device: missing 'preset' or 'theta'")
    return SimulatedDevice(amp=amp, model=noise_from_dict(doc.get("noise", {"kind": "none"})))


def config_from_json(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON document form.

    Accepts exactly the documents that schemas/experiment-config.schema.json
    accepts, and also rejects NaN and a default rate that cannot exist.
    """
    if not isinstance(doc, dict):
        raise ValueError("experiment config must be a JSON object")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ValueError(f"experiment config: missing field {field!r}")
    _unknown_keys(doc, _REQUIRED_FIELDS + _OPTIONAL_FIELDS, "experiment config")
    device = _device_from_json(doc["device"])
    truth_a = _json_number(doc["truth_a"], "truth_a") if "truth_a" in doc else device.amp.a
    if "k_sigma_assumed" in doc:
        k_sigma = _json_number(doc["k_sigma_assumed"], "k_sigma_assumed")
    else:
        # Default to the device's true rate, assumed known from prior
        # characterisation.
        k_sigma = 0.0 if device.model is None else device.model.rate()
    settings = doc.get("settings", list(SETTINGS))
    if not isinstance(settings, list):
        raise ValueError("settings must be a JSON array")
    return ExperimentConfig(
        device=device,
        truth_a=truth_a,
        max_depth=_json_int(doc["max_depth"], "max_depth"),
        n_shot_base=_json_int(doc["n_shot_base"], "n_shot_base"),
        k_sigma_assumed=k_sigma,
        settings=tuple(settings),
        replications=_json_int(doc["replications"], "replications"),
        seed=_json_int(doc["seed"], "seed"),
    )
