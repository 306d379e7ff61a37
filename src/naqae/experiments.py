"""Monte Carlo comparison of noise handling strategies for amplitude estimation.

Simulates the four-setting benchmark on a noisy device, each setting one row
of ``_SETTING_ROWS``:

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

from .device import SimulatedDevice, _check_seed, _philox_keys, _sample_tallies, preset_device
# Nothing here calls estimate_amplitude; it stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps it in this module.
from .estimation import (  # noqa: F401
    AmplitudeEstimate,
    ShotSchedule,
    _as_estimates,
    _check_zeros,
    _estimates,
    estimate_amplitude,
    shot_schedule,
)
from .models import (
    Amplitude,
    GaussianNoiseParams,
    _check_int64,
    _check_rate,
    _check_shots,
    _json_number,
    depol_equivalent,
    noise_from_dict,
)

# Each setting: whether its device keeps the configured noise, whether its
# shots follow the noise-aware schedule, and its estimation method.
_SETTING_ROWS = {
    "noisy_a": (True, False, "naive"),
    "noisy_b": (True, False, "corrected"),
    "noise_aware": (True, True, "corrected"),
    "noiseless": (False, False, "naive"),
}
SETTINGS = tuple(_SETTING_ROWS)  # replication seeds use SETTINGS.index


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
        _check_int64(self.max_depth, "max_depth")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth!r}")
        # Depths 0..M have (M + 1)(M + 2) zeros: refused before any sampling
        _check_zeros((int(self.max_depth) + 1) * (int(self.max_depth) + 2))
        _check_shots(self.n_shot_base, "n_shot_base")
        _check_rate(self.k_sigma_assumed, "k_sigma_assumed")
        _check_shots(self.replications, "replications")
        _check_seed(self.seed, "seed")
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
        if self.x_kind not in ("depth", "queries"):
            raise ValueError(f"x_kind must be one of ('depth', 'queries'), got {self.x_kind!r}")
        xs = [x for x, _ in self.points]
        if any(r < 0.0 for _, r in self.points) or xs != sorted(xs):
            raise ValueError("points must be x-ordered with rmse >= 0")


def _setting_tallies(
    config: ExperimentConfig, setting: str, replications
) -> tuple[ShotSchedule, np.ndarray]:
    """The setting's schedule and ones tallies at m = 0..max_depth, (replications x depths).

    Every replication is sampled in one batch.  Replication r's seed is the
    first word of :func:`_philox_keys`'s ``SeedSequence([config.seed, r,
    setting index])`` key, so its sweep is deterministic given
    (config.seed, r, setting) and does not depend on the other replications.
    """
    noisy, scheduled, _ = _SETTING_ROWS[setting]
    k_sigma = config.k_sigma_assumed if scheduled else 0.0
    schedule = shot_schedule(list(range(config.max_depth + 1)), config.n_shot_base, k_sigma)
    device = replace(config.device, model=config.device.model if noisy else None)
    reps = [_check_seed(r, "replication_index") for r in replications]
    keys = _philox_keys(_check_seed(config.seed, "seed"), reps, SETTINGS.index(setting))
    return schedule, _sample_tallies(device, keys[:, 0].tolist(), schedule.depths, schedule.shots)


def _setting_estimates(
    config: ExperimentConfig, setting: str, replications
) -> tuple[ShotSchedule, str, tuple[np.ndarray, ...]]:
    """The setting's schedule, method and :func:`_estimates` of every prefix of each replication."""
    schedule, ones = _setting_tallies(config, setting, replications)
    method = _SETTING_ROWS[setting][2]
    depol = None
    if method == "corrected":  # the zero-mean equivalent of the assumed rate
        depol = depol_equivalent(GaussianNoiseParams(k_mu=0.0, k_sigma=config.k_sigma_assumed))
    return schedule, method, _estimates(schedule.depths, schedule.shots, ones, method, depol, False)


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
    _, method, arrays = _setting_estimates(config, setting, [replication_index])
    return _as_estimates(method, arrays)[0]


def run_monte_carlo(config: ExperimentConfig) -> list[RmseCurve]:
    """RMSE curves over replications, two per setting (depth and query axes).

    rmse at prefix M is ``sqrt(mean over replications of (a_hat_M - truth_a)^2)``.
    The query axis is the cumulative oracle-call count
    ``sum_{m<=M} (2m+1) N_m`` of the setting's schedule.  Each setting
    samples every replication first, then estimates them in one batch, as
    arrays from tallies to RMSE; ``a_hat`` is :attr:`AmplitudeEstimate.a_hat`'s
    ``math.sin(theta_hat) ** 2``, so the estimates equal :func:`run_qae_trial`'s.
    """
    curves = []
    for setting in config.settings:
        schedule, _, (theta_hat, *_) = _setting_estimates(
            config, setting, range(config.replications)
        )
        errs = np.array(
            [[math.sin(t) ** 2 - config.truth_a for t in row] for row in theta_hat.tolist()]
        )
        rmse = np.sqrt(np.mean(errs**2, axis=0))
        queries = np.cumsum(
            [(2 * m + 1) * n for m, n in schedule.entries], dtype=float
        )
        for x_kind, xs in (("depth", schedule.depths), ("queries", queries)):
            points = tuple((float(x), float(r)) for x, r in zip(xs, rmse))
            curves.append(RmseCurve(setting=setting, x_kind=x_kind, points=points))
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
