"""Monte Carlo comparison of noise handling strategies for amplitude estimation.

Simulates the four-setting benchmark on a noisy device, each setting one row
of ``_SETTING_ROWS``:

* ``noisy_a``     - flat shot counts, no use of the noise model;
* ``noisy_b``     - flat shot counts, depolarizing count correction only;
* ``noise_aware`` - count correction plus the noise-aware shot schedule;
* ``noiseless``   - flat shot counts on an ideal device, for reference.

Each setting is planned once, when its config is built, and the run reads
the plan: each replication samples a full depth sweep, estimates the
amplitude from every depth prefix, and the harness reports RMSE-versus-depth
curves over replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .device import (
    SimulatedDevice,
    _check_seed,
    _check_tally_shots,
    _sample_tallies,
    preset_device,
)
# Nothing here calls estimate_amplitude; it stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps it in this module.
from .estimation import (  # noqa: F401
    AmplitudeEstimate,
    ShotSchedule,
    _as_estimates,
    _check_zeros,
    _coherent,
    _estimates,
    estimate_amplitude,
    shot_schedule,
)
from .models import (
    Amplitude,
    DepolParams,
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
SETTINGS = tuple(_SETTING_ROWS)  # setting i samples on lane 1 + i of the config seed

# Replications that run_monte_carlo samples and estimates in one batch.  A
# batch's peak memory grows by about 15 KB a replication (criterion-9
# settings), so blocks bound a run's memory; at least 50, so that a
# criterion-9 run of 50 replications stays one batch.
_BLOCK_REPLICATIONS = 500


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one Monte Carlo comparison run.

    ``device`` carries the true angle and noise model; its own seed is
    ignored, replications sample the streams of ``seed``.  Every error is
    taken against the device's own amplitude ``device.amp.a``.
    ``k_sigma_assumed`` feeds both the shot schedule and the count correction
    (via the zero-mean depolarizing equivalence); left out, it is the
    device's true rate, assumed known from prior characterisation (0 without
    noise; ``DepolParams(0.0)`` has none, so is refused).  Building the
    config plans each setting once (:func:`_setting_plan`); the run reads the
    plans.
    """

    device: SimulatedDevice
    max_depth: int
    n_shot_base: int
    k_sigma_assumed: float | None = None
    settings: tuple[str, ...] = SETTINGS
    replications: int = 1
    seed: int = 0
    _plans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_sigma_assumed is None:
            model = self.device.model
            object.__setattr__(self, "k_sigma_assumed", 0.0 if model is None else model.rate())
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
        # What would stop a setting's run is refused here, before any setting samples.
        object.__setattr__(self, "_plans", {s: _setting_plan(self, s) for s in self.settings})


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


def _setting_plan(
    config: ExperimentConfig, setting: str
) -> tuple[ShotSchedule, list[float], str, DepolParams | None]:
    """The setting's shot schedule over m = 0..max_depth, p(1) at each m, method and correction.

    Refuses, in this order, what would stop the run: the schedule, a depth
    with more than 2**40 shots, a non-finite p(1), a singular correction.
    Replications do not count: each tally is one draw, whatever the shots.
    """
    noisy, scheduled, method = _SETTING_ROWS[setting]
    device = replace(config.device, model=config.device.model if noisy else None)
    k_sigma = config.k_sigma_assumed if scheduled else 0.0
    schedule = shot_schedule(list(range(config.max_depth + 1)), config.n_shot_base, k_sigma)
    _check_tally_shots(schedule.depths, schedule.shots)
    p1 = [device.p1(m) for m in schedule.depths]
    depol = None
    if method == "corrected":  # the zero-mean equivalent of the assumed rate
        depol = depol_equivalent(GaussianNoiseParams(k_mu=0.0, k_sigma=config.k_sigma_assumed))
        _coherent(schedule.depths, depol)
    return schedule, p1, method, depol


def _setting_estimates(
    config: ExperimentConfig, setting: str, replications
) -> tuple[ShotSchedule, str, tuple[np.ndarray, ...]]:
    """The setting's schedule, method and :func:`_estimates` of every prefix of each replication.

    The replications are sampled in one batch: replication r of setting i
    is row r of lane 1 + i of ``config.seed``'s streams (see
    :mod:`naqae.device`; lane 0 is the device's own), so its sweep is
    deterministic given (config.seed, r, setting) and does not depend on the
    other replications.
    """
    schedule, p1, method, depol = config._plans[setting]
    lane = 1 + SETTINGS.index(setting)
    # The plan's p(1) list is indexed by depth: the depths are 0..max_depth.
    ones = _sample_tallies(
        p1.__getitem__, config.seed, lane, replications, schedule.depths, schedule.shots
    )
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
    row = _check_seed(replication_index, "replication_index")
    _, method, arrays = _setting_estimates(config, setting, [row])
    return _as_estimates(method, arrays)[0]


def run_monte_carlo(config: ExperimentConfig) -> list[RmseCurve]:
    """RMSE curves over replications, two per setting (depth and query axes).

    rmse at prefix M is ``sqrt(mean over replications of (a_hat_M - a)^2)``,
    with ``a`` the device's amplitude ``config.device.amp.a``.
    The query axis is the cumulative oracle-call count
    ``sum_{m<=M} (2m+1) N_m`` of the setting's schedule.  Each setting
    samples its replications, then estimates them in one batch, as arrays
    from tallies to errors, ``_BLOCK_REPLICATIONS`` at a time; the blocks'
    errors join into one (replications x prefixes) array before the RMSE,
    so the curves do not depend on the block size.  ``a_hat`` is
    :attr:`AmplitudeEstimate.a_hat`'s ``math.sin(theta_hat) ** 2``, so the
    estimates equal :func:`run_qae_trial`'s.
    """
    curves = []
    truth = config.device.amp.a
    for setting in config.settings:
        errs = []
        for start in range(0, config.replications, _BLOCK_REPLICATIONS):
            block = range(start, min(start + _BLOCK_REPLICATIONS, config.replications))
            schedule, _, (theta_hat, *_) = _setting_estimates(config, setting, block)
            errs.append(np.array(
                [[math.sin(t) ** 2 - truth for t in row] for row in theta_hat.tolist()]
            ))
        rmse = np.sqrt(np.mean(np.concatenate(errs) ** 2, axis=0))
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
    correction both follow), leaving the device itself untouched.  Every
    scaled config is built, and so checked, before any of them runs.
    """
    scaled = {
        float(factor): replace(config, k_sigma_assumed=config.k_sigma_assumed * factor)
        for factor in factors
    }
    return {factor: run_monte_carlo(each) for factor, each in scaled.items()}


# ---------------------------------------------------------------------------
# JSON configuration (schema documented in schemas/experiment-config.schema.json).

_REQUIRED_FIELDS = ("device", "max_depth", "n_shot_base", "replications", "seed")
_OPTIONAL_FIELDS = ("k_sigma_assumed", "settings")


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
    A field the document leaves out takes :class:`ExperimentConfig`'s default.
    """
    if not isinstance(doc, dict):
        raise ValueError("experiment config must be a JSON object")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ValueError(f"experiment config: missing field {field!r}")
    _unknown_keys(doc, _REQUIRED_FIELDS + _OPTIONAL_FIELDS, "experiment config")
    optional = {}
    if "k_sigma_assumed" in doc:
        optional["k_sigma_assumed"] = _json_number(doc["k_sigma_assumed"], "k_sigma_assumed")
    if "settings" in doc:
        if not isinstance(doc["settings"], list):
            raise ValueError("settings must be a JSON array")
        optional["settings"] = tuple(doc["settings"])
    return ExperimentConfig(
        device=_device_from_json(doc["device"]),
        max_depth=_json_int(doc["max_depth"], "max_depth"),
        n_shot_base=_json_int(doc["n_shot_base"], "n_shot_base"),
        replications=_json_int(doc["replications"], "replications"),
        seed=_json_int(doc["seed"], "seed"),
        **optional,
    )
