"""Amplitude estimation from multi-depth shot data.

Covers the noise-aware experiment-design side (worst-case variance bound and
the shot schedule that restores noiseless variance) and the inference side
(depolarizing count correction plus a grid + golden-section maximum-likelihood
estimator over the noiseless outcome model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .device import ShotRecord
from .models import DepolParams, _check_depth

# Probabilities are clamped away from {0, 1} inside logs; exact 0/1 model
# values are only consistent with data that agrees exactly.
_LOG_GUARD = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Theta search: uniform grid size, golden-section refinement tolerance, and
# the relative likelihood span at or below which the likelihood is flat.
_GRID_POINTS = 10_000
_REFINE_TOL = 1e-10
_FLAT_TOL = 1e-9


@dataclass(frozen=True)
class ShotSchedule:
    """Experiment design: ordered (depth, shot count) pairs."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = -1
        for m, n in self.entries:
            _check_depth(m)
            if m <= previous:
                raise ValueError("schedule depths must be strictly increasing")
            if n < 1:
                raise ValueError(f"schedule shot counts must be >= 1, got {n!r}")
            previous = m

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.entries)

    @property
    def shots(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VarianceBound:
    """Worst-case variance decomposition for a per-depth amplitude estimate.

    ``sigma2`` bounds the rotation-noise contribution (k_sigma * m),
    ``sigma2_tilde`` the binomial sampling contribution (1 / (4 n)), and
    ``total = sigma2 / n + sigma2_tilde``.
    """

    sigma2: float
    sigma2_tilde: float
    total: float


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Result of maximum-likelihood amplitude estimation.

    ``n_clamped`` counts depths whose corrected counts had to be clamped into
    range; ``flat_likelihood`` is set when the likelihood carries essentially
    no information about theta.
    """

    theta_hat: float
    log_likelihood: float
    method: str
    n_clamped: int = 0
    flat_likelihood: bool = False

    @property
    def a_hat(self) -> float:
        """Estimated amplitude sin^2(theta_hat)."""
        return math.sin(self.theta_hat) ** 2


class CorrectionResult(NamedTuple):
    """Depolarizing-corrected count: clamped value, raw pre-clamp value, flag."""

    value: float
    raw: float
    clamped: bool


def binomial_std_bound(shots: int) -> float:
    """Largest possible standard deviation of a ``shots``-shot frequency.

    A Bernoulli variable has variance at most 1/4, so the mean of ``shots``
    i.i.d. outcomes has standard deviation at most ``sqrt(1 / (4 shots))``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots!r}")
    return math.sqrt(0.25 / shots)


def worst_case_variance(m: int, n_shots: int, k_sigma: float) -> VarianceBound:
    """Worst-case variance of the depth-``m`` amplitude estimate.

    Rotation noise contributes at most ``k_sigma * m`` (small-angle regime)
    and binomial sampling at most ``1 / (4 n)``, for a total of
    ``(4 k_sigma m + 1) / (4 n)``.
    """
    m = _check_depth(m)
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots!r}")
    if not (k_sigma >= 0.0 and math.isfinite(k_sigma)):
        raise ValueError(f"k_sigma must be finite and >= 0, got {k_sigma!r}")
    sigma2 = k_sigma * m
    sigma2_tilde = 1.0 / (4.0 * n_shots)
    return VarianceBound(
        sigma2=sigma2,
        sigma2_tilde=sigma2_tilde,
        total=(4.0 * k_sigma * m + 1.0) / (4.0 * n_shots),
    )


def shot_schedule(
    depths: list[int],
    n_shot_base: int,
    k_sigma: float,
    rounding: str = "nearest",
) -> ShotSchedule:
    """Noise-aware shot counts ``N_m = (4 k_sigma m + 1) * n_shot_base``.

    Scales the per-depth shot count so that the worst-case estimate variance
    stays at the noiseless level ``1 / (4 n_shot_base)``.  ``rounding`` is
    "nearest" (half away from zero) or "up".
    """
    if n_shot_base < 1:
        raise ValueError(f"n_shot_base must be >= 1, got {n_shot_base!r}")
    if not (k_sigma >= 0.0 and math.isfinite(k_sigma)):
        raise ValueError(f"k_sigma must be finite and >= 0, got {k_sigma!r}")
    if rounding not in ("nearest", "up"):
        raise ValueError(f"rounding must be 'nearest' or 'up', got {rounding!r}")
    entries = []
    for m in depths:
        m = _check_depth(m)
        exact = (4.0 * k_sigma * m + 1.0) * n_shot_base
        if rounding == "nearest":
            n = math.floor(exact + 0.5)  # half rounds up, not to even
        else:
            n = math.ceil(exact)
        entries.append((m, int(n)))
    return ShotSchedule(entries=tuple(entries))


def _correct(ones: float, total: float, m: int, depol: DepolParams) -> CorrectionResult:
    """Solve ``ones = p~^m clean + total (1 - p~^m) / 2`` for ``clean`` in [0, total]."""
    if depol.p_coh_tilde == 0.0:
        raise ValueError("correction is singular at p_coh_tilde == 0")
    coherent = depol.p_coh_tilde**m
    raw = (ones - total * 0.5 * (1.0 - coherent)) / coherent
    value = min(max(raw, 0.0), total)
    return CorrectionResult(value=value, raw=raw, clamped=value != raw)


def correct_frequency(p1_hat: float, m: int, depol: DepolParams) -> CorrectionResult:
    """Invert the depolarizing channel on an observed outcome-1 frequency.

    Solves ``p1 = p~^m p1_clean + (1 - p~^m) / 2`` for the noiseless
    frequency: ``p1_clean = (p1_hat - (1 - p~^m) / 2) / p~^m``.  The raw
    value can leave [0, 1] under sampling noise; the returned ``value`` is
    clamped and ``clamped`` flags when that happened.

    Raises:
        ValueError: if ``p_coh_tilde == 0`` (fully depolarized data carries
            no recoverable signal).
    """
    return _correct(p1_hat, 1.0, _check_depth(m), depol)


def correct_counts(record: ShotRecord, depol: DepolParams) -> CorrectionResult:
    """Depolarizing-corrected (fractional) ones count for one record.

    Applies ``(N1 - N (1 - p~^m) / 2) / p~^m`` and clamps the result into
    [0, shots].  With ``p_coh_tilde == 1`` the count is returned unchanged.
    """
    return _correct(record.ones, float(record.shots), record.m, depol)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization on [lo, hi]; ties resolve to smaller x."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _log_likelihood(theta, ms, counts, shots):
    """Joint binomial log-likelihood at angle(s) theta under the noiseless model.

    The binomial coefficient is omitted (theta-independent), which also makes
    fractional corrected counts valid.
    """
    theta = np.asarray(theta, dtype=float)
    p = np.sin(np.multiply.outer(theta, 2.0 * ms + 1.0)) ** 2
    np.clip(p, _LOG_GUARD, 1.0 - _LOG_GUARD, out=p)
    return np.log(p) @ counts + np.log1p(-p) @ (shots - counts)


def estimate_amplitude(
    records: list[ShotRecord],
    method: str = "naive",
    depol: DepolParams | None = None,
) -> AmplitudeEstimate:
    """Maximum-likelihood amplitude estimate from multi-depth tallies.

    Maximizes ``sum_m [h_m ln p_m(theta) + (N_m - h_m) ln(1 - p_m(theta))]``
    with ``p_m(theta) = sin^2((2m+1) theta)`` over theta in [0, pi/2], via a
    uniform grid followed by golden-section refinement of the bracketing
    interval.  Ties resolve to the smallest theta.

    Args:
        method: "naive" uses the tallies as-is; "corrected" first applies
            :func:`correct_counts` with ``depol`` (required, p_coh_tilde > 0).
    """
    if not records:
        raise ValueError("records must be nonempty")
    if method not in ("naive", "corrected"):
        raise ValueError(f"method must be 'naive' or 'corrected', got {method!r}")

    ms = np.array([r.m for r in records], dtype=float)
    shots = np.array([r.shots for r in records], dtype=float)
    n_clamped = 0
    if method == "corrected":
        if depol is None:
            raise ValueError("corrected estimation requires depolarizing parameters")
        corrections = [correct_counts(r, depol) for r in records]
        counts = np.array([c.value for c in corrections])
        n_clamped = sum(c.clamped for c in corrections)
    else:
        counts = np.array([r.ones for r in records], dtype=float)

    thetas = np.linspace(0.0, math.pi / 2.0, _GRID_POINTS)
    loglik = _log_likelihood(thetas, ms, counts, shots)
    best = int(np.argmax(loglik))  # first maximum = smallest theta
    span = float(loglik.max() - loglik.min())
    flat = span <= _FLAT_TOL * max(1.0, abs(float(loglik.max())))

    def objective(theta: float) -> float:
        return float(_log_likelihood(theta, ms, counts, shots))

    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, _GRID_POINTS - 1)]
    refined = _golden_max(objective, float(lo), float(hi), _REFINE_TOL)
    # Keep the grid point unless refinement strictly improves: the log guard
    # flattens the likelihood near exact-certainty angles, and a tie there
    # must not pull the estimate off the boundary.
    theta_hat, top = float(thetas[best]), objective(float(thetas[best]))
    refined_value = objective(refined)
    if refined_value > top:
        theta_hat, top = refined, refined_value

    return AmplitudeEstimate(
        theta_hat=theta_hat,
        log_likelihood=top,
        method=method,
        n_clamped=n_clamped,
        flat_likelihood=flat,
    )
