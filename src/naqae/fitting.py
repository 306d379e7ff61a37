"""Least-squares fitting of noise-model families to per-depth frequencies.

Fits any of three model families to observed outcome-1 frequencies by
minimum mean-squared error: the full Gaussian rotation-noise model
(theta, k_mu, k_sigma), its zero-mean restriction, and the depolarizing
model.  The depolarizing family is optimized in the rate variable
``-ln(p_coh_tilde) / 2`` so that it shares the zero-mean family's search
space (the two are exact reparameterizations of each other).

The objective is multimodal in theta, so the search is a coarse multi-start
grid followed by Nelder-Mead simplex refinement of the best starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .device import ShotRecord
from .errors import DegenerateDataError
from .models import (
    DepolParams,
    GaussianNoiseParams,
    _check_depth,
    _p1_depol_raw,
    _p1_gaussian_raw,
    depol_equivalent,
)

MODEL_KINDS = ("gaussian", "gaussian_zero_mean", "depolarizing")

# SSE differences below this are treated as ties and broken deterministically
# (smallest theta, then smallest decay rate, then smallest k_mu).
_TIE_TOL = 1e-12

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class FrequencyPoint:
    """One observed outcome-1 frequency at depth ``m``, optionally weighted."""

    m: int
    p1_hat: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        _check_depth(self.m)
        if not (0.0 <= self.p1_hat <= 1.0):
            raise ValueError(f"p1_hat must lie in [0, 1], got {self.p1_hat!r}")
        if not self.weight > 0.0:
            raise ValueError(f"weight must be > 0, got {self.weight!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and goodness of fit for one model family.

    ``sse`` is the attained (weighted) objective; ``residuals`` are the raw
    per-point differences observed - predicted, so with the default unit
    weights ``sse == sum(residuals**2)``.  ``converged`` is False when the
    simplex refinement hit its iteration cap and the best-so-far point is
    reported.
    """

    model_kind: str
    theta_hat: float
    noise_params: GaussianNoiseParams | DepolParams
    sse: float
    r_squared: float
    residuals: tuple[float, ...]
    converged: bool = True
    label: str = ""


@dataclass(frozen=True)
class FitSearchConfig:
    """Multi-start grid geometry and simplex refinement settings."""

    theta_points: int = 64
    k_mu_points: int = 33
    k_mu_range: tuple[float, float] = (-0.3, 0.3)
    rate_points: int = 33
    rate_range: tuple[float, float] = (1e-5, 0.5)  # log-spaced
    refine_starts: int = 8
    nm_max_iter: int = 500
    nm_fatol: float = 1e-10
    nm_xatol: float = 1e-8


def r_squared(observed, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    SS_tot is taken about the mean of the observations.  The result is at
    most 1 (exactly 1 iff the predictions match the observations) and can be
    negative for fits worse than the constant-mean model.

    Raises:
        DegenerateDataError: if the observations are constant (SS_tot == 0).
    """
    y = np.asarray(observed, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if y.shape != p.shape or y.size == 0:
        raise ValueError("observed and predicted must have equal nonzero length")
    ss_res = float(np.sum((y - p) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    # np.all(y == y[0]) rather than ss_tot == 0: mean round-off leaves a tiny
    # nonzero ss_tot even for literally constant observations.
    if ss_tot == 0.0 or bool(np.all(y == y.flat[0])):
        raise DegenerateDataError("constant observations: R^2 is undefined")
    return 1.0 - ss_res / ss_tot


def points_from_records(records: list[ShotRecord]) -> list[FrequencyPoint]:
    """Convert shot tallies to frequency points via p1_hat = ones / shots."""
    return [FrequencyPoint(m=r.m, p1_hat=r.ones / r.shots) for r in records]


def _n_free_params(kind: str) -> int:
    return 3 if kind == "gaussian" else 2


def _predict(kind: str, params, ms):
    """Model predictions at the packed parameter vector.

    Packing: gaussian (theta, k_mu, rate); zero-mean and depolarizing
    (theta, rate), where rate is k_sigma for the Gaussian families and
    -ln(p_coh_tilde)/2 for the depolarizing one.
    """
    theta = params[0]
    if kind == "gaussian":
        return _p1_gaussian_raw(theta, ms, params[1], params[2])
    if kind == "gaussian_zero_mean":
        return _p1_gaussian_raw(theta, ms, 0.0, params[1])
    return _p1_depol_raw(theta, ms, np.exp(-2.0 * params[1]))


def _grid_axes(kind: str, cfg: FitSearchConfig):
    thetas = np.linspace(0.0, _HALF_PI, cfg.theta_points)
    rates = np.logspace(
        math.log10(cfg.rate_range[0]), math.log10(cfg.rate_range[1]), cfg.rate_points
    )
    if kind == "gaussian":
        k_mus = np.linspace(cfg.k_mu_range[0], cfg.k_mu_range[1], cfg.k_mu_points)
        return thetas, k_mus, rates
    return thetas, rates


def _grid_search(kind: str, cfg: FitSearchConfig, ms, y, w):
    """SSE over the full coarse grid; returns starts ordered best-first."""
    axes = _grid_axes(kind, cfg)
    # Grid axis i holds packed parameter i; the last axis runs over depths.
    mesh = [ax.reshape((-1,) + (1,) * (len(axes) - i)) for i, ax in enumerate(axes)]
    pred = _predict(kind, mesh, ms)
    letters = "ijk"[: len(axes)]
    sse = np.einsum(f"{letters}l,l->{letters}", (y - pred) ** 2, w)
    order = np.argsort(sse, axis=None, kind="stable")
    starts = []
    for flat in order[: cfg.refine_starts]:
        index = np.unravel_index(flat, sse.shape)
        starts.append((float(sse[index]), tuple(float(ax[i]) for ax, i in zip(axes, index))))
    return starts


def _bounds(kind: str):
    if kind == "gaussian":
        return [(0.0, _HALF_PI), (-math.pi, math.pi), (0.0, np.inf)]
    return [(0.0, _HALF_PI), (0.0, np.inf)]


def _tie_key(kind: str, params) -> tuple[float, float, float]:
    # (theta, rate, k_mu): smallest theta, then smallest k_sigma / rate.
    if kind == "gaussian":
        return (params[0], params[2], params[1])
    return (params[0], params[1], 0.0)


def fit_model(
    data: list[FrequencyPoint],
    model_kind: str,
    config: FitSearchConfig = FitSearchConfig(),
    label: str = "",
) -> FitResult:
    """MMSE fit of one model family to per-depth frequencies.

    Runs the coarse grid, refines the best ``config.refine_starts`` grid
    points with bounded Nelder-Mead, and returns the best candidate found
    (never worse than the best grid point).  Equal-SSE candidates resolve to
    the smallest theta, then the smallest decay rate.

    Raises:
        ValueError: unknown family, or fewer than (parameter count + 1) points.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r} (known: {MODEL_KINDS})")
    n_params = _n_free_params(model_kind)
    if len(data) < n_params + 1:
        raise ValueError(
            f"{model_kind} fit needs at least {n_params + 1} points, got {len(data)}"
        )

    ms = np.array([pt.m for pt in data], dtype=float)
    y = np.array([pt.p1_hat for pt in data])
    w = np.array([pt.weight for pt in data])

    def objective(params) -> float:
        return float(np.sum(w * (y - _predict(model_kind, params, ms)) ** 2))

    starts = _grid_search(model_kind, config, ms, y, w)

    # Candidates: every refined start plus the raw grid best, so the result
    # can never be worse than the grid.
    candidates = [(starts[0][0], starts[0][1], True)]
    for _, x0 in starts:
        res = minimize(
            objective,
            np.asarray(x0),
            method="Nelder-Mead",
            bounds=_bounds(model_kind),
            options={
                "maxiter": config.nm_max_iter,
                "fatol": config.nm_fatol,
                "xatol": config.nm_xatol,
            },
        )
        candidates.append((float(res.fun), tuple(float(v) for v in res.x), bool(res.success)))

    best_sse = min(c[0] for c in candidates)
    eligible = [c for c in candidates if c[0] <= best_sse + _TIE_TOL]
    _, params, converged = min(eligible, key=lambda c: _tie_key(model_kind, c[1]))

    predictions = np.asarray(_predict(model_kind, params, ms))
    residuals = y - predictions
    sse = float(np.sum(w * residuals**2))
    r2 = r_squared(y, predictions)

    if model_kind == "gaussian":
        noise: GaussianNoiseParams | DepolParams = GaussianNoiseParams(
            k_mu=params[1], k_sigma=params[2]
        )
    elif model_kind == "gaussian_zero_mean":
        noise = GaussianNoiseParams(k_mu=0.0, k_sigma=params[1])
    else:
        noise = depol_equivalent(GaussianNoiseParams(k_mu=0.0, k_sigma=params[1]))

    return FitResult(
        model_kind=model_kind,
        theta_hat=float(params[0]),
        noise_params=noise,
        sse=sse,
        r_squared=r2,
        residuals=tuple(float(r) for r in residuals),
        converged=converged,
        label=label,
    )


def fit_report(results: list[FitResult]) -> list[dict]:
    """Comparison table of R^2 values, one row per dataset label.

    Rows are sorted by label; within a row every family whose R^2 matches the
    row maximum to four decimal places carries the best flag.
    """
    if not results:
        raise ValueError("results must be nonempty")
    by_label: dict[str, dict[str, float]] = {}
    for result in results:
        by_label.setdefault(result.label, {})[result.model_kind] = result.r_squared
    rows = []
    for label in sorted(by_label):
        r2s = by_label[label]
        top = round(max(r2s.values()), 4)
        best = tuple(kind for kind in MODEL_KINDS if kind in r2s and round(r2s[kind], 4) == top)
        rows.append({"label": label, "r_squared": dict(r2s), "best": best})
    return rows
