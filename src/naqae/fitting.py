"""Least-squares fitting of noise-model families to per-depth frequencies.

Fits any of three model families to observed outcome-1 frequencies by
minimum mean-squared error: the full Gaussian rotation-noise model
(theta, k_mu, k_sigma), its zero-mean restriction, and the depolarizing
model.  Each family is one entry of ``_FAMILIES``: its ``fit --model``
spelling, its packed parameters and the noise it reports.  Every family
predicts through the Gaussian kernel, k_mu = 0 where not packed, and its
packed parameters alone decide its search.  So the depolarizing fit is the
zero-mean fit, reported as ``p_coh_tilde = exp(-2 k_sigma)``, and one search
of a dataset serves both.

The objective is multimodal in theta, so the search is a coarse multi-start
grid followed by a bounded Levenberg-Marquardt refinement of the best
starts.  The search settings are fixed module constants.

The grid is screened first: expanded, each point's SSE is a constant plus
two small BLAS matrix products over depths, computed a block of theta rows
at a time from per-axis cos and sin tables, within a documented bound delta
over the depths of the elementwise SSE in any summation order.  Only points
whose screen is at most the ``_REFINE_STARTS``-th smallest plus 2 delta can
rank among the starts; they alone get the elementwise SSE, so the starts and
their SSEs have the bits of a whole-grid evaluation whatever BLAS kernel or
thread count ran the screen.

The refinement runs every start of a search in lockstep, one
:func:`_predict_jacobian` call per round giving p(1) and its analytic
Jacobian at the pending points of all live starts.  Each start takes damped
Gauss-Newton (Levenberg-Marquardt) steps projected into the bounds.  J^T J
and J^T r come from ``einsum`` and the small damped normal equations are
solved in Python floats, so the refinement's bits depend on no BLAS and no
compensated builtin ``sum``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .device import ShotRecord
from .errors import DegenerateDataError
from .models import (
    DepolParams,
    GaussianNoiseParams,
    _HALF_PI,
    _check_depth,
    _check_frequency,
    _decay,
    _p1_gaussian_decayed,
    _p1_gaussian_raw,
    _psi,
    depol_equivalent,
)

# SSE differences below this are treated as ties and broken deterministically
# (smallest theta, then smallest decay rate, then smallest k_mu).
_TIE_TOL = 1e-12

# Parameter name -> (coarse-grid axis, bound of the refinement).  ``rate``
# is k_sigma; its axis is log-spaced.
_PARAMS = {
    "theta": (np.linspace(0.0, _HALF_PI, 64), (0.0, _HALF_PI)),
    "k_mu": (np.linspace(-0.3, 0.3, 33), (-math.pi, math.pi)),
    "rate": (np.logspace(math.log10(1e-5), math.log10(0.5), 33), (0.0, np.inf)),
}
_REFINE_STARTS = 8
# Theta rows per block of the grid's screen, and grid points per exact SSE chunk.
_SCREEN_ROWS = 8
_SSE_CHUNK = 1024
# Levenberg-Marquardt: steps per start, step tolerance, first damping.
_LM_MAX_ITER = 100
_LM_XTOL = 1e-12
_LM_DAMPING = 1e-3


@dataclass(frozen=True)
class _Family:
    """A fit family: its ``fit --model`` spelling, packed parameters and reported noise.

    ``params`` names the parameters its search packs.  ``to_noise`` turns
    the fitted ``k_mu`` (0 when not packed) and ``rate``, given as Gaussian
    parameters, into the noise object the family reports.
    """

    spelling: str
    params: tuple[str, ...]
    to_noise: Callable = lambda noise: noise


_FAMILIES = {
    "gaussian": _Family("gaussian", ("theta", "k_mu", "rate")),
    "gaussian_zero_mean": _Family("zero-mean", ("theta", "rate")),
    "depolarizing": _Family("depol", ("theta", "rate"), depol_equivalent),
}
MODEL_KINDS = tuple(_FAMILIES)
# ``fit --model`` spelling -> model kind.
MODEL_SPELLINGS = {family.spelling: kind for kind, family in _FAMILIES.items()}


@dataclass(frozen=True)
class FrequencyPoint:
    """One observed outcome-1 frequency at depth ``m``."""

    m: int
    p1_hat: float

    def __post_init__(self) -> None:
        _check_depth(self.m)
        _check_frequency(self.p1_hat)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and goodness of fit for one model family.

    ``residuals`` are the per-point differences observed - predicted and
    ``sse`` is the unweighted sum of their squares.  ``converged`` is False
    when the winning refinement still had a step to take at its iteration
    cap, and its best point so far is reported.
    """

    model_kind: str
    theta_hat: float
    noise_params: GaussianNoiseParams | DepolParams
    sse: float
    r_squared: float
    residuals: tuple[float, ...]
    converged: bool = True
    label: str = ""


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
    """Convert shot tallies to frequency points at their ``p1_hat = ones / shots``."""
    return [FrequencyPoint(m=r.m, p1_hat=r.p1_hat) for r in records]


def _predict(space, params, ms):
    """Gaussian p(1) at ``params`` (a vector or grid mesh) named by ``space``; k_mu 0 if unnamed."""
    named = dict(zip(space, params))
    return _p1_gaussian_raw(named["theta"], ms, named.get("k_mu", 0.0), named["rate"])


def _predict_jacobian(space, params, ms):
    """:func:`_predict` and its Jacobian, as an array over the parameters ``space`` names.

    With ``k = 2m + 1``, ``psi`` from :func:`_psi` and ``d`` from :func:`_decay`,
    p(1) is ``(1 - d cos 2 psi) / 2``, so ``dp/dtheta = d k sin 2 psi``,
    ``dp/dk_mu = d m sin 2 psi`` and ``dp/drate = m d cos 2 psi``.
    """
    named = dict(zip(space, params))
    theta, k_mu = named["theta"], named.get("k_mu", 0.0)
    decay = _decay(named["rate"], ms)
    two_psi = 2.0 * _psi(theta, ms, k_mu)
    sin, cos = decay * np.sin(two_psi), decay * np.cos(two_psi)
    slopes = {"theta": (2.0 * ms + 1.0) * sin, "k_mu": ms * sin, "rate": ms * cos}
    return _p1_gaussian_decayed(theta, ms, k_mu, decay), np.array([slopes[name] for name in space])


def _screen_delta(ms):
    """A bound on |screen - SSE| at any grid point on the depths ``ms`` (:func:`_grid_search`).

    With n depths and u = 2^-53 it is ``16 n (n + 16) u`` for the sums and
    the trig tables, plus ``u sum_m (64 + 2 |2 psi_m|)`` for the screen's
    angle addition, ``|2 psi_m|`` taken at the grid's largest theta and
    |k_mu|.  :func:`_screen` has the proof.
    """
    theta, k_mu = (float(np.max(np.abs(_PARAMS[name][0]))) for name in ("theta", "k_mu"))
    angles = 2.0 * ((2.0 * ms + 1.0) * theta + k_mu * ms)
    return (16.0 * ms.size * (ms.size + 16) + float(np.sum(64.0 + 2.0 * angles))) * 2.0**-53


def _screen(space, ms, y, decay):
    """The coarse grid's SSEs to within :func:`_screen_delta`, as an array of the grid's shape.

    A grid point's SSE is ``sum_l (a_l + d_l c_l / 2)^2``, with ``a = y - 1/2``,
    ``d`` the ``decay`` table over (rate, depth) and ``c = cos 2 psi`` over
    (theta, k_mu, depth).  Expanded, it is ``a . a + c . (a d) + (c c) . (d d) / 4``,
    two small BLAS products per block of ``_SCREEN_ROWS`` theta rows; blocks
    keep only a few rows of c in memory at a time.  c comes from per-axis
    tables by angle addition, ``cos A cos B - sin A sin B`` with
    ``A = 2 k theta`` (k = 2m + 1) and ``B = 2 k_mu m`` (0 without k_mu), so
    cos and sin run over 64 + 33 rows of depths rather than 64 x 33.

    The bound, with n depths and u = 2^-53.  Let S be the exact SSE on the
    same decay at ``c* = cos 2 psi``, psi rounded as :func:`_psi` rounds it,
    and S' the exact expansion at ``c' = cos(A + B)``, A and B as rounded here.

    - The elementwise SSE is within ``n (n + 40) u`` of S: every factor is at
      most 1 in magnitude, numpy's cos and sin are within 4 ulp, and a sum of
      n terms is off by at most ``(n - 1) u`` times the sum of their magnitudes.
    - The screen is within ``n (n + 40) u + 64 n u`` of S' by the same count;
      the 64 u a depth covers the 4 ulp of each of the four table entries, the
      two products and the difference that make c.
    - ``A = 2 fl(k theta)`` and ``B = 2 fl(k_mu m)`` exactly, and :func:`_psi`
      rounds their half-sum once, so ``2 psi = fl(A + B)`` lies within
      ``u |A + B|`` of ``A + B``.  cos is 1-Lipschitz and a depth's term moves
      with c at a rate ``|d (a + d c / 2)| <= 1`` (|a| <= 1/2, 0 <= d <= 1,
      |c| <= 1), so ``|S' - S| <= u sum_m |A_m + B_m|``.

    So screen and SSE differ by at most
    ``2 n (n + 40) u + u sum_m (64 + |A_m + B_m|)``.  The first part of
    :func:`_screen_delta` is at least three times the first term, and its
    second part exceeds the second, as ``|A_m + B_m| <= (1 + u) |2 psi_m|``
    at the grid's extremes.  Underflow adds under 2^-1074 a term.
    """
    axes = [_PARAMS[name][0] for name in space]
    k_mu = _PARAMS["k_mu"][0] if "k_mu" in space else np.zeros(1)
    a = y - 0.5
    # Each block's c is (theta, k_mu) rows by depths; ad and dd are rates by depths.
    aa, ad, dd = np.einsum("l,l->", a, a), a * decay, 0.25 * (decay * decay)
    angle_a = 2.0 * ((2.0 * ms + 1.0) * axes[0][:, None])
    angle_b = 2.0 * (k_mu[:, None] * ms)
    cos_a, sin_a, cos_b, sin_b = np.cos(angle_a), np.sin(angle_a), np.cos(angle_b), np.sin(angle_b)
    screen = np.empty([len(ax) for ax in axes])
    for start in range(0, len(axes[0]), _SCREEN_ROWS):
        rows = slice(start, start + _SCREEN_ROWS)
        c = (cos_a[rows, None] * cos_b - sin_a[rows, None] * sin_b).reshape(-1, ms.size)
        block = aa + c @ ad.T + (c * c) @ dd.T
        screen[rows] = block.reshape((-1,) + screen.shape[1:])
    return screen


def _grid_search(space, ms, y):
    """SSE over the full coarse grid; returns starts ordered best-first.

    The grid is ranked by :func:`_screen`.  A point among the
    ``_REFINE_STARTS`` best by SSE has an SSE at most that of one of the
    ``_REFINE_STARTS`` best screens, so its screen is at most the
    ``_REFINE_STARTS``-th smallest plus twice :func:`_screen_delta`.  Only
    such points get the elementwise SSE (``y - p1`` squared and summed by
    ``einsum``), ``_SSE_CHUNK`` points at a time.  Ranked by (SSE, flat
    index), they give the starts a stable argsort of the whole grid's SSEs
    gives, each SSE with its whole-mesh bits.
    """
    axes = [_PARAMS[name][0] for name in space]
    shape = tuple(len(ax) for ax in axes)
    # rate is the last packed parameter; the decay depends only on (rate, depth).
    decay = _decay(axes[-1][:, None], ms)
    screen = _screen(space, ms, y, decay).ravel()
    count = min(_REFINE_STARTS, screen.size)
    cut = np.partition(screen, count - 1)[count - 1] + 2 * _screen_delta(ms)
    candidates = np.flatnonzero(screen <= cut)
    sse = np.empty(candidates.size)
    for start in range(0, candidates.size, _SSE_CHUNK):
        index = np.unravel_index(candidates[start:start + _SSE_CHUNK], shape)
        named = {name: ax[i][:, None] for name, ax, i in zip(space, axes, index)}
        residuals = y - _p1_gaussian_decayed(named["theta"], ms, named.get("k_mu", 0.0),
                                             decay[index[-1]])
        sse[start:start + _SSE_CHUNK] = np.einsum("...l,...l->...", residuals, residuals)
    starts = []
    for j in np.argsort(sse, kind="stable")[:count]:
        index = np.unravel_index(candidates[j], shape)
        starts.append((float(sse[j]), tuple(float(ax[i]) for ax, i in zip(axes, index))))
    return starts


def _project(point, bounds):
    """``point`` clipped into ``bounds``, a lower bound's zero as +0.0."""
    return tuple(lo if v <= lo else hi if v >= hi else v for v, (lo, hi) in zip(point, bounds))


def _solve(a):
    """The solution of a small positive-definite system, by Gauss-Jordan elimination in place.

    ``a`` is the augmented matrix, each row its coefficients and then its
    right-hand side.
    """
    columns = range(len(a) + 1)
    for k, pivot in enumerate(a):
        for row in a:
            if row is not pivot:
                factor = row[k] / pivot[k]
                for j in columns:
                    row[j] -= factor * pivot[j]
    return [row[-1] / row[k] for k, row in enumerate(a)]


def _step(x, jtj, jtr, damping, bounds):
    """The next point of a run at ``x`` and the SSE drop it predicts, or None when done.

    A parameter is held where its diagonal of J^T J is 0 or subnormal, too
    small for the damping to keep the pivots positive, or where it sits on a
    bound that its descent direction ``J^T r`` points out of.  The others
    solve ``(J^T J + damping diag(J^T J)) step = J^T r``; the point is then
    projected into ``bounds``.  The run is done when no parameter is free or
    moves by more than ``_LM_XTOL (|x| + 1)``.
    """
    free = [j for j, (v, g, (lo, hi)) in enumerate(zip(x, jtr, bounds))
            if jtj[j][j] >= sys.float_info.min and not (v <= lo and g <= 0.0 or v >= hi and g >= 0.0)]
    if not free:
        return None
    solved = [0.0] * len(x)
    augmented = [[jtj[i][j] * (1.0 + damping) if i == j else jtj[i][j] for j in free] + [jtr[i]]
                 for i in free]
    for j, s in zip(free, _solve(augmented)):
        solved[j] = s
    # Project into the bounds (as :func:`_project`) and test for a move, in one pass.
    trial, step, moved = [], [], False
    for v, d, (lo, hi) in zip(x, solved, bounds):
        t = v + d
        t = lo if t <= lo else hi if t >= hi else t
        trial.append(t)
        step.append(s := t - v)
        moved = moved or not abs(s) <= _LM_XTOL * (abs(v) + 1.0)
    if not moved:
        return None
    # The linear model's drop in SSE, 2 s.J^T r - s.J^T J s.
    drop = 0.0
    for s, g, row in zip(step, jtr, jtj):
        drop += 2.0 * s * g
        for t, a in zip(step, row):
            drop -= s * a * t
    return tuple(trial), drop


def _refine(space, ms, y, starts):
    """Bounded Levenberg-Marquardt from every start in lockstep; ``(sse, params, converged)`` each.

    Each round scores the pending points of all live starts, with their
    Jacobians, in one :func:`_predict_jacobian`.  A point that lowers its
    run's SSE is accepted and the damping scaled by Nielsen's rule, to no
    less than ``_LM_XTOL`` so that the damped matrix stays positive definite
    in floats; otherwise the damping grows by a factor that doubles with each
    rejection in a row.  A run with a step left after ``_LM_MAX_ITER`` steps
    has not converged, and reports its best point.
    """
    bounds = [_PARAMS[name][1] for name in space]
    # start index -> its point awaiting a score, and the SSE drop predicted for it
    pending = {i: (_project(x0, bounds), 0.0) for i, x0 in enumerate(starts)}
    # Each start's last accepted point, with its SSE, J^T J and J^T r.
    accepted = [((), math.inf, None, None)] * len(starts)
    damping, growth = [_LM_DAMPING] * len(starts), [2.0] * len(starts)
    for _ in range(_LM_MAX_ITER + 1):
        if not pending:
            break
        params = np.array([point for point, _ in pending.values()]).T[:, :, None]
        predicted, jacobian = _predict_jacobian(space, params, ms)
        residuals = y - predicted
        sse = np.einsum("il,il->i", residuals, residuals).tolist()
        jtj = np.einsum("pil,qil->ipq", jacobian, jacobian).tolist()
        jtr = np.einsum("pil,il->ip", jacobian, residuals).tolist()
        for i, value, a, g in zip(list(pending), sse, jtj, jtr):
            point, drop = pending.pop(i)
            if value < accepted[i][1]:
                if drop > 0.0:  # 0 before the first step
                    ratio = min((accepted[i][1] - value) / drop, 1.0)
                    damping[i] *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                damping[i], growth[i] = max(damping[i], _LM_XTOL), 2.0
                accepted[i] = (point, value, a, g)
            else:
                damping[i], growth[i] = damping[i] * growth[i], 2.0 * growth[i]
            x, _, a, g = accepted[i]
            if (step := _step(x, a, g, damping[i], bounds)) is not None:
                pending[i] = step
    return [(sse, x, i not in pending) for i, (x, sse, *_) in enumerate(accepted)]


def _fit_space(space, ms, y):
    """:func:`fit_model`'s search over the parameters ``space`` names, and the fit it ends on.

    Returns theta, the noise as Gaussian parameters, the SSE, R^2, the
    residuals and whether the refinement converged.
    """

    def tie_key(candidate) -> tuple[float, float, float]:
        named = dict(zip(space, candidate[1]))
        return (named["theta"], named["rate"], named.get("k_mu", 0.0))

    starts = _grid_search(space, ms, y)
    # Candidates: every refined start plus the raw grid best, so the result
    # can never be worse than the grid.
    candidates = [(starts[0][0], starts[0][1], True)]
    candidates += _refine(space, ms, y, [x0 for _, x0 in starts])
    best_sse = min(c[0] for c in candidates)
    _, params, converged = min((c for c in candidates if c[0] <= best_sse + _TIE_TOL), key=tie_key)

    predictions = np.asarray(_predict(space, params, ms))
    residuals = y - predictions
    named = dict(zip(space, params))
    gaussian = GaussianNoiseParams(k_mu=named.get("k_mu", 0.0), k_sigma=named["rate"])
    return (named["theta"], gaussian, float(np.sum(residuals**2)), r_squared(y, predictions),
            tuple(float(r) for r in residuals), converged)


def _fit_kinds(data: list[FrequencyPoint], kinds: Sequence[str], label: str = "") -> list[FitResult]:
    """:func:`fit_model` for each of ``kinds`` in turn, with one search per parameter space.

    Families that pack the same parameters differ only in the noise object
    they report, so they share one search and its fit.  Constant
    observations are refused, naming ``label``, before any search.
    """
    ms = np.array([pt.m for pt in data], dtype=float)
    y = np.array([pt.p1_hat for pt in data])
    if y.size and bool(np.all(y == y[0])):
        where = f"label {label!r}: " if label else ""
        raise DegenerateDataError(f"{where}constant observations: R^2 is undefined")
    searches = {}  # parameter space -> :func:`_fit_space`'s fit
    results = []
    for kind in kinds:
        if kind not in _FAMILIES:
            raise ValueError(f"unknown model kind {kind!r} (known: {MODEL_KINDS})")
        family = _FAMILIES[kind]
        if len(data) < len(family.params) + 1:
            raise ValueError(f"{kind} fit needs at least {len(family.params) + 1} points, got {len(data)}")
        if family.params not in searches:
            searches[family.params] = _fit_space(family.params, ms, y)
        theta, gaussian, *fit = searches[family.params]
        results.append(FitResult(kind, theta, family.to_noise(gaussian), *fit, label=label))
    return results


def fit_model(data: list[FrequencyPoint], model_kind: str, label: str = "") -> FitResult:
    """MMSE fit of one model family to per-depth frequencies.

    Runs the coarse grid, refines the best ``_REFINE_STARTS`` grid points
    by bounded Levenberg-Marquardt, and returns the best candidate found
    (never worse than the best grid point).  Equal-SSE candidates resolve to
    the smallest theta, then the smallest decay rate, then the smallest k_mu.

    Raises:
        DegenerateDataError: the observations are constant, so R^2 is
            undefined; refused before any search.
        ValueError: unknown family, or fewer than (parameter count + 1) points.
    """
    return _fit_kinds(data, [model_kind], label)[0]


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
