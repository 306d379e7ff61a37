"""Amplitude estimation from multi-depth shot data.

Covers the noise-aware experiment-design side (worst-case variance bound and
the shot schedule that restores noiseless variance) and the inference side
(depolarizing count correction plus a maximum-likelihood estimator over the
noiseless outcome model: a theta grid, then Newton steps inside the concave
piece of the likelihood that holds the grid maximum).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .device import ShotRecord
from .models import DepolParams, _check_depth, _check_rate, _check_shots

# Probabilities are clamped away from {0, 1} inside logs; exact 0/1 model
# values are only consistent with data that agrees exactly.
_LOG_GUARD = 1e-12

# Theta search: uniform grid size, the Newton step at or below which a
# refinement has converged, and the relative likelihood span at or below which
# the likelihood is flat.
_GRID_POINTS = 10_000
_STEP_TOL = 1e-12
_FLAT_TOL = 1e-9

# Datasets per running grid: the (8 x grid) sum and its update buffer, 1.3 MB
# together, stay in a 2 MiB L2 cache across the per-depth multiply and add
# passes.  One all-prefix grid over 50 datasets x 13 depths took 12-13 ms at 4
# and 8, 14-19 ms at 16, and 17-35 ms at 1 and 50 (2-vCPU Xeon).
_GRID_CHUNK = 8

# Estimation methods and shot-schedule roundings (also the CLI choices).
METHODS = ("naive", "corrected")
ROUNDINGS = ("nearest", "up")


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
            _check_shots(n, "schedule shot count")
            previous = m

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.entries)

    @property
    def shots(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)


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


def worst_case_variance(m: int, n_shots: int, k_sigma: float) -> VarianceBound:
    """Worst-case variance of the depth-``m`` amplitude estimate.

    Rotation noise contributes at most ``k_sigma * m`` (small-angle regime)
    and binomial sampling at most ``1 / (4 n)``, for a total of
    ``(4 k_sigma m + 1) / (4 n)``.
    """
    m = _check_depth(m)
    _check_shots(n_shots, "n_shots")
    _check_rate(k_sigma, "k_sigma")
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

    Raises:
        ValueError: on an ``n_shot_base`` that is not an integer >= 1, and on
            a count that is not finite or is >= 2**63 (past a signed 64-bit
            tally), naming its depth.
    """
    _check_shots(n_shot_base, "n_shot_base")
    _check_rate(k_sigma, "k_sigma")
    if rounding not in ROUNDINGS:
        raise ValueError(f"rounding must be one of {ROUNDINGS}, got {rounding!r}")
    entries = []
    for m in depths:
        m = _check_depth(m)
        exact = (4.0 * k_sigma * m + 1.0) * n_shot_base
        if not (math.isfinite(exact) and exact < 2.0**63):
            raise ValueError(f"shot count at depth {m} must be finite and < 2**63, got {exact!r}")
        if rounding == "nearest":
            n = math.floor(exact + 0.5)  # half rounds up, not to even
        else:
            n = math.ceil(exact)
        entries.append((m, int(n)))
    return ShotSchedule(entries=tuple(entries))


def _correct(ones, total, depths: Sequence[int], depol: DepolParams) -> CorrectionResult:
    """Solve ``ones = p~^m clean + total (1 - p~^m) / 2`` for ``clean`` in [0, total], per depth."""
    if depol.p_coh_tilde == 0.0:
        raise ValueError("correction is singular at p_coh_tilde == 0")
    coherent = [depol.p_coh_tilde**m for m in depths]  # Python's pow, as numpy's may differ
    if 0.0 in coherent:
        m = depths[coherent.index(0.0)]
        raise ValueError(
            f"correction is singular at depth {m}: p_coh_tilde**m = "
            f"{depol.p_coh_tilde!r}**{m} underflows to 0"
        )
    with np.errstate(over="ignore"):  # to +-inf, as Python's float division does
        raw = (ones - total * 0.5 * (1.0 - np.array(coherent))) / coherent
    # Python's min(max(raw, 0.0), total), signed zeros included
    value = np.where(raw < 0.0, 0.0, np.where(total < raw, total, raw))
    return CorrectionResult(value=value, raw=raw, clamped=value != raw)


def correct_frequency(p1_hat: float, m: int, depol: DepolParams) -> CorrectionResult:
    """Invert the depolarizing channel on an observed outcome-1 frequency.

    Solves ``p1 = p~^m p1_clean + (1 - p~^m) / 2`` for the noiseless
    frequency: ``p1_clean = (p1_hat - (1 - p~^m) / 2) / p~^m``.  The raw
    value can leave [0, 1] under sampling noise; the returned ``value`` is
    clamped and ``clamped`` flags when that happened.

    Raises:
        ValueError: if ``p_coh_tilde == 0`` (fully depolarized data carries
            no recoverable signal) or ``p_coh_tilde ** m`` underflows to 0.
    """
    return CorrectionResult(*(x.item() for x in _correct(p1_hat, 1.0, [_check_depth(m)], depol)))


def correct_counts(record: ShotRecord, depol: DepolParams) -> CorrectionResult:
    """Depolarizing-corrected (fractional) ones count for one record.

    Applies ``(N1 - N (1 - p~^m) / 2) / p~^m`` and clamps the result into
    [0, shots].  With ``p_coh_tilde == 1`` the count is returned unchanged.

    Raises:
        ValueError: as :func:`correct_frequency`, naming the depth.
    """
    result = _correct(record.ones, float(record.shots), [record.m], depol)
    return CorrectionResult(*(x.item() for x in result))


def _log_terms(theta: np.ndarray, ks: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """``ln p`` and ``ln(1 - p)``, ``p = sin^2(k theta)`` over theta x ks inside the log guard."""
    p = np.square(np.sin(np.multiply.outer(theta, ks)))
    np.clip(p, _LOG_GUARD, 1.0 - _LOG_GUARD, out=p)
    return np.log(p), np.log1p(np.negative(p, out=p), out=p)


def _log_likelihood(
    theta: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> np.ndarray:
    """Row i's log-likelihood at ``theta[i]``, on row i of ``counts`` and ``misses``.

    Each depth in turn adds its ``counts * ln p``, then its ``misses *
    ln(1 - p)``, to one running sum per row: the order of
    :func:`_grid_maxima`, so at a grid point this is the grid's own value,
    bit for bit, and a row's value does not depend on the other rows.
    """
    log_p, log_q = _log_terms(theta, ks)
    terms = np.stack((counts * log_p, misses * log_q), axis=2)
    return np.add.accumulate(terms.reshape(len(theta), -1), axis=1)[:, -1]


def _refine(
    theta: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    ks: np.ndarray,
    counts: np.ndarray,
    misses: np.ndarray,
) -> np.ndarray:
    """Row i's likelihood maximum in ``[lo[i], hi[i]]``, found from its grid maximum ``theta[i]``.

    With ``k = 2m + 1``, each depth's term ``h ln sin^2(k theta) +
    (N - h) ln cos^2(k theta)`` has curvature ``C = -2k^2 [h / sin^2(k theta)
    + (N - h) / cos^2(k theta)] < 0`` and falls to -inf at the zeros of
    ``sin(k theta)`` if h > 0 and of ``cos(k theta)`` if N - h > 0.  So L is
    strictly concave between consecutive such zeros, where its score
    ``S = sum 2k [h cot(k theta) - (N - h) tan(k theta)]`` falls from +inf to
    -inf through one maximum.  The bracket is cut to the piece that holds the
    grid point (the one above it, for a grid point on a zero), so the search
    keeps to the grid point's own peak, never its twin across a zero.

    Each row takes Newton steps ``theta - S / C`` on the exact, guard-free
    score.  Each evaluation moves the bracket end that S points away from to
    theta, and a step that does not land strictly inside the bracket
    bisects it.  A row is done when its step is at most ``_STEP_TOL`` and
    lands in the closed bracket (tested first: a point that has just become a
    bracket end takes a zero step), or when its bracket is that narrow.  Only
    rows still moving are evaluated, each summing its depths' terms in depth
    order, so a row's steps do not depend on the other rows.
    """
    # Zeros of sin(k theta) lie at integer x = k theta / pi, of cos(k theta) at
    # half-integers: the floors are each kind's nearest at or below x.  A sin
    # zero ends a piece where h > 0, a cos zero where N - h > 0.
    x = np.multiply.outer(theta, ks) / math.pi
    zeros = np.array((np.floor(x), np.floor(x - 0.5) + 0.5))
    ends = np.array((counts > 0, misses > 0))
    below = np.where(ends, zeros, -np.inf).max(axis=0) * math.pi / ks
    above = np.where(ends, zeros + 1.0, np.inf).min(axis=0) * math.pi / ks
    lo, hi = np.maximum(lo, below.max(axis=1)), np.minimum(hi, above.min(axis=1))

    theta = theta.copy()
    two_k, minus_two_k2 = 2.0 * ks, -2.0 * ks * ks
    rows = np.arange(len(theta))
    # At theta = 0 every sin(k theta) is 0: the score there is inf, or NaN
    # where a depth with h = 0 adds 0 * inf, and either step bisects.
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            t, a, b = theta[rows], lo[rows], hi[rows]
            h, n_h = counts[rows], misses[rows]
            angles = np.multiply.outer(t, ks)
            sin, cos = np.sin(angles), np.cos(angles)
            # Each depth's score and curvature: the first and second
            # derivatives of ln p times h plus those of ln(1 - p) times N - h.
            score_terms = two_k * (cos / sin) * h + -two_k * (sin / cos) * n_h
            curv_terms = minus_two_k2 / (sin * sin) * h + minus_two_k2 / (cos * cos) * n_h
            score = np.add.accumulate(score_terms, axis=1)[:, -1]
            step = score / np.add.accumulate(curv_terms, axis=1)[:, -1]
            new = t - step
            a, b = np.where(score > 0.0, t, a), np.where(score < 0.0, t, b)
            converged = (np.abs(step) <= _STEP_TOL) & (a <= new) & (new <= b)
            new = np.where(converged | ((a < new) & (new < b)), new, 0.5 * (a + b))
            theta[rows], lo[rows], hi[rows] = new, a, b
            rows = rows[~(converged | (b - a <= _STEP_TOL))]
    return theta


@functools.lru_cache(maxsize=4)
def _depth_tables(depths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The theta grid and a (depth x 2 x grid) table of ``ln p`` and ``ln(1 - p)``.

    ``table[i]`` holds depth i's two rows, ``ln p`` then ``ln(1 - p)`` of
    :func:`_log_terms`, filled one depth at a time (no depth x grid
    temporary).  The table depends only on the depths, so it is built once
    per depth tuple and shared read-only by every estimate on those depths.
    """
    thetas = np.linspace(0.0, math.pi / 2.0, _GRID_POINTS)
    table = np.empty((len(depths), 2, _GRID_POINTS))
    for row, m in zip(table, depths):
        row[:] = _log_terms(thetas, 2.0 * m + 1.0)
    thetas.flags.writeable = table.flags.writeable = False
    return thetas, table


def _grid_maxima(
    table: np.ndarray, counts: np.ndarray, misses: np.ndarray, prefixes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid maximum of every row at every prefix length in ``prefixes`` (increasing).

    Arrays ``best``, ``top``, ``flat``: ``[j, i]`` is row i's grid argmax (its
    first maximum, so the smallest theta), its log-likelihood there and its
    flat flag, on its first ``prefixes[j]`` depths.  Each chunk of rows keeps
    one running grid, to which each depth in turn adds its ``ln p`` row times
    the rows' counts, then its ``ln(1 - p)`` row times their misses, as
    elementwise numpy products and sums.  Numpy rounds each element on its
    own, so a row's grid values depend only on its own data: not on the batch
    size, the row's place in its chunk or the prefixes asked for.
    """
    rows, points = len(counts), table.shape[2]
    best, top, flat = (np.empty((len(prefixes), rows), t) for t in (np.intp, float, bool))
    running_block, update_block = np.empty((2, min(rows, _GRID_CHUNK), points))
    for start in range(0, rows, _GRID_CHUNK):
        stop = min(start + _GRID_CHUNK, rows)
        running, update = running_block[: stop - start], update_block[: stop - start]
        running.fill(0.0)
        lanes = np.arange(stop - start)
        added = 0
        for j, k in enumerate(prefixes):
            for d in range(added, k):
                running += np.multiply(counts[start:stop, d, None], table[d, 0], out=update)
                running += np.multiply(misses[start:stop, d, None], table[d, 1], out=update)
            added = k
            b = running.argmax(axis=1, out=best[j, start:stop])
            t = top[j, start:stop] = running[lanes, b]
            flat[j, start:stop] = t - running.min(axis=1) <= _FLAT_TOL * np.maximum(1.0, np.abs(t))
    return best, top, flat


def _estimates(
    depths: tuple[int, ...], shots, ones, method: str, depol: DepolParams | None, last_only: bool
) -> tuple[np.ndarray, ...]:
    """Maximum-likelihood estimates from the first k tallies of each row of ``ones``.

    The estimator's array core: ``ones`` is (datasets x depths) and ``shots``
    broadcasts against it.  k runs over every prefix length, or only the full
    length if ``last_only``.  Returns ``theta_hat``, the log-likelihood there,
    the clamp count and the flat flag as (datasets x prefixes) arrays.  The
    grid stage runs first, for every prefix at once, on one cached table:
    :func:`_grid_maxima`, whose maxima come with their values.  Refinement
    then runs prefix by prefix: :func:`_refine` steps every row's Newton
    search at once, and :func:`_log_likelihood` gives the refined values,
    summed in the grid's order.

    The binomial log-likelihood omits the theta-independent coefficient,
    which also makes fractional corrected counts valid.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    shots = np.asarray(shots, dtype=float)
    if method == "corrected":
        if depol is None:
            raise ValueError("corrected estimation requires depolarizing parameters")
        counts, _, clamped = _correct(ones, shots, depths, depol)
    else:
        counts, clamped = np.asarray(ones, dtype=float), np.zeros(np.shape(ones), bool)
    misses = shots - counts
    ks = 2.0 * np.array(depths, dtype=float) + 1.0
    prefixes = (len(depths),) if last_only else tuple(range(1, len(depths) + 1))
    thetas, table = _depth_tables(depths)
    best, top, flat = _grid_maxima(table, counts, misses, prefixes)
    theta_hat = thetas[best]
    lo, hi = thetas[np.maximum(best - 1, 0)], thetas[np.minimum(best + 1, _GRID_POINTS - 1)]
    for j, k in enumerate(prefixes):
        refined = _refine(theta_hat[j], lo[j], hi[j], ks[:k], counts[:, :k], misses[:, :k])
        refined_values = _log_likelihood(refined, ks[:k], counts[:, :k], misses[:, :k])
        # Keep the grid point unless refinement strictly improves: the log
        # guard flattens the likelihood near exact-certainty angles, and a
        # tie there must not pull the estimate off the boundary.
        better = refined_values > top[j]
        np.copyto(theta_hat[j], refined, where=better)
        np.copyto(top[j], refined_values, where=better)
    # Running clamp counts at the last or at every prefix
    n_clamped = np.add.accumulate(clamped, axis=1, dtype=int)[:, -len(prefixes):]
    return theta_hat.T, top.T, n_clamped, flat.T


def _as_estimates(method: str, arrays) -> list[list[AmplitudeEstimate]]:
    """The arrays of :func:`_estimates` as one list of estimates per dataset."""
    rows = zip(*(a.tolist() for a in arrays))
    return [[AmplitudeEstimate(t, v, method, c, f) for t, v, c, f in zip(*row)] for row in rows]


def _record_arrays(datasets: Sequence[list[ShotRecord]]) -> tuple:
    """A checked batch of record lists as the ``(depths, shots, ones)`` of :func:`_estimates`."""
    if not datasets:
        raise ValueError("datasets must be nonempty")
    for records in datasets:
        if isinstance(records, ShotRecord):
            raise TypeError("expected a batch of datasets (lists of ShotRecord), got a ShotRecord")
        if not records:
            raise ValueError("records must be nonempty")
    depths = tuple(r.m for r in datasets[0])
    for i, records in enumerate(datasets[1:], start=1):
        if tuple(r.m for r in records) != depths:
            raise ValueError(
                f"datasets must share one depth tuple: dataset {i} has depths "
                f"{tuple(r.m for r in records)}, dataset 0 has {depths}"
            )
    shots = np.array([[r.shots for r in records] for records in datasets], dtype=float)
    return depths, shots, np.array([[r.ones for r in records] for records in datasets], dtype=float)


def estimate_prefixes(
    datasets: Sequence[list[ShotRecord]],
    method: str = "naive",
    depol: DepolParams | None = None,
) -> list[list[AmplitudeEstimate]]:
    """Every depth-prefix estimate of every dataset in a batch.

    The datasets must share one depth tuple.  ``result[i][k - 1]`` is the
    estimate from ``datasets[i][:k]``, in the caller's record order, which
    defines the prefixes; it equals :func:`estimate_amplitude` on that
    prefix field by field when the prefix is in ``(m, shots, ones)`` order.
    The records become arrays once, for the array core :func:`_estimates`,
    and are corrected in one pass; every prefix reads the same cached
    likelihood table, the theta grids of every 8 datasets are one
    elementwise running sum (:func:`_grid_maxima`), and the Newton
    refinements of all datasets step together, one numpy evaluation per
    step for the rows still moving.

    Raises:
        ValueError: on an empty batch, an empty dataset, or datasets whose
            depths differ.
    """
    return _as_estimates(method, _estimates(*_record_arrays(datasets), method, depol, False))


def estimate_amplitude(
    records: list[ShotRecord],
    method: str = "naive",
    depol: DepolParams | None = None,
) -> AmplitudeEstimate:
    """Maximum-likelihood amplitude estimate from multi-depth tallies.

    Maximizes ``sum_m [h_m ln p_m(theta) + (N_m - h_m) ln(1 - p_m(theta))]``
    with ``p_m(theta) = sin^2((2m+1) theta)`` over theta in [0, pi/2], via a
    uniform grid followed by safeguarded Newton steps on the exact score,
    inside the grid maximum's bracket cut to the concave piece of the
    likelihood that holds it (see :func:`_refine`).  The grid point stays
    unless refinement strictly improves on it.  Ties in the computed grid
    values resolve to the smallest theta.  The records are sorted by
    ``(m, shots, ones)`` first, so the estimate does not depend on their
    order.  Every log-likelihood value is summed depth by depth, in depth
    order, and the grid maximum's value is reused.  This is the path of
    :func:`estimate_prefixes` with one dataset and one prefix, so the result
    is the one that path gives the dataset in any batch.

    Args:
        method: "naive" uses the tallies as-is; "corrected" first applies
            :func:`correct_counts`' correction with ``depol`` (required,
            p_coh_tilde > 0).
    """
    ordered = sorted(records, key=lambda r: (r.m, r.shots, r.ones))
    arrays = _estimates(*_record_arrays([ordered]), method, depol, last_only=True)
    return _as_estimates(method, arrays)[0][0]
