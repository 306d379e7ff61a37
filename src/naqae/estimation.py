"""Amplitude estimation from multi-depth shot data.

Covers the noise-aware experiment-design side (worst-case variance bound and
the shot schedule that restores noiseless variance) and the inference side
(depolarizing count correction plus a maximum-likelihood estimator over the
noiseless outcome model: the global maximum of the log-guarded likelihood,
found by bounding the concave pieces between the zeros of its sin and cos
factors and refining by Newton steps only the pieces that can hold it).
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

# Half-width, in units of pi / k, of the window around each zero of sin(k theta)
# or cos(k theta) where p = sin^2(k theta) lies outside the log guard.
_WINDOW = math.asin(math.sqrt(_LOG_GUARD)) / math.pi

# The Newton step at or below which a refinement has converged.
_STEP_TOL = 1e-12

# Theta search (see _estimates).  Level 0 is the longest depth prefix with at
# most this many zeros in [0, pi/2], k + 1 per depth: depths 0..64 of the
# exponential schedule 0, 1, 2, 4, ..., 4096, and 0..21 of a linear one.  A
# criterion-9 experiment (50 replications) run to max_depth 20 and 30 took
# 0.13 and 0.55 s here, 0.23 and 0.81 s at 256, and 0.18 and 0.42 s at 1024
# and 2048 (medians of 5).  Lone deep estimates on the exponential schedule
# took 0.7-1.1 ms from 256 to 2048 and 1.4 ms at 128, but its larger table
# raised deep_mlae's peak RSS by 1.3 MiB at 2048 (2 shared vCPUs).
_ZERO_BUDGET = 512

# Depths with more zeros than this in [0, pi/2] are refused: the search may
# have to cut at every one of them.  Deep tables stay under 10 MB.
_ZERO_LIMIT = 2**20

# Deep search (see _deep_step): window edges of the deeper depths in one
# cell of a level-0 piece at most, and in the cells cut in one step.  Lone
# deep estimates took as long at 64 and 512 as at 64 and 256, 6% longer at
# 32 and 256, 21% at 128 and 256, and 6 times as long at 64 and 128.
_CELL_EDGES = 64
_SPLIT_EDGES = 256

# Concave pieces gathered over prefixes before their Newton refinements run
# together.  A criterion-9 setting (50 sweeps on depths 0..12) took 14.4,
# 12.2 and 10.8 ms at 128, 256 and 512, and its run's peak RSS rose by about
# 0.0, 0.2 and 0.6 MiB.
_REFINE_ROWS = 256

# Relative slack of every bound comparison, so that rounding in a bound never
# drops the piece that holds the maximum.  Slacks from 0 to 1e-6 refined the
# same pieces on deep and criterion-9 data; 1e-3 refined 1% more.
_BOUND_SLACK = 1e-9

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
    range.  ``flat_likelihood`` is always false: with at least one shot the
    likelihood is never flat in theta, as its values at 0, pi/4 and pi/2 are
    never all equal.  It stays for the readers of the ``estimate`` JSON key.
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
    if not isinstance(depol, DepolParams):
        raise ValueError(f"count correction requires DepolParams, got {depol!r}")
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
        ValueError: if ``depol`` is not a :class:`DepolParams`,
            ``p_coh_tilde == 0`` (fully depolarized data carries no
            recoverable signal) or ``p_coh_tilde ** m`` underflows to 0.
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


def _log_likelihood(
    theta: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> np.ndarray:
    """Row i's log-likelihood at ``theta[i]``, on row i of ``counts`` and ``misses``.

    With ``p = sin^2(k theta)`` held inside the log guard, each depth in turn
    adds its ``counts * ln p``, then its ``misses * ln(1 - p)``, to one
    running sum per row, so a row's value does not depend on the other rows.
    """
    p = np.square(np.sin(np.multiply.outer(theta, ks)))
    np.minimum(np.maximum(p, _LOG_GUARD, out=p), 1.0 - _LOG_GUARD, out=p)
    terms = np.empty(p.shape + (2,))
    np.multiply(counts, np.log(p), out=terms[..., 0])
    np.multiply(misses, np.log1p(np.negative(p, out=p), out=p), out=terms[..., 1])
    return np.add.accumulate(terms.reshape(len(theta), -1), axis=1)[:, -1]


def _angles(theta: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """``sin``, ``cos`` and ``p = sin^2`` of ``k theta`` over theta x ks, and where p is inside the log guard."""
    angles = np.multiply.outer(theta, ks)
    sin, cos = np.sin(angles), np.cos(angles)
    p = sin * sin
    return sin, cos, p, (p >= _LOG_GUARD) & (p <= 1.0 - _LOG_GUARD)


def _factors(theta: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Guarded ``ln p``, ``ln(1 - p)``, ``2k cot(k theta)`` and ``2k tan(k theta)`` over theta x ks.

    The two score factors are 0 where p lies outside the log guard, as is
    the fifth array (1 inside the guard), since the term is constant there.
    """
    sin, cos, p, live = _angles(theta, ks)
    np.minimum(np.maximum(p, _LOG_GUARD, out=p), 1.0 - _LOG_GUARD, out=p)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked where sin or cos is 0
        cot, tan = (np.where(live, 2.0 * ks * ratio, 0.0) for ratio in (cos / sin, sin / cos))
    return np.log(p), np.log1p(-p), cot, tan, live.astype(float)


def _derivatives(
    theta: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i's score and curvature at ``theta[i]``, and its score with every term's slope.

    With ``p = sin^2(k theta)``, a depth adds ``2k sin cos (h / p - (N - h) /
    (1 - p))`` to the score and ``-2k^2 (h / p + (N - h) / (1 - p))`` to the
    curvature, p and 1 - p kept at or above the log guard.  The first two
    sums are the guarded likelihood's: a depth whose p lies outside the
    guard has a constant term there and adds nothing.  Each sums over the
    depths in order.
    """
    sin, cos, p, live = _angles(theta, ks)
    ones = counts / np.maximum(p, _LOG_GUARD)
    zeros = misses / np.maximum(cos * cos, _LOG_GUARD)
    terms = np.empty((3,) + p.shape)
    np.multiply(2.0 * ks * (sin * cos), ones - zeros, out=terms[2])
    np.multiply(terms[2], live, out=terms[0])
    np.multiply(-2.0 * ks * ks * live, ones + zeros, out=terms[1])
    score, curvature, slopes = np.add.accumulate(terms, axis=2)[..., -1]
    return score, curvature, slopes


def _theta(u, ks):
    """The angle ``u pi / k`` of a position ``u`` in units of pi / k: the one rounding of every piece end."""
    return u * math.pi / ks


def _split(lo: np.ndarray, hi: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the pieces of the cells ``[lo[i], hi[i]]`` cut at every window edge of ``ks``.

    The cells are disjoint and in increasing order.  Each depth's zeros of
    sin and cos lie at the multiples of 1/2 in units of pi / k, and the edges
    of their guard windows ``_WINDOW`` to either side.
    """
    u_lo, u_hi = np.multiply.outer(ks, lo) / math.pi, np.multiply.outer(ks, hi) / math.pi
    first = np.ceil(2.0 * (u_lo - _WINDOW)).ravel()
    count = np.maximum(np.floor(2.0 * (u_hi + _WINDOW)).ravel() - first + 1.0, 0.0).astype(np.intp)
    zeros = 0.5 * (np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum()))
    k = np.repeat(np.repeat(ks, len(lo)), count)
    edges = np.concatenate((_theta(zeros - _WINDOW, k), _theta(zeros + _WINDOW, k), lo, hi))
    cell = np.searchsorted(lo, edges, side="right") - 1
    edges = np.unique(edges[(cell >= 0) & (edges <= hi[cell])])
    starts, ends = edges[:-1], edges[1:]
    inside = ends <= hi[np.searchsorted(lo, starts, side="right") - 1]  # not a gap between cells
    return starts[inside], ends[inside]


def _edge_density(ks: np.ndarray) -> float:
    """Window edges per radian of the depths ``ks``: two around each of 2k / pi zeros."""
    return 4.0 * float(np.sum(ks)) / math.pi


def _level0_length(depths: Sequence[int]) -> int:
    """Length of the longest prefix of ``depths`` with at most ``_ZERO_BUDGET`` zeros."""
    zeros = 0
    for length, m in enumerate(depths):
        zeros += 2 * m + 2
        if zeros > _ZERO_BUDGET:
            return length
    return len(depths)


@functools.lru_cache(maxsize=4)
def _piece_table(depths: tuple[int, ...]) -> tuple:
    """Level 0 of ``depths``, its pieces of [0, pi/2] and their midpoint terms.

    Returns the level-0 length, the ``edges`` of the consecutive pieces,
    their ``mids`` and ``halves`` (half-widths), then :func:`_factors` of the
    level-0 depths at the midpoints as (depth x piece) arrays.  The pieces
    are cut at every window edge of the level-0 depths, so a depth outside
    the log guard at a midpoint is so on the whole piece, where its term is
    constant.  A piece that holds more than ``_CELL_EDGES`` window edges of
    the deeper depths is cut again into equal cells.  The table depends
    only on the depths, so it is built once per depth tuple and shared
    read-only by every estimate on those depths.
    """
    level0 = _level0_length(depths)
    ks = 2.0 * np.array(depths, dtype=float) + 1.0
    starts, ends = _split(np.array([0.0]), np.array([math.pi / 2.0]), ks[:level0])
    widths = ends - starts
    cuts = np.maximum(np.ceil(widths * _edge_density(ks[level0:]) / _CELL_EDGES), 1).astype(np.intp)
    piece = np.repeat(np.arange(len(widths)), cuts)
    cell = np.arange(len(piece)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    edges = np.append(starts[piece] + cell * (widths / cuts)[piece], ends[-1])
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    table = (edges, mids, halves, *(factor.T.copy() for factor in _factors(mids, ks[:level0])))
    for array in table:
        array.flags.writeable = False
    return (level0, *table)


def _piece(
    theta: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the concave piece of row i's guarded likelihood that holds ``theta[i]``.

    Depth by depth, a zero of sin ends a piece where h > 0 and a zero of cos
    where N - h > 0, each through its guard window: theta lies between the
    windows of the zeros at and above its floor, or inside one of them.  The
    row's piece is the intersection of its depths' intervals and [0, pi/2].
    """
    u = np.multiply.outer(theta, ks) / math.pi
    below = np.array((np.floor(u), np.floor(u - 0.5) + 0.5))  # sin and cos zeros at or below
    offset = u - below
    left, right = offset < _WINDOW, offset > 1.0 - _WINDOW
    lo_u = np.where(left, below - _WINDOW, np.where(right, below + 1.0 - _WINDOW, below + _WINDOW))
    hi_u = np.where(left, below + _WINDOW, np.where(right, below + 1.0 + _WINDOW, below + 1.0 - _WINDOW))
    ends = np.array((counts > 0, misses > 0))
    lo = np.where(ends, _theta(lo_u, ks), 0.0).max(axis=(0, 2))
    hi = np.where(ends, _theta(hi_u, ks), math.pi / 2.0).min(axis=(0, 2))
    return np.maximum(lo, 0.0), np.minimum(hi, math.pi / 2.0)


def _refine(
    lo: np.ndarray, hi: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> np.ndarray:
    """Row i's guarded likelihood maximum in its concave piece ``[lo[i], hi[i]]``.

    Each row starts at the centre of its piece and takes Newton steps
    ``theta - S / C`` on the guarded score S and curvature C
    (:func:`_derivatives`).  Each evaluation moves to theta the bracket end
    that S points away from; where S is 0, the end that the score with every
    term's slope points away from, so that a flat stretch is crossed toward
    the unguarded likelihood's maximum, and the upper end where that is 0
    too.  A step that does not land strictly inside the bracket bisects it.
    A row is done when its step is at most ``_STEP_TOL`` and lands in the
    closed bracket (tested first: a point that has just become a bracket end
    takes a zero step), or when its bracket is that narrow.  Only rows still
    moving are evaluated, so a row's steps do not depend on the other rows.
    One row takes the same steps in Python floats (:func:`_refine_row`).
    """
    if len(lo) == 1:
        return np.array([_refine_row(lo[0], hi[0], ks, counts[0], misses[0])])
    theta = 0.5 * (lo + hi)
    rows, t, a, b = np.arange(len(theta)), theta.copy(), lo, hi
    while rows.size:
        score, curvature, slopes = _derivatives(t, ks, counts, misses)
        with np.errstate(invalid="ignore"):  # 0 / 0 where every term is constant
            step = score / curvature
        new = t - step
        up = np.where(score != 0.0, score, slopes) > 0.0
        a, b = np.where(up, t, a), np.where(up, b, t)
        converged = (np.abs(step) <= _STEP_TOL) & (a <= new) & (new <= b)
        t = np.where(converged | ((a < new) & (new < b)), new, 0.5 * (a + b))
        done = converged | (b - a <= _STEP_TOL)
        if done.any():
            theta[rows[done]] = t[done]
            rows, t, a, b, counts, misses = (x[~done] for x in (rows, t, a, b, counts, misses))
    return theta


def _refine_row(lo: float, hi: float, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray) -> float:
    """:func:`_refine` for one row, in Python floats: the same steps, sums and rules.

    It is :func:`_refine`'s branch for one row, as in a lone deep estimate,
    where numpy's fixed cost per call outweighs its work: about 27 against
    260 us a row on the exponential schedule's 14 depths.
    """
    t, a, b = 0.5 * (lo + hi), lo, hi
    depths = zip(ks.tolist(), counts.tolist(), misses.tolist())
    depths = [(k, 2.0 * k, -2.0 * k * k, h, n) for k, h, n in depths]
    while True:
        score = curvature = slopes = 0.0
        for k, slope_k, curvature_k, h, n in depths:
            sin, cos = math.sin(k * t), math.cos(k * t)
            p, q = sin * sin, cos * cos
            ones, zeros = h / (p if p > _LOG_GUARD else _LOG_GUARD), n / (q if q > _LOG_GUARD else _LOG_GUARD)
            slope = slope_k * (sin * cos) * (ones - zeros)
            slopes += slope
            if _LOG_GUARD <= p <= 1.0 - _LOG_GUARD:
                score += slope
                curvature += curvature_k * (ones + zeros)
        step = score / curvature if curvature else math.nan  # 0 / 0 where every term is constant
        new = t - step
        if (score if score != 0.0 else slopes) > 0.0:
            a = t
        else:
            b = t
        converged = abs(step) <= _STEP_TOL and a <= new <= b
        t = new if converged or a < new < b else 0.5 * (a + b)
        if converged or b - a <= _STEP_TOL:
            return t


def _pieces(
    groups: np.ndarray, points: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct concave pieces that hold each group's candidate ``points``.

    Candidate i lies in group ``groups[i]`` and has its own ``counts[i]`` and
    ``misses[i]``.  Returns, in (group, theta) order, the index of one
    candidate per distinct piece of its group, and that piece's ends.
    """
    lo, hi = _piece(points, ks, counts, misses)
    order = np.lexsort((lo, groups))
    fresh = np.ones(len(order), bool)
    fresh[1:] = (groups[order[1:]] != groups[order[:-1]]) | (lo[order[1:]] != lo[order[:-1]])
    keep = order[fresh]
    return keep, lo[keep], hi[keep]


def _piece_maxima(
    groups: np.ndarray, lo: np.ndarray, hi: np.ndarray, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's best maximum over its concave pieces ``[lo[i], hi[i]]`` (see :func:`_pieces`).

    Row i has its own ``counts[i]`` and ``misses[i]``, 0 on depths it does
    not use, and the rows come in (group, theta) order.  Each piece is
    refined once from its own centre (:func:`_refine`) and valued by
    :func:`_log_likelihood`, and each group keeps its best value, at the
    smallest theta on a tie.  Returns the groups in increasing order, with
    their theta and value.
    """
    theta = _refine(lo, hi, ks, counts, misses)
    values = _log_likelihood(theta, ks, counts, misses)
    # Each group's best value, then its first piece (in theta order) with that value
    first = np.ones(len(groups), bool)
    first[1:] = groups[1:] != groups[:-1]
    top = np.maximum.reduceat(values, np.flatnonzero(first))
    winners = np.flatnonzero(values == np.repeat(top, np.diff(np.append(np.flatnonzero(first), len(groups)))))
    winners = winners[np.append(True, groups[winners[1:]] != groups[winners[:-1]])]
    return groups[winners], theta[winners], values[winners]


def _peak(value, slope, curvature, lo, hi):
    """The maximum of ``value + slope t - curvature t^2`` over t in [lo, hi], curvature >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat bound: +-inf, or NaN where level
        t = np.fmin(np.fmax(slope / (2.0 * curvature), lo), hi)
    return value + t * (slope - curvature * t)


def _curvatures(ks: np.ndarray, counts: np.ndarray, misses: np.ndarray) -> np.ndarray:
    """Half the least curvature of each depth's term, per row, where p is inside the log guard.

    There a term's curvature ``-2k^2 [h / sin^2 + (N - h) / cos^2]`` is at most
    ``-2k^2 (sqrt(h) + sqrt(N - h))^2``; outside the guard it is constant.
    """
    return ks**2 * (np.sqrt(counts) + np.sqrt(misses)) ** 2


def _below(best: float | np.ndarray):
    """The value a bound must reach to stay in the search: ``best`` less its slack."""
    return best - _BOUND_SLACK * np.abs(best)


def _deep_step(
    value: np.ndarray, score: np.ndarray, table: tuple, ks: np.ndarray, counts: np.ndarray, misses: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Each row's best value found on depths ``ks`` past level 0, and the rows and points that may beat it.

    ``value`` and ``score`` are each row's likelihood and guarded score on
    the level-0 depths of ``table`` at its cell midpoints x.  On a cell each
    level-0 term is concave with curvature at most ``-2k^2 (sqrt(h) +
    sqrt(N - h))^2`` (:func:`_curvatures`), or constant, so their sum lies
    under ``value + score (t - x) - c (t - x)^2``, c half the sum of those
    bounds; each deeper term lies under its saturated value ``h ln(h/N) +
    (N - h) ln(1 - h/N)``.  The cells around each row's best bound, about
    ``_SPLIT_EDGES`` deeper window edges, are cut at them (:func:`_split`),
    where the deeper terms lie under such a parabola too, and the concave
    piece of the row's best sub-piece is refined (:func:`_refine`).
    The other cells whose bound reaches that value are cut as well, and
    each sub-piece whose bound still reaches it is a candidate.  A cell is
    cut once for all the rows that need it, and a row keeps its own cells.
    """
    level0, edges, mids, halves, live = table[0], table[1], table[2], table[3], table[-1]
    deeper, h, n = ks[level0:], counts[:, level0:], misses[:, level0:]
    shots, tiny = h + n, np.finfo(float).tiny  # 0 ln 0 = 0
    saturated = sum(a * np.log(np.maximum(a / shots, tiny)) for a in (h, n)).sum(axis=1)
    curvature = _curvatures(ks[:level0], counts[:, :level0], misses[:, :level0]) @ live
    bound = _peak(value, score, curvature, -halves, halves) + saturated[:, None]
    group = max(1, int(_SPLIT_EDGES / (2.0 * halves.max() * _edge_density(deeper))))
    deep_curvature = _curvatures(deeper, h, n)
    parts = [(np.empty(0, np.intp), np.empty(0), np.empty(0))]

    def cut(own, floor):
        # Adds the row, midpoint and bound of each sub-piece of the cells a
        # row owns whose bound reaches the row's floor; returns all added so far
        cells = np.flatnonzero(own.any(axis=0))
        for start in range(0, len(cells), group):
            chunk = cells[start : start + group]
            starts, ends = _split(edges[chunk], edges[chunk + 1], deeper)
            at, cell = 0.5 * (starts + ends), np.searchsorted(edges, starts, side="right") - 1
            log_p, log_q, cot, tan, inside = _factors(at, deeper)
            # The level-0 parabola, centred at the midpoint, plus the deeper terms' own
            x, c = at - mids[cell], curvature[:, cell]
            slope = score[:, cell] - c * x
            level = value[:, cell] + x * slope + h @ log_p.T + n @ log_q.T
            slope = slope - c * x + h @ cot.T - n @ tan.T
            ceiling = _peak(level, slope, c + deep_curvature @ inside.T, starts - at, ends - at)
            lanes, subs = np.nonzero(own[:, cell] & (ceiling >= floor))
            parts.append((lanes, at[subs], ceiling[lanes, subs]))
        return (np.concatenate(part) for part in zip(*parts))

    first = np.maximum(np.minimum(bound.argmax(axis=1) - group // 2, len(mids) - group), 0)[:, None]
    window = (np.arange(len(mids)) >= first) & (np.arange(len(mids)) < first + group)
    lanes, points, bounds = cut(window, -np.inf)
    order = np.lexsort((-bounds, lanes))  # each row's first sub-piece of best bound
    best = points[order[np.searchsorted(lanes[order], np.arange(len(bound)))]]
    lo, hi = _piece(best, ks, counts, misses)
    theta = _refine(lo, hi, ks, counts, misses)
    top = _log_likelihood(theta, ks, counts, misses)
    least = _below(top)
    lanes, points, bounds = cut((bound >= least[:, None]) & ~window, least[:, None])
    others = (bounds >= least[lanes]) & ((points < lo[lanes]) | (points > hi[lanes]))
    lanes, points = lanes[others], points[others]
    rivals = np.flatnonzero(np.bincount(lanes, minlength=len(bound)))
    return theta, top, np.concatenate((rivals, lanes)), np.concatenate((best[rivals], points))


def _check_zeros(zeros: int) -> None:
    """Refuse depths whose sin and cos factors have ``zeros`` zeros in [0, pi/2], past the limit."""
    if zeros > _ZERO_LIMIT:
        raise ValueError(
            f"depths with {zeros} zeros of sin and cos in [0, pi/2] are past the theta "
            f"search's limit of {_ZERO_LIMIT} (sum of 2m + 2 over the depths)"
        )


def _estimates(
    depths: tuple[int, ...], shots, ones, method: str, depol: DepolParams | None, last_only: bool
) -> tuple[np.ndarray, ...]:
    """Maximum-likelihood estimates from the first k tallies of each row of ``ones``.

    The estimator's array core: ``ones`` is (datasets x depths) and ``shots``
    broadcasts against it.  k runs over every prefix length, or only the full
    length if ``last_only``.  Returns ``theta_hat``, the log-likelihood there
    and the clamp count as (datasets x prefixes) arrays.

    Each estimate is the global maximum of the guarded likelihood.  With
    ``k = 2m + 1``, a depth's term ``h ln p + (N - h) ln(1 - p)``, ``p =
    sin^2(k theta)``, has curvature ``-2k^2 [h / sin^2(k theta) + (N - h) /
    cos^2(k theta)] < 0`` and falls toward -inf at the zeros of sin (if
    h > 0) and of cos (if N - h > 0).  The guard holds p in [1e-12,
    1 - 1e-12], which makes the term constant in a window ``asin(1e-6) / k``
    to either side of each zero.  So, cut at the edges of those windows,
    [0, pi/2] falls into pieces on each of which every term is concave, and
    so is their sum L.  On a piece [a, b], L lies under its tangent at the
    midpoint x: ``L <= L(x) + |S(x)| (b - a) / 2``, S the guarded score,
    and under a parabola through it with the least curvature of its terms
    (:func:`_curvatures`, :func:`_peak`).  Every piece whose bound reaches
    the best value found is refined (:func:`_piece_maxima`), and no other
    piece can hold a higher value.

    The pieces are cut for the whole batch at every window edge of both
    kinds of every depth, so each lies inside a concave piece of every row,
    and their midpoint terms are one cached table (:func:`_piece_table`).
    Its depths are level 0, the longest prefix with at most
    ``_ZERO_BUDGET`` zeros, and each prefix up to it takes its values and
    scores from the table in one product.  A longer prefix adds deeper
    depths whose zeros are too many to enumerate over [0, pi/2]; since no
    term exceeds its saturated value, only the parts of level-0 pieces that
    can still win are cut at them, once for the whole batch
    (:func:`_deep_step`).  Either way the pieces that can still win join
    the refinements of the prefixes before them.

    The binomial log-likelihood omits the theta-independent coefficient,
    which also makes fractional corrected counts valid.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    shots = np.asarray(shots, dtype=float)
    if method == "corrected":
        counts, _, clamped = _correct(ones, shots, depths, depol)
    elif depol is not None:
        raise ValueError(f"naive estimation takes no depolarizing parameters, got {depol!r}")
    else:
        counts, clamped = np.asarray(ones, dtype=float), np.zeros(np.shape(ones), bool)
    misses = shots - counts
    _check_zeros(sum(2 * m + 2 for m in depths))
    ks = 2.0 * np.array(depths, dtype=float) + 1.0
    prefixes = (len(depths),) if last_only else tuple(range(1, len(depths) + 1))
    table = _piece_table(tuple(depths))
    level0, _, mids, halves, log_p, log_q, cot, tan, live = table
    rows, width = counts.shape
    theta_hat, top = np.empty((2, len(prefixes), rows))
    pending = []

    def refine_pending():
        # The pieces of several prefixes at once, each with the counts of its own prefix
        js, lanes, lo, hi = (np.concatenate(parts) for parts in zip(*pending))
        used = np.arange(width) < np.array(prefixes)[js, None]
        groups, theta, value = _piece_maxima(
            js * rows + lanes, lo, hi, ks,
            np.where(used, counts[lanes], 0.0), np.where(used, misses[lanes], 0.0),
        )
        theta_hat.flat[groups], top.flat[groups] = theta, value
        pending.clear()

    for j, k in enumerate(prefixes):
        d = min(k, level0)
        h, n = counts[:, :d], misses[:, :d]
        value, score = h @ log_p[:d] + n @ log_q[:d], h @ cot[:d] - n @ tan[:d]
        if k > level0:  # each row's refined piece stands unless a candidate beats it
            theta_hat[j], top[j], lanes, points = _deep_step(
                value, score, table, ks[:k], counts[:, :k], misses[:, :k]
            )
        else:
            # The tangent bound first, then the curvature bound on the pieces it keeps
            least = _below(value.max(axis=1))
            lanes, cols = np.divmod(
                np.flatnonzero(value + np.abs(score) * halves >= least[:, None]), len(mids)
            )
            curvature = np.einsum("ij,ji->i", _curvatures(ks[:d], h, n)[lanes], live[:d, cols])
            bound = _peak(value[lanes, cols], score[lanes, cols], curvature, -halves[cols], halves[cols])
            lanes, points = lanes[bound >= least[lanes]], mids[cols[bound >= least[lanes]]]
        if len(lanes):
            keep, lo, hi = _pieces(lanes, points, ks[:k], counts[lanes, :k], misses[lanes, :k])
            pending.append((np.full(len(keep), j), lanes[keep], lo, hi))
        waiting = sum(len(part[1]) for part in pending)
        if waiting >= _REFINE_ROWS or (waiting and k == prefixes[-1]):
            refine_pending()
    # Running clamp counts at the last or at every prefix
    n_clamped = np.add.accumulate(clamped, axis=1, dtype=int)[:, -len(prefixes):]
    return theta_hat.T, top.T, n_clamped


def _as_estimates(method: str, arrays) -> list[list[AmplitudeEstimate]]:
    """The arrays of :func:`_estimates` as one list of estimates per dataset."""
    rows = zip(*(a.tolist() for a in arrays))
    return [[AmplitudeEstimate(t, v, method, c) for t, v, c in zip(*row)] for row in rows]


def estimate_amplitude(
    records: list[ShotRecord],
    method: str = "naive",
    depol: DepolParams | None = None,
) -> AmplitudeEstimate:
    """Maximum-likelihood amplitude estimate from multi-depth tallies.

    Maximizes ``sum_m [h_m ln p_m(theta) + (N_m - h_m) ln(1 - p_m(theta))]``
    with ``p_m(theta) = sin^2((2m+1) theta)``, each p held within the log
    guard [1e-12, 1 - 1e-12], over theta in [0, pi/2].  The estimate is the
    global maximum of this printed, guarded likelihood: the zeros of the
    sin and cos factors, widened to their guard windows, cut [0, pi/2] into
    pieces on which it is concave, and a bound on each piece leaves only
    the pieces that can hold the maximum to safeguarded Newton steps (see
    :func:`_estimates`).  Ties in the computed values resolve to the
    smallest theta.  The records are sorted by ``(m, shots, ones)`` first,
    so the estimate does not depend on their order.  Every log-likelihood
    value is summed depth by depth, in depth order.  The sorted records are
    a one-row batch of the array core :func:`_estimates`, so the result is
    the last prefix estimate that the core gives the dataset in any batch.

    Args:
        method: "naive" uses the tallies as-is and takes no ``depol``;
            "corrected" first applies :func:`correct_counts`' correction
            with ``depol`` (a :class:`DepolParams`, required, p_coh_tilde > 0).
    """
    if not records:
        raise ValueError("records must be nonempty")
    depths, shots, ones = zip(*sorted((r.m, r.shots, r.ones) for r in records))
    shots, ones = np.array([shots], dtype=float), np.array([ones], dtype=float)
    return _as_estimates(method, _estimates(depths, shots, ones, method, depol, True))[0][0]
