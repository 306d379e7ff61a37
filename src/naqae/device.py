"""Seeded stochastic simulation of a noisy amplitude estimation device.

A device is an immutable value object (true angle, noise model, seed).  All
randomness comes from Philox, a keyed counter-based cipher whose distinct
(key, counter) blocks give independent words.  Tally (seed, lane, row, depth
m) of N shots is one Bin(N, p(1)) variate drawn from the raw words of
``Philox(key=(seed, lane), counter=(0, m, row, 0))``, read in order: a
device's sweeps are lane 0, row 0, and setting i's replication r of an
experiment is lane 1 + i, row r.  numpy increments the counter before each
4-word block, so the tally reads blocks (1, m, row, 0), (2, m, row, 0), ...;
a tally reads a handful of blocks, so word 0 never carries into the depth
word, no two tallies share a block, and sampling does not depend on
evaluation order.
:func:`_sample_tallies` draws one lane's (rows x depths) tallies from one
Philox; :func:`run_depth_sweep` and :func:`sample_shots` wrap a device's row
in ``ShotRecord``s.  :func:`_count_ones` draws a tally by inversion or by
Hörmann's BTRD in Python floats, so its cost and memory do not grow with the
shot count; a depth whose p(1) is 0 or 1 reads no word.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .models import (
    Amplitude,
    NoiseModel,
    _check_depth,
    _check_int64,
    _check_shots,
    _p1,
)

_MASK64 = (1 << 64) - 1

# A raw word x is the uniform (x >> 11) * _UNIT, as Generator.random() maps it.
_UNIT = 2.0**-53

# ln k! less Stirling's formula, k = 0..9 (mpmath at 40 digits; Hörmann 1993).
_STIRLING_TAIL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287,
)

# Most shots of one tally: the largest count the sampler's chi-squared test
# covers (tests/test_device.py).  A tally costs about the same at any count,
# so the cap is on what has been checked, not on time.
_MAX_SHOTS = 2**40

# Angles of the bundled state-preparation presets.  A1/A5 share theta = pi/6
# (so that depths m = 1, 4, 7, ... measure 1 with certainty when noiseless),
# A2 uses pi/3 (measuring 0 at those depths), A3 and A4 use 1/2 and 1 radian
# (never aligned with either axis).
PRESET_THETAS: dict[str, float] = {
    "A1": math.pi / 6,
    "A2": math.pi / 3,
    "A3": 0.5,
    "A4": 1.0,
    "A5": math.pi / 6,
}


def _check_seed(value: int, name: str) -> int:
    """An integer (``int`` or numpy integer, not bool) in [-2**63, 2**64), as unsigned 64-bit."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and -(2**63) <= int(value) < 2**64):
        raise ValueError(f"{name} must be an integer in [-2**63, 2**64), got {value!r}")
    return int(value) & _MASK64


@dataclass(frozen=True)
class ShotRecord:
    """Measurement tally for one circuit depth: ``ones`` ones in ``shots`` shots."""

    m: int
    shots: int
    ones: int

    def __post_init__(self) -> None:
        for name in ("m", "shots", "ones"):
            _check_int64(getattr(self, name), name)
        _check_depth(self.m)
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        if not (0 <= self.ones <= self.shots):
            raise ValueError(
                f"ones must lie in [0, shots], got ones={self.ones!r} shots={self.shots!r}"
            )

    @property
    def p1_hat(self) -> float:
        """Observed frequency of outcome 1."""
        return self.ones / self.shots


@dataclass(frozen=True)
class SimulatedDevice:
    """A simulated device: true amplitude angle, noise model, and RNG seed.

    The seed is any integer in [-2**63, 2**64); a negative seed is used as
    its unsigned 64-bit representation.
    """

    amp: Amplitude
    model: NoiseModel = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.seed, "seed")

    def p1(self, m: int) -> float:
        """Model probability of measuring 1 at depth ``m``."""
        return _p1(self.model, self.amp.theta, m, "SimulatedDevice.p1")


def _stirling_tail(k: int) -> float:
    """``ln k!`` less Stirling's ``(k + 1/2) ln(k + 1) - (k + 1) + ln(2 pi) / 2``.

    Tabled below k = 10, and from there the series ``1/(12 K) - 1/(360 K**3)
    + 1/(1260 K**5)`` with K = k + 1.
    """
    if k < 10:
        return _STIRLING_TAIL[k]
    k1 = k + 1.0
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / (k1 * k1)) / (k1 * k1)) / k1


def _binomial_inversion(raw: Callable[[], int], n: int, p: float) -> int:
    """Bin(n, p) by inversion, for ``n * p < 10``: a sequential search from k = 0.

    The pmf starts at ``(1 - p)**n``, taken as ``exp(n log1p(-p))`` so that it
    holds at 2**40 shots, and steps by ``(n - k + 1) / k * p / (1 - p)``.
    Where rounding leaves the uniform above the mass the search has summed
    when the pmf runs out (it reaches 0 past k = n, or underflows), the
    search restarts on the next word.
    """
    r = p / (1.0 - p)
    f0 = math.exp(n * math.log1p(-p))
    while True:
        u = (raw() >> 11) * _UNIT
        k, f = 0, f0
        while u >= f and f > 0.0:
            u -= f
            k += 1
            f *= (n - k + 1) / k * r
        if f > 0.0:
            return k


def _binomial_btrd(raw: Callable[[], int], n: int, p: float) -> int:
    """Bin(n, p) for ``n * p >= 10`` and p <= 1/2 by Hörmann's BTRD (1993).

    Transformed rejection with decomposition: most draws take one uniform
    from the box under the hat; the rest are accepted or rejected by the pmf
    ratio to the mode, evaluated recursively within 15 of the mode, by a
    squeeze, or by Stirling's formula with :func:`_stirling_tail`.
    """
    q = 1.0 - p
    npq = n * p * q
    spq = math.sqrt(npq)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    mode = math.floor((n + 1) * p)
    r = p / q
    nr = (n + 1) * r
    while True:
        v = (raw() >> 11) * _UNIT
        if v <= 0.86 * v_r:
            u = v / v_r - 0.43
            return math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
        if v >= v_r:
            u = (raw() >> 11) * _UNIT - 0.5
        else:
            u = v / v_r - 0.93
            u = math.copysign(0.5, u) - u
            v = (raw() >> 11) * _UNIT * v_r
        us = 0.5 - abs(u)
        if us == 0.0:  # u on the open interval's edge: k would be infinite
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v *= alpha / (a / (us * us) + b)
        km = abs(k - mode)
        if km <= 15:
            # f(k) / f(mode) by the pmf recurrence
            f = 1.0
            for i in range(mode + 1, k + 1):
                f *= nr / i - r
            for i in range(k + 1, mode + 1):
                v *= nr / i - r
            if v <= f:
                return k
            continue
        v = math.log(v) if v > 0.0 else -math.inf
        rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
        t = -km * km / (2.0 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        nm = n - mode + 1
        nk = n - k + 1
        h = ((mode + 0.5) * math.log((mode + 1) / (r * nm))
             + _stirling_tail(mode) + _stirling_tail(n - mode))
        if v <= (h + (n + 1) * math.log(nm / nk) + (k + 0.5) * math.log(nk * r / (k + 1))
                 - _stirling_tail(k) - _stirling_tail(n - k)):
            return k


def _count_ones(bit_generator: np.random.Philox, shots: int, p1: float) -> int:
    """Ones among ``shots`` shots that measure 1 with probability ``p1``: one Bin(shots, p1) draw.

    For p1 outside (0, 1) no word is read: every shot is a 1 when p1 >= 1
    and none is otherwise.  Else k ~ Bin(shots, p) is drawn with p =
    min(p1, 1 - p1), exact for p1 >= 1/2, and shots - k is returned when
    p1 > 1/2.  Each uniform is ``(x >> 11) * 2**-53`` for the next raw word x
    of ``bit_generator``: :func:`_binomial_inversion` where shots * p < 10,
    else :func:`_binomial_btrd`.  Both are exact in distribution, read a
    handful of words, and use Python floats only, so a tally rests on the raw
    Philox stream alone, which Random123's known answer pins
    (tests/test_device.py); no ``Generator`` method, whose stream numpy may
    change between versions, is called.
    """
    if not 0.0 < p1 < 1.0:
        return shots if p1 >= 1.0 else 0
    p = min(p1, 1.0 - p1)
    draw = _binomial_inversion if shots * p < 10.0 else _binomial_btrd
    k = draw(bit_generator.random_raw, shots, p)
    return shots - k if p1 > 0.5 else k


def _check_tally_shots(depths: Sequence[int], shots: Sequence[int]) -> None:
    """Refuse a depth with more than ``_MAX_SHOTS`` shots, naming the first such depth."""
    for m, n in zip(depths, shots):
        if n > _MAX_SHOTS:
            raise ValueError(f"a depth may have at most 2**40 shots, got {n} at depth {m}")


def _sample_tallies(
    p1: Callable[[int], float], seed: int, lane: int,
    rows: Sequence[int], depths: Sequence[int], shots: Sequence[int],
) -> np.ndarray:
    """One depth sweep per row of a (seed, lane), as a (rows x depths) int64 array of ones.

    Tally (row, m) is the number of 1s among ``shots`` shots at depth m, each
    a 1 with probability ``p1(m)``: one Bin(shots, p1(m)) draw of
    :func:`_count_ones` from the raw words of ``Philox(key=(seed, lane),
    counter=(0, m, row, 0))``.  So a tally depends on neither the other rows
    and depths nor their order.  The batch is checked before ``p1`` is
    evaluated, and one ``Philox`` keyed (seed, lane) draws every tally, its
    counter and buffer reset per tally.

    Raises:
        ValueError: unequal lengths, a repeated depth (its stream would
            repeat the same tally), an invalid depth, shot count, seed or
            row, or a depth with more than 2**40 shots.
    """
    if len(depths) != len(shots):
        raise ValueError(
            f"depths and shots_per_depth must have equal length, "
            f"got {len(depths)} and {len(shots)}"
        )
    repeated = sorted(m for m, count in Counter(depths).items() if count > 1)
    if repeated:
        raise ValueError(f"depths must be distinct, repeated: {repeated}")
    depths = [_check_depth(m) for m in depths]
    for n in shots:
        _check_shots(n, "shots")
    shots = [int(n) for n in shots]
    key = np.array([_check_seed(seed, "seed"), lane], np.uint64)
    rows = [_check_seed(row, "row") for row in rows]
    _check_tally_shots(depths, shots)
    # p1 once per depth.  SimulatedDevice.p1 as one array call would square with
    # a multiply where the scalar path calls pow; the two differ in the last bit
    # on about one depth in a thousand, and such a bit can move a tally.
    probs = [p1(m) for m in depths]

    bit_generator = np.random.Philox(key=key)
    # A fresh Philox state: counter 0, empty buffer.  Only the counter changes.
    state = bit_generator.state
    ones = []
    for row in rows:
        for m, n, p in zip(depths, shots, probs):
            state["state"]["counter"] = [0, m, row, 0]
            bit_generator.state = state
            ones.append(_count_ones(bit_generator, n, p))
    return np.array(ones, np.int64).reshape(len(rows), len(depths))


def sample_shots(dev: SimulatedDevice, m: int, shots: int) -> ShotRecord:
    """Sample ``shots`` measurement outcomes at depth ``m``.

    The tally of depth m in row 0 of the device seed's lane 0 from
    :func:`_sample_tallies`: repeated calls with the same arguments return
    the same tally, and tallies at different depths are independent.
    """
    ((ones,),) = _sample_tallies(dev.p1, dev.seed, 0, [0], [m], [shots]).tolist()
    return ShotRecord(int(m), int(shots), ones)


def preset_device(
    name: str, model: NoiseModel = None, seed: int = 0
) -> SimulatedDevice:
    """Device with the angle of one of the bundled presets A1..A5."""
    try:
        theta = PRESET_THETAS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_THETAS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None
    return SimulatedDevice(amp=Amplitude(theta), model=model, seed=seed)


def run_depth_sweep(
    dev: SimulatedDevice,
    depths: list[int],
    shots_per_depth: list[int],
) -> list[ShotRecord]:
    """One ShotRecord per depth: :func:`_sample_tallies`' row 0 of the device seed's lane 0.

    Each depth reads its own Philox blocks, so the result for a given depth
    does not depend on the other entries or their order.

    Raises:
        ValueError: as :func:`_sample_tallies`.
    """
    (ones,) = _sample_tallies(dev.p1, dev.seed, 0, [0], depths, shots_per_depth).tolist()
    return [ShotRecord(int(m), int(n), h) for m, n, h in zip(depths, shots_per_depth, ones)]
