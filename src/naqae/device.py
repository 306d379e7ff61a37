"""Seeded stochastic simulation of a noisy amplitude estimation device.

A device is an immutable value object (true angle, noise model, seed).  All
randomness comes from Philox, a keyed counter-based cipher whose distinct
(key, counter) blocks give independent words.  Tally (seed, lane, row, depth
m) of N shots reads the first N raw words of ``Philox(key=(seed, lane),
counter=(0, m, row, 0))``: a device's sweeps are lane 0, row 0, and setting i's
replication r of an experiment is lane 1 + i, row r.  numpy increments the
counter before each 4-word block, so the tally reads blocks (1, m, row, 0),
(2, m, row, 0), ...; a batch draws at most 2**40 words (2**38 blocks), so word
0 never carries into the depth word, no two tallies share a block, and
sampling does not depend on evaluation order.
:func:`_sample_tallies` draws one lane's (rows x depths) tallies from one
Philox; :func:`run_depth_sweep` and :func:`sample_shots` wrap a device's row
in ``ShotRecord``s.  A tally counts its words below one integer threshold per
depth, the words that ``Generator.random()`` would map below p(1), in chunks
of ``2**20``, so memory does not grow with the shot count; a depth whose p(1)
is 0 or 1 draws none.
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

# Raw words drawn per Philox.random_raw call: 8 MiB of uint64 and 1 MiB of
# comparison bounds a sample's memory at 9 MiB.
_CHUNK = 2**20

# Most words one batch may draw (shots summed over depths and rows).  The
# sampler takes 5.5-6.6 ns a draw (best of 18 at 2**24 and 2**26 shots at one
# depth, one shared Xeon vCPU), so 2**40 draws is about 1.7-2 hours; a count
# past it would run for days to centuries, so it is refused before drawing.
_MAX_DRAWS = 2**40

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


def _count_ones(bit_generator: np.random.Philox, shots: int, p1: float) -> int:
    """Ones among ``shots`` shots that measure 1 with probability ``p1``.

    A shot is the next raw 64-bit word x of ``bit_generator``, and it is a 1
    when ``x < ceil(p1 * 2**53) << 11``.  On Philox, ``Generator.random()``
    returns ``(x >> 11) * 2**-53``, and for the integer x >> 11, that is below
    p1 exactly when it is below ceil(p1 * 2**53); scaling by a power of two is
    exact, so the count is the count of ``Generator.random() < p1`` over the
    same words.  For p1 in (0, 1) the threshold is at most 2**64 - 2**11 and
    fits in uint64.  Outside (0, 1) no word is drawn: every shot is a 1 when
    p1 >= 1 and none is otherwise, as the comparison gives.  Each tally
    reads its own Philox blocks, so a draw skipped moves no other tally.
    Words are drawn ``_CHUNK`` at a time.
    """
    if not 0.0 < p1 < 1.0:
        return shots if p1 >= 1.0 else 0
    threshold = np.uint64(math.ceil(p1 * 2**53) << 11)
    ones = 0
    for start in range(0, shots, _CHUNK):
        # no name holds a chunk's words: they are freed before the next are drawn
        draws = min(_CHUNK, shots - start)
        ones += int(np.count_nonzero(bit_generator.random_raw(draws) < threshold))
    return ones


def _check_draws(draws: int) -> None:
    """Refuse a batch of more than ``_MAX_DRAWS`` draws (shots summed over depths and rows)."""
    if draws > _MAX_DRAWS:
        raise ValueError(
            f"a batch may draw at most 2**40 shots over its depths and seeds, got {draws}"
        )


def _sample_tallies(
    p1: Callable[[int], float], seed: int, lane: int,
    rows: Sequence[int], depths: Sequence[int], shots: Sequence[int],
) -> np.ndarray:
    """One depth sweep per row of a (seed, lane), as a (rows x depths) int64 array of ones.

    Tally (row, m) is the number of 1s among ``shots`` shots at depth m, each
    a 1 with probability ``p1(m)``: of the first ``shots`` raw words of
    ``Philox(key=(seed, lane), counter=(0, m, row, 0))``, those below
    ``ceil(p1(m) * 2**53) << 11``, which are the words whose
    ``Generator.random()`` uniform lies below p1(m) (see
    :func:`_count_ones`).  So a tally depends on neither the other rows and
    depths nor their order.  The batch is checked before ``p1`` is
    evaluated, and one ``Philox`` keyed (seed, lane) draws every tally, its
    counter and buffer reset per tally.

    Raises:
        ValueError: unequal lengths, a repeated depth (its stream would
            repeat the same tally), an invalid depth, shot count, seed or
            row, or more than 2**40 shots in all.
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
    _check_draws(sum(shots) * len(rows))
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
