"""Seeded stochastic simulation of a noisy amplitude estimation device.

A device is an immutable value object (true angle, noise model, seed); all
randomness flows through counter-based Philox streams keyed by the seed and
the circuit depth, so sampling is fully deterministic and independent of
evaluation order.

Every key is ``SeedSequence([seed, *path]).generate_state(2, np.uint64)``,
computed by :func:`_philox_keys`, a numpy-array port of SeedSequence's 32-bit
hash-and-mix.  So :func:`_sample_tallies`, given p(1) per depth, derives the
keys of every (seed, depth) tally at once and draws them all from one Philox
re-keyed per tally, as a (seeds x depths) array; :func:`run_depth_sweep` and
:func:`sample_shots` wrap a device's row in ``ShotRecord``s.  A tally counts
its stream's raw 64-bit words below one integer threshold per depth, the
words that ``Generator.random()`` would map below p(1), so no word becomes a
float.  They are drawn in chunks of ``2**20``, so memory does not grow with
the shot count, and a depth whose p(1) is 0 or 1 draws none.
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Raw words drawn per Philox.random_raw call: 8 MiB of uint64 and 1 MiB of
# comparison bounds a sample's memory at 9 MiB.
_CHUNK = 2**20

# Most words one batch may draw (shots summed over depths and seeds).  The
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


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..count: a SeedSequence hash's constants."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of column j of ``values`` with constants consts[j], consts[j + 1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _seed_sequence_keys(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` of each row of uint32 ``words``.

    Rows have at least 4 words.  The hash constants do not depend on the
    data, so every row is hashed at once, and so is each run of hashmix
    calls that SeedSequence makes with one source word.
    """
    length = words.shape[1]
    # SeedSequence makes 4 * length hashmix calls for ``length`` >= 4 words.
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * length)
    pool = _hashmix(words[:, :_POOL_SIZE], consts[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    # Mix every pool word into every other one, then any entropy past the pool.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], consts[at:at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(words[:, [src]], consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    state = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, 4)).astype(np.uint64)
    # generate_state reads its 32-bit words as little-endian uint64 pairs
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _philox_keys(*columns) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` for each row, as an (n, 2) array.

    ``columns`` are unsigned 64-bit integers, broadcast against each other;
    row i is the entropy ``[c[i] for c in columns]``.  As SeedSequence does,
    each value becomes one 32-bit word below 2**32 and two from there on.
    Entropy shorter than the pool hashes like zero words, so such rows are
    zero-padded to 4 words and share one group; longer rows are grouped by
    length.
    """
    columns = np.broadcast_arrays(*(np.asarray(c, np.uint64) for c in columns))
    columns = [np.ravel(c) for c in columns]
    n = columns[0].size
    wide = [c > _MASK32 for c in columns]
    lengths = np.maximum(sum(1 + w.astype(np.intp) for w in wide), _POOL_SIZE)
    words = np.zeros((n, int(lengths.max(initial=_POOL_SIZE))), np.uint32)
    rows = np.arange(n)
    at = np.zeros(n, np.intp)
    for column, high in zip(columns, wide):
        words[rows, at] = column & _MASK32
        at += 1
        words[rows[high], at[high]] = column[high] >> 32
        at += high
    keys = np.empty((n, 2), np.uint64)
    for length in set(lengths.tolist()):
        group = lengths == length
        keys[group] = _seed_sequence_keys(words[group, :length])
    return keys


def _count_ones(bit_generator: np.random.Philox, shots: int, p1: float) -> int:
    """Ones among ``shots`` shots that measure 1 with probability ``p1``.

    A shot is the next raw 64-bit word x of ``bit_generator``, and it is a 1
    when ``x < ceil(p1 * 2**53) << 11``.  On Philox, ``Generator.random()``
    returns ``(x >> 11) * 2**-53``, and for the integer x >> 11, that is below
    p1 exactly when it is below ceil(p1 * 2**53); scaling by a power of two is
    exact, so the count is the count of ``Generator.random() < p1`` over the
    same words.  For p1 in (0, 1) the threshold is at most 2**64 - 2**11 and
    fits in uint64.  Outside (0, 1) no word is drawn: every shot is a 1 when
    p1 >= 1 and none is otherwise, as the comparison gives.  Each tally has
    its own re-keyed stream, so a draw skipped moves no other tally.  Words
    are drawn ``_CHUNK`` at a time.
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
    """Refuse a batch of more than ``_MAX_DRAWS`` draws (shots summed over depths and seeds)."""
    if draws > _MAX_DRAWS:
        raise ValueError(
            f"a batch may draw at most 2**40 shots over its depths and seeds, got {draws}"
        )


def _sample_tallies(
    p1: Callable[[int], float], seeds: Sequence[int], depths: Sequence[int], shots: Sequence[int]
) -> np.ndarray:
    """One depth sweep per seed, as a (seeds x depths) int64 array of ones.

    Tally (seed, m) is the number of 1s among ``shots`` shots at depth m, each
    a 1 with probability ``p1(m)``: the first ``shots`` raw words of the
    Philox stream keyed by :func:`_philox_keys` of (seed, m) that lie below
    ``ceil(p1(m) * 2**53) << 11``, which are the words whose
    ``Generator.random()`` uniform lies below p1(m) (see
    :func:`_count_ones`).  So a tally depends on neither the other seeds and
    depths nor their order.  The batch is checked once before ``p1`` is
    evaluated, every key comes from one :func:`_philox_keys` call, and one
    ``Philox`` is re-keyed per tally.

    Raises:
        ValueError: unequal lengths, a repeated depth (its stream would
            repeat the same tally), an invalid depth, shot count or seed,
            or more than 2**40 shots in all.
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
    seed_words = np.array([_check_seed(s, "seed") for s in seeds], np.uint64)
    _check_draws(sum(shots) * len(seeds))
    # p1 once per depth.  SimulatedDevice.p1 as one array call would square with
    # a multiply where the scalar path calls pow; the two differ in the last bit
    # on about one depth in a thousand, and such a bit can move a tally.
    probs = [p1(m) for m in depths]
    keys = _philox_keys(seed_words[:, None], np.array(depths, np.uint64))

    bit_generator = np.random.Philox(0)
    # A fresh Philox state: counter 0, empty buffer.  Only the key changes.
    state = bit_generator.state
    ones = []
    # keys run seed by seed, each over every depth
    for key, n, p in zip(keys.tolist(), shots * len(seeds), probs * len(seeds)):
        state["state"]["key"] = key
        bit_generator.state = state
        ones.append(_count_ones(bit_generator, n, p))
    return np.array(ones, np.int64).reshape(len(seeds), len(depths))


def sample_shots(dev: SimulatedDevice, m: int, shots: int) -> ShotRecord:
    """Sample ``shots`` measurement outcomes at depth ``m``.

    The tally of (device seed, m) from :func:`_sample_tallies`: repeated
    calls with the same arguments return the same tally, and tallies at
    different depths are independent.
    """
    ((ones,),) = _sample_tallies(dev.p1, [dev.seed], [m], [shots]).tolist()
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
    """Sample one ShotRecord per depth: the device seed's row of :func:`_sample_tallies`.

    Each depth uses its own (seed, m)-keyed stream, so the result for a
    given depth does not depend on the other entries or their order.

    Raises:
        ValueError: as :func:`_sample_tallies`.
    """
    (ones,) = _sample_tallies(dev.p1, [dev.seed], depths, shots_per_depth).tolist()
    return [ShotRecord(int(m), int(n), h) for m, n, h in zip(depths, shots_per_depth, ones)]
