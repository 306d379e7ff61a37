"""Seeded stochastic simulation of a noisy amplitude estimation device.

A device is an immutable value object (true angle, noise model, seed); all
randomness flows through counter-based Philox substreams keyed by the seed
and the circuit depth, so sampling is fully deterministic and independent of
evaluation order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .models import (
    Amplitude,
    NoiseModel,
    _as_probability,
    _check_depth,
    _check_int64,
    _check_shots,
    _p1_noiseless_raw,
)

_MASK64 = (1 << 64) - 1

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
    """A simulated device: true amplitude angle, noise model, and RNG seed."""

    amp: Amplitude
    model: NoiseModel = None
    seed: int = 0

    def p1(self, m: int) -> float:
        """Model probability of measuring 1 at depth ``m``."""
        m = _check_depth(m)
        if self.model is None:
            return float(_p1_noiseless_raw(self.amp.theta, m))
        return _as_probability(float(self.model.p1_raw(self.amp.theta, m)), "SimulatedDevice.p1")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic Philox substream for (seed, *path).

    Philox is a counter-based generator, so streams for distinct paths are
    independent and may be consumed concurrently.  Negative seeds are mapped
    to their unsigned 64-bit representation.
    """
    words = [int(w) & _MASK64 for w in (seed, *path)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def subseed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed for (seed, *path), stable across runs."""
    words = [int(w) & _MASK64 for w in (seed, *path)]
    return int(np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)[0])


def sample_shots(dev: SimulatedDevice, m: int, shots: int) -> ShotRecord:
    """Sample ``shots`` measurement outcomes at depth ``m``.

    Draws one uniform per shot from an RNG stream keyed by (device seed, m),
    so repeated calls with the same arguments return the same tally, and
    tallies at different depths are independent.
    """
    m = _check_depth(m)
    _check_shots(shots, "shots")
    p1 = dev.p1(m)
    rng = substream(dev.seed, m)
    ones = int(np.count_nonzero(rng.random(shots) < p1))
    return ShotRecord(m=m, shots=shots, ones=ones)


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
    """Sample one ShotRecord per depth.

    Each depth uses its own (seed, m)-keyed substream, so the result for a
    given depth does not depend on the other entries or their order.

    Raises:
        ValueError: unequal lengths, or a repeated depth (its substream would
            repeat the same tally, which is not an independent sample).
    """
    if len(depths) != len(shots_per_depth):
        raise ValueError(
            f"depths and shots_per_depth must have equal length, "
            f"got {len(depths)} and {len(shots_per_depth)}"
        )
    repeated = sorted(m for m, count in Counter(depths).items() if count > 1)
    if repeated:
        raise ValueError(f"depths must be distinct, repeated: {repeated}")
    return [sample_shots(dev, m, shots) for m, shots in zip(depths, shots_per_depth)]
