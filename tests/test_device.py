"""Tests for the seeded device simulator."""

import math

import numpy as np
import pytest

from naqae import (
    Amplitude,
    GaussianNoiseParams,
    ShotRecord,
    SimulatedDevice,
    p1_gaussian_closed,
    preset_device,
    run_depth_sweep,
    sample_shots,
    subseed,
    substream,
)


class TestShotRecord:
    def test_validation(self):
        ShotRecord(m=0, shots=10, ones=10)
        with pytest.raises(ValueError):
            ShotRecord(m=0, shots=0, ones=0)
        with pytest.raises(ValueError):
            ShotRecord(m=0, shots=10, ones=11)
        with pytest.raises(ValueError):
            ShotRecord(m=-1, shots=10, ones=5)
        # numpy integers are tallies; floats, bools and 64-bit overflow are not
        assert ShotRecord(m=np.int64(2), shots=np.uint8(10), ones=np.int32(3)).ones == 3
        for field, bad in [
            ("m", 2.0),
            ("shots", 2.5),
            ("ones", 3.0),
            ("m", True),
            ("shots", True),
            ("ones", False),
            ("ones", np.float64(1.0)),
            ("shots", 2**63),
            ("m", np.uint64(2**63)),
        ]:
            fields = {"m": 0, "shots": 10, "ones": 1, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                ShotRecord(**fields)

    def test_frequency(self):
        assert ShotRecord(m=2, shots=8, ones=2).p1_hat == 0.25


class TestPresets:
    @pytest.mark.parametrize(
        "name,theta",
        [("A1", math.pi / 6), ("A2", math.pi / 3), ("A3", 0.5), ("A4", 1.0), ("A5", math.pi / 6)],
    )
    def test_angles(self, name, theta):
        assert preset_device(name).amp.theta == theta

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset_device("A6")


class TestSampling:
    def test_zero_amplitude_never_one(self):
        dev = SimulatedDevice(amp=Amplitude(0.0), seed=3)
        assert sample_shots(dev, 5, 100).ones == 0

    def test_unit_amplitude_always_one(self):
        dev = SimulatedDevice(amp=Amplitude(math.pi / 2), seed=3)
        assert sample_shots(dev, 0, 100).ones == 100

    def test_certainty_depth(self):
        # noiseless A1 measures 1 with certainty at m = 1, 4, 7, ...
        dev = preset_device("A1", seed=17)
        rec = sample_shots(dev, 1, 8192)
        assert rec.ones == rec.shots == 8192

    def test_metadata(self):
        dev = preset_device("A3", seed=5)
        rec = sample_shots(dev, 7, 42)
        assert rec.m == 7 and rec.shots == 42

    def test_determinism(self):
        dev = preset_device("A1", model=GaussianNoiseParams(0.01, 0.05), seed=11)
        a = [sample_shots(dev, m, 500) for m in range(10)]
        b = [sample_shots(dev, m, 500) for m in range(10)]
        assert a == b

    def test_seed_sensitivity(self):
        base = preset_device("A1", model=GaussianNoiseParams(0.01, 0.05), seed=11)
        other = preset_device("A1", model=GaussianNoiseParams(0.01, 0.05), seed=12)
        a = [sample_shots(base, m, 500).ones for m in range(10)]
        b = [sample_shots(other, m, 500).ones for m in range(10)]
        assert a != b

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            sample_shots(preset_device("A1"), 0, 0)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="^shots must be an integer"):
                sample_shots(preset_device("A1"), 0, bad)
        assert sample_shots(preset_device("A1"), 0, np.int64(3)).shots == 3


class TestDepthSweep:
    def test_empty(self):
        assert run_depth_sweep(preset_device("A1"), [], []) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            run_depth_sweep(preset_device("A1"), [0, 1], [10])

    def test_repeated_depths_rejected(self):
        # a repeated depth reuses its (seed, m) substream: the tallies would
        # be identical copies, not independent samples
        with pytest.raises(ValueError, match=r"repeated: \[2, 5\]"):
            run_depth_sweep(preset_device("A1"), [5, 2, 2, 5, 1], [10] * 5)

    def test_period_table(self):
        # sin^2((2m+1) pi/6) over m = 0..5 is [1/4, 1, 1/4, 1/4, 1, 1/4]:
        # the certainty entries must be hit exactly, the rest are binomial
        dev = preset_device("A1", seed=29)
        records = run_depth_sweep(dev, list(range(6)), [10] * 6)
        assert records[1].ones == 10 and records[4].ones == 10
        for idx in (0, 2, 3, 5):
            assert 0 <= records[idx].ones <= 10

    def test_a2_zero_at_certainty_depths(self):
        dev = preset_device("A2", seed=31)
        records = run_depth_sweep(dev, [1, 4, 7, 10], [200] * 4)
        assert all(r.ones == 0 for r in records)

    def test_a5_matches_a1_periodicity(self):
        dev = preset_device("A5", seed=33)
        records = run_depth_sweep(dev, [1, 4, 7], [100] * 3)
        assert all(r.ones == r.shots for r in records)

    def test_order_independence(self):
        # per-depth substreams are keyed by m, so order cannot matter
        dev = preset_device("A3", model=GaussianNoiseParams(0.0, 0.02), seed=37)
        forward = run_depth_sweep(dev, list(range(8)), [100] * 8)
        backward = run_depth_sweep(dev, list(range(7, -1, -1)), [100] * 8)
        assert forward == backward[::-1]

    def test_deep_gaussian_within_four_sigma(self):
        noise = GaussianNoiseParams(0.0, 0.05)
        dev = preset_device("A1", model=noise, seed=41)
        (rec,) = run_depth_sweep(dev, [67], [8192])
        p = p1_gaussian_closed(dev.amp, 67, noise)
        sigma = math.sqrt(p * (1 - p) / 8192)
        assert abs(rec.ones / rec.shots - p) <= 4 * sigma


class TestStatisticalSoundness:
    def test_mean_frequency_tracks_model(self):
        # over 1000 seeds the pooled mean frequency must sit within 5
        # binomial standard errors of the model probability
        p, shots, n_seeds = 0.25, 100, 1000
        total = 0
        for seed in range(n_seeds):
            dev = preset_device("A1", seed=seed)
            total += sample_shots(dev, 0, shots).ones
        mean = total / (shots * n_seeds)
        se = math.sqrt(p * (1 - p) / (shots * n_seeds))
        assert abs(mean - p) <= 5 * se


class TestSubstreams:
    def test_substream_deterministic(self):
        a = substream(42, 1, 2).random(5)
        b = substream(42, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_substream_path_sensitivity(self):
        a = substream(42, 1, 2).random(5)
        b = substream(42, 2, 1).random(5)
        assert not np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        assert substream(-1, 0).random() == substream(-1, 0).random()
        assert subseed(-5, 3) == subseed(-5, 3)

    def test_subseed_is_uint64(self):
        s = subseed(123, 4, 5)
        assert 0 <= s < 2**64
