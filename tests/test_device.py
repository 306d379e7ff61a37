"""Tests for the seeded device simulator."""

import math
import tracemalloc

import numpy as np
import pytest

from naqae import (
    Amplitude,
    DepolParams,
    GaussianNoiseParams,
    ShotRecord,
    SimulatedDevice,
    p1_gaussian_closed,
    preset_device,
    run_depth_sweep,
    sample_shots,
)
from naqae import device
from naqae.device import _CHUNK, _philox_keys, _sample_tallies

MASK64 = 2**64 - 1


def seed_sequence_key(*words):
    """numpy's own key for the entropy ``words`` (negatives as unsigned 64-bit)."""
    return np.random.SeedSequence([w & MASK64 for w in words]).generate_state(2, np.uint64)


def numpy_stream(*words):
    """The reference stream: one SeedSequence, Philox and Generator per path."""
    seed_seq = np.random.SeedSequence([w & MASK64 for w in words])
    return np.random.Generator(np.random.Philox(seed_seq))


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
        # a repeated depth reuses its (seed, m) stream: the tallies would
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
        # per-depth streams are keyed by m, so order cannot matter
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


class TestSeeds:
    @pytest.mark.parametrize("bad", [1.9, 1.0, np.float64(2.0), True, 2**64, 2**64 + 5,
                                     -(2**63) - 1, "3", None])
    def test_device_seed_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            SimulatedDevice(amp=Amplitude(0.5), seed=bad)

    @pytest.mark.parametrize("seed", [0, -1, -(2**63), 2**63, 2**64 - 1, np.uint64(2**64 - 1),
                                      np.int32(-5)])
    def test_device_seed_range(self, seed):
        dev = SimulatedDevice(amp=Amplitude(0.5), seed=seed)
        expected = int(np.count_nonzero(numpy_stream(int(seed), 3).random(50) < dev.p1(3)))
        assert sample_shots(dev, 3, 50).ones == expected

    def test_negative_seed_is_its_unsigned_representation(self):
        a = SimulatedDevice(amp=Amplitude(0.5), seed=-1)
        b = SimulatedDevice(amp=Amplitude(0.5), seed=2**64 - 1)
        assert run_depth_sweep(a, [0, 4], [300, 300]) == run_depth_sweep(b, [0, 4], [300, 300])


class TestSeedHash:
    def test_known_layouts(self):
        cases = [(0,), (0, 0), (2**32 - 1, 0), (2**32, 0), (-1, 2**32 - 1), (-(2**63), 7, 3),
                 (2**64 - 1, 2**64 - 1, 2**32), (5, 1, 2, 3, 4), (-7, 2**40, 2**33, 1, 2**64 - 1)]
        for words in cases:
            key = _philox_keys(*[w & MASK64 for w in words])[0]
            assert np.array_equal(key, seed_sequence_key(*words)), words
            stream = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(stream.random(9), numpy_stream(*words).random(9)), words

    def test_vectorised_hash_equals_seed_sequence(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        edges = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
        words = st.one_of(edges, st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
        seeds = st.one_of(edges, st.integers(-(2**63), -1), st.integers(-(2**63), 2**64 - 1))
        # Rows of one call share their arity but not their 32-bit word layout.
        batches = st.integers(1, 4).flatmap(
            lambda k: st.lists(st.tuples(seeds, st.tuples(*[words] * k)), min_size=1, max_size=6)
        )

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(batches)
        @hypothesis.example([(-1, (2**32 - 1,)), (0, (2**32,)), (2**32, (0,)), (-5, (3,))])
        def check(rows):
            paths = [list(column) for column in zip(*(path for _, path in rows))]
            keys = _philox_keys([seed & MASK64 for seed, _ in rows], *paths)
            for (seed, path), key in zip(rows, keys):
                assert np.array_equal(key, seed_sequence_key(seed, *path)), (seed, path)

        check()


class TestSampleTallies:
    def test_each_seed_is_its_own_depth_sweep(self):
        dev = preset_device("A3", model=DepolParams(0.93))
        seeds = [0, -1, 2**32, 17, 2**64 - 1]
        depths, shots = [0, 3, 1, 9], [40, 70, 25, 90]
        tallies = _sample_tallies(dev.p1, seeds, depths, shots)
        for seed, row in zip(seeds, tallies.tolist()):
            alone = SimulatedDevice(dev.amp, dev.model, seed)
            assert row == [r.ones for r in run_depth_sweep(alone, depths, shots)]

    def test_tallies_equal_per_record_substreams(self):
        dev = preset_device("A1", model=GaussianNoiseParams(0.01, 0.05), seed=0)
        seeds = [3, 2**40 + 1, -9]
        for seed, row in zip(seeds, _sample_tallies(dev.p1, seeds, range(8), [33] * 8).tolist()):
            for m, ones in enumerate(row):
                draws = numpy_stream(seed, m).random(33)
                assert ones == int(np.count_nonzero(draws < dev.p1(m)))

    def test_records_carry_the_tallies(self):
        # run_depth_sweep's records are the device seed's row of tallies, in
        # depth order, with the depths and shots they were drawn at.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(
            seed=st.integers(-(2**63), 2**64 - 1),
            entries=st.lists(
                st.tuples(st.integers(0, 300), st.integers(1, 400)),
                max_size=6, unique_by=lambda entry: entry[0],
            ),
            theta=st.floats(0.0, math.pi / 2),
            noisy=st.booleans(),
        )
        def check(seed, entries, theta, noisy):
            dev = SimulatedDevice(Amplitude(theta), DepolParams(0.9) if noisy else None, seed)
            depths, shots = [m for m, _ in entries], [n for _, n in entries]
            tallies = _sample_tallies(dev.p1, [seed, 7], depths, shots)
            assert tallies.dtype == np.int64 and tallies.shape == (2, len(depths))
            records = run_depth_sweep(dev, depths, shots)
            assert [r.ones for r in records] == tallies[0].tolist()
            assert [(r.m, r.shots) for r in records] == entries
            if entries:
                assert sample_shots(dev, *entries[0]).ones == tallies[0, 0]

        check()

    def test_empty_batches(self):
        dev = preset_device("A1")
        assert _sample_tallies(dev.p1, [], [0, 1], [5, 5]).shape == (0, 2)
        assert _sample_tallies(dev.p1, [1, 2], [], []).shape == (2, 0)
        assert run_depth_sweep(dev, [], []) == []

    def test_validation(self):
        # Every fault is refused before p(1) is evaluated at any depth.
        def p1(m):
            pytest.fail(f"p1 evaluated at depth {m} before the batch checks")

        with pytest.raises(ValueError, match="equal length"):
            _sample_tallies(p1, [1], [0, 1], [10])
        with pytest.raises(ValueError, match=r"repeated: \[2\]"):
            _sample_tallies(p1, [1], [2, 2], [10, 10])
        with pytest.raises(ValueError, match="^seed must be an integer"):
            _sample_tallies(p1, [1, 0.5], [0], [10])
        with pytest.raises(ValueError, match="^shots must be an integer"):
            _sample_tallies(p1, [1], [0], [2.0])
        with pytest.raises(ValueError, match="^depth must be >= 0"):
            _sample_tallies(p1, [1], [-1], [10])
        with pytest.raises(ValueError, match=f"at most 2\\*\\*40 shots .*, got {2**41}$"):
            _sample_tallies(p1, [1, 2], [0], [2**40])


class TestChunkedDraws:
    @pytest.mark.parametrize("shots", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_chunks_equal_one_full_draw(self, shots):
        dev = SimulatedDevice(amp=Amplitude(0.7), model=GaussianNoiseParams(0.0, 0.01), seed=23)
        full = numpy_stream(23, 4).random(shots) < dev.p1(4)
        assert sample_shots(dev, 4, shots).ones == int(np.count_nonzero(full))
        # noiseless A1 measures 1 with certainty at m = 1: every shot is a 1, without drawing
        assert sample_shots(preset_device("A1", seed=23), 1, shots).ones == shots

    def test_memory_does_not_grow_with_shots(self):
        # One word per shot would be 32 MiB for 2**22 shots; the chunks
        # hold at most 2**20 raw words and their comparison at a time.
        dev = SimulatedDevice(amp=Amplitude(0.7), seed=29)
        tracemalloc.start()
        try:
            sample_shots(dev, 2, 2**22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestThresholdCount:
    # A shot is a 1 when its raw Philox word is below ceil(p1 * 2**53) << 11:
    # each tally must equal the count of the reference stream's uniforms below p1.
    EDGES = [0.0, 5e-324, 2.0**-54, 2.0**-53, 1 / 3, 1 - 2.0**-53, 1.0]
    SEEDS = [5, -1]

    @pytest.mark.parametrize("shots", [1000, _CHUNK + 1])
    def test_edge_probabilities_match_the_uniforms(self, shots):
        # Depths past the edges take one of their own stream's uniforms u
        # (seed 5), then the float below u and the float above u.
        k = len(self.EDGES)
        uniforms = [numpy_stream(self.SEEDS[0], k + j).random(shots)[shots // 2] for j in range(3)]
        probs = self.EDGES + [uniforms[0], np.nextafter(uniforms[1], 0.0),
                              np.nextafter(uniforms[2], 1.0)]
        depths = range(len(probs))
        tallies = _sample_tallies(probs.__getitem__, self.SEEDS, depths, [shots] * len(probs))
        for seed, row in zip(self.SEEDS, tallies.tolist()):
            for m, (p, ones) in enumerate(zip(probs, row)):
                draws = numpy_stream(seed, m).random(shots)
                assert ones == int(np.count_nonzero(draws < p)), (seed, m, p)
        # u == p1 is not a 1: the uniform equal to p1 is drawn, and not counted
        draws = numpy_stream(self.SEEDS[0], k).random(shots)
        assert tallies[0, k] == int(np.count_nonzero(draws <= probs[k])) - 1

    def test_random_probabilities_match_the_uniforms(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            seed=st.integers(-(2**63), 2**64 - 1),
            p=st.one_of(st.sampled_from(self.EDGES), st.floats(0.0, 1.0)),
            shots=st.integers(1, 3000),
        )
        def check(seed, p, shots):
            ((ones,),) = _sample_tallies(lambda m: p, [seed], [3], [shots]).tolist()
            assert ones == int(np.count_nonzero(numpy_stream(seed, 3).random(shots) < p))

        check()

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.5, 1.5, math.inf, math.nan])
    def test_certain_outcomes_draw_nothing(self, p):
        # Every uniform is below 1.0 and 1.5; none is below 0.0, -0.5 or NaN.
        expected = int(np.count_nonzero(numpy_stream(7, 2).random(40) < p))
        assert _sample_tallies(lambda m: p, [7], [2], [40]).tolist() == [[expected]]
        bit_generator = np.random.Philox(0)
        assert device._count_ones(bit_generator, 40, p) == expected
        assert bit_generator.random_raw() == np.random.Philox(0).random_raw()


class TestDrawLimit:
    def test_batch_past_the_limit_is_refused_before_drawing(self, monkeypatch):
        # Shots are summed over depths and seeds: 2 x (30 + 20) = 100 draws.
        dev = preset_device("A1", seed=3)
        monkeypatch.setattr(device, "_MAX_DRAWS", 100)
        assert _sample_tallies(dev.p1, [1, 2], [0, 1], [30, 20]).shape == (2, 2)
        drawn = []
        monkeypatch.setattr(device, "_count_ones", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"at most 2\*\*40 shots .*, got 102$"):
            _sample_tallies(dev.p1, [1, 2], [0, 1], [30, 21])
        assert drawn == []

    def test_the_limit_is_two_to_the_forty(self):
        dev = preset_device("A1")
        with pytest.raises(ValueError, match=f"got {2**40 + 1}$"):
            run_depth_sweep(dev, [0, 1], [2**39, 2**39 + 1])
        with pytest.raises(ValueError, match=f"got {2**63 - 1}$"):
            sample_shots(dev, 0, 2**63 - 1)
