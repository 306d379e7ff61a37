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
from conftest import numpy_stream, reference_tally
from naqae import device
from naqae.device import _sample_tallies


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
        assert sample_shots(dev, 3, 50).ones == reference_tally(int(seed), 0, 0, 3, 50, dev.p1(3))

    def test_negative_seed_is_its_unsigned_representation(self):
        a = SimulatedDevice(amp=Amplitude(0.5), seed=-1)
        b = SimulatedDevice(amp=Amplitude(0.5), seed=2**64 - 1)
        assert run_depth_sweep(a, [0, 4], [300, 300]) == run_depth_sweep(b, [0, 4], [300, 300])


class TestPhilox:
    def test_random123_known_answer(self):
        # Random123's philox4x64-10 known-answer vector for key 0 and counter 0.
        # numpy increments the counter before each block, so 2**256 - 1 wraps to 0.
        philox = np.random.Philox(key=np.zeros(2, np.uint64),
                                  counter=np.full(4, 2**64 - 1, np.uint64))
        assert [f"{word:016x}" for word in philox.random_raw(4).tolist()] == [
            "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b"
        ]


class TestSampleTallies:
    def test_each_row_is_its_own_depth_sweep(self):
        dev = preset_device("A3", model=DepolParams(0.93), seed=-1)
        rows = [0, -1, 2**32, 17, 2**64 - 1]
        depths, shots = [0, 3, 1, 9], [40, 70, 25, 90]
        for lane in (0, 3):
            tallies = _sample_tallies(dev.p1, dev.seed, lane, rows, depths, shots)
            for row, ones in zip(rows, tallies.tolist()):
                alone = _sample_tallies(dev.p1, dev.seed, lane, [row], depths, shots)
                assert ones == alone[0].tolist()
        # a device's sweep is row 0 of its seed's lane 0
        tallies = _sample_tallies(dev.p1, dev.seed, 0, rows, depths, shots)
        assert tallies[0].tolist() == [r.ones for r in run_depth_sweep(dev, depths, shots)]

    def test_tallies_equal_per_record_substreams(self):
        dev = preset_device("A1", model=GaussianNoiseParams(0.01, 0.05), seed=0)
        rows = [3, 2**40 + 1, -9]
        for seed, lane in [(0, 0), (2**40 + 1, 2), (-9, 4)]:
            tallies = _sample_tallies(dev.p1, seed, lane, rows, range(8), [33] * 8)
            for row, ones_row in zip(rows, tallies.tolist()):
                for m, ones in enumerate(ones_row):
                    assert ones == reference_tally(seed, lane, row, m, 33, dev.p1(m))

    def test_path_edges_match_the_reference(self):
        # Seeds, depths and rows at the edges of their 64-bit words.
        probs = {0: 0.3, 2**32: 0.6, 2**63 - 1: 0.45}
        rows = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1, -(2**63)]
        for seed in (-1, 2**63, 2**64 - 1):
            tallies = _sample_tallies(probs.__getitem__, seed, 1, rows, list(probs), [20] * 3)
            for row, ones_row in zip(rows, tallies.tolist()):
                for (m, p), ones in zip(probs.items(), ones_row):
                    assert ones == reference_tally(seed, 1, row, m, 20, p), (seed, row, m)

    def test_random_paths_match_the_reference(self):
        # Any seed, lane, row and depth word, at edge and random p(1) and shot
        # counts up to the cap: the tally is the draw on its own fresh stream.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        words = st.integers(-(2**63), 2**64 - 1)
        edges = [0.0, 5e-324, 2.0**-53, 1 / 3, 0.5, 1 - 2.0**-53, 1.0]

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            seed=words,
            lane=st.integers(0, 4),
            row=words,
            m=st.integers(0, 2**63 - 1),
            p=st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)),
            shots=st.one_of(st.integers(1, 3000), st.integers(1, 2**40)),
        )
        def check(seed, lane, row, m, p, shots):
            ((ones,),) = _sample_tallies(lambda _: p, seed, lane, [row], [m], [shots]).tolist()
            assert ones == reference_tally(seed, lane, row, m, shots, p)

        check()

    def test_counter_after_a_tally(self, monkeypatch):
        # numpy increments the counter before each 4-word block, so a tally
        # that reads j words leaves it at (ceil(j / 4), m, row, 0): it keeps the
        # depth and row words, and reads a handful of blocks at any shot count.
        # A certain depth reads none; the next tally starts afresh.
        counters = []
        count_ones = device._count_ones

        def spy(bit_generator, shots, p1):
            ones = count_ones(bit_generator, shots, p1)
            counters.append(bit_generator.state["state"]["counter"].tolist())
            return ones

        monkeypatch.setattr(device, "_count_ones", spy)
        rows, depths = [2**64 - 1, 6], [4, 0, 9, 2]
        probs = {4: 0.5, 0: 0.3, 9: 1.0, 2: 1e-6}
        _sample_tallies(probs.__getitem__, 9, 2, rows, depths, [2**40, 5, 7, 2**20])
        assert [c[1:] for c in counters] == [[m, row, 0] for row in rows for m in depths]
        blocks = [c[0] for c in counters]
        assert all(1 <= n <= 4 for i, n in enumerate(blocks) if depths[i % 4] != 9), blocks
        assert blocks[2] == blocks[6] == 0

    def test_records_carry_the_tallies(self):
        # run_depth_sweep's records are row 0 of the device seed's lane 0, in
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
            tallies = _sample_tallies(dev.p1, seed, 0, [0, 7], depths, shots)
            assert tallies.dtype == np.int64 and tallies.shape == (2, len(depths))
            records = run_depth_sweep(dev, depths, shots)
            assert [r.ones for r in records] == tallies[0].tolist()
            assert [(r.m, r.shots) for r in records] == entries
            if entries:
                assert sample_shots(dev, *entries[0]).ones == tallies[0, 0]

        check()

    def test_empty_batches(self):
        dev = preset_device("A1")
        assert _sample_tallies(dev.p1, 0, 0, [], [0, 1], [5, 5]).shape == (0, 2)
        assert _sample_tallies(dev.p1, 0, 0, [1, 2], [], []).shape == (2, 0)
        assert run_depth_sweep(dev, [], []) == []

    def test_validation(self):
        # Every fault is refused before p(1) is evaluated at any depth.
        def p1(m):
            pytest.fail(f"p1 evaluated at depth {m} before the batch checks")

        with pytest.raises(ValueError, match="equal length"):
            _sample_tallies(p1, 1, 0, [0], [0, 1], [10])
        with pytest.raises(ValueError, match=r"repeated: \[2\]"):
            _sample_tallies(p1, 1, 0, [0], [2, 2], [10, 10])
        with pytest.raises(ValueError, match="^seed must be an integer"):
            _sample_tallies(p1, 0.5, 0, [0], [0], [10])
        with pytest.raises(ValueError, match="^row must be an integer"):
            _sample_tallies(p1, 1, 0, [1, 0.5], [0], [10])
        with pytest.raises(ValueError, match="^row must be an integer"):
            _sample_tallies(p1, 1, 0, [2**64], [0], [10])
        with pytest.raises(ValueError, match="^shots must be an integer"):
            _sample_tallies(p1, 1, 0, [0], [0], [2.0])
        with pytest.raises(ValueError, match="^depth must be >= 0"):
            _sample_tallies(p1, 1, 0, [0], [-1], [10])
        with pytest.raises(ValueError, match=rf"at most 2\*\*40 shots, got {2**40 + 1} at depth 3$"):
            _sample_tallies(p1, 1, 0, [1, 2], [0, 3], [2**40, 2**40 + 1])


class TestChunkedDraws:
    def test_memory_does_not_grow_with_shots(self):
        # One word per shot would be 32 MiB for 2**22 shots; a tally is one
        # binomial draw from a handful of words.
        dev = SimulatedDevice(amp=Amplitude(0.7), seed=29)
        tracemalloc.start()
        try:
            sample_shots(dev, 2, 2**22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestThresholdCount:
    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.5, 1.5, math.inf, math.nan])
    def test_certain_outcomes_draw_nothing(self, p):
        # Every uniform is below 1.0 and 1.5; none is below 0.0, -0.5 or NaN.
        expected = int(np.count_nonzero(numpy_stream(7, 0, 0, 2).random(40) < p))
        assert _sample_tallies(lambda m: p, 7, 0, [0], [2], [40]).tolist() == [[expected]]
        bit_generator = np.random.Philox(0)
        assert device._count_ones(bit_generator, 40, p) == expected
        assert bit_generator.random_raw() == np.random.Philox(0).random_raw()


class TestBinomialDraws:
    # (shots, p1): certain and one-ulp-from-certain depths, p1 = 1/2, both
    # sides of the switch from inversion (shots * p < 10) to BTRD, with p1 on
    # either side of 1/2, and shot counts up to the 2**40 cap.
    GRID = [
        (100, 0.0), (100, 1.0), (2**40, 5e-324), (2**40, 1 - 2**-53),
        (19, 0.5), (20, 0.5), (2**40, 0.5),
        (1000, math.nextafter(0.01, 0.0)), (1000, 0.01), (100, 0.9), (100, 0.1),
        (2**40, 1 - 5 * 2**-40), (2**40, 1e-3), (262_144, 0.3),
    ]
    TALLIES = 10**5

    @pytest.mark.parametrize("shots, p1", GRID)
    def test_tallies_are_binomial(self, shots, p1):
        # 10**5 tallies on distinct rows against scipy's Bin(shots, p1), chi-squared
        # at 1% on bins merged to an expected count of at least 5: each k near
        # the mass where that spans at most 2000 values, else 50 quantile bins.
        stats = pytest.importorskip("scipy.stats")
        draws = _sample_tallies(lambda m: p1, 17, 0, range(self.TALLIES), [0], [shots])[:, 0]
        dist = stats.binom(shots, p1)
        low, high = dist.ppf(1e-9), dist.isf(1e-9)
        if high - low <= 2000:
            edges = np.arange(low, high + 1)
        else:
            edges = np.unique(dist.ppf(np.linspace(0, 1, 51)[1:-1]))
        edges = edges[edges < shots]  # the upper end of each bin but the last
        expected = np.diff(dist.cdf(edges), prepend=0.0, append=1.0) * self.TALLIES
        observed = np.bincount(np.searchsorted(edges, draws), minlength=expected.size)
        bins = [[0.0, 0]]
        for e, o in zip(expected, observed):
            if bins[-1][0] >= 5:
                bins.append([0.0, 0])
            bins[-1][0] += e
            bins[-1][1] += o
        if len(bins) > 1 and bins[-1][0] < 5:
            e, o = bins.pop()
            bins[-1][0] += e
            bins[-1][1] += o
        if len(bins) == 1:
            # all the mass on one value: p1 is 0, 1, or 5e-324 at 2**40 shots
            assert set(draws.tolist()) == {round(dist.median())}
            return
        e, o = np.array(bins).T
        statistic = float(((o - e) ** 2 / e).sum())
        assert stats.chi2.sf(statistic, len(bins) - 1) > 0.01, (statistic, len(bins))
        assert draws.min() >= 0 and draws.max() <= shots


    def test_stirling_tail_matches_lgamma(self):
        # BTRD's final test reads ln k! through Stirling's formula plus this
        # correction: the table below 10, to rounding, and the series from 10,
        # whose truncation error is 3e-11 at k = 10.
        for k in range(200):
            stirling = (k + 0.5) * math.log(k + 1) - (k + 1) + 0.5 * math.log(2 * math.pi)
            error = abs(device._stirling_tail(k) - (math.lgamma(k + 1) - stirling))
            assert error <= (1e-14 if k < 10 else 1e-10), k


class TestDrawLimit:
    def test_depth_past_the_limit_is_refused_before_drawing(self, monkeypatch):
        # The cap is per depth: rows and other depths do not count.
        dev = preset_device("A1", seed=3)
        monkeypatch.setattr(device, "_MAX_SHOTS", 30)
        assert _sample_tallies(dev.p1, 3, 0, [1, 2], [0, 1], [30, 30]).shape == (2, 2)
        drawn = []
        monkeypatch.setattr(device, "_count_ones", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"at most 2\*\*40 shots, got 31 at depth 1$"):
            _sample_tallies(dev.p1, 3, 0, [1, 2], [0, 1], [30, 31])
        assert drawn == []

    def test_the_limit_is_two_to_the_forty(self):
        dev = preset_device("A1")
        records = run_depth_sweep(dev, [0, 2], [2**40, 2**40])
        assert [r.shots for r in records] == [2**40, 2**40]
        with pytest.raises(ValueError, match=f"got {2**40 + 1} at depth 1$"):
            run_depth_sweep(dev, [0, 1], [2**39, 2**40 + 1])
        with pytest.raises(ValueError, match=f"got {2**63 - 1} at depth 0$"):
            sample_shots(dev, 0, 2**63 - 1)
