"""Tests for the Monte Carlo comparison harness."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from naqae import (
    SETTINGS,
    Amplitude,
    DepolParams,
    ExperimentConfig,
    GaussianNoiseParams,
    RmseCurve,
    SimulatedDevice,
    config_from_json,
    misspecification_sweep,
    run_depth_sweep,
    run_monte_carlo,
    run_qae_trial,
)
from conftest import numpy_stream, reference_tally
from naqae import device, experiments
from naqae.device import _p1, _sample_tallies

A1_GAUSS = ExperimentConfig(
    device=SimulatedDevice(amp=Amplitude(math.pi / 6), model=GaussianNoiseParams(0.0, 0.055)),
    max_depth=12,
    n_shot_base=20,
    k_sigma_assumed=0.055,
    settings=("noisy_a", "noisy_b", "noise_aware", "noiseless"),
    replications=3,
    seed=101,
)

# The benchmark's four-setting comparison: A1 at k_sigma 0.055, depths 0..12.
CRITERION9 = json.loads(
    (Path(__file__).parent / "golden" / "inputs" / "config_criterion9.json").read_text()
)


def depth_curves(curves):
    return {c.setting: [r for _, r in c.points] for c in curves if c.x_kind == "depth"}


class TestConfig:
    def test_validation(self):
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        ExperimentConfig(**good)
        for bad in (
            {"max_depth": -1},
            {"n_shot_base": 0},
            {"k_sigma_assumed": -0.1},
            {"k_sigma_assumed": math.nan},
            {"k_sigma_assumed": math.inf},
            {"replications": 0},
            {"settings": ("noisy_a", "bogus")},
            {"settings": ()},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**{**good, **bad})

    @pytest.mark.parametrize("field", ["max_depth", "n_shot_base", "replications"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0), 2**63])
    def test_counts_must_be_int64_integers(self, field, bad):
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(**{**good, field: bad})
        assert getattr(ExperimentConfig(**{**good, field: np.int64(2)}), field) == 2

    def test_depths_past_the_search_limit(self):
        # Depths 0..M have (M + 1)(M + 2) zeros: 1,047,552 at 1022, 1,049,600 at 1023
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, max_depth=1022, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        ExperimentConfig(**good)
        with pytest.raises(ValueError, match=r"^depths with 1049600 zeros .* limit of 1048576"):
            ExperimentConfig(**{**good, "max_depth": 1023})
        with pytest.raises(ValueError, match=f"^depths with {2**126 + 2**63} zeros"):
            ExperimentConfig(**{**good, "max_depth": np.int64(2**63 - 1)})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, 2**64, 2**64 + 5, -(2**63) - 1, "7"])
    def test_seed_must_be_an_integer(self, bad):
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            ExperimentConfig(**good, seed=bad)
        for seed in (-(2**63), 2**64 - 1, np.uint64(2**64 - 1), np.int8(-3)):
            ExperimentConfig(**good, seed=seed)

    @pytest.mark.parametrize("model, noise", [
        (GaussianNoiseParams(0.01, 0.05), {"kind": "gaussian", "k_mu": 0.01, "k_sigma": 0.05}),
        (DepolParams(0.9), {"kind": "depolarizing", "p_coh": 0.9}),
        (None, {"kind": "none"}),
    ])
    def test_default_rate_is_the_devices(self, model, noise):
        # The library and the JSON parser share one default: the device's true rate.
        config = ExperimentConfig(device=SimulatedDevice(amp=Amplitude(0.5), model=model),
                                  max_depth=4, n_shot_base=10, replications=2, seed=1)
        doc = {"device": {"theta": 0.5, "noise": noise}, "max_depth": 4, "n_shot_base": 10,
               "replications": 2, "seed": 1}
        assert config == config_from_json(doc)
        assert config.k_sigma_assumed == (0.0 if model is None else model.rate())

    def test_fully_depolarized_device_needs_an_assumed_rate(self):
        dev = SimulatedDevice(amp=Amplitude(0.5), model=DepolParams(0.0))
        with pytest.raises(ValueError, match="^no finite equivalent rate at p_coh_tilde == 0$"):
            ExperimentConfig(device=dev, max_depth=3, n_shot_base=10)
        config = ExperimentConfig(device=dev, max_depth=3, n_shot_base=10, k_sigma_assumed=1.0)
        assert config.k_sigma_assumed == 1.0

    def test_plan_is_not_compared_hashed_or_printed(self):
        # The plan is derived state: a rebuilt config equals and hashes as
        # the original, and the config's repr shows its fields alone.
        config = config_from_json(CRITERION9)
        assert replace(config) == config
        assert hash(replace(config)) == hash(config)
        assert "plan" not in repr(config)
        assert repr(config).endswith("replications=50, seed=1)")

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RmseCurve(setting="noisy_a", x_kind="time", points=((0.0, 0.1),))
        with pytest.raises(ValueError):
            RmseCurve(setting="noisy_a", x_kind="depth", points=((1.0, 0.1), (0.0, 0.2)))
        with pytest.raises(ValueError):
            RmseCurve(setting="noisy_a", x_kind="depth", points=((0.0, -0.1),))


class TestTrials:
    def test_deterministic(self):
        a = run_qae_trial(A1_GAUSS, "noise_aware", 1)
        b = run_qae_trial(A1_GAUSS, "noise_aware", 1)
        assert a == b

    def test_one_estimate_per_prefix(self):
        estimates = run_qae_trial(A1_GAUSS, "noisy_a", 0)
        assert len(estimates) == A1_GAUSS.max_depth + 1

    def test_setting_must_be_configured(self):
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.5)), max_depth=2,
            n_shot_base=10, k_sigma_assumed=0.0, settings=("noiseless",),
            replications=1, seed=0,
        )
        with pytest.raises(ValueError):
            run_qae_trial(config, "noisy_a", 0)

    @pytest.mark.parametrize("bad", [1.5, True, 2**64, -(2**63) - 1])
    def test_replication_index_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^replication_index must be an integer"):
            run_qae_trial(A1_GAUSS, "noisy_a", bad)

    def test_negative_replication_index_accepted(self):
        assert len(run_qae_trial(A1_GAUSS, "noisy_a", -1)) == A1_GAUSS.max_depth + 1

    def test_methods_per_setting(self):
        assert run_qae_trial(A1_GAUSS, "noisy_a", 0)[0].method == "naive"
        assert run_qae_trial(A1_GAUSS, "noisy_b", 0)[0].method == "corrected"
        assert run_qae_trial(A1_GAUSS, "noise_aware", 0)[0].method == "corrected"
        assert run_qae_trial(A1_GAUSS, "noiseless", 0)[0].method == "naive"

    def test_noiseless_trial_lands_near_truth(self):
        # a single 20-shot noiseless replication over m = 0..12 already pins
        # the amplitude to a couple of percent
        final = run_qae_trial(A1_GAUSS, "noiseless", 0)[-1]
        assert abs(final.a_hat - 0.25) < 0.02


class TestMonteCarlo:
    def test_deterministic_curves(self):
        assert run_monte_carlo(A1_GAUSS) == run_monte_carlo(A1_GAUSS)

    def test_two_axes_per_setting(self):
        curves = run_monte_carlo(A1_GAUSS)
        kinds = {(c.setting, c.x_kind) for c in curves}
        assert len(curves) == 2 * len(A1_GAUSS.settings)
        for setting in A1_GAUSS.settings:
            assert (setting, "depth") in kinds and (setting, "queries") in kinds

    def test_query_axis_counts_oracle_calls(self):
        curves = run_monte_carlo(A1_GAUSS)
        flat = next(c for c in curves if c.setting == "noisy_a" and c.x_kind == "queries")
        # flat schedule: cumulative sum of 20 * (2m+1) is 20 * (M+1)^2
        for idx, (x, _) in enumerate(flat.points):
            assert x == 20 * (idx + 1) ** 2

    def test_batch_equals_per_replication_trials(self):
        # run_monte_carlo estimates all replications of a setting in one batch;
        # it must give exactly the curves of one run_qae_trial per replication.
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.6), model=GaussianNoiseParams(0.0, 0.04)),
            max_depth=5, n_shot_base=12,
            k_sigma_assumed=0.04, replications=4, seed=9,
        )
        expected = {}
        for setting in config.settings:
            errs = np.array(
                [
                    [e.a_hat - config.device.amp.a for e in run_qae_trial(config, setting, rep)]
                    for rep in range(config.replications)
                ]
            )
            expected[setting] = [float(r) for r in np.sqrt(np.mean(errs**2, axis=0))]
        assert depth_curves(run_monte_carlo(config)) == expected

    def test_blocks_give_the_one_batch_curves(self, monkeypatch):
        # Seven replications in one batch, then in blocks of 3, 3 and 1: the
        # curves must match to the last bit.
        config = replace(A1_GAUSS, replications=7)
        whole = run_monte_carlo(config)
        monkeypatch.setattr(experiments, "_BLOCK_REPLICATIONS", 3)
        assert repr(run_monte_carlo(config)) == repr(whole)

    def test_memory_does_not_grow_with_replications(self, monkeypatch):
        # One batch of every replication peaked about 8 times higher at 500
        # replications than at 50; blocks of 50 keep the two peaks close.
        monkeypatch.setattr(experiments, "_BLOCK_REPLICATIONS", 50)
        config = replace(A1_GAUSS, settings=("noisy_b",))
        run_monte_carlo(config)  # fills the estimator's caches before tracing
        peaks = []
        for replications in (50, 500):
            tracemalloc.start()
            try:
                run_monte_carlo(replace(config, replications=replications))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_batch_sample_equals_per_record_substreams(self, monkeypatch):
        # Every replication's sweep is sampled in one batch, as a (replications
        # x depths) tally array; tally (rep, m) of setting i must be the draw
        # of N_m shots at p1 from numpy's Philox at key (config seed, 1 + i)
        # and counter (0, m, rep, 0).
        config = replace(A1_GAUSS, max_depth=6, replications=5, seed=-3)
        batches = []  # each setting's (lane, rows, schedule entries, tallies), in run order

        def sample(p1, seed, lane, rows, depths, shots):
            tallies = _sample_tallies(p1, seed, lane, rows, depths, shots)
            batches.append((lane, list(rows), list(zip(depths, shots)), tallies))
            return tallies

        monkeypatch.setattr(experiments, "_sample_tallies", sample)
        run_monte_carlo(config)
        assert len(batches) == len(config.settings)
        for setting, (lane, rows, entries, tallies) in zip(config.settings, batches):
            assert lane == 1 + SETTINGS.index(setting)
            assert rows == list(range(config.replications))
            assert [m for m, _ in entries] == list(range(config.max_depth + 1))
            assert tallies.shape == (config.replications, len(entries))
            model = None if setting == "noiseless" else config.device.model
            dev = replace(config.device, model=model)
            for rep, row in enumerate(tallies.tolist()):
                expected = [
                    reference_tally(config.seed, lane, rep, m, n, dev.p1(m)) for m, n in entries
                ]
                assert row == expected, (setting, rep)

    def test_device_and_settings_draw_apart(self, monkeypatch):
        # With one seed, the device's own sweep (lane 0) and each setting's
        # replication 0 (lane 1 + i, row 0) start on different words at every depth.
        first_words = {}  # (lane, row, m) -> the first raw word of the tally's stream
        count_ones = device._count_ones

        def spy(bit_generator, shots, p1):
            probe = np.random.Philox(0)
            probe.state = bit_generator.state
            (_, lane), (_, m, row, _) = (probe.state["state"][name].tolist()
                                         for name in ("key", "counter"))
            first_words[lane, row, m] = int(probe.random_raw())
            return count_ones(bit_generator, shots, p1)

        monkeypatch.setattr(device, "_count_ones", spy)
        config = replace(A1_GAUSS, replications=1)
        depths = list(range(config.max_depth + 1))
        run_depth_sweep(replace(config.device, seed=config.seed), depths, [20] * len(depths))
        run_monte_carlo(config)
        lanes = range(1 + len(SETTINGS))
        assert sorted(first_words) == [(lane, 0, m) for lane in lanes for m in depths]
        for m in depths:
            words = [first_words[lane, 0, m] for lane in lanes]
            assert len(set(words)) == len(words), m
            for lane, word in zip(lanes, words):
                assert word == numpy_stream(config.seed, lane, 0, m).bit_generator.random_raw()

    def test_each_setting_is_planned_once(self, monkeypatch):
        # The config checks each setting by planning it, and the run reads the
        # plans: 4 schedules and 4 x 13 checked p(1) evaluations at depths 0..12.
        calls = {"p1": 0, "schedule": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("naqae.device._p1", counted("p1", _p1))
        monkeypatch.setattr(experiments, "shot_schedule",
                            counted("schedule", experiments.shot_schedule))
        run_monte_carlo(config_from_json(CRITERION9))
        assert calls == {"p1": 52, "schedule": 4}

    def test_single_replication_rmse_is_absolute_error(self):
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.5), model=DepolParams(0.95)),
            max_depth=4, n_shot_base=30,
            k_sigma_assumed=0.02, settings=("noisy_a",), replications=1, seed=5,
        )
        curve = depth_curves(run_monte_carlo(config))["noisy_a"]
        estimates = run_qae_trial(config, "noisy_a", 0)
        for rmse, est in zip(curve, estimates):
            assert rmse == abs(est.a_hat - config.device.amp.a)  # the truth is the device's

    def test_noiseless_rmse_falls(self):
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.7)),
            max_depth=8, n_shot_base=4096, k_sigma_assumed=0.0,
            settings=("noiseless",), replications=4, seed=11,
        )
        rmse = depth_curves(run_monte_carlo(config))["noiseless"]
        assert rmse[-1] < rmse[0] / 4
        assert rmse[4] < rmse[0]

    def test_setting_ordering_small_scale(self):
        # At 15 replications one replication in a wrong likelihood mode can
        # dominate the corrected estimator's RMSE, so a single seed's order is
        # a coin flip: it fails on 2 of seeds 101..160 (4 at 50 replications),
        # and failed on 6 of them with an earlier sampler's streams.  At a 10%
        # per-seed failure rate, fewer than 7 of 10 seeds holding has
        # probability about 1.3%.
        held = 0
        for seed in range(101, 111):
            config = ExperimentConfig(
                device=A1_GAUSS.device, max_depth=12, n_shot_base=20,
                k_sigma_assumed=0.055, settings=("noisy_a", "noisy_b", "noise_aware"),
                replications=15, seed=seed,
            )
            rmse = depth_curves(run_monte_carlo(config))
            held += (rmse["noise_aware"][12] < rmse["noisy_b"][12] < rmse["noisy_a"][12]
                     and rmse["noisy_a"][12] >= rmse["noisy_a"][2])
        assert held >= 7, held

    def test_fully_depolarized_naive_plateaus(self):
        # p_coh^m -> 0 by m = 12: the naive estimator cannot converge
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(math.pi / 6), model=DepolParams(0.7)),
            max_depth=12, n_shot_base=20,
            k_sigma_assumed=-math.log(0.7) / 2, settings=("noisy_a",),
            replications=8, seed=3,
        )
        rmse = depth_curves(run_monte_carlo(config))["noisy_a"]
        assert rmse[12] > 0.02
        assert rmse[12] >= rmse[2] * 0.5

    def test_bias_drift_toward_offset_angle(self):
        # constant per-iterate offset: the naive estimate approaches
        # sin^2(theta + k_mu / 2) as the depth grows
        theta, k_mu = 0.5, 0.05
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(theta), model=GaussianNoiseParams(k_mu, 0.0)),
            max_depth=25, n_shot_base=1024,
            k_sigma_assumed=0.0, settings=("noisy_a",), replications=2, seed=7,
        )
        target = math.sin(theta + k_mu / 2) ** 2
        for rep in range(2):
            final = run_qae_trial(config, "noisy_a", rep)[-1]
            assert abs(final.a_hat - target) < 0.02


class TestMisspecification:
    def test_sweep_factors(self):
        out = misspecification_sweep(A1_GAUSS, factors=(0.5, 1.0, 2.0))
        assert sorted(out) == [0.5, 1.0, 2.0]
        assert out[1.0] == run_monte_carlo(A1_GAUSS)
        for curves in out.values():
            assert len(curves) == 2 * len(A1_GAUSS.settings)

    def test_bad_factor_is_refused_before_any_draw(self, monkeypatch):
        # 0.055 * 1e6 makes the correction singular; the factors before it
        # used to run in full first.
        drawn = []
        monkeypatch.setattr("naqae.device._count_ones", lambda *args: drawn.append(args) or 0)
        with pytest.raises(ValueError, match=r"^correction is singular at p_coh_tilde == 0$"):
            misspecification_sweep(replace(A1_GAUSS, max_depth=3), factors=(0.5, 1.0, 1e6))
        assert drawn == []


class TestConfigFromJson:
    def test_full_document(self):
        doc = {
            "device": {"theta": math.pi / 6, "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": 0.055}},
            "max_depth": 12,
            "n_shot_base": 20,
            "k_sigma_assumed": 0.055,
            "settings": ["noisy_a", "noise_aware"],
            "replications": 5,
            "seed": 9,
        }
        config = config_from_json(doc)
        assert config.device.model == GaussianNoiseParams(0.0, 0.055)
        assert config.settings == ("noisy_a", "noise_aware")

    def test_preset_and_defaults(self):
        doc = {
            "device": {"preset": "A1", "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": 0.03}},
            "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1,
        }
        config = config_from_json(doc)
        assert config.device.amp.theta == math.pi / 6
        assert config.k_sigma_assumed == 0.03  # defaults to the device's true rate
        assert config.settings == ("noisy_a", "noisy_b", "noise_aware", "noiseless")

    def test_depolarizing_default_rate(self):
        doc = {
            "device": {"theta": 0.5, "noise": {"kind": "depolarizing", "p_coh": 0.9}},
            "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1,
        }
        config = config_from_json(doc)
        assert config.k_sigma_assumed == pytest.approx(-math.log(0.9) / 2)

    def test_errors(self):
        base = {"device": {"theta": 0.5}, "max_depth": 4, "n_shot_base": 10,
                "replications": 2, "seed": 1}
        config_from_json(base)
        # The truth is the device's amplitude; a document may not set it.
        with pytest.raises(ValueError, match=r"unknown field\(s\) \['truth_a'\]"):
            config_from_json({**base, "truth_a": 0.25})
        with pytest.raises(ValueError):
            config_from_json({**base, "device": {}})
        with pytest.raises(ValueError):
            config_from_json({**base, "device": {"theta": 0.5, "preset": "A1"}})
        with pytest.raises(ValueError):
            config_from_json({**base, "device": {"theta": 0.5, "noise": {"kind": "thermal"}}})
        missing = dict(base)
        del missing["seed"]
        with pytest.raises(ValueError):
            config_from_json(missing)
