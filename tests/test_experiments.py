"""Tests for the Monte Carlo comparison harness."""

import math
from dataclasses import replace

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
    run_monte_carlo,
    run_qae_trial,
)
from naqae.experiments import _setting_tallies

A1_GAUSS = ExperimentConfig(
    device=SimulatedDevice(amp=Amplitude(math.pi / 6), model=GaussianNoiseParams(0.0, 0.055)),
    truth_a=0.25,
    max_depth=12,
    n_shot_base=20,
    k_sigma_assumed=0.055,
    settings=("noisy_a", "noisy_b", "noise_aware", "noiseless"),
    replications=3,
    seed=101,
)


def depth_curves(curves):
    return {c.setting: [r for _, r in c.points] for c in curves if c.x_kind == "depth"}


class TestConfig:
    def test_validation(self):
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, truth_a=0.2, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        ExperimentConfig(**good)
        for bad in (
            {"truth_a": 1.5},
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
        good = dict(device=dev, truth_a=0.2, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(**{**good, field: bad})
        assert getattr(ExperimentConfig(**{**good, field: np.int64(2)}), field) == 2

    def test_depths_past_the_search_limit(self):
        # Depths 0..M have (M + 1)(M + 2) zeros: 1,047,552 at 1022, 1,049,600 at 1023
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, truth_a=0.2, max_depth=1022, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1, seed=0)
        ExperimentConfig(**good)
        with pytest.raises(ValueError, match=r"^depths with 1049600 zeros .* limit of 1048576"):
            ExperimentConfig(**{**good, "max_depth": 1023})
        with pytest.raises(ValueError, match=f"^depths with {2**126 + 2**63} zeros"):
            ExperimentConfig(**{**good, "max_depth": np.int64(2**63 - 1)})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, 2**64, 2**64 + 5, -(2**63) - 1, "7"])
    def test_seed_must_be_an_integer(self, bad):
        dev = SimulatedDevice(amp=Amplitude(0.5))
        good = dict(device=dev, truth_a=0.2, max_depth=3, n_shot_base=10,
                    k_sigma_assumed=0.0, replications=1)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            ExperimentConfig(**good, seed=bad)
        for seed in (-(2**63), 2**64 - 1, np.uint64(2**64 - 1), np.int8(-3)):
            ExperimentConfig(**good, seed=seed)

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
            device=SimulatedDevice(amp=Amplitude(0.5)), truth_a=0.2, max_depth=2,
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
            truth_a=math.sin(0.6) ** 2, max_depth=5, n_shot_base=12,
            k_sigma_assumed=0.04, replications=4, seed=9,
        )
        expected = {}
        for setting in config.settings:
            errs = np.array(
                [
                    [e.a_hat - config.truth_a for e in run_qae_trial(config, setting, rep)]
                    for rep in range(config.replications)
                ]
            )
            expected[setting] = [float(r) for r in np.sqrt(np.mean(errs**2, axis=0))]
        assert depth_curves(run_monte_carlo(config)) == expected

    def test_batch_sample_equals_per_record_substreams(self):
        # Every replication's sweep is sampled in one batch, as a (replications
        # x depths) tally array; tally (rep, m) must count the uniforms below
        # p1 among the first N_m of the stream that numpy's SeedSequence gives
        # the path (replication seed, m).
        config = replace(A1_GAUSS, max_depth=6, replications=5, seed=-3)
        for setting in config.settings:
            schedule, tallies = _setting_tallies(config, setting, range(config.replications))
            assert tallies.shape == (config.replications, len(schedule.entries))
            model = None if setting == "noiseless" else config.device.model
            device = replace(config.device, model=model)
            for rep, row in enumerate(tallies.tolist()):
                seed_seq = np.random.SeedSequence(
                    [config.seed % 2**64, rep, SETTINGS.index(setting)]
                )
                seed = int(seed_seq.generate_state(1, np.uint64)[0])
                expected = []
                for m, n in schedule.entries:
                    philox = np.random.Philox(np.random.SeedSequence([seed, m]))
                    stream = np.random.Generator(philox)
                    expected.append(int(np.count_nonzero(stream.random(n) < device.p1(m))))
                assert row == expected, (setting, rep)

    def test_single_replication_rmse_is_absolute_error(self):
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.5), model=DepolParams(0.95)),
            truth_a=math.sin(0.5) ** 2, max_depth=4, n_shot_base=30,
            k_sigma_assumed=0.02, settings=("noisy_a",), replications=1, seed=5,
        )
        curve = depth_curves(run_monte_carlo(config))["noisy_a"]
        estimates = run_qae_trial(config, "noisy_a", 0)
        for rmse, est in zip(curve, estimates):
            assert rmse == pytest.approx(abs(est.a_hat - config.truth_a), rel=1e-12)

    def test_noiseless_rmse_falls(self):
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(0.7)), truth_a=math.sin(0.7) ** 2,
            max_depth=8, n_shot_base=4096, k_sigma_assumed=0.0,
            settings=("noiseless",), replications=4, seed=11,
        )
        rmse = depth_curves(run_monte_carlo(config))["noiseless"]
        assert rmse[-1] < rmse[0] / 4
        assert rmse[4] < rmse[0]

    def test_setting_ordering_small_scale(self):
        config = ExperimentConfig(
            device=A1_GAUSS.device, truth_a=0.25, max_depth=12, n_shot_base=20,
            k_sigma_assumed=0.055, settings=("noisy_a", "noisy_b", "noise_aware"),
            replications=15, seed=101,
        )
        rmse = depth_curves(run_monte_carlo(config))
        assert rmse["noise_aware"][12] < rmse["noisy_b"][12] < rmse["noisy_a"][12]
        assert rmse["noisy_a"][12] >= rmse["noisy_a"][2]

    def test_fully_depolarized_naive_plateaus(self):
        # p_coh^m -> 0 by m = 12: the naive estimator cannot converge
        config = ExperimentConfig(
            device=SimulatedDevice(amp=Amplitude(math.pi / 6), model=DepolParams(0.7)),
            truth_a=0.25, max_depth=12, n_shot_base=20,
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
            truth_a=math.sin(theta) ** 2, max_depth=25, n_shot_base=1024,
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


class TestConfigFromJson:
    def test_full_document(self):
        doc = {
            "device": {"theta": math.pi / 6, "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": 0.055}},
            "truth_a": 0.25,
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
        assert config.truth_a == 0.25

    def test_preset_and_defaults(self):
        doc = {
            "device": {"preset": "A1", "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": 0.03}},
            "max_depth": 4, "n_shot_base": 10, "replications": 2, "seed": 1,
        }
        config = config_from_json(doc)
        assert config.device.amp.theta == math.pi / 6
        assert config.truth_a == pytest.approx(0.25, abs=1e-12)
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
