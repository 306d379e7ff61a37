"""Tests for schedules, variance bounds, count correction, and the MLE."""

import math

import numpy as np
import pytest

from naqae import estimation
from naqae import (
    Amplitude,
    AmplitudeEstimate,
    DepolParams,
    GaussianNoiseParams,
    ShotRecord,
    ShotSchedule,
    SimulatedDevice,
    binomial_std_bound,
    correct_counts,
    correct_frequency,
    depol_equivalent,
    estimate_amplitude,
    estimate_prefixes,
    p1_depolarizing,
    run_depth_sweep,
    shot_schedule,
    worst_case_variance,
)

# Noise-aware shot counts for base 20 and k_sigma = 0.055, m = 0..12.
BASE20_SCHEDULE = (20, 24, 29, 33, 38, 42, 46, 51, 55, 60, 64, 68, 73)


class TestBinomialBound:
    def test_reference_shot_count(self):
        assert f"{binomial_std_bound(8192):.3g}" == "0.00552"

    def test_single_shot(self):
        assert binomial_std_bound(1) == 0.5

    def test_four_shots(self):
        assert binomial_std_bound(4) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_std_bound(0)


class TestWorstCaseVariance:
    def test_zero_depth(self):
        vb = worst_case_variance(0, 20, 0.3)
        assert vb.total == 1 / 80

    def test_deep_entry(self):
        vb = worst_case_variance(12, 73, 0.055)
        assert vb.total == pytest.approx(0.012465753424657534, abs=1e-15)

    def test_matches_binomial_bound_without_noise(self):
        vb = worst_case_variance(50, 8192, 0.0)
        assert vb.total == pytest.approx(binomial_std_bound(8192) ** 2, rel=1e-15)

    def test_decomposition(self):
        vb = worst_case_variance(7, 100, 0.02)
        assert vb.sigma2 == pytest.approx(0.14)
        assert vb.sigma2_tilde == pytest.approx(1 / 400)
        assert vb.total == pytest.approx(vb.sigma2 / 100 + vb.sigma2_tilde, rel=1e-15)
        assert vb.sigma2 >= 0 and vb.sigma2_tilde >= 0 and vb.total >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_variance(2, 0, 0.1)
        for bad_k_sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                worst_case_variance(2, 10, bad_k_sigma)


class TestShotSchedule:
    def test_base20_sequence(self):
        sched = shot_schedule(list(range(13)), 20, 0.055, rounding="nearest")
        assert sched.shots == BASE20_SCHEDULE
        assert sched.depths == tuple(range(13))

    def test_zero_rate_is_flat(self):
        sched = shot_schedule([0, 3, 9], 20, 0.0)
        assert sched.shots == (20, 20, 20)

    def test_zero_depth_factor_is_one(self):
        assert shot_schedule([0], 7, 0.9).shots == (7,)

    def test_rounding_up(self):
        sched = shot_schedule(list(range(4)), 20, 0.055, rounding="up")
        assert sched.shots == (20, 25, 29, 34)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k_sigma = rng.uniform(0.0, 0.3)
            base = int(rng.integers(1, 200))
            shots = shot_schedule(list(range(30)), base, k_sigma).shots
            assert all(a <= b for a, b in zip(shots, shots[1:]))

    def test_variance_matching_with_one_shot_slack(self):
        # each entry restores the noiseless variance once one shot of
        # rounding slack is allowed
        for base, k_sigma in [(20, 0.055), (13, 0.17), (100, 0.01)]:
            sched = shot_schedule(list(range(25)), base, k_sigma)
            for m, n in sched:
                assert (4 * k_sigma * m + 1) / (4 * (n + 1)) <= 1 / (4 * base)

    def test_validation(self):
        with pytest.raises(ValueError):
            shot_schedule([0, 1], 0, 0.1)
        for bad_k_sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                shot_schedule([0, 1], 10, bad_k_sigma)
        with pytest.raises(ValueError):
            shot_schedule([0, 1], 10, 0.1, rounding="down")
        with pytest.raises(ValueError):
            shot_schedule([1, 1], 10, 0.1)  # depths must strictly increase

    def test_schedule_type_invariants(self):
        with pytest.raises(ValueError):
            ShotSchedule(entries=((0, 5), (0, 6)))
        with pytest.raises(ValueError):
            ShotSchedule(entries=((0, 0),))


class TestCorrection:
    def test_inverts_forward_example(self):
        got = correct_frequency(0.2975, 2, DepolParams(0.9))
        assert got.value == pytest.approx(0.25, abs=1e-12)
        assert not got.clamped

    def test_identity_at_full_coherence(self):
        rec = ShotRecord(m=9, shots=123, ones=77)
        got = correct_counts(rec, DepolParams(1.0))
        assert got.value == 77 and not got.clamped

    def test_negative_preclamp_flags(self):
        rec = ShotRecord(m=5, shots=100, ones=0)
        got = correct_counts(rec, DepolParams(0.9))
        assert got.raw == pytest.approx(-34.675439042151424, rel=1e-12)
        assert got.value == 0.0 and got.clamped

    def test_singular_at_zero_coherence(self):
        with pytest.raises(ValueError):
            correct_counts(ShotRecord(m=1, shots=10, ones=5), DepolParams(0.0))

    def test_round_trip(self):
        # forward depolarizing map then correction recovers the noiseless
        # frequency; regime chosen so p_coh^m stays away from zero
        rng = np.random.default_rng(4)
        for _ in range(300):
            theta = rng.uniform(0.0, math.pi / 2)
            m = int(rng.integers(0, 31))
            depol = DepolParams(rng.uniform(0.8, 1.0))
            p1 = p1_depolarizing(Amplitude(theta), m, depol)
            clean = math.sin((2 * m + 1) * theta) ** 2
            assert correct_frequency(p1, m, depol).raw == pytest.approx(clean, abs=1e-12)


class TestEstimateAmplitude:
    def test_all_ones_at_zero_depth(self):
        est = estimate_amplitude([ShotRecord(m=0, shots=100, ones=100)])
        assert est.theta_hat == pytest.approx(math.pi / 2, abs=1e-12)
        assert est.a_hat == pytest.approx(1.0, abs=1e-12)

    def test_all_zeros_at_zero_depth(self):
        est = estimate_amplitude([ShotRecord(m=0, shots=100, ones=0)])
        assert est.theta_hat == pytest.approx(0.0, abs=1e-12)

    def test_exact_noiseless_records(self):
        # tallies equal to shots * sin^2((2m+1) pi/6) exactly
        theta = math.pi / 6
        records = [
            ShotRecord(m=m, shots=400, ones=round(400 * math.sin((2 * m + 1) * theta) ** 2))
            for m in range(5)
        ]
        est = estimate_amplitude(records)
        assert abs(est.theta_hat - theta) <= 2e-4  # grid resolution
        assert est.method == "naive" and est.n_clamped == 0
        assert not est.flat_likelihood

    def test_tie_breaks_to_smallest_theta(self):
        # sin^2(3 theta) = 1/2 at theta = pi/12, pi/4, 5 pi/12: all are exact
        # maxima of the single-depth likelihood
        est = estimate_amplitude([ShotRecord(m=1, shots=100, ones=50)])
        assert est.theta_hat == pytest.approx(math.pi / 12, abs=1e-3)

    def test_deterministic(self):
        records = [ShotRecord(m=m, shots=50, ones=(m * 17) % 50) for m in range(6)]
        a = estimate_amplitude(records)
        b = estimate_amplitude(records)
        assert a == b

    def test_corrected_requires_params(self):
        with pytest.raises(ValueError):
            estimate_amplitude([ShotRecord(m=0, shots=10, ones=5)], method="corrected")

    def test_empty_records(self):
        with pytest.raises(ValueError):
            estimate_amplitude([])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estimate_amplitude([ShotRecord(m=0, shots=10, ones=5)], method="bayes")

    def test_consistency_at_large_shots(self):
        # noiseless device, 1e5 shots per depth m = 0..4: theta error < 1e-3
        theta = 0.7
        dev = SimulatedDevice(amp=Amplitude(theta), seed=101)
        records = run_depth_sweep(dev, list(range(5)), [100_000] * 5)
        est = estimate_amplitude(records)
        assert abs(est.theta_hat - theta) < 1e-3

    def test_corrected_beats_naive_on_depolarized_device(self):
        # mirrors the benchmark: same device, noise-aware schedule, correction
        # with the true parameter; averaged over 20 seeds
        depol = depol_equivalent(GaussianNoiseParams(0.0, 0.055))
        sched = shot_schedule(list(range(13)), 20, 0.055)
        naive_err, corrected_err = [], []
        for seed in range(20):
            dev = SimulatedDevice(amp=Amplitude(math.pi / 6), model=depol, seed=seed)
            records = run_depth_sweep(dev, list(sched.depths), list(sched.shots))
            naive = estimate_amplitude(records, method="naive")
            corrected = estimate_amplitude(records, method="corrected", depol=depol)
            naive_err.append(abs(naive.a_hat - 0.25))
            corrected_err.append(abs(corrected.a_hat - 0.25))
        assert np.mean(corrected_err) < np.mean(naive_err)

    def test_clamping_surfaces_on_estimate(self):
        depol = DepolParams(0.8)
        records = [ShotRecord(m=10, shots=50, ones=0), ShotRecord(m=0, shots=50, ones=12)]
        est = estimate_amplitude(records, method="corrected", depol=depol)
        assert est.n_clamped == 1


# ---------------------------------------------------------------------------
# Reference: the per-call estimator that predates the cached likelihood
# tables.  It rebuilds the whole grid for every prefix, so it is slow, but the
# prefix kernel must agree with it exactly, field for field.


def _reference_golden_max(f, lo, hi, tol):
    a, b = lo, hi
    c = b - estimation._GOLDEN * (b - a)
    d = a + estimation._GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - estimation._GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + estimation._GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _reference_log_likelihood(theta, ms, counts, shots):
    theta = np.asarray(theta, dtype=float)
    p = np.sin(np.multiply.outer(theta, 2.0 * ms + 1.0)) ** 2
    np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
    return np.log(p) @ counts + np.log1p(-p) @ (shots - counts)


def reference_estimate(records, method, depol):
    ms = np.array([r.m for r in records], dtype=float)
    shots = np.array([r.shots for r in records], dtype=float)
    n_clamped = 0
    if method == "corrected":
        corrections = [correct_counts(r, depol) for r in records]
        counts = np.array([c.value for c in corrections])
        n_clamped = sum(c.clamped for c in corrections)
    else:
        counts = np.array([r.ones for r in records], dtype=float)

    n = estimation._GRID_POINTS
    thetas = np.linspace(0.0, math.pi / 2.0, n)
    loglik = _reference_log_likelihood(thetas, ms, counts, shots)
    best = int(np.argmax(loglik))
    span = float(loglik.max() - loglik.min())
    flat = span <= estimation._FLAT_TOL * max(1.0, abs(float(loglik.max())))

    def objective(theta):
        return float(_reference_log_likelihood(theta, ms, counts, shots))

    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, n - 1)]
    refined = _reference_golden_max(objective, float(lo), float(hi), estimation._REFINE_TOL)
    theta_hat, top = float(thetas[best]), objective(float(thetas[best]))
    refined_value = objective(refined)
    if refined_value > top:
        theta_hat, top = refined, refined_value
    return AmplitudeEstimate(
        theta_hat=theta_hat,
        log_likelihood=top,
        method=method,
        n_clamped=n_clamped,
        flat_likelihood=flat,
    )


LINEAR_DEPTHS = tuple(range(13))
EXPONENTIAL_DEPTHS = (0,) + tuple(2**i for i in range(13))  # 0, 1, 2, 4, ..., 4096
# At m = 4096 this p~^m is about 1e-289, still a normal float, and corrected
# counts clamp on almost every draw.
CLAMPING = (
    [ShotRecord(m=m, shots=5, ones=m % 6) for m in EXPONENTIAL_DEPTHS],
    "corrected",
    DepolParams(0.85),
)


class TestPrefixKernel:
    def test_matches_reference_on_every_prefix(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def datasets(draw):
            depths = draw(
                st.one_of(
                    st.sampled_from([LINEAR_DEPTHS, EXPONENTIAL_DEPTHS]),
                    st.lists(st.integers(0, 60), min_size=1, max_size=6),
                )
            )
            records = []
            for m in depths:
                shots = draw(st.integers(1, 30))
                records.append(ShotRecord(m=m, shots=shots, ones=draw(st.integers(0, shots))))
            if draw(st.booleans()):
                return records, "corrected", DepolParams(draw(st.floats(0.85, 1.0)))
            return records, "naive", None

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(datasets())
        @hypothesis.example(CLAMPING)
        def check(data):
            records, method, depol = data
            prefixes = estimate_prefixes(records, method, depol)
            assert len(prefixes) == len(records)
            for k, estimate in enumerate(prefixes, start=1):
                assert estimate == reference_estimate(records[:k], method, depol)
            assert estimate_amplitude(records, method, depol) == prefixes[-1]

        check()

    def test_clamping_example_clamps(self):
        estimates = estimate_prefixes(*CLAMPING)
        assert [e.n_clamped for e in estimates] == sorted(e.n_clamped for e in estimates)
        assert estimates[-1].n_clamped >= len(EXPONENTIAL_DEPTHS) // 2

    def test_cached_tables_are_shared_and_read_only(self):
        tables = estimation._log_tables((0, 1, 2))
        assert all(a is b for a, b in zip(tables, estimation._log_tables((0, 1, 2))))
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_prefixes([])
        with pytest.raises(ValueError):
            estimate_prefixes([ShotRecord(m=0, shots=10, ones=5)], method="corrected")
