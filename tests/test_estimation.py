"""Tests for schedules, variance bounds, count correction, and the MLE."""

import functools
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
    correct_counts,
    correct_frequency,
    depol_equivalent,
    estimate_amplitude,
    p1_depolarizing,
    run_depth_sweep,
    shot_schedule,
    worst_case_variance,
)
from naqae.device import _sample_tallies

# Noise-aware shot counts for base 20 and k_sigma = 0.055, m = 0..12.
BASE20_SCHEDULE = (20, 24, 29, 33, 38, 42, 46, 51, 55, 60, 64, 68, 73)


class TestBinomialBound:
    # the binomial bound is worst_case_variance's noiseless case: sigma2_tilde = 1 / (4 n)
    def test_reference_shot_count(self):
        assert f"{math.sqrt(worst_case_variance(0, 8192, 0.0).sigma2_tilde):.3g}" == "0.00552"

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_variance(0, 0, 0.0)


class TestWorstCaseVariance:
    def test_zero_depth(self):
        vb = worst_case_variance(0, 20, 0.3)
        assert vb.total == 1 / 80

    def test_zero_depth_at_a_huge_rate(self):
        # k_sigma * m is formed first: 4 * 1e308 would overflow, and inf * 0 is NaN
        vb = worst_case_variance(0, 5, 1e308)
        assert (vb.sigma2, vb.total) == (0.0, 0.05)

    def test_non_finite_total_names_its_depth(self):
        # 4 * 1e308 overflows at depth 1, where shot_schedule refuses the same rate
        with pytest.raises(ValueError, match=r"^variance bound at depth 1 must be finite, got inf$"):
            worst_case_variance(1, 5, 1e308)
        assert worst_case_variance(0, 5, 1e308).total == 0.05

    def test_deep_entry(self):
        vb = worst_case_variance(12, 73, 0.055)
        assert vb.total == pytest.approx(0.012465753424657534, abs=1e-15)

    def test_matches_binomial_bound_without_noise(self):
        # a Bernoulli variance is at most 1/4, so an n-shot frequency's is 1 / (4 n)
        vb = worst_case_variance(50, 8192, 0.0)
        assert vb.total == vb.sigma2_tilde == 1 / (4 * 8192)

    def test_single_shot(self):
        assert math.sqrt(worst_case_variance(3, 1, 0.0).sigma2_tilde) == 0.5

    def test_four_shots(self):
        assert math.sqrt(worst_case_variance(3, 4, 0.0).sigma2_tilde) == 0.25

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

    @pytest.mark.parametrize("rounding", ["nearest", "up"])
    def test_counts_past_int64_name_their_depth(self, rounding):
        # (4 * 0.1 * m + 1) * 2**62 reaches 2**63 first at depth 3
        with pytest.raises(ValueError, match="depth 3 must be finite and < 2\\*\\*63"):
            shot_schedule([0, 1, 2, 3], 2**62, 0.1, rounding)
        # 2**63 - 1 rounds up to the float 2**63
        with pytest.raises(ValueError, match="depth 0 .* got 9.223372036854776e\\+18"):
            shot_schedule([0, 1], 2**63 - 1, 0.1, rounding)
        # depth 0 scales by 1 at any rate; depth 1's 4 * 1e308 overflows
        assert shot_schedule([0], 5, 1e308, rounding).shots == (5,)
        with pytest.raises(ValueError, match="depth 1 .* got inf"):
            shot_schedule([0, 1], 2, 1e308, rounding)
        # the largest double below 2**63 is a count
        assert shot_schedule([0], 2**63 - 1024, 0.0, rounding).shots == (2**63 - 1024,)

    def test_schedule_type_invariants(self):
        with pytest.raises(ValueError):
            ShotSchedule(entries=((0, 5), (0, 6)))
        with pytest.raises(ValueError):
            ShotSchedule(entries=((0, 0),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ShotSchedule(((0, 1.5),)),
        lambda: ShotSchedule(((0, math.nan),)),
        lambda: shot_schedule([0], 2.5, 0.1),
        lambda: worst_case_variance(1, 2.5, 0.1),
        lambda: worst_case_variance(0, 2.5, 0.0),
    ],
    ids=["schedule_half", "schedule_nan", "base_half", "variance_half", "bound_half"],
)
def test_shot_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer in the signed 64-bit range"):
        call()


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

    def test_gaussian_params_are_refused(self):
        with pytest.raises(ValueError, match="requires DepolParams, got GaussianNoiseParams"):
            correct_counts(ShotRecord(m=1, shots=10, ones=5), GaussianNoiseParams(0.0, 0.1))

    @pytest.mark.parametrize("p1_hat", [math.nan, 2.0, -0.1, 1.0 + 1e-12, math.inf])
    def test_frequency_outside_the_unit_interval_is_refused(self, p1_hat):
        # NaN used to give CorrectionResult(nan, nan, True), and 2.0 a clamped 1.0.
        with pytest.raises(ValueError, match=rf"^p1_hat must lie in \[0, 1\], got {p1_hat!r}$"):
            correct_frequency(p1_hat, 1, DepolParams(0.9))

    def test_underflowing_coherence_names_depth(self):
        # 0.5 ** 4096 underflows to 0.0; p~^m at m = 4096 for p~ = 0.85 does not
        with pytest.raises(ValueError, match=r"depth 4096.*0\.5\*\*4096"):
            correct_counts(ShotRecord(m=4096, shots=10, ones=5), DepolParams(0.5))
        with pytest.raises(ValueError, match="depth 4096"):
            correct_frequency(0.5, 4096, DepolParams(0.5))
        got = correct_counts(ShotRecord(m=4096, shots=10, ones=6), DepolParams(0.85))
        assert got.value == 10.0 and got.clamped

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

    def test_corrected_refuses_gaussian_params(self):
        with pytest.raises(ValueError, match="requires DepolParams, got GaussianNoiseParams"):
            estimate_amplitude(
                [ShotRecord(m=0, shots=10, ones=5)], "corrected", GaussianNoiseParams(0.0, 0.1)
            )

    def test_naive_refuses_params(self):
        with pytest.raises(ValueError, match="naive estimation takes no depolarizing"):
            estimate_amplitude([ShotRecord(m=0, shots=10, ones=5)], "naive", DepolParams(0.5))

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

    def test_record_order_does_not_matter(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def permuted(draw):
            records = []
            for m in draw(st.lists(st.integers(0, 60), min_size=1, max_size=6)):
                shots = draw(st.integers(1, 1000))
                records.append(ShotRecord(m=m, shots=shots, ones=draw(st.integers(0, shots))))
            depol = draw(st.one_of(st.none(), st.floats(0.85, 1.0).map(DepolParams)))
            return records, draw(st.permutations(records)), depol

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(permuted())
        def check(data):
            records, shuffled, depol = data
            method = "naive" if depol is None else "corrected"
            assert estimate_amplitude(shuffled, method, depol) == estimate_amplitude(
                records, method, depol
            )

        check()

    def test_clamping_surfaces_on_estimate(self):
        depol = DepolParams(0.8)
        records = [ShotRecord(m=10, shots=50, ones=0), ShotRecord(m=0, shots=50, ones=12)]
        est = estimate_amplitude(records, method="corrected", depol=depol)
        assert est.n_clamped == 1

    def test_depths_past_the_search_limit(self):
        # 2m + 2 zeros per depth: 2 + 2,000,002 is past 2**20, 2 + 1,000,002 is not
        records = [ShotRecord(m=0, shots=10, ones=2), ShotRecord(m=10**6, shots=10, ones=7)]
        with pytest.raises(ValueError, match="2000004 zeros .* limit of 1048576"):
            estimate_amplitude(records)
        records[1] = ShotRecord(m=500_000, shots=10, ones=7)
        assert estimate_amplitude(records).n_clamped == 0

    def test_no_ones_in_two_to_the_53_shots_past_level_0(self):
        # Depth 1024 lies past level 0, and its zero count in 2**53 shots
        # made the saturated bound 0 * ln(0) = nan, which pruned the right
        # fringe: the estimate was 5.9e-8.  Within the guard window that
        # holds the maximum, 2**53 shots resolve theta to about 1e-13; the
        # log-likelihood lands 5.4e-12 relative short of the oracle's.
        depths = EXPONENTIAL_DEPTHS[:12]
        ones = [round(100 * math.sin((2 * m + 1) * 0.721) ** 2) for m in depths[:-1]] + [0]
        shots = [100] * (len(depths) - 1) + [2**53]
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        assert estimation._level0_length(depths) == 8
        estimate = estimate_amplitude(records)
        ((theta, best),) = dense_mle(depths, [ones], np.subtract([shots], [ones]))
        assert estimate.theta_hat == pytest.approx(theta, abs=1e-12)
        assert estimate.log_likelihood == pytest.approx(best, rel=1e-10)

    def test_two_to_the_53_shots_reach_the_dense_maximum(self):
        # The dataset of test_no_ones_in_two_to_the_53_shots_past_level_0.
        # The maximum lies on a guard-window edge of the 2**53-shot depth, and
        # the refinement's bracket closes by width around it.  Its midpoint,
        # 0.7206191059967622, lies 1.1e-13 outside the window, and the
        # log-likelihood there was -9502.4815 against the oracle's -9499.5477;
        # the bracket's best point is within rounding of the oracle.
        depths = EXPONENTIAL_DEPTHS[:12]
        ones = [round(100 * math.sin((2 * m + 1) * 0.721) ** 2) for m in depths[:-1]] + [0]
        shots = [100] * (len(depths) - 1) + [2**53]
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        estimate = estimate_amplitude(records)
        ((_, best),) = dense_mle(depths, [ones], np.subtract([shots], [ones]))
        assert estimate.log_likelihood == pytest.approx(best, rel=1e-9)

    def test_piece_split_by_a_zero_inside_the_grid_bracket(self):
        # The sin zero of depth 91 at 42 pi / 183 splits the peak near 0.721:
        # the lower half reaches L = -43,530,557.24 at 0.7210273, the higher
        # one -43,522,235.50 at 0.72100013.  A 10,000-point grid, refined
        # inside its maximum's bracket, kept the lower half.
        depths, shots, ones = (45, 57, 91, 100), (20, 1, 10**8, 10**8), (3, 1, 1461, 15722826)
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        estimate = estimate_amplitude(records)
        thetas = np.linspace(0.7209, 0.7211, 200_001)
        best = guarded_log_likelihood(thetas, depths, ones, np.subtract(shots, ones)).max()
        assert estimate.log_likelihood >= best - 1e-9 * abs(best)

    def test_maximum_inside_a_guard_window(self):
        # Depth 17 corrects to 0 ones of 10^8, so its term is about -10^8
        # sin^2(35 theta) and the maximum lies within a guard window of one
        # of its sin zeros, where p < 1e-12 and the guarded term is constant
        # while depth 161's term still slopes.  Newton on the guard-free score
        # stops at the exact zero instead (-7.4377 at 0.718 in the grid's
        # search).  The reference scans every window densely.
        depths, shots, ones = (17, 161), (10**8, 20), (1040942, 3)
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        depol = DepolParams(0.998646)
        estimate = estimate_amplitude(records, method="corrected", depol=depol)
        assert estimate.n_clamped == 1
        counts = np.array([correct_counts(r, depol).value for r in records])
        half_width = math.asin(1e-6) / 35
        centres = np.arange(18) * math.pi / 35  # the sin zeros of depth 17 in [0, pi/2]
        thetas = np.add.outer(centres, np.linspace(-half_width, half_width, 20_001)).ravel()
        thetas = thetas[(thetas >= 0.0) & (thetas <= math.pi / 2)]
        values = guarded_log_likelihood(thetas, depths, counts, np.subtract(shots, counts))
        best = values.max()
        assert best == pytest.approx(-4.7991456, rel=1e-7)
        assert thetas[values.argmax()] == pytest.approx(0.3590392, abs=1e-7)
        assert estimate.log_likelihood >= best - 1e-9 * abs(best)
        assert abs(35 * estimate.theta_hat - 4 * math.pi) <= math.asin(1e-6)


# ---------------------------------------------------------------------------
# Reference: a dense-grid maximiser of the guarded likelihood, independent of
# the estimator's piece search.  It puts points_per_fringe points in every
# period pi / k of the deepest term, takes every grid local maximum within a
# curvature margin of the grid maximum, and refines each by golden section on
# the guarded likelihood alone (no score).  The margin is four times the most
# the log-likelihood can drop over half a grid step near a peak, 0.5 I (h/2)^2,
# with I the Fisher information sum 4 N k^2.


def guarded_log_likelihood(thetas, depths, counts, misses):
    """The guarded log-likelihood at each of ``thetas``."""
    p = np.sin(np.multiply.outer(thetas, 2.0 * np.array(depths, dtype=float) + 1.0)) ** 2
    np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
    return np.log(p) @ np.asarray(counts, dtype=float) + np.log1p(-p) @ np.asarray(misses, dtype=float)


def dense_mle(depths, counts, misses, points_per_fringe=32, tol=1e-13):
    """The global maximum ``(theta, value)`` of each row's guarded likelihood, on one grid.

    The grid and the golden-section search serve every row at once: each
    row's candidates carry that row's counts.
    """
    ks = 2.0 * np.array(depths, dtype=float) + 1.0
    thetas = np.linspace(0.0, math.pi / 2.0, int(points_per_fringe * ks.max() / 2.0) + 1)
    p = np.sin(np.multiply.outer(thetas, ks)) ** 2
    np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
    counts, misses = np.asarray(counts, dtype=float), np.asarray(misses, dtype=float)
    grid = counts @ np.log(p).T + misses @ np.log1p(-p).T
    del p
    step = thetas[1] - thetas[0]
    margin = 4.0 * 0.5 * np.sum(4.0 * (counts + misses) * ks**2, axis=1) * (step / 2.0) ** 2
    peak = np.ones(grid.shape, dtype=bool)
    peak[:, 1:] &= grid[:, 1:] >= grid[:, :-1]
    peak[:, :-1] &= grid[:, :-1] >= grid[:, 1:]
    rows, at = np.nonzero(peak & (grid >= grid.max(axis=1, keepdims=True) - margin[:, None]))
    a, b = thetas[np.maximum(at - 1, 0)], thetas[np.minimum(at + 1, len(thetas) - 1)]
    h, n = counts[rows], misses[rows]

    def objective(points):
        # Each candidate's guarded likelihood at its own point, on its own row
        p = np.sin(np.multiply.outer(points, ks)) ** 2
        np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
        return np.einsum("ij,ij->i", np.log(p), h) + np.einsum("ij,ij->i", np.log1p(-p), n)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a).max() > tol:
        left = fc >= fd  # the maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, kept_value = np.where(left, c, d), np.where(left, fc, fd)
        fresh = np.where(left, b - ratio * (b - a), a + ratio * (b - a))
        fresh_value = objective(fresh)
        c, fc = np.where(left, fresh, kept), np.where(left, fresh_value, kept_value)
        d, fd = np.where(left, kept, fresh), np.where(left, kept_value, fresh_value)
    theta = np.where(fc >= fd, c, d)
    values = objective(theta)
    maxima = []
    for i in range(len(counts)):
        mine = np.flatnonzero(rows == i)
        best = mine[values[mine].argmax()]
        maxima.append((float(theta[best]), float(values[best])))
    return maxima


def assert_global_maxima(depths, shots, ones, method, depol):
    """Each prefix estimate of the array core is the dense oracle's maximum and the lone estimate.

    ``shots`` and ``ones`` are (datasets x depths) integer arrays on
    ``depths``.  An estimate's value must be the guarded likelihood at its
    theta and reach the oracle's maximum within 1e-9 relative.  The oracle
    may trail it: a peak narrower than its margin assumes, as clamped
    corrected counts make, can fall between its grid points.  Where a
    prefix is in ``(m, shots, ones)`` order, ``estimate_amplitude`` on its
    records must give the same estimate.
    """
    arrays = estimation._estimates(depths, shots, ones, method, depol, False)
    assert arrays[0].shape == (len(ones), len(depths))
    estimates = estimation._as_estimates(method, arrays)
    batch = [[ShotRecord(*entry) for entry in zip(depths, row_shots, row_ones)]
             for row_shots, row_ones in zip(shots.tolist(), ones.tolist())]
    if method == "corrected":
        counts = np.array([[correct_counts(r, depol).value for r in records] for records in batch])
    else:
        counts = ones.astype(float)
    misses = shots - counts
    for k in range(1, len(depths) + 1):
        oracle = dense_mle(depths[:k], counts[:, :k], misses[:, :k])
        for i, (records, (_, best)) in enumerate(zip(batch, oracle)):
            estimate = estimates[i][k - 1]
            value = guarded_log_likelihood(
                np.array([estimate.theta_hat]), depths[:k], counts[i, :k], misses[i, :k]
            )[0]
            assert estimate.log_likelihood == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert estimate.log_likelihood >= best - 1e-9 * max(1.0, abs(best)), (k, estimate, best)
            if records[:k] == sorted(records[:k], key=lambda r: (r.m, r.shots, r.ones)):
                assert estimate_amplitude(records[:k], method, depol) == estimate


LINEAR_DEPTHS = tuple(range(13))
EXPONENTIAL_DEPTHS = (0,) + tuple(2**i for i in range(13))  # 0, 1, 2, 4, ..., 4096
# At m = 4096 this p~^m is about 1e-289, still a normal float, and corrected
# counts clamp on almost every draw.  (depths, shots, ones, method, depol)
CLAMPING = (
    EXPONENTIAL_DEPTHS,
    np.full((1, len(EXPONENTIAL_DEPTHS)), 5),
    np.array([[m % 6 for m in EXPONENTIAL_DEPTHS]]),
    "corrected",
    DepolParams(0.85),
)


def sampled_batch(theta, depths, shots, rows, depol=None):
    """Noiseless or depolarized sweeps at ``theta``, rows of seed 0's lane 0, as (depths, shots, ones)."""
    p1 = SimulatedDevice(amp=Amplitude(theta), model=depol).p1
    ones = _sample_tallies(p1, 0, 0, rows, depths, shots)
    return tuple(depths), np.tile(shots, (len(ones), 1)), ones


class TestPrefixKernel:
    def test_matches_reference_on_every_prefix(self):
        # Every prefix of every dataset against the dense oracle.  Deep: the
        # deep_mlae sweeps, whose prefixes pass level 0, and 64 sweeps at as
        # many thetas, whose deep steps bound each row on its own cells.
        # Criterion 9: flat and scheduled shots at sigma = 0.055, on depths
        # 0..12, and a batch of scheduled sweeps on depths 0..26, past level
        # 0.  Linear depths 0..40 at eight thetas: 19 prefixes past level 0.
        # Near ties: one to three shots on depths 0..3, with many modes of
        # equal or almost equal height, and the half-ones sweep symmetric
        # about pi/4.
        gaussian = depol_equivalent(GaussianNoiseParams(0.0, 0.055))
        sched = shot_schedule(list(LINEAR_DEPTHS), 20, 0.055)
        # Depths 0..26 on the paper schedule: prefixes past depth 21 leave level 0.
        long_sched = shot_schedule(list(range(27)), 20, 0.055)
        assert estimation._level0_length(long_sched.depths) == 22
        deep_depol = DepolParams(math.exp(-2e-4))
        deep = sampled_batch(0.721, EXPONENTIAL_DEPTHS, [100] * 14, range(6), deep_depol)
        rng = np.random.default_rng(25)
        ks = 2.0 * np.array(EXPONENTIAL_DEPTHS) + 1.0
        clean = np.sin(np.multiply.outer(rng.uniform(0.05, 1.5, 64), ks)) ** 2
        decay = deep_depol.p_coh_tilde ** np.array(EXPONENTIAL_DEPTHS, dtype=float)
        mixed, mixed_depolarized = (
            (EXPONENTIAL_DEPTHS, np.full(clean.shape, 100), rng.binomial(100, p))
            for p in (clean, decay * clean + 0.5 * (1.0 - decay))
        )
        linear = tuple(range(41))
        assert estimation._level0_length(linear) == 22
        thetas = rng.uniform(0.05, 1.5, 8)
        ones = rng.binomial(20, np.sin(np.multiply.outer(thetas, 2.0 * np.array(linear) + 1.0)) ** 2)
        wide = (linear, np.full(ones.shape, 20), ones)
        rng = np.random.default_rng(21)
        near_shots, near_ones = [], []
        for _ in range(24):
            near_shots.append(rng.integers(1, 4, 4).tolist())
            near_ones.append([int(rng.integers(0, n + 1)) for n in near_shots[-1]])
        near_ties = (tuple(range(4)), np.array(near_shots + [[2] * 4]), np.array(near_ones + [[1] * 4]))
        cases = [
            (*deep, "naive", None),
            (*deep, "corrected", deep_depol),
            (*mixed, "naive", None),
            (*mixed_depolarized, "corrected", deep_depol),
            (*sampled_batch(math.pi / 6, LINEAR_DEPTHS, [20] * 13, range(12), gaussian), "naive", None),
            (*sampled_batch(math.pi / 6, sched.depths, sched.shots, range(12), gaussian),
             "corrected", gaussian),
            (*sampled_batch(math.pi / 6, long_sched.depths, long_sched.shots, range(8), gaussian),
             "corrected", gaussian),
            (*wide, "naive", None),
            (*near_ties, "naive", None),
        ]
        for depths, shots, ones, method, depol in cases:
            assert_global_maxima(depths, shots, ones, method, depol)

    def test_random_batches_match_the_lone_estimates(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def batches(draw):
            depths = draw(
                st.one_of(
                    st.sampled_from([LINEAR_DEPTHS, EXPONENTIAL_DEPTHS]),
                    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(tuple),
                )
            )
            shots, ones = [], []
            for _ in range(draw(st.integers(1, 6))):
                shots.append([draw(st.integers(1, 30)) for _ in depths])
                ones.append([draw(st.integers(0, n)) for n in shots[-1]])
            batch = (depths, np.array(shots), np.array(ones))
            if draw(st.booleans()):
                return (*batch, "corrected", DepolParams(draw(st.floats(0.85, 1.0))))
            return (*batch, "naive", None)

        depths, shots, ones, method, depol = CLAMPING
        clamping = (depths, np.tile(shots, (3, 1)), np.concatenate((ones, shots - ones, ones)))
        # Half the shots ones at every depth: the likelihood is symmetric about
        # theta = pi/4, its maximum.  The other rows have an odd shot count,
        # so none of them is symmetric.
        symmetric = [ShotRecord(m=m, shots=20, ones=10) for m in LINEAR_DEPTHS]
        rng = np.random.default_rng(8)
        seventeen_shots, seventeen = np.full((17, 13), 21), rng.integers(0, 22, (17, 13))
        seventeen_shots[[0, 7, 8, 16]], seventeen[[0, 7, 8, 16]] = 20, 10
        assert estimate_amplitude(symmetric).theta_hat == pytest.approx(math.pi / 4, abs=1e-9)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(batches())
        @hypothesis.example(CLAMPING)
        @hypothesis.example((*clamping, method, depol))
        @hypothesis.example((LINEAR_DEPTHS, seventeen_shots, seventeen, "naive", None))
        def check(data):
            depths, shots, ones, method, depol = data
            assert_global_maxima(depths, shots, ones, method, depol)
            # A lone estimate sorts its records: it is the last prefix of the sorted row
            for row in zip(shots.tolist(), ones.tolist()):
                records = [ShotRecord(*entry) for entry in zip(depths, *row)]
                m, n, h = zip(*sorted(zip(depths, *row)))
                arrays = estimation._estimates(m, np.array([n]), np.array([h]), method, depol, False)
                lone = estimate_amplitude(records, method, depol)
                assert lone == estimation._as_estimates(method, arrays)[0][-1]

        check()

    def test_array_core_equals_the_record_api(self):
        # The core takes the arrays the Monte Carlo harness gives it: int64
        # ones, and shots per dataset or one shot count per depth.  Its
        # arrays must equal those of the float arrays that estimate_amplitude
        # builds from records, value for value; with last_only they must be
        # the last prefix's, and that is estimate_amplitude's estimate.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def batches(draw):
            depths = draw(
                st.one_of(
                    st.sampled_from([LINEAR_DEPTHS, EXPONENTIAL_DEPTHS]),
                    st.lists(st.integers(0, 400), min_size=1, max_size=6, unique=True).map(tuple),
                )
            )
            rows, top = draw(st.integers(1, 10)), draw(st.sampled_from([30, 10**6, 10**17]))
            per_depth = draw(st.booleans())
            row_shots = st.lists(st.integers(1, top), min_size=len(depths), max_size=len(depths))
            shots = np.array([draw(row_shots)] * rows if per_depth else
                             [draw(row_shots) for _ in range(rows)])
            ones = np.array([[draw(st.integers(0, n)) for n in row] for row in shots.tolist()])
            if draw(st.booleans()):
                depol = DepolParams(draw(st.floats(0.85, 1.0)))
                return depths, shots, ones, per_depth, "corrected", depol
            return depths, shots, ones, per_depth, "naive", None

        # Deep sweeps at theta = 0.721: the prefixes past depth 64 leave level 0.
        _, _, deep = sampled_batch(0.721, EXPONENTIAL_DEPTHS, [100] * 14, range(4))
        assert estimation._level0_length(EXPONENTIAL_DEPTHS) == 8

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(batches())
        @hypothesis.example((*CLAMPING[:3], False, *CLAMPING[3:]))
        @hypothesis.example(
            (EXPONENTIAL_DEPTHS, np.full((4, 14), 100), deep, True, "naive", None)
        )
        def check(data):
            depths, shots, ones, per_depth, method, depol = data
            assert ones.dtype == np.int64
            core_shots = tuple(shots[0].tolist()) if per_depth else shots
            arrays = estimation._estimates(depths, core_shots, ones, method, depol, False)
            expected = estimation._estimates(
                depths, shots.astype(float), ones.astype(float), method, depol, False
            )
            assert len(arrays) == 3
            assert [a.tolist() for a in arrays] == [a.tolist() for a in expected]
            estimates = estimation._as_estimates(method, arrays)
            for name, array in zip(("theta_hat", "log_likelihood", "n_clamped"), arrays):
                assert array.tolist() == [[getattr(e, name) for e in row] for row in estimates]
            assert {e.method for row in estimates for e in row} == {method}
            last = estimation._estimates(depths, core_shots, ones, method, depol, True)
            assert [a.tolist() for a in last] == [a[:, -1:].tolist() for a in arrays]
            if list(depths) == sorted(depths):  # the records are in estimate_amplitude's order
                for row_shots, row_ones, (estimate,) in zip(
                    shots.tolist(), ones.tolist(), estimation._as_estimates(method, last)
                ):
                    records = [ShotRecord(*entry) for entry in zip(depths, row_shots, row_ones)]
                    assert estimate_amplitude(records, method, depol) == estimate

        check()

    def test_lanes_finishing_at_different_steps(self):
        # All ones: Newton climbs to the guard window below pi/2, then crosses
        # its flat stretch by bisection.  All zeros: the same toward 0, in more
        # steps than an interior maximum takes.  Each row must finish alone,
        # as the lone estimate of each of its prefixes.
        ones = np.array([[3, 9], [10, 10], [0, 0], [3, 9]])  # interior, ones, zeros, interior
        shots = np.full(ones.shape, 10)
        assert_global_maxima((0, 1), shots, ones, "naive", None)
        theta_hat, _, _ = estimation._estimates((0, 1), shots[1:3], ones[1:3], "naive", None, False)
        assert theta_hat[0].tolist() == pytest.approx([math.pi / 2] * 2, abs=1e-12)
        assert theta_hat[1].tolist() == pytest.approx([0.0] * 2, abs=1e-12)

    def test_one_row_refine_is_the_batch_refine(self):
        # _refine takes _refine_row's steps for one row, as in a lone deep
        # estimate, and its own for many, so the two must agree bit for bit:
        # on the pieces of random exponential and linear rows, with integer
        # and fractional counts, and on the guard-window case of
        # TestEstimateAmplitude, whose corrected counts clamp.
        rng = np.random.default_rng(18)
        cases = []
        for depths in (EXPONENTIAL_DEPTHS, tuple(range(27))):
            shots = rng.integers(1, 200, (24, len(depths))).astype(float)
            for counts in (np.floor(rng.random(shots.shape) * (shots + 1)), rng.random(shots.shape) * shots):
                cases.append((depths, counts, shots - counts, rng.random(24) * math.pi / 2))
        depths, shots, ones = (17, 161), (10**8, 20), (1040942, 3)
        depol = DepolParams(0.998646)
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        counts = [correct_counts(r, depol) for r in records]
        assert counts[0].clamped
        counts = np.array([[c.value for c in counts]] * 19)
        # The sin zeros of depth 17 in [0, pi/2], and the maximum in the window of one of them
        thetas = np.append(np.arange(18) * math.pi / 35, 0.3590392)
        cases.append((depths, counts, np.array(shots) - counts, thetas))
        for depths, counts, misses, thetas in cases:
            ks = 2.0 * np.array(depths, dtype=float) + 1.0
            lo, hi = estimation._piece(thetas, ks, counts, misses)
            rows = zip(lo.tolist(), hi.tolist(), counts, misses)
            one_by_one = [estimation._refine_row(a, b, ks, h, n) for a, b, h, n in rows]
            assert one_by_one == estimation._refine(lo, hi, ks, counts, misses).tolist()

    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_estimate_value_is_the_likelihood_there(self, fractional):
        # Every returned value is _log_likelihood at the returned theta, summed
        # in its one order, bit for bit, on deep and shallow prefixes alike.
        rng = np.random.default_rng(14)
        depths = tuple(sorted({int(m) for m in rng.integers(0, 301, 9)} | {0}))
        shots = rng.integers(1, 10**6, (5, len(depths))).astype(float)
        counts = rng.random(shots.shape) * shots
        counts = counts if fractional else np.floor(counts)
        ks = 2.0 * np.array(depths) + 1.0
        assert 0 < estimation._level0_length(depths) < len(depths)
        theta_hat, values, _ = estimation._estimates(depths, shots, counts, "naive", None, False)
        for j in range(len(depths)):
            k = j + 1
            assert values[:, j].tolist() == estimation._log_likelihood(
                theta_hat[:, j], ks[:k], counts[:, :k], shots[:, :k] - counts[:, :k]
            ).tolist()

    def test_clamping_example_clamps(self):
        _, _, (clamped,) = estimation._estimates(*CLAMPING, False)
        assert clamped.tolist() == sorted(clamped.tolist())
        assert clamped[-1] >= len(EXPONENTIAL_DEPTHS) // 2

    def test_cached_tables_are_shared_and_read_only(self):
        level0, *tables = estimation._piece_table((0, 1, 2))
        edges, mids = tables[:2]
        assert level0 == 3
        assert edges[0] == 0.0 and edges[-1] == math.pi / 2 and np.all(np.diff(edges) > 0)
        assert tables[3].shape == (3, len(mids))
        assert all(a is b for a, b in zip(tables, estimation._piece_table((0, 1, 2))[1:]))
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0
