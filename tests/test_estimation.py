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
    estimate_prefixes,
    p1_depolarizing,
    run_depth_sweep,
    shot_schedule,
    worst_case_variance,
)

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
        # 2**63 - 1 rounds up to the float 2**63; 4 * 1e308 overflows, times 0 is NaN
        with pytest.raises(ValueError, match="depth 0 .* got 9.223372036854776e\\+18"):
            shot_schedule([0, 1], 2**63 - 1, 0.1, rounding)
        with pytest.raises(ValueError, match="depth 0 .* got nan"):
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_piece_split_by_a_zero_inside_the_grid_bracket(self):
        # The sin zero of depth 91 at 42 pi / 183 lies in the grid maximum's
        # bracket and splits its peak; the search keeps to the lower half,
        # L = -43,530,557.24 at 0.7210273, while the higher one reaches
        # -43,522,235.50 at 0.72100013.
        depths, shots, ones = (45, 57, 91, 100), (20, 1, 10**8, 10**8), (3, 1, 1461, 15722826)
        records = [ShotRecord(m=m, shots=n, ones=h) for m, n, h in zip(depths, shots, ones)]
        estimate = estimate_amplitude(records)
        thetas = np.linspace(0.7209, 0.7211, 200_001)
        p = np.sin(np.multiply.outer(thetas, 2.0 * np.array(depths) + 1.0)) ** 2
        np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
        best = (np.log(p) @ np.array(ones) + np.log1p(-p) @ np.subtract(shots, ones)).max()
        assert estimate.log_likelihood >= best - 1e-9 * abs(best)


# ---------------------------------------------------------------------------
# Reference: the per-call estimator that predates the cached likelihood
# tables, run on every prefix of one dataset.  The prefix kernel must agree
# with it exactly, field for field.  It memoises its own grid tables per
# depth tuple and shares nothing with the library's cache.  Its objective
# and its Newton refinement are scalar loops per prefix, with the library's
# expressions element for element, summed in the library's two orders: the
# log-likelihood adds each depth's count term, then its miss term; the score
# and curvature add each depth's two terms, then sum over the depths.


def _reference_log_tables(theta, ms):
    p = np.sin(np.multiply.outer(theta, 2.0 * ms + 1.0)) ** 2
    np.clip(p, estimation._LOG_GUARD, 1.0 - estimation._LOG_GUARD, out=p)
    return np.log(p), np.log1p(-p)


@functools.lru_cache(maxsize=16)
def _reference_grid(depths):
    """The theta grid and its ln p and ln(1 - p) tables for these depths."""
    thetas = np.linspace(0.0, math.pi / 2.0, estimation._GRID_POINTS)
    return (thetas, *_reference_log_tables(thetas, np.array(depths, dtype=float)))


def _reference_piece(theta, lo, hi, ks, counts, misses):
    """``[lo, hi]`` cut to the concave piece of the likelihood that holds ``theta``."""
    x = theta * ks / math.pi
    sin_zero, cos_zero = np.floor(x), np.floor(x - 0.5) + 0.5
    below = np.maximum(
        np.where(counts > 0, sin_zero, -np.inf), np.where(misses > 0, cos_zero, -np.inf)
    )
    above = np.minimum(
        np.where(counts > 0, sin_zero + 1.0, np.inf), np.where(misses > 0, cos_zero + 1.0, np.inf)
    )
    return max(lo, (below * math.pi / ks).max()), min(hi, (above * math.pi / ks).min())


def _reference_newton(theta, lo, hi, ks, counts, misses):
    """Safeguarded Newton maximiser of one prefix's likelihood in ``[lo, hi]``, from ``theta``."""
    two_k, minus_two_k2 = 2.0 * ks, -2.0 * ks * ks
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            angles = theta * ks
            sin, cos = np.sin(angles), np.cos(angles)
            score = curvature = 0.0
            for k2, k2k, s, c, h, n_h in zip(two_k, minus_two_k2, sin, cos, counts, misses):
                score += k2 * (c / s) * h + -k2 * (s / c) * n_h
                curvature += k2k / (s * s) * h + k2k / (c * c) * n_h
            step = score / curvature
            new = theta - step
            if score > 0.0:
                lo = theta
            if score < 0.0:
                hi = theta
            converged = abs(step) <= estimation._STEP_TOL and lo <= new <= hi
            theta = new if converged or lo < new < hi else 0.5 * (lo + hi)
            if converged or hi - lo <= estimation._STEP_TOL:
                return theta


def _reference_search(records, method, depol):
    """Every prefix's grid search of ``records``: its pieces, grid points and flat flags.

    Returns ``(objective, pieces, grid_theta, flats, clamped, (ks, counts, misses))``:
    ``objective(points)`` is prefix i's log-likelihood at ``points[i]`` for
    every prefix, and ``pieces[i]`` is prefix i's grid bracket cut to its grid
    point's piece.
    """
    ms = np.array([r.m for r in records], dtype=float)
    ks = 2.0 * ms + 1.0
    shots = np.array([r.shots for r in records], dtype=float)
    clamped = [0] * len(records)
    if method == "corrected":
        corrections = [correct_counts(r, depol) for r in records]
        counts = np.array([c.value for c in corrections])
        clamped = [int(c.clamped) for c in corrections]
    else:
        counts = np.array([r.ones for r in records], dtype=float)
    misses = shots - counts
    prefixes = range(1, len(records) + 1)

    def objective(points):
        log_p, log_q = _reference_log_tables(np.array(points, dtype=float), ms)
        values = []
        for i, k in enumerate(prefixes):
            total = 0.0
            for d in range(k):
                total += counts[d] * log_p[i, d]
                total += misses[d] * log_q[i, d]
            values.append(float(total))
        return values

    n = estimation._GRID_POINTS
    grid_theta, flats, pieces = [], [], []
    for k in prefixes:
        thetas, log_p, log_q = _reference_grid(tuple(r.m for r in records[:k]))
        loglik = np.zeros(n)
        for d in range(k):  # the library's order: depth by depth, counts then misses
            loglik += counts[d] * log_p[:, d]
            loglik += misses[d] * log_q[:, d]
        best = int(np.argmax(loglik))
        span = float(loglik.max() - loglik.min())
        flats.append(span <= estimation._FLAT_TOL * max(1.0, abs(float(loglik.max()))))
        grid_theta.append(float(thetas[best]))
        lo, hi = float(thetas[max(best - 1, 0)]), float(thetas[min(best + 1, n - 1)])
        pieces.append(_reference_piece(grid_theta[-1], lo, hi, ks[:k], counts[:k], misses[:k]))
    return objective, pieces, grid_theta, flats, clamped, (ks, counts, misses)


def reference_prefix_estimates(records, method, depol):
    """The reference estimate from ``records[:k]`` for every k = 1..len(records)."""
    objective, pieces, grid_theta, flats, clamped, (ks, counts, misses) = _reference_search(
        records, method, depol
    )
    refined = [
        float(_reference_newton(theta, lo, hi, ks[:k], counts[:k], misses[:k]))
        for k, (theta, (lo, hi)) in enumerate(zip(grid_theta, pieces), start=1)
    ]
    estimates = []
    grid_values, refined_values = objective(grid_theta), objective(refined)
    for i, (top, refined_value) in enumerate(zip(grid_values, refined_values)):
        theta_hat = grid_theta[i]
        if refined_value > top:
            theta_hat, top = refined[i], refined_value
        estimates.append(
            AmplitudeEstimate(
                theta_hat=theta_hat,
                log_likelihood=top,
                method=method,
                n_clamped=sum(clamped[: i + 1]),
                flat_likelihood=flats[i],
            )
        )
    return estimates


def golden_section_values(records, method, depol, tol=1e-13):
    """Every prefix's best log-likelihood in its piece, by golden section to ``tol``.

    An independent check on the Newton step: it never evaluates the score,
    only the guarded likelihood, and its searches all run at once until the
    widest bracket is ``tol`` wide.
    """
    objective, pieces, *_ = _reference_search(records, method, depol)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(pieces).T
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = np.array(objective(c)), np.array(objective(d))
    while (b - a).max() > tol:
        left = fc >= fd  # the maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, kept_value = np.where(left, c, d), np.where(left, fc, fd)
        fresh = np.where(left, b - ratio * (b - a), a + ratio * (b - a))
        fresh_value = np.array(objective(fresh))
        c, fc = np.where(left, fresh, kept), np.where(left, fresh_value, kept_value)
        d, fd = np.where(left, kept, fresh), np.where(left, kept_value, fresh_value)
    return np.maximum(fc, fd).tolist()


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
        def batches(draw):
            depths = draw(
                st.one_of(
                    st.sampled_from([LINEAR_DEPTHS, EXPONENTIAL_DEPTHS]),
                    st.lists(st.integers(0, 60), min_size=1, max_size=6),
                )
            )
            batch = []
            # datasets on the same depths: full chunks and a ragged last one
            for _ in range(draw(st.integers(1, 20))):
                records = []
                for m in depths:
                    shots = draw(st.integers(1, 30))
                    records.append(ShotRecord(m=m, shots=shots, ones=draw(st.integers(0, shots))))
                batch.append(records)
            if draw(st.booleans()):
                return batch, "corrected", DepolParams(draw(st.floats(0.85, 1.0)))
            return batch, "naive", None

        records, method, depol = CLAMPING
        flipped = [ShotRecord(m=r.m, shots=r.shots, ones=r.shots - r.ones) for r in records]
        # Half the shots ones at every depth: the likelihood is symmetric about
        # theta = pi/4, which falls between two grid points whose values tie up
        # to rounding.  The other rows have an odd shot count, so none of them
        # is symmetric.  Rows 0, 7, 8 and 16 open and close a full chunk, open
        # the next one and fill a ragged last one.
        symmetric = [ShotRecord(m=m, shots=20, ones=10) for m in LINEAR_DEPTHS]
        rng = np.random.default_rng(8)
        seventeen = [
            [ShotRecord(m=m, shots=21, ones=int(rng.integers(0, 22))) for m in LINEAR_DEPTHS]
            for _ in range(17)
        ]
        for row in (0, 7, 8, 16):
            seventeen[row] = symmetric
        assert estimate_amplitude(symmetric).theta_hat == pytest.approx(math.pi / 4, abs=1e-9)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(batches())
        @hypothesis.example(([records], method, depol))
        @hypothesis.example(([records, flipped, records], method, depol))
        @hypothesis.example((seventeen, "naive", None))
        def check(data):
            batch, method, depol = data
            estimates = estimate_prefixes(batch, method, depol)
            assert len(estimates) == len(batch)
            for records, prefixes in zip(batch, estimates):
                assert prefixes == reference_prefix_estimates(records, method, depol)
                for estimate, best in zip(prefixes, golden_section_values(records, method, depol)):
                    assert estimate.log_likelihood >= best - 1e-10 * max(1.0, abs(best))
                ordered = sorted(records, key=lambda r: (r.m, r.shots, r.ones))
                (ordered,) = estimate_prefixes([ordered], method, depol)
                assert estimate_amplitude(records, method, depol) == ordered[-1]

        check()

    def test_array_core_equals_the_record_api(self):
        # The core takes the arrays the Monte Carlo harness gives it: int64
        # ones, and shots per dataset or one shot count per depth.  Its
        # arrays must be estimate_prefixes' fields value for value, and with
        # last_only those of the last prefix.
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

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(batches())
        @hypothesis.example(
            (EXPONENTIAL_DEPTHS, np.array([[r.shots for r in CLAMPING[0]]]),
             np.array([[r.ones for r in CLAMPING[0]]]), False, *CLAMPING[1:])
        )
        def check(data):
            depths, shots, ones, per_depth, method, depol = data
            assert ones.dtype == np.int64
            records = [
                [ShotRecord(m, n, h) for m, n, h in zip(depths, shots_row, ones_row)]
                for shots_row, ones_row in zip(shots.tolist(), ones.tolist())
            ]
            core_shots = tuple(shots[0].tolist()) if per_depth else shots
            arrays = estimation._estimates(depths, core_shots, ones, method, depol, False)
            expected = estimate_prefixes(records, method, depol)
            fields = ("theta_hat", "log_likelihood", "n_clamped", "flat_likelihood")
            for name, array in zip(fields, arrays):
                assert array.tolist() == [[getattr(e, name) for e in row] for row in expected]
            assert estimation._as_estimates(method, arrays) == expected
            last = estimation._estimates(depths, core_shots, ones, method, depol, True)
            assert estimation._as_estimates(method, last) == [[row[-1]] for row in expected]

        check()

    def test_lanes_finishing_at_different_steps(self):
        # All ones: the grid's last point is the maximum, and its first step
        # converges.  All zeros: the score at the grid's first point is NaN,
        # so that row bisects and then converges to 0 in more steps than an
        # interior maximum takes.  Each row must finish alone.
        edge = [ShotRecord(m=0, shots=10, ones=0), ShotRecord(m=1, shots=10, ones=0)]
        ones = [ShotRecord(m=0, shots=10, ones=10), ShotRecord(m=1, shots=10, ones=10)]
        interior = [ShotRecord(m=0, shots=10, ones=3), ShotRecord(m=1, shots=10, ones=9)]
        batch = [interior, ones, edge, interior]
        for records, prefixes in zip(batch, estimate_prefixes(batch)):
            assert prefixes == reference_prefix_estimates(records, "naive", None)

    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_grid_maximum_value_is_the_likelihood_there(self, fractional):
        # The grid and _log_likelihood add the same terms in the same order,
        # so the grid's value at its maximum is the likelihood there, bit for bit.
        rng = np.random.default_rng(14)
        depths = tuple(sorted({int(m) for m in rng.integers(0, 5001, 9)} | {0}))
        shots = rng.integers(1, 10**6, (11, len(depths))).astype(float)
        counts = rng.random(shots.shape) * shots
        counts = counts if fractional else np.floor(counts)
        misses = shots - counts
        thetas, table = estimation._depth_tables(depths)
        ks = 2.0 * np.array(depths) + 1.0
        prefixes = range(1, len(depths) + 1)
        best, values, _ = estimation._grid_maxima(table, counts, misses, prefixes)
        for j, k in enumerate(prefixes):
            at_grid = thetas[best[j]]
            assert values[j].tolist() == estimation._log_likelihood(
                at_grid, ks[:k], counts[:, :k], misses[:, :k]
            ).tolist()

    def test_clamping_example_clamps(self):
        records, method, depol = CLAMPING
        (estimates,) = estimate_prefixes([records], method, depol)
        assert [e.n_clamped for e in estimates] == sorted(e.n_clamped for e in estimates)
        assert estimates[-1].n_clamped >= len(EXPONENTIAL_DEPTHS) // 2

    def test_cached_tables_are_shared_and_read_only(self):
        tables = estimation._depth_tables((0, 1, 2))
        assert tables[1].shape == (3, 2, estimation._GRID_POINTS)
        assert all(a is b for a, b in zip(tables, estimation._depth_tables((0, 1, 2))))
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_validation(self):
        record = ShotRecord(m=0, shots=10, ones=5)
        with pytest.raises(ValueError, match="datasets must be nonempty"):
            estimate_prefixes([])
        with pytest.raises(ValueError, match="records must be nonempty"):
            estimate_prefixes([[record], []])
        with pytest.raises(ValueError):
            estimate_prefixes([[record]], method="corrected")
        mismatch = r"dataset 1 has depths \(0, 2\), dataset 0 has \(0, 1\)"
        with pytest.raises(ValueError, match=mismatch):
            estimate_prefixes(
                [
                    [record, ShotRecord(m=1, shots=10, ones=5)],
                    [record, ShotRecord(m=2, shots=10, ones=5)],
                ]
            )
        with pytest.raises(ValueError, match=r"dataset 1 has depths \(0,\)"):
            estimate_prefixes([[record, ShotRecord(m=1, shots=10, ones=5)], [record]])
        with pytest.raises(TypeError, match="batch of datasets"):
            estimate_prefixes([record])
