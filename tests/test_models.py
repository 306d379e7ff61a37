"""Tests for the outcome-probability models."""

import math
import re
import warnings

import numpy as np
import pytest

from naqae import models
from naqae import (
    Amplitude,
    DepolParams,
    GaussianNoiseParams,
    SimulatedDevice,
    depol_equivalent,
    p1_depolarizing,
    p1_gaussian_closed,
    p1_gaussian_quadrature,
    p_diff_gaussian_closed,
    sample_shots,
)
from naqae.errors import InternalConsistencyError, QuadratureError
from naqae.models import _as_probability, _check_depth

A1 = Amplitude(math.pi / 6)
NOISELESS = GaussianNoiseParams(k_mu=0.0, k_sigma=0.0)

# Frozen from an independent adaptive-quadrature evaluation (scipy.integrate.quad
# of the sin^2 integrand against the Gaussian density, epsabs=1e-13).
P1_A1_M1_KS01 = 0.9093653765389911
PDIFF_A1_M3 = 0.33127162228671175


def random_tuples(n, rng):
    thetas = rng.uniform(0.0, math.pi / 2, n)
    ms = rng.integers(0, 101, n)
    k_mus = rng.uniform(-0.2, 0.2, n)
    k_sigmas = rng.uniform(0.0, 0.2, n)
    return zip(thetas, ms, k_mus, k_sigmas)


class TestClosedForm:
    def test_noiseless_zero_depth(self):
        assert p1_gaussian_closed(A1, 0, NOISELESS) == pytest.approx(0.25, abs=1e-15)

    def test_certainty_depth(self):
        # at theta = pi/6 the outcome is 1 with certainty when (m-1) mod 3 == 0
        assert p1_gaussian_closed(A1, 1, NOISELESS) == 1.0
        assert p1_gaussian_closed(A1, 4, NOISELESS) == 1.0

    def test_variance_only_damping(self):
        p = p1_gaussian_closed(A1, 1, GaussianNoiseParams(0.0, 0.1))
        assert p == pytest.approx(0.5 * (1 + math.exp(-0.2)), abs=1e-12)
        assert p == pytest.approx(P1_A1_M1_KS01, abs=1e-9)

    def test_reduces_to_noiseless(self):
        rng = np.random.default_rng(7)
        for theta, m, _, _ in random_tuples(50, rng):
            amp = Amplitude(theta)
            got = p1_gaussian_closed(amp, int(m), NOISELESS)
            assert got == pytest.approx(math.sin((2 * m + 1) * theta) ** 2, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for theta, m, k_mu, k_sigma in random_tuples(200, rng):
            p = p1_gaussian_closed(Amplitude(theta), int(m), GaussianNoiseParams(k_mu, k_sigma))
            assert 0.0 <= p <= 1.0

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            p1_gaussian_closed(A1, -1, NOISELESS)
        with pytest.raises(ValueError):
            p1_gaussian_closed(A1, 2.5, NOISELESS)
        assert type(_check_depth(np.int64(3))) is int

    @pytest.mark.parametrize("m", [math.inf, math.nan, 1e300, 2.0, True, None, "3", 2**63])
    def test_depth_must_be_a_64_bit_integer(self, m):
        with pytest.raises(ValueError, match="^depth must be an integer in the signed 64-bit"):
            _check_depth(m)


class TestPDiff:
    def test_zero_depth_is_noiseless_difference(self):
        # m=0 must reproduce cos^2 - sin^2 bitwise, for any noise parameters
        rng = np.random.default_rng(9)
        for theta, _, k_mu, k_sigma in random_tuples(100, rng):
            got = p_diff_gaussian_closed(Amplitude(theta), 0, GaussianNoiseParams(k_mu, k_sigma))
            assert got == math.cos(theta) ** 2 - math.sin(theta) ** 2

    def test_zero_depth_value(self):
        got = p_diff_gaussian_closed(A1, 0, GaussianNoiseParams(0.3, 0.2))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_equal_superposition(self):
        got = p_diff_gaussian_closed(Amplitude(math.pi / 4), 0, NOISELESS)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_derived_value_matches_oracle(self):
        got = p_diff_gaussian_closed(A1, 3, GaussianNoiseParams(0.01, 0.05))
        assert got == pytest.approx(PDIFF_A1_M3, abs=1e-9)

    def test_complements_p1(self):
        rng = np.random.default_rng(10)
        for theta, m, k_mu, k_sigma in random_tuples(100, rng):
            amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
            diff = p_diff_gaussian_closed(amp, int(m), noise)
            assert diff == pytest.approx(1 - 2 * p1_gaussian_closed(amp, int(m), noise), abs=1e-14)

    def test_exponential_decay_bound(self):
        rng = np.random.default_rng(11)
        for theta, m, k_mu, k_sigma in random_tuples(300, rng):
            diff = p_diff_gaussian_closed(Amplitude(theta), int(m), GaussianNoiseParams(k_mu, k_sigma))
            assert abs(diff) <= math.exp(-2 * k_sigma * m)

    def test_decay_bound_attained(self):
        # cos term is -1 at a certainty depth, so the bound is tight there
        diff = p_diff_gaussian_closed(A1, 1, GaussianNoiseParams(0.0, 0.1))
        assert abs(diff) == pytest.approx(math.exp(-0.2), abs=1e-15)


class TestQuadrature:
    def test_degenerate_zero_variance(self):
        # k_sigma * m == 0 takes the delta-distribution branch
        assert p1_gaussian_quadrature(A1, 0, GaussianNoiseParams(0.0, 0.1)) == pytest.approx(
            0.25, abs=1e-15
        )
        got = p1_gaussian_quadrature(A1, 3, GaussianNoiseParams(0.2, 0.0))
        assert got == pytest.approx(math.sin(7 * math.pi / 6 + 0.6) ** 2, abs=1e-15)

    def test_matches_closed_form(self):
        for amp, m, noise in [
            (A1, 1, GaussianNoiseParams(0.0, 0.1)),
            (Amplitude(1.0), 10, GaussianNoiseParams(0.02, 0.03)),
        ]:
            quad = p1_gaussian_quadrature(amp, m, noise)
            closed = p1_gaussian_closed(amp, m, noise)
            assert quad == pytest.approx(closed, abs=1e-9)

    def test_oracle_sweep(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for theta, m, k_mu, k_sigma in random_tuples(300, rng):
            amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
            gap = abs(
                p1_gaussian_quadrature(amp, int(m), noise)
                - p1_gaussian_closed(amp, int(m), noise)
            )
            worst = max(worst, gap)
        assert worst <= 1e-9

    def test_closed_form_matches_quadrature_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(
            theta=st.floats(0.0, math.pi / 2),
            m=st.integers(0, 100),
            k_mu=st.floats(-0.2, 0.2),
            k_sigma=st.floats(0.0, 0.2),
        )
        def check(theta, m, k_mu, k_sigma):
            amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
            closed = p1_gaussian_closed(amp, m, noise)
            assert p1_gaussian_quadrature(amp, m, noise) == pytest.approx(closed, abs=1e-9)

        check()

    def test_outcomes_sum_to_one(self):
        # p(1) = (1 - (p(0) - p(1))) / 2 when p(0) + p(1) = 1.
        rng = np.random.default_rng(13)
        for theta, m, k_mu, k_sigma in random_tuples(100, rng):
            amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
            p1 = p1_gaussian_quadrature(amp, int(m), noise)
            p_diff = p_diff_gaussian_closed(amp, int(m), noise)
            assert p1 == pytest.approx((1.0 - p_diff) / 2.0, abs=1e-9)

    def test_node_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(models, "_QUAD_TOL", 1e-12)
        monkeypatch.setattr(models, "_QUAD_MAX_NODES", 32)
        with pytest.raises(QuadratureError):
            p1_gaussian_quadrature(Amplitude(1.0), 100, GaussianNoiseParams(0.0, 0.2))


    @pytest.mark.parametrize("theta, m, noise", [
        (0.5, 200, GaussianNoiseParams(0.0, 0.5)),
        (1.0, 400, GaussianNoiseParams(0.1, 0.3)),
    ])
    def test_stops_at_the_cap(self, theta, m, noise):
        # Neither converges by the cap of 256 nodes; the doubling stops there,
        # without a numpy warning, and names it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"within 256 nodes"):
                p1_gaussian_quadrature(Amplitude(theta), m, noise)

    def test_stops_where_the_nodes_are_not_finite(self, monkeypatch):
        # numpy's Gauss-Hermite nodes and weights may turn non-finite below the
        # cap (numpy 2.4.6's do at 512 nodes): the doubling stops at the last
        # finite count and names it.
        finite = models._hermgauss_nodes
        asked = []
        monkeypatch.setattr(models, "_hermgauss_nodes",
                            lambda n: asked.append(n) or (finite(n) if n <= 64 else None))
        with pytest.raises(QuadratureError, match=r"within 64 nodes"):
            p1_gaussian_quadrature(Amplitude(0.5), 200, GaussianNoiseParams(0.0, 0.5))
        assert asked == [16, 32, 64, 128]


class TestKindRefused:
    @pytest.mark.parametrize("name, evaluate, noise, required", [
        ("p1_gaussian_closed", lambda noise: p1_gaussian_closed(A1, 2, noise),
         DepolParams(0.9), "GaussianNoiseParams"),
        ("p1_gaussian_closed", lambda noise: p1_gaussian_closed(A1, 2, noise),
         None, "GaussianNoiseParams"),
        ("p_diff_gaussian_closed", lambda noise: p_diff_gaussian_closed(A1, 2, noise),
         DepolParams(0.9), "GaussianNoiseParams"),
        ("p1_gaussian_quadrature", lambda noise: p1_gaussian_quadrature(A1, 2, noise),
         DepolParams(0.9), "GaussianNoiseParams"),
        ("depol_equivalent", depol_equivalent, DepolParams(0.9), "GaussianNoiseParams"),
        ("p1_depolarizing", lambda noise: p1_depolarizing(A1, 2, noise),
         GaussianNoiseParams(0.01, 0.05), "DepolParams"),
        ("p1_depolarizing", lambda noise: p1_depolarizing(A1, 2, noise),
         None, "DepolParams"),
    ])
    def test_wrong_kind_is_refused(self, name, evaluate, noise, required):
        # Each used to return the other kind's value, or end in AttributeError.
        message = f"{name} requires {required}, got {noise!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(noise)


class TestDepolarizing:
    def test_arithmetic_example(self):
        got = p1_depolarizing(A1, 2, DepolParams(0.9))
        assert got == pytest.approx(0.2975, abs=1e-12)

    def test_fully_coherent_is_noiseless(self):
        assert p1_depolarizing(A1, 1, DepolParams(1.0)) == 1.0

    def test_maximally_mixed_limit(self):
        assert p1_depolarizing(Amplitude(0.7), 500, DepolParams(0.9)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_between_signal_and_half(self):
        rng = np.random.default_rng(14)
        for theta, m, _, _ in random_tuples(100, rng):
            p_coh = rng.uniform(0.0, 1.0)
            p = p1_depolarizing(Amplitude(theta), int(m), DepolParams(p_coh))
            clean = math.sin((2 * m + 1) * theta) ** 2
            assert min(clean, 0.5) - 1e-12 <= p <= max(clean, 0.5) + 1e-12


class TestDepolEquivalence:
    def test_identity_values(self):
        assert depol_equivalent(GaussianNoiseParams(0.0, 0.0)).p_coh_tilde == 1.0
        assert depol_equivalent(GaussianNoiseParams(0.0, 0.1)).p_coh_tilde == pytest.approx(
            0.8187307530779818, abs=1e-12
        )
        # the rate implied by the noise-aware schedule example
        assert depol_equivalent(GaussianNoiseParams(0.0, 0.055)).p_coh_tilde == pytest.approx(
            0.8958341352965282, abs=1e-12
        )

    def test_requires_zero_mean(self):
        with pytest.raises(ValueError):
            depol_equivalent(GaussianNoiseParams(0.01, 0.1))

    def test_exact_probability_match(self):
        rng = np.random.default_rng(15)
        for theta, m, _, k_sigma in random_tuples(300, rng):
            amp = Amplitude(theta)
            noise = GaussianNoiseParams(0.0, k_sigma)
            gap = abs(
                p1_depolarizing(amp, int(m), depol_equivalent(noise))
                - p1_gaussian_closed(amp, int(m), noise)
            )
            assert gap <= 1e-12


class TestPeriodicity:
    def test_period_six_at_pi_over_six(self):
        # noiseless p1 at theta = pi/6 depends on m modulo 6 only
        for m in range(6):
            base = p1_gaussian_closed(A1, m, NOISELESS)
            for k in (1, 2, 5):
                assert p1_gaussian_closed(A1, m + 6 * k, NOISELESS) == pytest.approx(
                    base, abs=1e-12
                )


class TestDomainTypes:
    def test_amplitude_value(self):
        amp = Amplitude(0.3)
        assert amp.a == pytest.approx(math.sin(0.3) ** 2, abs=1e-16)

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            Amplitude(-0.1)
        with pytest.raises(ValueError):
            Amplitude(math.pi / 2 + 0.01)

    def test_gaussian_params_validation(self):
        with pytest.raises(ValueError):
            GaussianNoiseParams(0.0, -0.1)
        with pytest.raises(ValueError):
            GaussianNoiseParams(math.inf, 0.1)
        with pytest.raises(ValueError):
            GaussianNoiseParams(math.nan, 0.1)

    def test_depol_params_validation(self):
        with pytest.raises(ValueError):
            DepolParams(-0.01)
        with pytest.raises(ValueError):
            DepolParams(1.01)


class TestProbabilityGuard:
    def test_roundoff_clamped(self):
        assert _as_probability(-1e-13, "test") == 0.0
        assert _as_probability(1.0 + 1e-13, "test") == 1.0

    def test_large_violation_raises(self):
        with pytest.raises(InternalConsistencyError):
            _as_probability(-1e-9, "test")
        with pytest.raises(InternalConsistencyError):
            _as_probability(1.0 + 1e-9, "test")

    def test_nan_raises(self):
        with pytest.raises(InternalConsistencyError, match="produced probability nan"):
            _as_probability(math.nan, "test")


class TestNonFiniteRefused:
    # k_mu * m overflows to inf at depth 2, and cos(inf) is NaN.
    OVERFLOWING = GaussianNoiseParams(1e308, 0.1)

    @pytest.mark.parametrize("evaluate", [
        lambda noise, m: SimulatedDevice(A1, noise).p1(m),
        lambda noise, m: p1_gaussian_closed(A1, m, noise),
        lambda noise, m: p_diff_gaussian_closed(A1, m, noise),
    ], ids=["device", "p1_closed", "p_diff_closed"])
    def test_overflow_names_the_depth(self, evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(evaluate(self.OVERFLOWING, 1))
            with pytest.raises(ValueError, match=r"at depth 2 is nan: the noise parameters overflow"):
                evaluate(self.OVERFLOWING, 2)

    def test_huge_rate_decays_fully_past_depth_zero(self):
        # k_sigma * m is formed before it is doubled, so depth 0 carries no
        # decay even where 2 k_sigma is past the float range.
        dev = SimulatedDevice(A1, GaussianNoiseParams(0.0, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dev.p1(0) == p1_gaussian_closed(A1, 0, NOISELESS)
            assert [dev.p1(m) for m in (1, 2, 50)] == [0.5, 0.5, 0.5]


class TestOneDecayPath:
    # Every decay is libm's, one call per (rate, depth) pair, whatever the shape
    # or the SIMD kernels numpy picked; these are the shapes the fits call it on.
    RATES = np.logspace(-5, math.log10(0.5), 33)
    DEPTHS = np.arange(41, dtype=float)

    @staticmethod
    def libm(k_sigma, m):
        k, m = np.broadcast_arrays(k_sigma, m)
        return [[math.exp(-2.0 * (a * b)) for a, b in zip(ra, rm)] for ra, rm in zip(k.tolist(), m.tolist())]

    def test_scalar(self):
        for k, m in [(0.02, 7), (0.1, 1), (3e-5, 4999), (0.5, 40)]:
            assert float(models._decay(k, m)) == math.exp(-2.0 * (k * m))

    def test_grid_mesh(self):
        decay = models._decay(self.RATES.reshape(33, 1), self.DEPTHS)
        assert decay.shape == (33, 41)
        assert decay.tolist() == self.libm(self.RATES.reshape(33, 1), self.DEPTHS)

    def test_rate_rows(self):
        rates = np.random.default_rng(3).uniform(0.0, 0.6, (8, 1))
        decay = models._decay(rates, self.DEPTHS)
        assert decay.shape == (8, 41)
        assert decay.tolist() == self.libm(rates, self.DEPTHS)

    def test_depth_zero_is_exactly_one(self):
        assert float(models._decay(1e308, 0)) == 1.0

    def test_overflowing_product_decays_to_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert models._decay(1e308, np.array([0.0, 10.0])).tolist() == [1.0, 0.0]

    def test_device_and_correction_share_the_coherent_fraction(self):
        # The device's p~^m and the count correction's are one Python pow.  At
        # theta = 0 the device's p(1) is (1 - p~^m) / 2; numpy 2.4.6's AVX-512
        # power moved 234 of these 29,415 values by a bit.
        from naqae.estimation import _coherent

        for p in (0.5, 0.8, 0.9, 0.94, 0.95, 0.99, 0.9998):
            depths = [m for m in range(5000) if p**m > 0.0]
            dev = SimulatedDevice(Amplitude(0.0), DepolParams(p))
            expected = [(1.0 - c) / 2.0 for c in _coherent(depths, DepolParams(p))]
            assert [dev.p1(m) for m in depths] == expected


def depol_kernel(theta, m, p_coh_tilde):
    """The depolarizing p(1) as its own formula, ``c sin^2(k theta) + (1 - c) / 2``."""
    coherent = models._coherent_fraction(p_coh_tilde, m)
    return coherent * np.sin((2.0 * np.asarray(m) + 1.0) * theta) ** 2 + (1.0 - coherent) / 2.0


def noiseless_kernel(theta, m):
    """The noiseless p(1) as its own formula, ``sin^2(k theta)``."""
    return np.sin((2.0 * np.asarray(m) + 1.0) * theta) ** 2


class TestOneKernel:
    # Every noise kind's p(1) is the Gaussian kernel at that kind's decay and
    # drift; these compare it with each kind's own textbook formula.
    CASES = 2000

    @staticmethod
    def cases(seed):
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(0.0, math.pi / 2, TestOneKernel.CASES).tolist()
        depths = rng.integers(0, 4097, TestOneKernel.CASES).tolist()
        p_cohs = rng.uniform(0.0, 1.0, TestOneKernel.CASES).tolist()
        return zip(thetas, depths, p_cohs)

    def test_depolarizing_matches_its_own_formula(self):
        for theta, m, p in self.cases(11):
            got = SimulatedDevice(Amplitude(theta), DepolParams(p)).p1(m)
            assert abs(got - float(depol_kernel(theta, m, p))) <= 1e-15
        for p in (0.0, 1.0):
            for theta, m, _ in self.cases(12):
                got = SimulatedDevice(Amplitude(theta), DepolParams(p)).p1(m)
                assert abs(got - float(depol_kernel(theta, m, p))) <= 1e-15

    def test_noiseless_matches_its_own_formula(self):
        for theta, m, _ in self.cases(13):
            got = SimulatedDevice(Amplitude(theta)).p1(m)
            assert abs(got - float(noiseless_kernel(theta, m))) <= 1e-15

    def test_decay_and_drift_of_each_kind(self):
        depths = np.arange(41.0)
        gaussian = GaussianNoiseParams(0.02, 0.015)
        decay, drift = models._decay_drift(gaussian, depths)
        assert (decay.tolist(), drift) == (models._decay(0.015, depths).tolist(), 0.02)
        decay, drift = models._decay_drift(DepolParams(0.9), depths)
        assert (decay.tolist(), drift) == (models._coherent_fraction(0.9, depths).tolist(), 0.0)
        assert models._decay_drift(None, depths) == (1.0, 0.0)

    def test_certain_depths_keep_their_tallies(self):
        # theta = pi/6 measures 1 with certainty at m = 1, 4, 7 and pi/3
        # measures 0 at m = 1, 4; a certain depth reads no Philox word.
        a1 = SimulatedDevice(Amplitude(math.pi / 6), seed=5)
        a2 = SimulatedDevice(Amplitude(math.pi / 3), seed=5)
        for m in (1, 4, 7):
            assert a1.p1(m) == 1.0
            assert sample_shots(a1, m, 1000).ones == 1000
        for m in (1, 4):
            assert a2.p1(m) <= 1e-30
            assert sample_shots(a2, m, 1000).ones == 0
