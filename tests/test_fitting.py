"""Tests for least-squares model fitting and the comparison report."""

import math
from pathlib import Path

import numpy as np
import pytest

from naqae import (
    Amplitude,
    DepolParams,
    FitResult,
    FrequencyPoint,
    GaussianNoiseParams,
    SimulatedDevice,
    depol_equivalent,
    fit_model,
    fit_report,
    p1_depolarizing,
    p1_gaussian_closed,
    points_from_records,
    r_squared,
    run_depth_sweep,
)
from naqae import fitting, io, models
from naqae.cli import main
from naqae.errors import DegenerateDataError
from naqae.device import ShotRecord

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def gaussian_points(theta, k_mu, k_sigma, depths):
    amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
    return [
        FrequencyPoint(m=m, p1_hat=p1_gaussian_closed(amp, m, noise)) for m in depths
    ]


def sampled_points(theta, k_mu, k_sigma, depths, shots, seed):
    dev = SimulatedDevice(
        amp=Amplitude(theta), model=GaussianNoiseParams(k_mu, k_sigma), seed=seed
    )
    return points_from_records(run_depth_sweep(dev, list(depths), [shots] * len(depths)))


class TestRSquared:
    def test_perfect_fit(self):
        y = [0.1, 0.5, 0.9, 0.3]
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_is_zero(self):
        y = [0.0, 0.5, 1.0]
        assert r_squared(y, [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed(self):
        assert r_squared([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) == pytest.approx(0.5)

    def test_constant_observations(self):
        with pytest.raises(DegenerateDataError):
            r_squared([0.4, 0.4, 0.4], [0.5, 0.4, 0.3])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            r_squared([0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            r_squared([], [])

    def test_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.random(10)
            p = rng.random(10)
            assert r_squared(y, p) <= 1.0


class TestFitModel:
    def test_recovers_exact_gaussian_data(self):
        truth = (0.5, 0.01, 0.02)
        data = gaussian_points(*truth, range(41))
        result = fit_model(data, "gaussian")
        assert result.theta_hat == pytest.approx(truth[0], abs=1e-3)
        assert result.noise_params.k_mu == pytest.approx(truth[1], abs=1e-3)
        assert result.noise_params.k_sigma == pytest.approx(truth[2], abs=1e-3)
        assert result.r_squared >= 1 - 1e-9
        assert result.converged

    def test_noiseless_data_fits_every_family(self):
        data = gaussian_points(0.6, 0.0, 0.0, range(21))
        gaussian = fit_model(data, "gaussian")
        zero_mean = fit_model(data, "gaussian_zero_mean")
        depol = fit_model(data, "depolarizing")
        assert gaussian.noise_params.k_sigma == pytest.approx(0.0, abs=1e-5)
        assert zero_mean.noise_params.k_sigma == pytest.approx(0.0, abs=1e-5)
        assert depol.noise_params.p_coh_tilde == pytest.approx(1.0, abs=1e-5)
        for result in (gaussian, zero_mean, depol):
            assert result.r_squared >= 1 - 1e-9
            assert result.theta_hat == pytest.approx(0.6, abs=1e-4)

    def test_family_ordering_with_drift(self):
        # drifting device: the full Gaussian family explains strictly more
        data = sampled_points(math.pi / 6, 0.05, 0.02, range(31), 8192, seed=77)
        r2 = {kind: fit_model(data, kind).r_squared for kind in
              ("gaussian", "gaussian_zero_mean", "depolarizing")}
        assert r2["gaussian"] > r2["gaussian_zero_mean"]
        assert r2["gaussian"] > r2["depolarizing"]
        assert r2["gaussian_zero_mean"] == pytest.approx(r2["depolarizing"], abs=1e-6)

    def test_family_nesting(self):
        data = sampled_points(0.9, -0.03, 0.04, range(25), 2048, seed=13)
        sse_full = fit_model(data, "gaussian").sse
        sse_zero = fit_model(data, "gaussian_zero_mean").sse
        assert sse_full <= sse_zero + 1e-12

    def test_equivalence_echo(self):
        # zero-mean Gaussian and depolarizing are reparameterizations, fitted
        # by one search, so the attained SSE is the same on any dataset
        for seed in (1, 2, 3):
            data = sampled_points(0.4, 0.02, 0.03, range(22), 1024, seed=seed)
            sse_zero = fit_model(data, "gaussian_zero_mean").sse
            sse_depol = fit_model(data, "depolarizing").sse
            assert sse_zero == sse_depol

    def test_first_order_stationarity(self):
        data = gaussian_points(0.5, 0.01, 0.02, range(41))
        result = fit_model(data, "gaussian")
        ms = np.array([pt.m for pt in data], dtype=float)
        y = np.array([pt.p1_hat for pt in data])

        def sse(theta, k_mu, k_sigma):
            amp, noise = Amplitude(theta), GaussianNoiseParams(k_mu, k_sigma)
            pred = [p1_gaussian_closed(amp, int(m), noise) for m in ms]
            return float(np.sum((y - np.array(pred)) ** 2))

        base = (result.theta_hat, result.noise_params.k_mu, result.noise_params.k_sigma)
        bounds = [(0.0, math.pi / 2), (-math.pi, math.pi), (0.0, math.inf)]
        for i in range(3):
            for delta in (-1e-4, 1e-4):
                probe = list(base)
                probe[i] += delta
                if not bounds[i][0] <= probe[i] <= bounds[i][1]:
                    continue
                assert sse(*probe) >= result.sse - 1e-12

    def test_residuals_consistent_with_sse(self):
        data = sampled_points(0.3, 0.0, 0.05, range(15), 512, seed=3)
        result = fit_model(data, "gaussian_zero_mean")
        assert result.sse == pytest.approx(sum(r**2 for r in result.residuals), rel=1e-12)

    def test_r_squared_matches_operation(self):
        data = sampled_points(0.3, 0.0, 0.05, range(15), 512, seed=4)
        result = fit_model(data, "depolarizing")
        ms = np.array([pt.m for pt in data])
        pred = [
            p1_depolarizing(Amplitude(result.theta_hat), int(m), result.noise_params)
            for m in ms
        ]
        observed = [pt.p1_hat for pt in data]
        assert result.r_squared == pytest.approx(r_squared(observed, pred), abs=1e-12)

    def test_bounds_respected(self):
        rng = np.random.default_rng(6)
        data = [FrequencyPoint(m=m, p1_hat=float(p)) for m, p in enumerate(rng.random(12))]
        for kind in ("gaussian", "gaussian_zero_mean", "depolarizing"):
            result = fit_model(data, kind)
            assert 0.0 <= result.theta_hat <= math.pi / 2
            if kind == "depolarizing":
                assert 0.0 <= result.noise_params.p_coh_tilde <= 1.0
            else:
                assert result.noise_params.k_sigma >= 0.0

    def test_deterministic(self):
        data = sampled_points(0.8, 0.01, 0.01, range(18), 256, seed=9)
        assert fit_model(data, "gaussian") == fit_model(data, "gaussian")

    def test_too_few_points(self):
        data = gaussian_points(0.5, 0.0, 0.01, range(3))
        with pytest.raises(ValueError):
            fit_model(data, "gaussian")
        fit_model(data, "gaussian_zero_mean")  # 3 points suffice for 2 params

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_model(gaussian_points(0.5, 0.0, 0.01, range(9)), "amplitude_damping")

    def test_iteration_cap_flags_result(self, monkeypatch):
        data = sampled_points(0.8, 0.04, 0.03, range(20), 128, seed=21)
        full = fit_model(data, "gaussian")
        monkeypatch.setattr(fitting, "_NM_MAX_ITER", 1)
        starved = fit_model(data, "gaussian")
        assert starved.converged is False
        # the starved result is still no worse than the best grid point
        starts = fitting._grid_search(
            space("gaussian"),
            np.array([pt.m for pt in data], dtype=float),
            np.array([pt.p1_hat for pt in data]),
        )
        assert starved.sse <= starts[0][0] + 1e-12
        assert starved.sse >= full.sse - 1e-12


def labeled_inputs(name):
    """(label, depths, frequencies) for every label of a golden input CSV."""
    grouped = io.read_shot_csv(INPUTS / name)
    out = []
    for label in sorted(grouped):
        points = points_from_records(grouped[label])
        out.append((f"{name}:{label}", np.array([pt.m for pt in points], dtype=float),
                    np.array([pt.p1_hat for pt in points])))
    return out


def device_input():
    """A characterisation-sized sweep: 41 depths of 262,144 shots."""
    points = sampled_points(0.5, 0.02, 0.015, range(41), 262144, seed=101)
    return ("device", np.array([pt.m for pt in points], dtype=float),
            np.array([pt.p1_hat for pt in points]))


# One kind per distinct search.  The depolarizing family packs the zero-mean
# family's parameters, so its search is that one (TestOneSearchPerSpace).
SEARCH_KINDS = ("gaussian", "gaussian_zero_mean")


def space(kind):
    """The parameters that ``kind``'s search packs."""
    return fitting._FAMILIES[kind].params


def fit_searches(datasets):
    """Every (dataset, search) pair with enough points for the search."""
    return [(name, ms, y, kind) for name, ms, y in datasets for kind in SEARCH_KINDS
            if len(ms) > len(space(kind))]


def hexed(sse, x, converged):
    """A Nelder-Mead result with its floats as hex, so a signed zero counts."""
    return (float(sse).hex(), [float(v).hex() for v in x], bool(converged))


def scipy_runs(kind, ms, y, starts):
    """SciPy's bounded Nelder-Mead from each start, as ``fit_model`` once called it.

    Each result also carries ``shrinks``: its steps that scored more points
    than a reflection and an expansion or contraction do, i.e. its shrinks.
    """
    minimize = pytest.importorskip("scipy.optimize").minimize
    calls = []

    def objective(params):
        calls.append(None)
        return float(np.sum((y - fitting._predict(space(kind), params, ms)) ** 2))

    results = []
    for x0 in starts:
        calls.clear()
        ends = []  # the call count at the end of each step
        result = minimize(objective, np.asarray(x0), method="Nelder-Mead",
                          bounds=[fitting._PARAMS[name][1] for name in space(kind)],
                          callback=lambda xk: ends.append(len(calls)),
                          options={"maxiter": fitting._NM_MAX_ITER,
                                   "fatol": fitting._NM_FATOL, "xatol": fitting._NM_XATOL})
        result.shrinks = int(np.count_nonzero(np.diff(ends, prepend=len(x0) + 1) > 2))
        results.append(result)
    return results


def assert_scipy_parity(kind, ms, y, starts):
    """The lockstep refinement equals SciPy bit for bit on every start; SciPy's results."""
    expected = scipy_runs(kind, ms, y, starts)
    got = fitting._refine(space(kind), ms, y, starts)
    assert [hexed(*r) for r in got] == [hexed(r.fun, r.x, r.success) for r in expected]
    return expected


def random_datasets():
    rng = np.random.default_rng(19)
    return [(f"random{i}", np.arange(float(n)), rng.random(n))
            for i, n in enumerate((4, 5, 9, 17, 41))]


class TestNelderMeadParity:
    @pytest.mark.parametrize(
        "name, ms, y, kind",
        fit_searches(labeled_inputs("fit_corpus.csv") + random_datasets()),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_grid_starts(self, name, ms, y, kind):
        starts = [x0 for _, x0 in fitting._grid_search(space(kind), ms, y)]
        assert_scipy_parity(kind, ms, y, starts)

    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_starts_on_and_past_the_bounds(self, kind):
        # theta at 0 and pi/2, rate at 0 (so the zero-coordinate step), k_mu at
        # -pi, and starts past the bounds, which both clip first.
        name, ms, y = random_datasets()[3]
        half_pi = math.pi / 2
        starts = {
            2: [(0.0, 0.0), (half_pi, 0.0), (half_pi, 0.3), (0.0, 1e-5), (2.0, 0.1),
                (-0.1, -0.2), (half_pi * (1 - 1e-17), 0.0)],
            3: [(0.0, 0.0, 0.0), (half_pi, 0.0, 0.0), (half_pi, -math.pi, 0.0),
                (0.0, math.pi, 0.5), (2.0, 4.0, -1.0), (-0.0, -0.0, -0.0)],
        }[len(space(kind))]
        with pytest.warns(Warning):
            assert_scipy_parity(kind, ms, y, [list(x0) for x0 in starts])

    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_signed_zero_starts(self, kind):
        # Noiseless data fitted from the truth with negative zeros: the clip
        # turns a -0.0 below a zero bound into 0.0, and the best vertex keeps
        # what it was given, so the signs show in the result's bits.
        points = gaussian_points(0.6, 0.0, 0.0, range(12))
        ms = np.array([pt.m for pt in points], dtype=float)
        y = np.array([pt.p1_hat for pt in points])
        n = len(space(kind))
        starts = [[0.6, -0.0, -0.0][:n], [0.6, 0.0, -0.0][:n], [-0.0, -0.0, 0.01][:n]]
        assert_scipy_parity(kind, ms, y, starts)

    def test_shrink_heavy_noisy_data(self):
        # A few noisy shots at many depths: simplexes that shrink.
        rng = np.random.default_rng(7)
        ms = np.arange(30.0)
        shrinks = dict.fromkeys(SEARCH_KINDS, 0)
        for _ in range(3):
            y = rng.binomial(8, 0.5, ms.size) / 8
            for kind in SEARCH_KINDS:
                starts = [x0 for _, x0 in fitting._grid_search(space(kind), ms, y)]
                shrinks[kind] += sum(r.shrinks for r in assert_scipy_parity(kind, ms, y, starts))
        assert all(shrinks.values()), shrinks

    def test_capped_runs_do_not_converge(self, monkeypatch):
        monkeypatch.setattr(fitting, "_NM_MAX_ITER", 3)
        name, ms, y = device_input()
        for kind in SEARCH_KINDS:
            starts = [x0 for _, x0 in fitting._grid_search(space(kind), ms, y)]
            results = assert_scipy_parity(kind, ms, y, starts)
            assert not any(r.success for r in results)


def whole_mesh_sse(kind, ms, y):
    """The coarse grid's SSEs in one whole-mesh evaluation."""
    axes = [fitting._PARAMS[name][0] for name in space(kind)]
    mesh = [ax.reshape((-1,) + (1,) * (len(axes) - i)) for i, ax in enumerate(axes)]
    residuals = y - fitting._predict(space(kind), mesh, ms)
    return np.einsum("...l,...l->...", residuals, residuals)


def whole_mesh_starts(kind, ms, y, count):
    """The coarse grid in one whole-mesh evaluation: its ``count`` best starts."""
    axes = [fitting._PARAMS[name][0] for name in space(kind)]
    sse = whole_mesh_sse(kind, ms, y)
    order = np.argsort(sse, axis=None, kind="stable")[:count]
    index = np.unravel_index(order, sse.shape)
    return [(float(v), tuple(float(ax[i]) for ax, i in zip(axes, idx)))
            for v, idx in zip(sse[index].tolist(), zip(*(i.tolist() for i in index)))]


def hexed_starts(starts):
    return [(sse.hex(), [v.hex() for v in x0]) for sse, x0 in starts]


def near_ties():
    """Datasets whose grid SSEs nearly tie.

    At y = 1/2 the SSE is even under theta -> pi/2 - theta with k_mu negated,
    so mirrored grid points differ only by rounding.  Noiseless data from a
    theta grid node nearly fit every small rate at that node.
    """
    ms = np.arange(41.0)
    node = fitting._PARAMS["theta"][0][20]
    on_node = np.array([pt.p1_hat for pt in gaussian_points(node, 0.0, 0.0, range(41))])
    return [("half", ms, np.full(ms.size, 0.5)), ("on_node", ms, on_node)]


def far_ties():
    """y = 1/2 on depths 8..48, where the largest rates decay p(1) to near 1/2 at any theta.

    2730 gaussian and 74 zero-mean grid points have an SSE above the 8th-best
    by more than four screen bounds, and by at most 1e-6.
    """
    ms = np.arange(8.0, 49.0)
    return ("far_ties", ms, np.full(ms.size, 0.5))


class TestGridSearch:
    @pytest.mark.parametrize(
        "name, ms, y, kind", fit_searches(labeled_inputs("fit_corpus.csv")),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_slabs_give_the_whole_mesh_starts(self, name, ms, y, kind):
        got = fitting._grid_search(space(kind), ms, y)
        assert hexed_starts(got) == hexed_starts(
            whole_mesh_starts(kind, ms, y, fitting._REFINE_STARTS))

    @pytest.mark.parametrize(
        "name, ms, y, kind", fit_searches(labeled_inputs("labeled.csv") + [device_input()]),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_slabs_give_the_whole_mesh_sse(self, monkeypatch, name, ms, y, kind):
        # Every grid point, in rank order: the whole SSE array, bit for bit.
        size = math.prod(len(fitting._PARAMS[p][0]) for p in space(kind))
        monkeypatch.setattr(fitting, "_REFINE_STARTS", size)
        got = fitting._grid_search(space(kind), ms, y)
        assert hexed_starts(got) == hexed_starts(whole_mesh_starts(kind, ms, y, size))

    @pytest.mark.parametrize(
        "name, ms, y, kind",
        fit_searches(near_ties() + [far_ties()] + random_datasets() + [device_input()]),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_screen_gives_the_whole_mesh_starts(self, name, ms, y, kind):
        got = fitting._grid_search(space(kind), ms, y)
        assert hexed_starts(got) == hexed_starts(
            whole_mesh_starts(kind, ms, y, fitting._REFINE_STARTS))

    @pytest.mark.parametrize("count", [1, 7, 9])
    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_split_mirrored_ties_rank_by_exact_sse(self, monkeypatch, kind, count):
        # The best points at y = 1/2 come in mirrored pairs, so an odd count
        # splits one: the member left out must have been scored exactly too.
        name, ms, y = near_ties()[0]
        monkeypatch.setattr(fitting, "_REFINE_STARTS", count)
        got = fitting._grid_search(space(kind), ms, y)
        assert hexed_starts(got) == hexed_starts(whole_mesh_starts(kind, ms, y, count))

    @pytest.mark.parametrize(
        "name, ms, y, kind",
        fit_searches(labeled_inputs("fit_corpus.csv") + labeled_inputs("labeled.csv")
                     + near_ties() + [far_ties()] + random_datasets() + [device_input()]),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_screen_is_within_its_bound(self, name, ms, y, kind):
        rates = fitting._PARAMS["rate"][0]
        screen = fitting._screen(space(kind), ms, y, models._decay(rates[:, None], ms))
        error = np.max(np.abs(screen - whole_mesh_sse(kind, ms, y)))
        assert error <= fitting._screen_delta(ms.size)

    @pytest.mark.parametrize("data", [device_input, far_ties], ids=["device", "far_ties"])
    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_few_points_get_the_exact_sse(self, monkeypatch, kind, data):
        # A bound that grew until the band held the whole grid would still give
        # the right starts, only slowly; this pins the band to a few points.
        # On far_ties, a bound of 1e-6 gives thousands.
        rows = []
        decayed = fitting._p1_gaussian_decayed

        def spy(theta, ms, k_mu, decay):
            rows.append(len(theta))
            return decayed(theta, ms, k_mu, decay)

        monkeypatch.setattr(fitting, "_p1_gaussian_decayed", spy)
        name, ms, y = data()
        fitting._grid_search(space(kind), ms, y)
        assert fitting._REFINE_STARTS <= sum(rows) <= 32


class TestOneSearchPerSpace:
    def test_search_kinds_cover_every_search(self):
        spaces = [space(kind) for kind in SEARCH_KINDS]
        assert len(set(spaces)) == len(spaces)
        assert {space(kind) for kind in fitting.MODEL_KINDS} == set(spaces)

    @pytest.mark.parametrize(
        "name, ms, y",
        labeled_inputs("fit_corpus.csv") + labeled_inputs("labeled.csv") + random_datasets()
        + [device_input()],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_depolarizing_fit_is_the_zero_mean_fit(self, name, ms, y):
        data = [FrequencyPoint(m=int(m), p1_hat=float(p)) for m, p in zip(ms, y)]
        zero_mean, depol = (fit_model(data, kind) for kind in ("gaussian_zero_mean", "depolarizing"))

        def shared(fit):
            floats = (fit.theta_hat, fit.sse, fit.r_squared, *fit.residuals)
            return [v.hex() for v in floats], fit.converged

        assert shared(depol) == shared(zero_mean)
        assert depol.noise_params == depol_equivalent(zero_mean.noise_params)

    @pytest.mark.parametrize("model, searches",
                             [("all", 2), ("gaussian", 1), ("zero-mean", 1), ("depol", 1)])
    def test_fit_searches_each_space_once_per_label(self, monkeypatch, tmp_path, model, searches):
        calls = []
        grid_search = fitting._grid_search

        def spy(params, ms, y):
            calls.append(params)
            return grid_search(params, ms, y)

        monkeypatch.setattr(fitting, "_grid_search", spy)
        path = INPUTS / "labeled.csv"
        argv = ["fit", "--input", str(path), "--model", model, "--out", str(tmp_path / "f.json")]
        assert main(argv) == 0
        labels = len(io.read_shot_csv(path))
        assert len(calls) == searches * labels
        assert len(set(calls)) == searches


class TestFrequencyPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyPoint(m=0, p1_hat=1.2)
        with pytest.raises(ValueError):
            FrequencyPoint(m=-1, p1_hat=0.5)

    def test_from_records(self):
        points = points_from_records([ShotRecord(m=3, shots=8, ones=2)])
        assert points == [FrequencyPoint(m=3, p1_hat=0.25)]


def _result(kind, r2, label=""):
    return FitResult(
        model_kind=kind,
        theta_hat=0.5,
        noise_params=DepolParams(0.9) if kind == "depolarizing" else GaussianNoiseParams(0.0, 0.1),
        sse=0.1,
        r_squared=r2,
        residuals=(0.1,),
        label=label,
    )


class TestFitReport:
    def test_single_result(self):
        rows = fit_report([_result("gaussian", 0.9546)])
        assert len(rows) == 1
        assert rows[0]["best"] == ("gaussian",)

    def test_best_flag_on_max(self):
        rows = fit_report(
            [
                _result("gaussian", 0.9546),
                _result("gaussian_zero_mean", 0.8052),
                _result("depolarizing", 0.8052),
            ]
        )
        assert rows[0]["best"] == ("gaussian",)

    def test_tie_to_four_decimals_flags_both(self):
        rows = fit_report(
            [
                _result("gaussian", 0.89),
                _result("gaussian_zero_mean", 0.89531),
                _result("depolarizing", 0.89534),
            ]
        )
        assert rows[0]["best"] == ("gaussian_zero_mean", "depolarizing")

    def test_rows_sorted_by_label(self):
        rows = fit_report(
            [_result("gaussian", 0.9, label="B"), _result("gaussian", 0.8, label="A")]
        )
        assert [row["label"] for row in rows] == ["A", "B"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_report([])

    def test_natural_tie_via_equivalence(self):
        data = sampled_points(math.pi / 6, 0.0, 0.03, range(20), 1024, seed=55)
        results = [fit_model(data, kind, label="dev") for kind in
                   ("gaussian_zero_mean", "depolarizing")]
        rows = fit_report(results)
        assert set(rows[0]["best"]) == {"gaussian_zero_mean", "depolarizing"}
