"""Tests of the benchmark itself: span arithmetic, tracer wiring, smoke runs.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer, covered_seconds  # noqa: E402
from workloads import WORKLOADS, dense_mle, log_likelihood  # noqa: E402


def test_covered_seconds_merges_overlaps_and_clips_to_the_parent():
    assert covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(2.0, 4.0, [(0.0, 1.0), (5.0, 6.0)]) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    t = Tracer()
    # name, start, end, parent index
    t.spans = [
        ["cli.fit", 0.0, 10.0, None],
        ["fitting.fit_model", 1.0, 4.0, 0],
        ["fitting.fit_model", 3.0, 6.0, 0],
        ["io.dump_json", 2.0, 3.0, 1],
        ["cli.fit", 20.0, 21.0, None],
    ]
    stats = t.span_stats()
    assert stats["cli.fit"]["calls"] == 2
    assert stats["cli.fit"]["busy_s"] == 11.0
    assert stats["cli.fit"]["self_s"] == pytest.approx((10.0 - 5.0) + 1.0)
    assert stats["fitting.fit_model"]["self_s"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert stats["io.dump_json"]["self_s"] == 1.0
    assert stats["fitting.fit_model"]["p50_ms"] == 3000.0
    assert t.top_level_busy_s() == 11.0


def test_tracer_wraps_every_binding_and_restores_them():
    import naqae
    from naqae import cli, estimation, experiments

    original = estimation.estimate_amplitude
    t = Tracer()
    t.install()
    try:
        wrapped = estimation.estimate_amplitude
        assert wrapped is not original
        assert cli.estimate_amplitude is wrapped
        assert experiments.estimate_amplitude is wrapped
        assert naqae.estimate_amplitude is wrapped
    finally:
        t.uninstall()
    assert cli.estimate_amplitude is original
    assert experiments.estimate_amplitude is original


def test_tracer_names_a_missing_symbol(monkeypatch):
    monkeypatch.setattr(
        tracer_module, "TRACED", (("naqae.estimation", "estimate_amplitudes", None, None),)
    )
    with pytest.raises(AttributeError, match="naqae.estimation.estimate_amplitudes"):
        Tracer().install()


def test_speed_probe_runs_slices_in_proportion_to_workload_time():
    probe = speed.SpeedProbe()
    assert probe.after(0.5 * speed.INTERVAL_S) == 0.0
    assert probe.after(2.0 * speed.INTERVAL_S) > 0.0
    slices = probe.take()
    assert len(slices) == 2 and all(s > 0.0 for s in slices)
    assert len(probe.take()) == 1  # a pass always gets one slice
    assert speed.slowdown([speed.REFERENCE_S, 3.0 * speed.REFERENCE_S]) == pytest.approx(2.0)


def test_dense_mle_matches_a_brute_force_grid():
    ks = 2.0 * np.array([0, 1, 2, 4, 8, 16, 32, 64], dtype=float) + 1.0
    shots = np.full(ks.size, 50.0)
    rng = np.random.default_rng(5)
    datasets = [rng.binomial(50, np.sin(ks * 0.9) ** 2).astype(float) for _ in range(5)]
    thetas = np.linspace(0.0, np.pi / 2.0, 400_001)
    for counts, (theta, value) in zip(datasets, dense_mle(ks, datasets, shots)):
        grid = [log_likelihood(t, ks, counts, shots) for t in thetas[::50]]
        coarse = int(np.argmax(grid)) * 50
        local = thetas[max(coarse - 50, 0):coarse + 51]
        brute = max(log_likelihood(t, ks, counts, shots) for t in local)
        assert value >= brute - 1e-9
        assert value == pytest.approx(log_likelihood(theta, ks, counts, shots))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_correctly(name, trace):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run.run_benchmark(WORKLOADS[name](seed=3, tiny=True), 0.0, trace, declared, {})
    assert result["correct"]
    assert result["failed"] == 0
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
