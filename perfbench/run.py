"""Benchmark naqae end to end through its CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_criterion9 --seed 1 --seconds 30 --trace 0

The workload's inputs are made from the seed and ``naqae.cli.main`` is called
in-process on them, pass after pass, for ``--seconds`` seconds at
``NAQAE_THREADS = min(2, nproc)``.  Every pass must write the same bytes as
the first.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` an untraced and
a traced pass follow at ``NAQAE_THREADS=1`` and the object holds the
per-layer metrics instead.  ``setup_s``, and the pass times of workloads
whose calls are short, are scaled by the machine's speed, which a probe run
between the calls measures (see ``speed.py``).  Machine facts
and all metrics of a run are also written to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import INTERVAL_S, SpeedProbe, slowdown
from tracer import TRACED, Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_SPAWNS = 7
CLI_COMMANDS = ("schedule", "simulate", "fit", "estimate", "experiment")


def measure_setup_s(probe: SpeedProbe) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to ``import naqae.cli`` done.

    One spawn first warms the bytecode cache and is not counted.  Each spawn
    is followed by the probe slices its time owes, and the median is scaled
    by all of them.  Returns (scaled median, wall-clock median).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import naqae.cli, time; print(time.monotonic()); print(naqae.cli.__file__)"
    samples, slices = [], []
    for _ in range(SETUP_SPAWNS + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        done, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported naqae from {path}")
        samples.append(float(done) - start)
        slices += [probe.run_slice() for _ in range(max(1, round(samples[-1] / INTERVAL_S)))]
    wall = statistics.median(samples[1:])
    return wall / slowdown(slices), wall


def invoke(cli, argv) -> tuple[int, str]:
    """Run ``naqae <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    if code != 0:
        print(f"naqae {' '.join(argv)} -> {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def run_pass(cli, workload, work: Path, probe: SpeedProbe | None = None):
    """One pass of the workload's calls; returns (seconds, outputs, failed calls).

    With a ``probe``, the slices owed are run after each call; their time is
    not in the pass's seconds.
    """
    for call in workload.calls:
        for name in call.outputs:
            (work / name).unlink(missing_ok=True)
    codes, stdouts = [], {}
    probing = 0.0
    start = time.perf_counter()
    for call in workload.calls:
        called = time.perf_counter()
        code, stdout = invoke(cli, call.argv)
        codes.append(code)
        if call.stdout_name:
            stdouts[call.stdout_name] = stdout
        if probe is not None:
            probing += probe.after(time.perf_counter() - called)
    seconds = time.perf_counter() - start - probing
    outputs = {name: text.encode("utf-8") for name, text in stdouts.items()}
    failed = set()
    for i, call in enumerate(workload.calls):
        if codes[i] != 0:
            failed.add(i)
        for name in call.outputs:
            path = work / name
            if path.is_file():
                outputs[name] = path.read_bytes()
            else:
                failed.add(i)
    return seconds, outputs, failed


def mismatched_calls(workload, outputs, reference) -> set[int]:
    """Calls whose output bytes differ from the reference pass."""
    return {
        i for i, call in enumerate(workload.calls)
        for name in (call.outputs + ((call.stdout_name,) if call.stdout_name else ()))
        if outputs.get(name) != reference.get(name)
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, bytes_written: int):
    """Every per-layer number the traced pass gives, by metric name."""
    stats = {f"{m.removeprefix('naqae.')}.{f}": None for m, f, _, _ in TRACED if f != "main"}
    stats.update({f"cli.{c}": None for c in CLI_COMMANDS})
    stats.update(tracer.span_stats())
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "p95_ms": 0.0}
    metrics = {}
    for name, values in stats.items():
        for key, value in (values or zero).items():
            metrics[f"{name}.{key}"] = value
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = metrics["estimation.estimate_amplitude.calls"]
    metrics.update({
        "estimation.records_per_call": ratio(c["estimation.records"], calls),
        "estimation.clamp_ratio": ratio(c["estimation.clamped"], c["estimation.corrected_records"]),
        "estimation.flat_ratio": ratio(c["estimation.flat"], calls),
        "device.shots_drawn": c["device.shots_drawn"],
        "device.shots_per_s": ratio(c["device.shots_drawn"], metrics["device.sample_shots.busy_s"]),
        "fitting.nonconverged_ratio": ratio(c["fitting.nonconverged"], metrics["fitting.fit_model.calls"]),
        "io.bytes_written": bytes_written,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.coverage": ratio(tracer.top_level_busy_s(), traced_s),
    })
    for kind in ("gaussian", "gaussian_zero_mean", "depolarizing"):
        metrics[f"fitting.fit_model.{kind}.busy_s"] = c[f"fitting.fit_model.{kind}.busy_s"]
    return metrics


def select(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_benchmark(workload, seconds: float, trace: bool, declared: dict, facts: dict) -> dict:
    """Time, check and (with ``trace``) trace one workload; returns the result."""
    from naqae import cli

    threads = min(2, os.cpu_count() or 1)
    facts.update(nproc=os.cpu_count(), loadavg_start=os.getloadavg(), NAQAE_THREADS=threads)
    probe = SpeedProbe()
    setup_s, wall_setup_s = (None, None) if trace else measure_setup_s(probe)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    saved_threads = os.environ.get("NAQAE_THREADS")
    try:
        workload.prepare(work)
        os.environ["NAQAE_THREADS"] = str(threads)
        pass_s, slowdowns, failed, attempted = [], [], 0, 0
        reference = None
        started = time.perf_counter()
        while True:
            pass_seconds, outputs, bad = run_pass(
                cli, workload, work, probe if workload.scaled else None)
            slowdowns.append(slowdown(probe.take()) if workload.scaled else 1.0)
            if reference is None:
                reference = outputs
            bad |= mismatched_calls(workload, outputs, reference)
            pass_s.append(pass_seconds)
            attempted += len(workload.calls)
            failed += len(bad)
            elapsed = time.perf_counter() - started
            if len(pass_s) >= MIN_PASSES and elapsed + pass_seconds > seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if trace:
            os.environ["NAQAE_THREADS"] = "1"
            serial_s, outputs, bad = run_pass(cli, workload, work)
            bad |= mismatched_calls(workload, outputs, reference)
            tracer = Tracer()
            tracer.install()
            try:
                traced_s, outputs, traced_bad = run_pass(cli, workload, work)
            finally:
                tracer.uninstall()
            traced_bad |= mismatched_calls(workload, outputs, reference)
            attempted += 2 * len(workload.calls)
            failed += len(bad) + len(traced_bad)
            written = sum(len(outputs.get(n, b"")) for call in workload.calls for n in call.outputs)
            layers = layer_metrics(tracer, traced_s, serial_s, written)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved_threads is None:
            os.environ.pop("NAQAE_THREADS", None)
        else:
            os.environ["NAQAE_THREADS"] = saved_threads

    try:
        outcome = workload.check(reference)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        outcome = Outcome(problems=[f"unreadable output: {exc!r}"])
    for problem in outcome.problems:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    for note in outcome.notes:
        print(f"oracle note: {note}")
    e2e = {
        "setup_s": setup_s,
        # Each pass's time scaled to the reference machine speed, where the
        # workload's calls let the probe interleave with them.
        "items_per_s": statistics.median(
            workload.items * slow / s for s, slow in zip(pass_s, slowdowns)),
        "peak_rss_mib": peak_rss_mib,
        # (misses + 1/2) / (checked + 1): the Jeffreys estimate of the miss
        # probability, which is never 0, so a relative bound applies to it.
        "oracle_miss_rate": (outcome.missed + 0.5) / (outcome.checked + 1),
        "call_ok_frac": (attempted - failed) / attempted,
    }
    shown = {
        **e2e,
        "wall_setup_s": wall_setup_s,
        "wall_items_per_s": statistics.median(workload.items / s for s in pass_s),
        "oracle_miss_frac": outcome.missed / outcome.checked if outcome.checked else 0.0,
        "failed_frac": failed / attempted,
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(oracle_miss_frac="ratio", failed_frac="ratio", wall_setup_s="s",
                 wall_items_per_s="items/s")
    facts["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(facts))
    print(f"passes {len(pass_s)}: " + " ".join(f"{s:.3f}s" for s in pass_s)
          + f"; {workload.items} items each; oracle missed {outcome.missed}/{outcome.checked}")
    print("slowdown " + " ".join(f"{slow:.3f}" for slow in slowdowns))
    for name, value in shown.items():
        if value is not None:
            print(f"{name:>18} {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(declared["per_layer"], layers) if trace
        else select(declared["end_to_end"], e2e),
    }
    record = {"machine": facts, "pass_s": pass_s, "slowdown": slowdowns, "end_to_end": shown,
              "notes": outcome.notes, "per_layer": layers if trace else None, "result": result}
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload.name}-seed{workload.seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "naqae" / "__init__.py").is_file():
        print(f"perfbench: no naqae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import naqae

    if not Path(naqae.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported naqae from {naqae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": git_commit(),
    }
    workload = WORKLOADS[args.workload](args.seed)
    result = run_benchmark(workload, args.seconds, bool(args.trace), declared, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
