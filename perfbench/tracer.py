"""Span tracer that wraps naqae's public functions from outside the package.

Each traced function is replaced, in every ``naqae`` module that binds it,
by a wrapper that records a span (name, start, end, parent).  Spans are kept
in memory; :meth:`Tracer.span_stats` turns them into per-layer numbers.
The tracer assumes one calling thread, which is why the traced pass runs at
``NAQAE_THREADS=1``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _estimate_observer(counters, args, kwargs, result, seconds):
    records = args[0] if args else kwargs["records"]
    method = args[1] if len(args) > 1 else kwargs.get("method", "naive")
    counters["estimation.records"] += len(records)
    counters["estimation.flat"] += bool(result.flat_likelihood)
    counters["estimation.clamped"] += result.n_clamped
    if method == "corrected":
        counters["estimation.corrected_records"] += len(records)


def _sample_observer(counters, args, kwargs, result, seconds):
    counters["device.shots_drawn"] += result.shots


def _fit_observer(counters, args, kwargs, result, seconds):
    counters[f"fitting.fit_model.{result.model_kind}.busy_s"] += seconds
    counters["fitting.nonconverged"] += not result.converged


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


# (module, function, observer, span namer).  A span is named
# "<module without the package prefix>.<function>" unless a namer is given;
# cli.main is named after its subcommand.
TRACED = (
    ("naqae.cli", "main", None, _cli_name),
    ("naqae.io", "read_shot_csv", None, None),
    ("naqae.io", "write_shot_csv", None, None),
    ("naqae.io", "dump_json", None, None),
    ("naqae.io", "curves_csv", None, None),
    ("naqae.experiments", "config_from_json", None, None),
    ("naqae.experiments", "run_monte_carlo", None, None),
    ("naqae.experiments", "run_qae_trial", None, None),
    ("naqae.estimation", "shot_schedule", None, None),
    ("naqae.estimation", "estimate_amplitude", _estimate_observer, None),
    ("naqae.estimation", "correct_counts", None, None),
    ("naqae.device", "run_depth_sweep", None, None),
    ("naqae.device", "sample_shots", _sample_observer, None),
    ("naqae.fitting", "fit_model", _fit_observer, None),
    ("naqae.fitting", "fit_report", None, None),
)


def covered_seconds(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Records nested spans and counters for one traced pass."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, func, name, observer, namer):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            with self.span(namer(args, kwargs) if namer else name):
                result = func(*args, **kwargs)
            if observer is not None:
                _, start, end, _ = self.spans[index]
                observer(self.counters, args, kwargs, result, end - start)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each naqae module that binds it.

        Raises:
            AttributeError: a traced module lacks the named function, so a
                refactor cannot make a layer silently report zero.
        """
        for module_name, func_name, observer, namer in TRACED:
            module = importlib.import_module(module_name)
            func = getattr(module, func_name, None)
            if not callable(func):
                raise AttributeError(
                    f"tracer: {module_name}.{func_name} is missing or not callable"
                )
            name = f"{module_name.removeprefix('naqae.')}.{func_name}"
            wrapper = self._wrap(func, name, observer, namer)
            owners = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "naqae"]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is func:
                        self._restore.append((owner, attr, func))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._restore):
            setattr(owner, attr, func)
        self._restore.clear()

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s, p50_ms, p95_ms.

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += (end - start) - covered_seconds(start, end, children[index])
        stats = {}
        for name, values in durations.items():
            values.sort()
            stats[name] = {
                "calls": len(values),
                "busy_s": sum(values),
                "self_s": self_s[name],
                "p50_ms": 1e3 * _percentile(values, 50),
                "p95_ms": 1e3 * _percentile(values, 95),
            }
        return stats

    def top_level_busy_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)
