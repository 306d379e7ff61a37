"""Every name a package module imports is used there, and the public names are pinned.

A stdlib ``ast`` pass in place of a linter's F401 rule: a name bound by an
import and never read in the module fails, unless its import statement
carries ``# noqa: F401``.  ``__init__.py`` is left out, since it imports only
to re-export; what it re-exports is pinned.
"""

import ast
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "naqae"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that are never read, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import dumps as _dumps, loads\n"
        "from re import (  # noqa: F401\n"
        "    compile,\n"
        ")\n"
        "print(os.path.sep, loads)\n"
    )
    assert unused_imports(source) == ["3: _dumps", "1: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# naqae's public names.  perfbench/tracer.py wraps config_from_json,
# run_monte_carlo, run_qae_trial, shot_schedule, estimate_amplitude,
# correct_counts, run_depth_sweep, sample_shots, fit_model and fit_report in
# every naqae module that binds them, this package's namespace included, and
# its observers read AmplitudeEstimate, ShotRecord and FitResult fields.
# ROADMAP item 7 gives the reason each other name stays.
PUBLIC_NAMES = (
    "Amplitude", "AmplitudeEstimate", "DegenerateDataError", "DepolParams",
    "ExperimentConfig", "FitResult", "FrequencyPoint", "GaussianNoiseParams",
    "InternalConsistencyError", "MODEL_KINDS", "NaqaeError", "PRESET_THETAS",
    "QuadratureError", "RmseCurve", "SETTINGS", "ShotRecord", "ShotSchedule",
    "SimulatedDevice", "config_from_json", "correct_counts", "correct_frequency",
    "depol_equivalent", "estimate_amplitude", "fit_model", "fit_report",
    "misspecification_sweep", "noise_from_dict", "noise_from_spec", "p1_depolarizing",
    "p1_gaussian_closed", "p1_gaussian_quadrature", "p_diff_gaussian_closed",
    "points_from_records", "preset_device", "r_squared", "run_depth_sweep",
    "run_monte_carlo", "run_qae_trial", "sample_shots", "shot_schedule",
    "worst_case_variance",
)


def test_public_names_are_pinned():
    import naqae

    public = [
        name for name, value in vars(naqae).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(public) == sorted(PUBLIC_NAMES)

