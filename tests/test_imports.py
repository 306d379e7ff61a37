"""Every name a package module imports is used there, and the public names are pinned.

A stdlib ``ast`` pass in place of a linter's F401 rule: a name bound by an
import and never read in the module fails, unless its import statement
carries ``# noqa: F401``.  ``__init__.py`` is left out, since it imports only
to re-export; what it re-exports is pinned.
"""

import ast
import types
from pathlib import Path

import numpy as np
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



def numpy_random_uses(source: str) -> tuple[set[str], set[str]]:
    """The ``np.random`` attributes ``source`` reads, and its other reads of a sampler's name.

    A sampler's name is any attribute of numpy's ``Philox`` or ``Generator``
    that ``object`` lacks; ``import numpy`` in any other form than ``import
    numpy as np`` counts as the attribute ``"<import>"``.
    """
    sampler = (set(dir(np.random.Philox)) | set(dir(np.random.Generator))) - set(dir(object))
    module, methods = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            if any(name.partition(".")[0] == "numpy" for name in names) and (
                    ast.unparse(node) != "import numpy as np"):
                module.add("<import>")
        elif isinstance(node, ast.Attribute):
            if ast.unparse(node.value) == "np.random":
                module.add(node.attr)
            elif node.attr in sampler and ast.unparse(node) != "np.random":
                methods.add(node.attr)
    return module, methods


def test_sampler_checker_flags_generator_streams():
    source = (
        "import numpy as np\n"
        "from numpy.random import Philox\n"
        "rng = np.random.default_rng(np.random.Philox(3))\n"
        "print(rng.binomial(10, 0.5), rng.bit_generator.random_raw(), np.random.sample())\n"
    )
    module, methods = numpy_random_uses(source)
    assert module == {"<import>", "default_rng", "Philox", "sample"}
    assert methods == {"binomial", "bit_generator", "random_raw"}


def test_device_rests_on_raw_philox_words():
    # Every sampled golden rests on the raw Philox stream, which
    # tests/test_device.py pins by Random123's known answer.  numpy does not
    # pin a Generator method's stream across versions (NEP 19), so
    # naqae.device takes only Philox from np.random, and reads only
    # random_raw and state of the bit generator.
    module, methods = numpy_random_uses((PACKAGE / "device.py").read_text(encoding="utf-8"))
    assert module == {"Philox"}
    assert methods <= {"random_raw", "state"}, methods
