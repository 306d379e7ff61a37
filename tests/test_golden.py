"""Byte-for-byte comparison of CLI outputs against pinned golden files.

``CASES`` is the one list of golden commands.  Each case runs one ``naqae``
command in-process and compares its stdout and every file it writes with
``tests/golden/<case>.<name>``; each also runs in fresh processes, through
``python -m naqae.cli`` and, where installed, the ``naqae`` console script.
Inputs live in ``tests/golden/inputs``.  A change that alters a golden must
say why.

Regenerate the goldens (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --regenerate

Run with any other arguments, the script prints this usage, exits with
status 2 and writes nothing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from naqae.cli import main
from naqae.experiments import config_from_json, misspecification_sweep
from naqae.io import curves_csv, fmt12

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> argv.  "{in}" expands to the inputs directory and "{out}" to a
# scratch directory; every file written under "{out}" must be named
# "<case>.<suffix>" and is compared with tests/golden/<case>.<suffix>.
CASES: dict[str, list[str]] = {
    "simulate_gaussian": ["simulate", "--preset", "A1", "--noise", "gaussian:0.05,0.02",
                          "--depths", "0..20", "--shots", "4096", "--seed", "42"],
    "simulate_depol": ["simulate", "--theta", "0.5", "--noise", "depol:0.9",
                       "--depths", "0,2,4,8", "--shots", "50,60,70,80", "--seed", "3",
                       "--out", "{out}/simulate_depol.csv"],
    "simulate_none": ["simulate", "--preset", "A2", "--noise", "none",
                      "--depths", "0..6", "--shots", "128", "--seed", "4"],
    "simulate_default_noise": ["simulate", "--preset", "A3",
                               "--depths", "0..8", "--shots", "100", "--seed", "5"],
    # Path words at their edges: seed -1 is the key word 2**64 - 1, and depths
    # 2**32 - 1 and 2**32 fill and overflow the low half of the counter's depth word.
    "simulate_wide_seeds": ["simulate", "--theta", "0.7", "--noise", "gaussian:0.02,0.04",
                            "--depths", "0,1,5,4294967295,4294967296", "--shots", "257",
                            "--seed", "-1"],
    "simulate_wide_seeds_33bit": ["simulate", "--preset", "A4", "--noise", "none",
                                  "--depths", "0,2,7,4294967296", "--shots", "300",
                                  "--seed", "6000000007"],
    # 2**20 + 1 shots: every tally crosses a chunk boundary, and the noiseless
    # depths 1 and 4 measure 1 with certainty.
    "simulate_multichunk": ["simulate", "--preset", "A1", "--noise", "none",
                            "--depths", "0..4", "--shots", "1048577", "--seed", "11",
                            "--out", "{out}/simulate_multichunk.csv"],
    "fit_all": ["fit", "--input", "{in}/labeled.csv", "--model", "all",
                "--out", "{out}/fit_all.json", "--table", "{out}/fit_all.table.csv"],
    "fit_all_stdout": ["fit", "--input", "{in}/labeled.csv"],
    "fit_all_out_only": ["fit", "--input", "{in}/labeled.csv", "--out", "{out}/fit_all_out_only.json"],
    "fit_gaussian": ["fit", "--input", "{in}/labeled.csv", "--model", "gaussian"],
    "fit_zero_mean": ["fit", "--input", "{in}/labeled.csv", "--model", "zero-mean"],
    "fit_depol": ["fit", "--input", "{in}/labeled.csv", "--model", "depol",
                  "--out", "{out}/fit_depol.json"],
    # 24 labelled datasets: noiseless, drift, zero-mean, depolarizing and uniform-random
    # tallies on 4-29 depths with 16-2048 shots, down to the 4-point gaussian minimum.
    "fit_corpus": ["fit", "--input", "{in}/fit_corpus.csv", "--model", "all",
                   "--out", "{out}/fit_corpus.json", "--table", "{out}/fit_corpus.table.csv"],
    # 3 points: the minimum of the two-parameter families (--model all rejects it).
    "fit_three_points_zero_mean": ["fit", "--input", "{in}/fit_three_points.csv",
                                   "--model", "zero-mean"],
    "fit_three_points_depol": ["fit", "--input", "{in}/fit_three_points.csv", "--model", "depol"],
    "estimate_naive": ["estimate", "--input", "{in}/labeled.csv"],
    "estimate_corrected": ["estimate", "--input", "{in}/labeled.csv", "--method", "corrected",
                           "--p-coh", "0.94", "--out", "{out}/estimate_corrected.json"],
    # Three labels on depths 0, 1, 2, 4, ..., 4096 at 100 shots: the deep fringes of one
    # estimate per label (noiseless, depolarizing and gaussian tallies).
    "estimate_deep_naive": ["estimate", "--input", "{in}/deep.csv"],
    "estimate_deep_corrected": ["estimate", "--input", "{in}/deep.csv", "--method", "corrected",
                                "--p-coh", "0.9998"],
    "schedule_nearest": ["schedule", "--depths", "0..12", "--base-shots", "20",
                         "--k-sigma", "0.055"],
    "schedule_up": ["schedule", "--depths", "0,3,9,27", "--base-shots", "7",
                    "--k-sigma", "0.13", "--rounding", "up", "--out", "{out}/schedule_up.json"],
    "experiment_gaussian": ["experiment", "--config", "{in}/config_gaussian.json"],
    "experiment_depolarizing": ["experiment", "--config", "{in}/config_depolarizing.json",
                                "--out", "{out}/experiment_depolarizing.csv"],
    "experiment_none": ["experiment", "--config", "{in}/config_none.json"],
    "experiment_default_noise": ["experiment", "--config", "{in}/config_default_noise.json"],
    # The benchmark's criterion-9 run at seed 1: 2600 sampled records.
    "experiment_criterion9": ["experiment", "--config", "{in}/config_criterion9.json"],
    # A negative seed: setting i's key is (2**64 - 7, 1 + i).
    "experiment_wide_seed": ["experiment", "--config", "{in}/config_wide_seed.json"],
    # Depths 0..26 past level 0 (0..21): prefixes 22-26 search 6 rows per setting.
    "experiment_past_level0": ["experiment", "--config", "{in}/config_past_level0.json"],
}


def expand(text: str, out_dir: Path) -> str:
    """``text`` with "{in}" expanded to the inputs directory and "{out}" to ``out_dir``."""
    return text.replace("{in}", str(INPUTS)).replace("{out}", str(out_dir))


def case_outputs(name: str, stdout: bytes, out_dir: Path) -> dict[str, bytes]:
    """A case's golden file name -> bytes: its ``stdout`` and every file it wrote to ``out_dir``."""
    outputs = {f"{name}.stdout": stdout}
    for path in sorted(out_dir.iterdir()):
        if not path.name.startswith(f"{name}."):
            raise AssertionError(f"{name}: wrote unexpected file {path.name}")
        outputs[path.name] = path.read_bytes()
    return outputs


def run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case in-process; returns golden file name -> bytes (stdout included)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([expand(a, out_dir) for a in CASES[name]])
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return case_outputs(name, stdout.getvalue().encode("utf-8"), out_dir)


def assert_matches_golden(name: str, outputs: dict[str, bytes]) -> None:
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    for file_name, data in outputs.items():
        assert data == (GOLDEN / file_name).read_bytes(), f"{file_name} differs from its golden"


def sweep_csv() -> bytes:
    """Curves of the misspecification sweep on the gaussian config, per factor."""
    doc = json.loads((INPUTS / "config_gaussian.json").read_text(encoding="utf-8"))
    sweep = misspecification_sweep(config_from_json(doc), factors=(0.5, 2.0))
    return "".join(f"factor {fmt12(f)}\n{curves_csv(c)}" for f, c in sweep.items()).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert_matches_golden(name, run_case(name, tmp_path))


def test_misspecification_sweep_matches_golden():
    assert sweep_csv() == (GOLDEN / "misspecification_sweep.csv").read_bytes()


def test_every_golden_has_a_source():
    # Each case's test matches its own "<case>.*" files; no other file may lie in
    # tests/golden but the sweep, so a regeneration leaves no orphan.
    orphans = [p.name for p in GOLDEN.iterdir() if p.is_file()
               and p.name != "misspecification_sweep.csv" and p.name.split(".")[0] not in CASES]
    assert orphans == []
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == ["inputs"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["--regenerate", "now"]], ids=["none", "help", "extra"])
def test_script_writes_goldens_only_when_asked(argv):
    # Run as a script without exactly --regenerate, it must leave every golden untouched
    files = sorted(p for p in GOLDEN.rglob("*") if p.is_file())
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in files]
    result = subprocess.run(
        [sys.executable, __file__, *argv], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert result.returncode == 2
    assert "--regenerate" in result.stderr
    assert sorted(p for p in GOLDEN.rglob("*") if p.is_file()) == files
    assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in files] == before


# The console script that ``pip install`` puts next to this interpreter.
SCRIPT = Path(sys.executable).with_name("naqae")
LAUNCHERS = ("module", "script")
# Commands a fresh process must refuse, each given --out: argv, the shot CSV
# written to "{out}/shots.csv" first (None for none), and the error message.
REFUSALS = {
    "past_search_limit": (
        ["experiment", "--config", "{in}/config_past_search_limit.json"], None,
        "depths with 1049600 zeros of sin and cos in [0, pi/2] are past the theta search's "
        "limit of 1048576 (sum of 2m + 2 over the depths)"),
    "nan_p1": (
        ["simulate", "--theta", "0.5", "--noise", "gaussian:1e308,0.1", "--depths", "0..3",
         "--shots", "10"], None,
        "p(1) at depth 2 is nan: the noise parameters overflow"),
    "header_only": (
        ["fit", "--input", "{out}/shots.csv"], "m,shots,ones\n",
        "{out}/shots.csv: no tally rows"),
    "long_cell": (
        ["estimate", "--input", "{out}/shots.csv"], "m,shots,ones\n0,10," + "1" * 131_073 + "\n",
        "{out}/shots.csv: line 2: field larger than field limit (131072)"),
}


def run_fresh(launcher: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``naqae argv`` in a fresh process, as ``python -m naqae.cli`` or the console script.

    The console script runs without this checkout on PYTHONPATH: the installed
    distribution must import naqae by itself.  Without the script, the test skips.
    """
    env = child_env()
    if launcher == "module":
        command = [sys.executable, "-m", "naqae.cli"]
    elif SCRIPT.is_file():
        command = [str(SCRIPT)]
        del env["PYTHONPATH"]
    else:
        pytest.skip(f"no console script at {SCRIPT}")
    return subprocess.run([*command, *argv], capture_output=True, env=env, timeout=300)


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_output_matches_golden(launcher, name, tmp_path):
    """A case's command, run in a fresh process, gives its goldens and exits 0 in silence.

    Beyond the in-process golden test, this proves what only a new process
    shows: ``naqae.cli``'s ``__main__`` guard, the installed console script and
    its entry point, a run from cold caches, the exit code and stderr the shell
    sees, no RuntimeWarning from a cold start, and the same bytes on one BLAS thread.
    """
    result = run_fresh(launcher, [expand(a, tmp_path) for a in CASES[name]])
    assert (result.returncode, result.stderr) == (0, b"")
    assert_matches_golden(name, case_outputs(name, result.stdout, tmp_path))


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_fresh_process_refuses(launcher, name, tmp_path):
    # Exit 1, nothing on stdout, the one error line on stderr, and no --out file.
    argv, csv, message = REFUSALS[name]
    if csv is not None:
        (tmp_path / "shots.csv").write_text(csv, encoding="utf-8")
    out = tmp_path / "refused.out"
    result = run_fresh(launcher, [expand(a, tmp_path) for a in [*argv, "--out", str(out)]])
    assert (result.returncode, result.stdout, out.exists()) == (1, b"", False)
    assert result.stderr.decode() == f"naqae: error: {expand(message, tmp_path)}\n"


try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy < 2 names no dispatch levels; every level skips
    CPU_FEATURES = {}

# Reduced SIMD dispatch levels: the feature a level turns off, which the CPU
# must have (numpy silently ignores a feature the CPU lacks, so the level
# would rerun the default kernels), and its NPY_DISABLE_CPU_FEATURES value.
DISPATCH_LEVELS = {
    "avx2": ("X86_V4", "X86_V4 AVX512_ICL AVX512_SPR"),
    "baseline": ("X86_V3", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"),
}

# Run in a fresh process: every case and the sweep, printing each golden
# file whose bytes differ.  It exits first if numpy kept a named feature on.
_RERUN = """\
import os, sys, tempfile
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
disabled = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
if any(__cpu_features__.get(feature) for feature in disabled):
    sys.exit(f"numpy kept some of {disabled} on")
sys.path.insert(0, sys.argv[1])
import test_golden as g
outputs = {"misspecification_sweep.csv": g.sweep_csv()}
for case in sorted(g.CASES):
    with tempfile.TemporaryDirectory() as tmp:
        outputs.update(g.run_case(case, Path(tmp)))
for name, data in sorted(outputs.items()):
    if not (g.GOLDEN / name).is_file() or (g.GOLDEN / name).read_bytes() != data:
        print(name)
"""


@functools.cache
def goldens_differing(level: str) -> list[str]:
    """The golden files whose bytes differ with every case rerun at a dispatch level."""
    feature, disabled = DISPATCH_LEVELS[level]
    if not CPU_FEATURES.get(feature):
        pytest.skip(f"this CPU lacks {feature}, so numpy already runs below the {level} level")
    result = subprocess.run(
        [sys.executable, "-c", _RERUN, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env=child_env(NPY_DISABLE_CPU_FEATURES=disabled),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize("case", sorted([*CASES, "misspecification_sweep"]))
@pytest.mark.parametrize("level", sorted(DISPATCH_LEVELS))
def test_goldens_hold_under_reduced_dispatch(level, case):
    # The last bits of numpy's exp, power, log and log1p differ between kernels.
    # Each noise decay goes through libm, and every golden keeps its bytes.
    assert [name for name in goldens_differing(level) if name.split(".")[0] == case] == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--regenerate"]:
        print(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate", file=sys.stderr)
        sys.exit(2)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, data in run_case(case, Path(tmp)).items():
                (GOLDEN / file_name).write_bytes(data)
    (GOLDEN / "misspecification_sweep.csv").write_bytes(sweep_csv())
