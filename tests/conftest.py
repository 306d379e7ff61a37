"""Shared helpers of the test suite."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a fresh test process: this one's, with this checkout's sources first.

    A RuntimeWarning is an error in the child, as it is in this process
    (pyproject.toml's ``filterwarnings``), and BLAS runs on one thread, which
    must not move a byte of any output.
    """
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                PYTHONWARNINGS="error::RuntimeWarning", OPENBLAS_NUM_THREADS="1", **extra)
