"""Shared helpers of the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from naqae.device import _count_ones

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a fresh test process: this one's, with this checkout's sources first.

    A RuntimeWarning is an error in the child, as it is in this process
    (pyproject.toml's ``filterwarnings``), and BLAS runs on one thread, which
    must not move a byte of any output.  ``extra`` is set last, so it may
    change any of these.
    """
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
               PYTHONWARNINGS="error::RuntimeWarning", OPENBLAS_NUM_THREADS="1")
    env.update(extra)
    return env


def numpy_stream(seed: int, lane: int, row: int, m: int) -> np.random.Generator:
    """The reference stream of tally (seed, lane, row, m): numpy's Philox at its key and counter.

    ``Philox(key=(seed, lane), counter=(0, m, row, 0))``, with negative seeds
    and rows as unsigned 64-bit.  Key and counter go in as uint64 arrays: as
    a list, ``[2**64 - 1, 3]`` would become a float64 array and lose its bits.
    """
    key = np.array([seed % 2**64, lane], np.uint64)
    counter = np.array([0, m, row % 2**64, 0], np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def reference_tally(seed: int, lane: int, row: int, m: int, shots: int, p1: float) -> int:
    """Tally (seed, lane, row, m): ``device._count_ones`` on :func:`numpy_stream`'s fresh Philox."""
    return _count_ones(numpy_stream(seed, lane, row, m).bit_generator, shots, p1)
