"""Paths and the fixed environment every benchmark child process gets."""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside its checkout (git-ignored):
#: per-run temp dirs and the determinism guard's recorded counts.
STATE = HERE / ".state"


class BenchError(RuntimeError):
    """A run that could not produce a trustworthy result."""


def child_env() -> dict:
    """The parent's environment with the run-to-run variables pinned:
    one BLAS/OpenMP thread, a fixed hash seed, unbuffered stdout, and the
    checkout's own sources first on the import path."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    # The program's own switches (cache, ledger, tracing, log level)
    # stay at their defaults unless the benchmark sets them by flag.
    return {name: value for name, value in env.items()
            if not name.startswith("REPRO_")}

