"""The environment a result was measured in."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout at `root`; None when `root` is not the top of a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "blas": blas_info(np),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "seed": seed,
    }
