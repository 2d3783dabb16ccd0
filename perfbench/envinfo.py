"""Read-only stamp of the machine and toolchain a result was measured on.

Nothing here changes the process: the BLAS thread count is read, never
set (the program owns that knob).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from pathlib import Path


def _blas_threads(numpy) -> int | None:
    """``openblas_get_num_threads()`` of the OpenBLAS numpy loaded, if any."""
    package = Path(numpy.__file__).parent
    candidates = glob.glob(str(package.parent / "numpy.libs" / "*openblas*"))
    candidates += glob.glob(str(package / ".libs" / "*openblas*"))
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in candidates:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_commit(repo_root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(repo_root.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment(repo_root: Path) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy or an unusual build
        pass
    return {
        "cpu_count": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(numpy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "git_commit": _git_commit(repo_root),
    }
