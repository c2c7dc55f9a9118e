"""Process environment for the benchmark: thread pinning, locating the
program under test, and the environment record attached to every result.

Import this module before numpy: the BLAS thread count is read from the
environment when the BLAS library loads.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # fixed, and no larger than nproc on any machine
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def child_env():
    """Environment for child interpreters: pinned threads, checkout's src."""
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in _THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_threads():
    os.environ.update({v: str(BLAS_THREADS) for v in _THREAD_VARS})


class MissingProgram(RuntimeError):
    """The checkout holds no cpwloss sources to measure."""


def import_cpwloss():
    """Import cpwloss from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cpwloss" / "__init__.py").is_file():
        raise MissingProgram(f"no cpwloss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpwloss

    if Path(cpwloss.__file__).resolve().parent != SRC / "cpwloss":
        raise MissingProgram(f"cpwloss imported from {cpwloss.__file__}, "
                             f"not from {SRC}")
    return cpwloss


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_vendor():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git():
    """Commit and dirty flag; None outside a git checkout (no parent lookup)."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment():
    import numpy as np
    import scipy

    commit, dirty = _git()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
    }
