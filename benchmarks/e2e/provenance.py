"""What a benchmark result ran on.

:func:`runtime_provenance` runs inside the measuring process (it needs
NumPy and the program loaded); :func:`source_provenance` runs in the
launcher and needs only ``git`` — a checkout without git history
records ``"unknown"``.  Together they answer "what did this run on?"
from the result file alone, and ``compare.py`` refuses to diff results
whose :data:`MATCH_KEYS` differ.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MATCH_KEYS", "runtime_provenance", "source_provenance"]

#: Provenance fields that must agree before two results are compared.
#: ``run_seconds`` and ``rss_watermark_reset`` are added by the measuring
#: process: the run length, and whether every repetition's peak RSS was
#: its own rather than the process-lifetime peak.
MATCH_KEYS = (
    "python", "numpy", "scipy", "blas", "blas_threads", "cpu_count",
    "uses_kernel", "profile", "repro_env", "run_seconds",
    "rss_watermark_reset",
)

_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas() -> List[ctypes.CDLL]:
    """Every OpenBLAS library loaded in this process (NumPy's and SciPy's
    wheels each bundle one)."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            for line in fh:
                path = line.split()[-1]
                if ("openblas" in os.path.basename(path) and ".so" in path
                        and path not in paths):
                    paths.append(path)
    except OSError:
        pass
    return [ctypes.CDLL(path) for path in paths]


def _call(libs: List[ctypes.CDLL], names: Tuple[str, ...], restype: Any) -> Any:
    """Result of the first of ``names`` any library exports, or None."""
    for lib in libs:
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def _blas_info() -> Dict[str, Any]:
    import numpy as np

    info: Dict[str, Any] = {"blas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = _loaded_openblas()
    info["blas_threads"] = _call(libs, _THREADS_SYMBOLS, ctypes.c_int)
    config = _call(libs, _CONFIG_SYMBOLS, ctypes.c_char_p)
    info["blas_config"] = config.decode("ascii", "replace") if config else None
    return info


def runtime_provenance(uses_kernel: Optional[bool]) -> Dict[str, Any]:
    """Interpreter, library, BLAS and host facts of this process."""
    import numpy as np
    import scipy

    prov: Dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "uses_kernel": uses_kernel,
        # Cache locations are paths, not behaviour: leaving them out
        # keeps results from two checkouts comparable.
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_") and not k.endswith("_CACHE")
        },
    }
    prov.update(_blas_info())
    return prov


def source_provenance(root: str) -> Dict[str, Any]:
    """Git SHA and dirty flag of the checkout at ``root``."""
    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", root, *args],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
    }
