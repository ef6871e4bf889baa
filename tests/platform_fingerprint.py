"""The numeric platform a test process runs on.

The tests that pin result bytes depend on the host's numeric kernels:
numpy's float64 ``exp``, ``log`` and ``power`` loops round differently
under different SIMD targets, and OpenBLAS picks its kernels by CPU.
:func:`numeric_platform` names those kernels, and the byte-pinned tests
put it in their failure message, so a platform difference reads as one.

Run this file to print it: ``python tests/platform_fingerprint.py``.
"""

import os
import sys

import numpy as np

#: Environment variables that change which kernels numpy and OpenBLAS run.
KERNEL_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _simd() -> str:
    """numpy's baseline SIMD targets and the dispatched ones this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    baseline = " ".join(getattr(umath, "__cpu_baseline__", ())) or "unknown"
    dispatched = " ".join(
        target for target in getattr(umath, "__cpu_dispatch__", ()) if features.get(target)
    )
    return f"baseline {baseline}, dispatched {dispatched or 'none'}"


def _blas() -> str:
    """numpy's BLAS build, as ``np.show_config`` reports it."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    text = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    build = blas.get("openblas configuration")
    return f"{text} ({build})" if build else text


def numeric_platform() -> str:
    """One line naming numpy, its SIMD targets, its BLAS and the kernel
    variables set in the environment."""
    parts = [
        f"python {sys.version.split()[0]}",
        f"numpy {np.__version__}",
        f"SIMD {_simd()}",
        f"BLAS {_blas()}",
    ]
    parts += [f"{name}={os.environ[name]}" for name in KERNEL_VARIABLES if name in os.environ]
    return "numeric platform: " + "; ".join(parts)


if __name__ == "__main__":
    print(numeric_platform())
