"""Shared plumbing: paths, environment, statistics and the run record."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: BLAS threads for every process the benchmark runs. The GP matrices
#: are tiny, and on a small host a threaded BLAS only adds contention
#: with the engine's worker processes, so the setting is pinned and
#: recorded rather than left to the host.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark could not run (missing program, failed launch)."""


#: Scratch space inside the checkout (span dumps, and the temporary
#: files the program makes, such as the engine's blob store).
SCRATCH = os.path.join(ROOT, ".perfbench_out")


def prepare_environment() -> None:
    """Pin BLAS threads, keep temporary files inside the checkout and
    make ``src/`` importable (call before importing the program)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise HarnessError(f"program sources not found under {SRC}")
    for name in _BLAS_VARS:
        os.environ[name] = BLAS_THREADS
    tmp = os.path.join(SCRATCH, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    path = os.environ.get("PYTHONPATH", "")
    if SRC not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field: str) -> float:
    """A ``VmHWM``/``VmRSS`` line of ``/proc/<pid>/status``, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError(f"/proc/{pid}/status has no {field}")


def time_to_ready(argv: List[str], marker: str, timeout_s: float = 60.0) -> float:
    """Seconds from launching ``argv`` to it printing a line with ``marker``.

    The child is expected to exit on its own after the marker.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        for line in child.stdout:
            if marker in line:
                elapsed = time.perf_counter() - started
                break
        else:
            raise HarnessError(
                f"{argv[1:]} exited before ready: {child.stderr.read()[-2000:]}"
            )
        child.wait(timeout=timeout_s)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
        child.stderr.close()
    return elapsed


#: The reference kernel's time (ms) at the nominal host speed that
#: calibrated figures are reported at: the kernel's usual time on the
#: 2-vCPU host the bounds were set on.
REFERENCE_MS = 8.0


def reference_ms(repeats: int = 5) -> float:
    """Median time of a fixed kernel shaped like the program's hot path.

    Small dense linear algebra (a GP-sized Cholesky and solve) plus
    Python-level dict and float work. It shares no code with the
    program, so a change to the program cannot change it; it only
    tracks how fast the host is running right now.

    Shared hosts drift between speed modes about 1.6x apart, for
    seconds to minutes at a time. Timing this kernel next to the
    program's work and scaling that work's time by ``REFERENCE_MS /
    reference`` reports it at the nominal speed: over ten minutes of
    fleet-dense replays this cut the spread (IQR / median) from 14% to
    6.7%. Run records keep the raw times and the host factor.
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((40, 40))
    gram = matrix @ matrix.T + 40.0 * np.eye(40)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for i in range(120):
            chol = np.linalg.cholesky(gram)
            total += float(np.linalg.solve(chol, gram[:, i % 40]).sum())
            table = {j: j * 1.5 for j in range(60)}
            total += sum(table.values())
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def host_factor(references: Sequence[float]) -> float:
    """How much slower than nominal the host ran, from reference times."""
    return statistics.median(references) / REFERENCE_MS


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name, "") for name in _BLAS_VARS},
    }
