"""Analytic workload performance models.

The paper evaluates SATORI on real PARSEC / CloudSuite / ECP binaries
on a Skylake server. SATORI itself observes nothing about a workload
except its sampled instructions-per-second (IPS) under a resource
allocation, so the reproduction replaces each binary with an analytic
*roofline* model that maps an allocation of (cores, LLC ways, memory
bandwidth, optional power) to an IPS value:

``ips = smoothmin(compute_rate(cores, power), memory_rate(ways, bandwidth))``

* ``compute_rate`` follows Amdahl scaling over the allocated cores,
  optionally derated by a power cap.
* ``memory_rate`` is the IPS sustainable by the memory system: the
  allocated bandwidth divided by the bytes each instruction moves,
  where the per-instruction miss traffic falls exponentially as the
  allocated LLC share approaches the phase's working set.

The model deliberately couples LLC ways and memory bandwidth — more
ways mean fewer misses mean less bandwidth needed — which is exactly
the cross-resource "correlated utility" the paper argues makes joint
exploration of resources necessary (Sec. I, Sec. VI).

Program *phases* (Sec. II, Fig. 1) are modeled as a cyclic schedule of
parameter sets, so the optimal configuration drifts over time just as
the paper measures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    POWER,
    ResourceCatalog,
)

#: Cache line size in bytes; one LLC miss moves one line.
CACHE_LINE_BYTES = 64.0

#: Exponent of the smooth-min combining compute and memory rooflines.
#: Larger values sharpen the corner; 4 reproduces the gradual roofline
#: knees measured on real hardware.
SMOOTHMIN_POWER = 4.0

ArrayLike = Union[float, np.ndarray]


def smoothmin(a: ArrayLike, b: ArrayLike, power: float = SMOOTHMIN_POWER) -> ArrayLike:
    """Smooth approximation of ``min(a, b)`` (p-norm of reciprocals).

    Always below both inputs and differentiable, matching the soft
    knee of measured rooflines. Vectorized over numpy arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # The outer base must stay an ndarray: numpy's scalar-math ``**``
    # rounds differently (by 1 ulp) from the array ufunc, and 0-d
    # operations return scalars — without the asarray, scalar and
    # batched evaluations of the same allocation could disagree.
    return _float_if_0d(np.asarray(a ** -power + b ** -power) ** (-1.0 / power))


def _float_if_0d(out: np.ndarray) -> ArrayLike:
    """A 0-d result as a Python ``float``; any other array unchanged."""
    if out.ndim == 0:
        return float(out)
    return out


class Roofline:
    """The roofline formulas, written once for :class:`Phase` and
    :class:`PhaseVector`.

    Subclasses supply the parameters as attributes: Python floats on a
    :class:`Phase` (0-d results come back as ``float``), ``(n_jobs,)``
    arrays on a :class:`PhaseVector` (results broadcast against
    allocations shaped ``(..., n_jobs)``). Each formula is elementwise,
    so a :class:`PhaseVector` result is bit-identical to a loop of
    :class:`Phase` calls.
    """

    ips_per_core: ArrayLike
    parallel_fraction: ArrayLike
    working_set_bytes: ArrayLike
    miss_peak: ArrayLike
    miss_floor: ArrayLike
    stream_bytes_per_instr: ArrayLike

    def amdahl_speedup(self, cores: ArrayLike) -> ArrayLike:
        """Amdahl's-law speedup of ``cores`` over one core."""
        cores = np.asarray(cores, dtype=float)
        serial = 1.0 - self.parallel_fraction
        return _float_if_0d(1.0 / (serial + self.parallel_fraction / np.maximum(cores, 1e-9)))

    def compute_rate(self, cores: ArrayLike, frequency_factor: ArrayLike = 1.0) -> ArrayLike:
        """IPS when compute-bound on ``cores`` cores."""
        return self.ips_per_core * np.asarray(frequency_factor, dtype=float) * np.asarray(
            self.amdahl_speedup(cores)
        )

    def miss_rate(self, cache_bytes: ArrayLike) -> ArrayLike:
        """LLC misses per instruction given ``cache_bytes`` of LLC.

        The curve is a logistic *cliff* centred below the working-set
        size: allocating cache yields little until the hot set fits,
        then misses collapse toward the floor. Measured LLC
        miss-ratio curves have exactly this knee shape, and the
        resulting all-or-nothing utility is what creates local maxima
        in the partitioning landscape (one more way is worthless; three
        more ways are decisive) — the non-convexity that defeats
        one-dimension-at-a-time searches (Sec. I, Sec. V scalability).
        """
        cache_bytes = np.asarray(cache_bytes, dtype=float)
        midpoint = 0.6 * self.working_set_bytes
        width = self.working_set_bytes / 8.0
        exponent = np.clip((midpoint - cache_bytes) / width, -60.0, 60.0)
        cliff = 1.0 / (1.0 + np.exp(-exponent))
        return _float_if_0d(self.miss_floor + (self.miss_peak - self.miss_floor) * cliff)

    def bytes_per_instruction(self, cache_bytes: ArrayLike) -> ArrayLike:
        """Memory traffic per instruction under ``cache_bytes`` of LLC."""
        return np.asarray(self.miss_rate(cache_bytes)) * CACHE_LINE_BYTES + self.stream_bytes_per_instr

    def memory_rate(self, cache_bytes: ArrayLike, bandwidth_bytes: ArrayLike) -> ArrayLike:
        """IPS sustainable by the memory system."""
        bpi = np.asarray(self.bytes_per_instruction(cache_bytes), dtype=float)
        return _float_if_0d(np.asarray(bandwidth_bytes, dtype=float) / np.maximum(bpi, 1e-12))

    def ips(
        self,
        cores: ArrayLike,
        cache_bytes: ArrayLike,
        bandwidth_bytes: ArrayLike,
        frequency_factor: ArrayLike = 1.0,
    ) -> ArrayLike:
        """Model IPS under an allocation (the roofline smooth-min)."""
        return smoothmin(
            self.compute_rate(cores, frequency_factor),
            self.memory_rate(cache_bytes, bandwidth_bytes),
        )


@dataclass(frozen=True)
class Phase(Roofline):
    """Performance parameters during one program phase.

    Attributes:
        ips_per_core: instructions/second one core retires when the
            phase is purely compute-bound at nominal frequency.
        parallel_fraction: Amdahl parallel fraction in ``[0, 1]``; 1.0
            scales linearly with cores, 0.0 ignores extra cores.
        working_set_bytes: LLC footprint; misses fall exponentially as
            the allocated cache approaches this size.
        miss_peak: LLC misses per instruction with minimal cache.
        miss_floor: residual misses per instruction with infinite cache
            (compulsory misses / streaming accesses).
        stream_bytes_per_instr: memory traffic per instruction that no
            amount of cache removes (write streams, NT stores).
        power_exponent: frequency response to the power-cap share;
            effective frequency multiplier is ``share ** power_exponent``
            when the power resource is partitioned.
        latency_sensitivity: how much a *loaded shared* memory bus
            hurts this phase beyond its bandwidth share. Pointer-
            chasing phases (low memory-level parallelism) stall on
            every loaded-latency miss and lose up to this fraction of
            IPS at full bus utilization; streaming phases hide latency
            and are barely affected. Only applies when memory
            bandwidth is unpartitioned — partitioning (MBA) restores
            predictable latency, which is much of why it helps
            fairness on real hardware.
    """

    ips_per_core: float
    parallel_fraction: float
    working_set_bytes: float
    miss_peak: float
    miss_floor: float
    stream_bytes_per_instr: float = 0.0
    power_exponent: float = 0.4
    latency_sensitivity: float = 0.2

    def __post_init__(self) -> None:
        if self.ips_per_core <= 0:
            raise WorkloadError(f"ips_per_core must be positive, got {self.ips_per_core}")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise WorkloadError(
                f"parallel_fraction must be in [0, 1], got {self.parallel_fraction}"
            )
        if self.working_set_bytes <= 0:
            raise WorkloadError("working_set_bytes must be positive")
        if self.miss_floor < 0 or self.miss_peak < self.miss_floor:
            raise WorkloadError(
                f"need 0 <= miss_floor <= miss_peak, got {self.miss_floor}, {self.miss_peak}"
            )
        if self.stream_bytes_per_instr < 0:
            raise WorkloadError("stream_bytes_per_instr must be >= 0")
        if not 0.0 <= self.latency_sensitivity <= 1.0:
            raise WorkloadError(
                f"latency_sensitivity must be in [0, 1], got {self.latency_sensitivity}"
            )

    def scaled(self, **multipliers: float) -> "Phase":
        """Return a copy with named parameters multiplied.

        Example: ``phase.scaled(ips_per_core=0.7, miss_peak=1.5)``
        derives a memory-heavier phase from a base phase.
        """
        changes = {}
        for name, factor in multipliers.items():
            if not hasattr(self, name):
                raise WorkloadError(f"Phase has no parameter {name!r}")
            changes[name] = getattr(self, name) * factor
        # Fractions saturate at 1 instead of failing validation, so a
        # phase derived by scaling stays physically meaningful.
        for bounded in ("parallel_fraction", "latency_sensitivity"):
            if bounded in changes and changes[bounded] > 1.0:
                changes[bounded] = 1.0
        return replace(self, **changes)


@dataclass(frozen=True)
class PhaseVector(Roofline):
    """A stack of per-job :class:`Phase` parameters as numpy columns.

    Parameter arrays have shape ``(n_jobs,)``; the :class:`Roofline`
    formulas evaluate every job in one pass, bit-identical to a loop
    of the per-job :class:`Phase` calls (``tests/test_batched_eval.py``
    holds that pairing).
    """

    ips_per_core: np.ndarray
    parallel_fraction: np.ndarray
    working_set_bytes: np.ndarray
    miss_peak: np.ndarray
    miss_floor: np.ndarray
    stream_bytes_per_instr: np.ndarray
    power_exponent: np.ndarray
    latency_sensitivity: np.ndarray

    @classmethod
    def from_phases(cls, phases: Sequence[Phase]) -> "PhaseVector":
        """Stack the parameters of one phase per job."""
        if not phases:
            raise WorkloadError("a phase vector needs at least one phase")
        column = lambda name: np.array([getattr(p, name) for p in phases], dtype=float)
        return cls(
            ips_per_core=column("ips_per_core"),
            parallel_fraction=column("parallel_fraction"),
            working_set_bytes=column("working_set_bytes"),
            miss_peak=column("miss_peak"),
            miss_floor=column("miss_floor"),
            stream_bytes_per_instr=column("stream_bytes_per_instr"),
            power_exponent=column("power_exponent"),
            latency_sensitivity=column("latency_sensitivity"),
        )


@dataclass(frozen=True)
class PhaseSchedule:
    """A cyclic sequence of (duration, phase) segments.

    Workloads repeat their schedule for as long as they run; phase
    boundaries are deterministic functions of elapsed time, which lets
    the Oracle cache exhaustive-search results per phase combination.
    """

    segments: Tuple[Tuple[float, Phase], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise WorkloadError("a phase schedule needs at least one segment")
        for duration, _phase in self.segments:
            if duration <= 0:
                raise WorkloadError(f"phase durations must be positive, got {duration}")

    # The period and the segment ends are computed once per schedule.
    # They are cached properties, not fields: ``RunSpec.mix_payload``
    # renders workloads with ``dataclasses.asdict``, so a field would
    # enter every spec digest.

    @cached_property
    def period(self) -> float:
        """Length of one full pass through the schedule, in seconds."""
        return sum(duration for duration, _ in self.segments)

    @cached_property
    def _segment_ends(self) -> Tuple[float, ...]:
        """Elapsed time at the end of each segment, summed in order."""
        return tuple(accumulate((duration for duration, _ in self.segments), initial=0.0))[1:]

    def phase_index_at(self, t: float) -> int:
        """Index of the segment active at elapsed time ``t`` seconds."""
        if t < 0:
            raise WorkloadError(f"time must be >= 0, got {t}")
        index = bisect_right(self._segment_ends, t % self.period)
        # The last segment also takes a time that float round-off puts
        # at or past its end (the period edge).
        return min(index, len(self.segments) - 1)

    def phase_at(self, t: float) -> Phase:
        """The phase active at elapsed time ``t`` seconds."""
        return self.segments[self.phase_index_at(t)][1]

    @staticmethod
    def constant(phase: Phase, duration: float = 1.0) -> "PhaseSchedule":
        """A schedule with a single never-changing phase."""
        return PhaseSchedule(((duration, phase),))


@dataclass(frozen=True)
class Workload:
    """A named workload: metadata plus its phase-dependent performance model.

    Attributes:
        name: benchmark name (e.g. ``"canneal"``).
        suite: suite name (``"parsec"``, ``"cloudsuite"``, ``"ecp"``, or
            ``"synthetic"``).
        description: one-line description (the paper's Tables I-III).
        schedule: the cyclic phase schedule.
        total_instructions: fixed-work length of one run; used by the
            fixed-work methodology (Sec. IV) to decide completion.
        contention_sensitivity: fractional IPS penalty factor applied
            per co-runner on *unpartitioned* shared resources,
            capturing interference the partitioner is not controlling.
    """

    name: str
    suite: str
    description: str
    schedule: PhaseSchedule
    total_instructions: float = 2e11
    contention_sensitivity: float = 0.05

    def __post_init__(self) -> None:
        if self.total_instructions <= 0:
            raise WorkloadError("total_instructions must be positive")
        if not 0.0 <= self.contention_sensitivity <= 1.0:
            raise WorkloadError("contention_sensitivity must be in [0, 1]")

    def phase_at(self, t: float) -> Phase:
        return self.schedule.phase_at(t)

    def phase_index_at(self, t: float) -> int:
        return self.schedule.phase_index_at(t)

    def ips_under(
        self,
        catalog: ResourceCatalog,
        t: float,
        cores: float,
        llc_ways: float,
        bandwidth_units: float,
        power_units: Union[float, None] = None,
    ) -> float:
        """Model IPS at time ``t`` under an allocation in *units*.

        Unit counts are converted to physical capacities through the
        catalog (way size in bytes, bytes/s per bandwidth unit). When
        the catalog carries a power resource and ``power_units`` is
        given, the compute roofline is derated by the power share.
        """
        phase = self.phase_at(t)
        cache_bytes = llc_ways * catalog.get(LLC_WAYS).unit_capacity
        bandwidth_bytes = bandwidth_units * catalog.get(MEMORY_BANDWIDTH).unit_capacity
        frequency = 1.0
        if power_units is not None and POWER in catalog:
            share = power_units / catalog.get(POWER).units
            frequency = share ** phase.power_exponent
        return float(phase.ips(cores, cache_bytes, bandwidth_bytes, frequency))

    def isolation_ips(self, catalog: ResourceCatalog, t: float) -> float:
        """IPS with the whole server to itself (the speedup baseline)."""
        power = catalog.get(POWER).units if POWER in catalog else None
        return self.ips_under(
            catalog,
            t,
            cores=catalog.get(CORES).units,
            llc_ways=catalog.get(LLC_WAYS).units,
            bandwidth_units=catalog.get(MEMORY_BANDWIDTH).units,
            power_units=power,
        )

    def with_offset(self, offset: float) -> "Workload":
        """Return a copy whose schedule is rotated by ``offset`` seconds.

        Used when the same benchmark appears in several mixes so that
        phase alignments differ across experiments.
        """
        if offset == 0:
            return self
        period = self.schedule.period
        offset = offset % period
        if offset == 0:
            return self

        segments: List[Tuple[float, Phase]] = []
        remaining = offset
        rotated = list(self.schedule.segments)
        while remaining > 0:
            duration, phase = rotated[0]
            if duration > remaining + 1e-12:
                rotated[0] = (duration - remaining, phase)
                segments = rotated + [(remaining, phase)]
                break
            remaining -= duration
            rotated = rotated[1:] + [(duration, phase)]
            segments = rotated
        return replace(self, schedule=PhaseSchedule(tuple(segments)))
