"""Shared-resource contention model.

When a policy partitions *all* resources, jobs are isolated inside
their partitions and each job's IPS comes straight from its workload
model. Policies that partition only a subset — dCAT controls only LLC
ways, CoPart only LLC + memory bandwidth — leave the remaining
resources *shared*, and this module models what sharing does:

* a shared resource is implicitly fair-shared (the OS scheduler and
  the memory controller approximate this), so each job sees an equal
  fractional slice as its base allocation;
* shared memory bandwidth is additionally *work-conserving*: if total
  demand is below capacity nobody is throttled, otherwise every job's
  achieved rate is scaled by the same factor until demand meets
  capacity (the classic bandwidth-contention fixed point);
* each shared resource also inflicts an interference penalty that
  grows with the number of co-runners, scaled by each workload's
  ``contention_sensitivity`` — capturing the destructive interference
  (line thrashing, scheduler migration, row-buffer conflicts) that
  fair-sharing arithmetic alone does not.

This is why actively partitioning more resources helps in the
reproduction exactly as the paper measures (CoPart > dCAT, Sec. V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.resources.allocation import Configuration
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    POWER,
    ResourceCatalog,
)
from repro.workloads.mixes import JobMix
from repro.workloads.model import PhaseVector

#: Relative interference strength of sharing each resource kind,
#: multiplied by the workload's contention_sensitivity per co-runner.
#: These are the *destructive* interference penalties layered on top of
#: the capacity effects (intensity-proportional LLC occupancy,
#: work-conserving bandwidth, fair-share cores) modeled explicitly.
INTERFERENCE_WEIGHT = {
    CORES: 0.18,
    LLC_WAYS: 0.22,
    MEMORY_BANDWIDTH: 0.12,
    POWER: 0.1,
}

#: Lower bound on the interference multiplier so extreme co-location
#: degrees degrade, not zero out, performance.
MIN_INTERFERENCE_FACTOR = 0.45

#: Iterations of the bandwidth work-conserving fixed point.
_BANDWIDTH_FIXED_POINT_ITERS = 4

#: Scale of the loaded-latency penalty on an unpartitioned bus (the
#: full latency_sensitivity is an upper bound reached only by pure
#: pointer-chasers on a fully saturated bus).
_LATENCY_PENALTY_SCALE = 0.55


@dataclass(frozen=True)
class SystemState:
    """True (noise-free) per-job state for one interval.

    Arrays are ``(n_jobs,)`` from :func:`evaluate_system` and
    ``(n_configs, n_jobs)`` from :func:`evaluate_system_batch`.
    :func:`evaluate_system` also fills ``allocations`` with the
    :func:`effective_allocations` it solved with, so a caller that
    needs them (the simulator's reconfiguration penalty) does not
    solve them again.
    """

    ips: np.ndarray
    llc_occupancy_bytes: np.ndarray
    memory_bandwidth_bytes_s: np.ndarray
    allocations: Dict[str, np.ndarray] = field(default_factory=dict)


def effective_allocations(
    mix: JobMix,
    catalog: ResourceCatalog,
    config: Optional[Configuration],
    t: float = 0.0,
) -> Dict[str, np.ndarray]:
    """Per-job effective unit allocations, resource name -> float array.

    Partitioned resources come from ``config``. Shared resources are
    modeled by how the hardware actually arbitrates them (fractional
    units allowed):

    * shared **cores** are timesliced per *runnable thread*, not per
      job: a job running 8 worker threads receives four times the CPU
      of a mostly-serial job with 2 runnable threads (standard CFS
      behaviour), so unpartitioned cores favour the highly-parallel
      jobs and starve the serial ones;
    * a shared **LLC** is occupied in proportion to each job's memory
      access intensity — an unpartitioned cache is grabbed by whoever
      misses most, so streaming workloads evict the cache-sensitive
      ones' lines (the unfairness dCAT/CoPart exist to fix);
    * shared **bandwidth** allocation is nominal here (equal); the
      work-conserving fixed point in :func:`evaluate_system` is what
      actually arbitrates a shared bus.
    """
    n = len(mix)
    allocations = {}
    for resource in catalog:
        if config is not None and config.partitions(resource.name):
            allocations[resource.name] = np.array(config.units(resource.name), dtype=float)
        elif resource.name == LLC_WAYS and n > 1:
            allocations[resource.name] = resource.units * _llc_pressure_shares(mix, t)
        elif resource.name == CORES and n > 1:
            allocations[resource.name] = resource.units * _runnable_thread_shares(
                mix, t, resource.units
            )
        else:
            allocations[resource.name] = np.full(n, resource.units / n, dtype=float)
    return allocations


def _runnable_thread_shares(mix: JobMix, t: float, total_cores: int) -> np.ndarray:
    """Per-job CPU shares of unpartitioned cores (per-thread timeslicing).

    Each job's runnable-thread count is estimated from its phase's
    Amdahl profile: a parallel fraction of ``p`` keeps roughly
    ``1 / (1 - p)`` threads busy, capped at the machine width.
    """
    threads = []
    for workload in mix:
        p = workload.phase_at(t).parallel_fraction
        threads.append(min(1.0 / max(1.0 - p, 1e-2), float(total_cores)))
    shares = np.asarray(threads, dtype=float)
    return shares / shares.sum()


def _llc_pressure_shares(mix: JobMix, t: float) -> np.ndarray:
    """Per-job occupancy shares of an unpartitioned LLC.

    A shared cache converges to occupancy proportional to each job's
    allocation (miss) rate. We approximate the steady state with each
    phase's miss pressure at a nominal quarter-machine cache size plus
    its streaming traffic, which favours exactly the workloads that
    benefit least from the space.
    """
    pressures = []
    for workload in mix:
        phase = workload.phase_at(t)
        nominal_cache = phase.working_set_bytes / 4.0
        pressure = (
            phase.miss_rate(nominal_cache) * 64.0 + 0.5 * phase.stream_bytes_per_instr
        ) * phase.ips_per_core
        pressures.append(max(pressure, 1e-9))
    shares = np.asarray(pressures, dtype=float)
    return shares / shares.sum()


def interference_factors(
    mix: JobMix,
    catalog: ResourceCatalog,
    config: Optional[Configuration],
) -> np.ndarray:
    """Per-job IPS multipliers from sharing unpartitioned resources."""
    n = len(mix)
    factors = np.ones(n, dtype=float)
    if n <= 1:
        return factors
    for resource in catalog:
        if config is not None and config.partitions(resource.name):
            continue
        weight = INTERFERENCE_WEIGHT.get(resource.name, 0.5)
        for j, workload in enumerate(mix):
            penalty = weight * workload.contention_sensitivity * (n - 1)
            factors[j] *= max(1.0 - penalty, MIN_INTERFERENCE_FACTOR)
    return np.maximum(factors, MIN_INTERFERENCE_FACTOR)


def evaluate_system(
    mix: JobMix,
    catalog: ResourceCatalog,
    config: Optional[Configuration],
    t: float,
) -> SystemState:
    """True per-job IPS (and memory telemetry) at time ``t``.

    The contention solve. The simulator calls it for an interval whose
    installed configuration or some job's phase differs from the last
    solve's, and reuses that solve otherwise (a pure function of the
    mix, the catalog, the configuration and the phases). Every array
    is ``(n_jobs,)``; the per-job roofline runs as one
    :class:`PhaseVector` evaluation.

    Args:
        mix: the co-located workloads.
        catalog: the server's resources.
        config: the active partitioning configuration; resources it
            does not cover are treated as shared. ``None`` means fully
            unmanaged sharing (the paper's "baseline unmanaged
            partitioning").
        t: elapsed wall time, which selects each workload's phase.
    """
    n = len(mix)
    allocations = effective_allocations(mix, catalog, config, t)
    bus = catalog.get(MEMORY_BANDWIDTH)
    cache_bytes = allocations[LLC_WAYS] * catalog.get(LLC_WAYS).unit_capacity
    bandwidth_bytes = allocations[MEMORY_BANDWIDTH] * bus.unit_capacity

    phases = PhaseVector.from_phases([workload.phase_at(t) for workload in mix])

    # A shared bus is work-conserving: any job may burst to full
    # capacity, and the fixed point below resolves oversubscription.
    bandwidth_shared = config is None or not config.partitions(MEMORY_BANDWIDTH)
    if bandwidth_shared:
        bandwidth_bytes = np.full(n, bus.capacity)

    frequency = np.ones(n)
    if POWER in catalog:
        total_power = catalog.get(POWER).units
        frequency = (allocations[POWER] / total_power) ** phases.power_exponent

    ips = phases.ips(allocations[CORES], cache_bytes, bandwidth_bytes, frequency)
    bytes_per_instr = phases.bytes_per_instruction(cache_bytes)

    if bandwidth_shared and n > 1:
        ips = _work_conserving_bandwidth(ips, bytes_per_instr, bus.capacity)
        # Loaded-latency penalty of an unpartitioned bus: pointer-
        # chasing jobs stall on every queued miss; streamers hide it.
        utilization = np.minimum(1.0, np.sum(ips * bytes_per_instr) / bus.capacity)
        latency_factors = 1.0 - _LATENCY_PENALTY_SCALE * phases.latency_sensitivity * utilization
        ips = ips * np.maximum(latency_factors, MIN_INTERFERENCE_FACTOR)

    ips = ips * interference_factors(mix, catalog, config)

    return SystemState(
        ips=ips,
        llc_occupancy_bytes=np.minimum(cache_bytes, phases.working_set_bytes),
        memory_bandwidth_bytes_s=ips * bytes_per_instr,
        allocations=allocations,
    )


def evaluate_system_batch(
    mix: JobMix,
    catalog: ResourceCatalog,
    configs: Sequence[Optional[Configuration]],
    t: float,
) -> SystemState:
    """:func:`evaluate_system` for each configuration, stacked row-wise.

    Returns a :class:`SystemState` whose arrays are shaped
    ``(len(configs), n_jobs)``.
    """
    shape = (len(configs), len(mix))
    ips, occupancy, bandwidth = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for i, config in enumerate(configs):
        state = evaluate_system(mix, catalog, config, t)
        ips[i] = state.ips
        occupancy[i] = state.llc_occupancy_bytes
        bandwidth[i] = state.memory_bandwidth_bytes_s
    return SystemState(
        ips=ips, llc_occupancy_bytes=occupancy, memory_bandwidth_bytes_s=bandwidth
    )


def isolation_ips(mix: JobMix, catalog: ResourceCatalog, t: float) -> np.ndarray:
    """True isolation (whole-machine) IPS of every job at time ``t``."""
    return np.array([w.isolation_ips(catalog, t) for w in mix], dtype=float)


def _work_conserving_bandwidth(
    ips: np.ndarray, bytes_per_instr: np.ndarray, capacity_bytes_s: float
) -> np.ndarray:
    """Scale job rates so total memory traffic fits the shared bus.

    Iterates the proportional-scaling fixed point: demand above
    capacity slows everyone by the same factor, which lowers demand,
    until demand fits. A handful of iterations converges because the
    map is monotone.
    """
    rates = ips
    for _ in range(_BANDWIDTH_FIXED_POINT_ITERS):
        demand = np.sum(rates * bytes_per_instr)
        if demand <= capacity_bytes_s:
            break
        rates = rates * (capacity_bytes_s / demand)
    return np.minimum(rates, ips)
