"""Latency-critical workloads and their tail-latency model.

The paper adapts PARTIES — designed for *QoS of latency-critical (LC)
services* — to its throughput setting, and explicitly caveats that
PARTIES "should not be necessarily expected to perform for the
situation it was not designed for" (Sec. IV). To honour that
discussion, this module provides the LC setting itself: request-driven
workloads with a tail-latency target, so PARTIES can also be exercised
in its native role (see ``repro.policies.qos_parties`` and
``repro.experiments.qos``).

The latency model is queueing-theoretic: a workload's resource
allocation determines its service *capacity* through the same roofline
model (IPS), each request costs ``instructions_per_request``, and the
99th-percentile latency follows the M/M/1 tail

    p99(lambda, mu) = -ln(0.01) / (mu - lambda)        for lambda < mu

saturating to infinity at or beyond capacity. This captures exactly
the cliff behaviour that makes LC co-location hard: tail latency is
flat while utilization is low and explodes near saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import WorkloadError
from repro.workloads.model import Workload

#: -ln(1 - 0.99): the M/M/1 99th-percentile factor.
_P99_FACTOR = -math.log(1.0 - 0.99)

#: The p99 latency target of every latency-critical service here.
TARGET_P99_MS = 20.0


@dataclass(frozen=True)
class RequestProfile:
    """Request-level behaviour of a latency-critical service.

    Attributes:
        instructions_per_request: work per request; divides the
            allocation's IPS into a service rate (requests/s).
        target_p99_s: the QoS target on 99th-percentile latency.
        load_rps: offered load in requests per second. A sequence
            models a load curve sampled at fixed steps; a scalar is a
            constant load.
        load_step_s: seconds per load-curve sample (ignored for
            constant loads).
    """

    instructions_per_request: float
    target_p99_s: float
    load_rps: Tuple[float, ...]
    load_step_s: float = 1.0

    def __post_init__(self) -> None:
        if self.instructions_per_request <= 0:
            raise WorkloadError("instructions_per_request must be positive")
        if self.target_p99_s <= 0:
            raise WorkloadError("target_p99_s must be positive")
        if not self.load_rps or any(v < 0 for v in self.load_rps):
            raise WorkloadError("load_rps must be non-empty and non-negative")
        if self.load_step_s <= 0:
            raise WorkloadError("load_step_s must be positive")

    @staticmethod
    def constant(
        instructions_per_request: float, target_p99_s: float, load_rps: float
    ) -> "RequestProfile":
        """A constant-load profile."""
        return RequestProfile(
            instructions_per_request=instructions_per_request,
            target_p99_s=target_p99_s,
            load_rps=(float(load_rps),),
        )

    def load_at(self, t: float) -> float:
        """Offered load at elapsed time ``t`` (the curve repeats)."""
        if len(self.load_rps) == 1:
            return self.load_rps[0]
        index = int(t / self.load_step_s) % len(self.load_rps)
        return self.load_rps[index]


@dataclass(frozen=True)
class LatencyCriticalJob:
    """A workload paired with its request profile and QoS target."""

    workload: Workload
    profile: RequestProfile

    @property
    def name(self) -> str:
        return self.workload.name

    def service_rate(self, ips: float) -> float:
        """Requests/s sustainable at a measured IPS."""
        return ips / self.profile.instructions_per_request

    def p99_latency_s(self, ips: float, t: float) -> float:
        """M/M/1 p99 latency under the current load at capacity ``ips``.

        Returns ``inf`` when the offered load meets or exceeds the
        service capacity (an overloaded LC service has unbounded tail).
        """
        mu = self.service_rate(ips)
        lam = self.profile.load_at(t)
        if mu <= lam:
            return math.inf
        return _P99_FACTOR / (mu - lam)

    def meets_qos(self, ips: float, t: float) -> bool:
        """Whether the tail-latency target holds at this capacity/load."""
        return self.p99_latency_s(ips, t) <= self.profile.target_p99_s

    def headroom(self, ips: float, t: float) -> float:
        """QoS slack: ``target / p99`` (>1 satisfied, <1 violating)."""
        p99 = self.p99_latency_s(ips, t)
        if math.isinf(p99):
            return 0.0
        return self.profile.target_p99_s / p99

    def required_ips(self, t: float, slack: float = 1.0) -> float:
        """IPS needed to meet the target with a given slack factor.

        Inverts the M/M/1 tail: ``mu = lambda + factor / target`` and
        scales by ``slack`` (>1 asks for margin).
        """
        lam = self.profile.load_at(t)
        mu = lam + _P99_FACTOR / self.profile.target_p99_s
        return mu * self.profile.instructions_per_request * slack


def latency_critical_suite(registry=None) -> Sequence[LatencyCriticalJob]:
    """LC versions of the interactive CloudSuite services.

    Each job's offered load is half the service capacity it would have
    with an equal share of the machine, against a p99 target of
    ``TARGET_P99_MS`` — the regime where allocations decide QoS, as in
    the PARTIES evaluation.
    """
    from repro.resources.types import default_catalog
    from repro.workloads.registry import default_registry

    registry = registry or default_registry()
    catalog = default_catalog()
    services = ("web_search", "media_streaming", "in_memory_analytics")
    # Request costs sized so equal-share service rates land in the
    # hundreds-to-thousands of RPS — the regime where a 20 ms p99
    # target is feasible but allocation-sensitive.
    instructions_per_request = {
        "web_search": 2e6,
        "media_streaming": 1e6,
        "in_memory_analytics": 4e6,
    }

    jobs = []
    for name in services:
        workload = registry.get(name)
        equal_share_ips = workload.ips_under(
            catalog,
            0.0,
            cores=catalog.get("cores").units / len(services),
            llc_ways=catalog.get("llc_ways").units / len(services),
            bandwidth_units=catalog.get("memory_bandwidth").units / len(services),
        )
        ipr = instructions_per_request[name]
        load = 0.5 * equal_share_ips / ipr
        jobs.append(
            LatencyCriticalJob(
                workload=workload,
                profile=RequestProfile.constant(ipr, TARGET_P99_MS / 1000.0, load),
            )
        )
    return jobs
