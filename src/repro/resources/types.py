"""Shared architectural resources and the catalog that describes a server.

A *resource* is one partitionable dimension of the machine — physical
cores, last-level-cache ways, memory-bandwidth throttle units, or a
power budget. Each resource exposes a number of discrete, indivisible
*units* that a partitioning policy distributes among co-located jobs,
exactly as Intel CAT distributes cache ways and Intel MBA distributes
bandwidth-throttle steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple

from repro.errors import SpaceError


class ResourceKind(enum.Enum):
    """The architectural dimension a resource partitions."""

    CORES = "cores"
    LLC_WAYS = "llc_ways"
    MEMORY_BANDWIDTH = "memory_bandwidth"
    POWER = "power"


#: Canonical resource names, usable anywhere a resource name is expected.
CORES = ResourceKind.CORES.value
LLC_WAYS = ResourceKind.LLC_WAYS.value
MEMORY_BANDWIDTH = ResourceKind.MEMORY_BANDWIDTH.value
POWER = ResourceKind.POWER.value


@dataclass(frozen=True)
class Resource:
    """One partitionable resource.

    Attributes:
        kind: the architectural dimension this resource represents.
        units: total number of discrete units available on the server
            (e.g. 10 cores, 11 LLC ways, 10 MBA throttle steps).
        min_units: minimum units every job must receive; defaults to 1
            because CAT/MBA cannot starve a class of service entirely
            and a job always needs at least one core.
        unit_capacity: physical capacity of one unit in the resource's
            natural dimension (cores: 1 core; LLC: bytes per way;
            bandwidth: bytes/s per throttle step; power: watts). Used
            by the hardware substrate and performance models.
        name: canonical string name of the resource (its kind value),
            set at construction; derived from ``kind``, so it takes no
            part in equality, hashing or repr.
    """

    kind: ResourceKind
    units: int
    min_units: int = 1
    unit_capacity: float = 1.0
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.units < 1:
            raise SpaceError(f"resource {self.kind.value} needs >=1 unit, got {self.units}")
        if self.min_units < 0:
            raise SpaceError(f"min_units must be >=0, got {self.min_units}")
        # Read on every contention solve and actuation; a property
        # would re-derive it from the enum each time.
        object.__setattr__(self, "name", self.kind.value)

    @property
    def capacity(self) -> float:
        """Total physical capacity: ``units * unit_capacity``."""
        return self.units * self.unit_capacity

    def max_jobs(self) -> int:
        """Largest number of jobs this resource can be split among."""
        if self.min_units == 0:
            raise SpaceError("max_jobs is unbounded when min_units == 0")
        return self.units // self.min_units


class ResourceCatalog:
    """Ordered, immutable collection of the resources a server exposes.

    The catalog fixes the dimension order used by configuration vectors
    and by the Bayesian optimizer's encoded inputs, so two components
    that share a catalog always agree on which coordinate is which.
    """

    def __init__(self, resources: Iterable[Resource]):
        resources = tuple(resources)
        if not resources:
            raise SpaceError("a resource catalog needs at least one resource")
        names = [r.name for r in resources]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate resources in catalog: {names}")
        self._resources = resources
        self._by_name = {r.name: r for r in resources}

    def __iter__(self) -> Iterator[Resource]:
        return iter(self._resources)

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceCatalog):
            return NotImplemented
        return self._resources == other._resources

    def __hash__(self) -> int:
        return hash(self._resources)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.name}={r.units}" for r in self._resources)
        return f"ResourceCatalog({inner})"

    @property
    def names(self) -> Tuple[str, ...]:
        """Resource names in catalog order."""
        return tuple(r.name for r in self._resources)

    def get(self, name: str) -> Resource:
        """Return the resource called ``name``.

        Raises:
            SpaceError: if the catalog has no such resource.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SpaceError(f"unknown resource {name!r}; catalog has {self.names}") from None

    def subset(self, names: Iterable[str]) -> "ResourceCatalog":
        """Return a catalog restricted to ``names`` (kept in catalog order).

        Used by single/dual-resource ablations (e.g. SATORI-LLC-only
        versus dCAT) where a policy partitions only some resources.
        """
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise SpaceError(f"unknown resources {sorted(missing)}; catalog has {self.names}")
        return ResourceCatalog(r for r in self._resources if r.name in wanted)


def default_catalog(
    cores: int = 10,
    llc_ways: int = 10,
    bandwidth_units: int = 10,
    *,
    llc_way_bytes: float = 1.375 * 2**20,
    bandwidth_unit_bytes: float = 1.2e9,
) -> ResourceCatalog:
    """The three-resource catalog used throughout the paper's evaluation.

    Defaults approximate the paper's Skylake testbed: 10 physical
    cores, an 11-way (13.75 MB) LLC quantized into 10 allocatable way
    units, and a 12 GB/s sustained co-located memory budget split into
    10 MBA throttle steps. (Loaded-latency sustainable bandwidth under
    many-core contention is far below the DIMM peak; the tight budget
    is what makes bandwidth partitioning consequential, as on the
    paper's testbed.)
    """
    return ResourceCatalog(
        [
            Resource(ResourceKind.CORES, cores, unit_capacity=1.0),
            Resource(ResourceKind.LLC_WAYS, llc_ways, unit_capacity=llc_way_bytes),
            Resource(ResourceKind.MEMORY_BANDWIDTH, bandwidth_units, unit_capacity=bandwidth_unit_bytes),
        ]
    )
