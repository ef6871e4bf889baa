"""Resource partitioning configurations.

A *configuration* (Sec. II of the paper) assigns every co-located job a
unit count for each partitioned resource. Configurations are immutable
and hashable so they can be used as cache keys by the Oracle and
deduplicated by search policies.

A configuration may cover only a subset of the server's resources: a
resource absent from the configuration is *shared* (unpartitioned) and
the co-location simulator applies its contention model to it instead.
This is how single-resource policies such as dCAT (LLC only) and
dual-resource policies such as CoPart (LLC + memory bandwidth) are
expressed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.resources.types import ResourceCatalog


class Configuration:
    """An immutable assignment of resource units to jobs.

    Args:
        allocations: mapping from resource name to the per-job unit
            counts, e.g. ``{"cores": (3, 3, 4), "llc_ways": (2, 4, 4)}``.
            Every tuple must have the same length (the number of jobs).
    """

    __slots__ = ("_allocations", "_n_jobs", "_hash")

    def __init__(self, allocations: Mapping[str, Sequence[int]]):
        if not allocations:
            raise ConfigurationError("a configuration needs at least one resource")
        normalized: Dict[str, Tuple[int, ...]] = {}
        n_jobs = None
        for name, units in allocations.items():
            units = tuple(int(u) for u in units)
            if n_jobs is None:
                n_jobs = len(units)
            elif len(units) != n_jobs:
                raise ConfigurationError(
                    f"resource {name!r} allocates to {len(units)} jobs, expected {n_jobs}"
                )
            if any(u < 0 for u in units):
                raise ConfigurationError(f"negative unit count in {name!r}: {units}")
            normalized[name] = units
        if n_jobs == 0:
            raise ConfigurationError("a configuration needs at least one job")
        self._allocations = dict(sorted(normalized.items()))
        self._n_jobs = int(n_jobs)
        self._hash = hash(tuple(self._allocations.items()))

    # -- basic protocol ------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Number of co-located jobs this configuration covers."""
        return self._n_jobs

    @property
    def resource_names(self) -> Tuple[str, ...]:
        """Names of the resources this configuration partitions (sorted)."""
        return tuple(self._allocations)

    def units(self, resource: str) -> Tuple[int, ...]:
        """Per-job unit counts for ``resource``.

        Raises:
            ConfigurationError: if the resource is not partitioned here.
        """
        try:
            return self._allocations[resource]
        except KeyError:
            raise ConfigurationError(
                f"resource {resource!r} is not partitioned by this configuration "
                f"(has {self.resource_names})"
            ) from None

    def partitions(self, resource: str) -> bool:
        """Whether this configuration partitions ``resource``."""
        return resource in self._allocations

    def job_allocation(self, job_index: int) -> Dict[str, int]:
        """Unit counts of every partitioned resource for one job."""
        if not 0 <= job_index < self._n_jobs:
            raise ConfigurationError(f"job index {job_index} out of range [0, {self._n_jobs})")
        return {name: units[job_index] for name, units in self._allocations.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._allocations == other._allocations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={units}" for name, units in self._allocations.items())
        return f"Configuration({inner})"

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, List[int]]:
        """JSON-compatible mapping of resource name to per-job units."""
        from repro.serialize import mapping_to_dict

        return mapping_to_dict(self._allocations)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[int]]) -> "Configuration":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(data)

    # -- transformations -----------------------------------------------

    def replace(self, resource: str, units: Sequence[int]) -> "Configuration":
        """Return a copy with one resource's allocation replaced."""
        allocations = dict(self._allocations)
        allocations[resource] = tuple(int(u) for u in units)
        return Configuration(allocations)

    def move_unit(self, resource: str, donor: int, receiver: int) -> "Configuration":
        """Return a copy with one unit of ``resource`` moved between jobs.

        This is the elementary step of donor/receiver policies (dCAT,
        CoPart) and of PARTIES-style gradient descent.
        """
        units = list(self.units(resource))
        if donor == receiver:
            raise ConfigurationError("donor and receiver must differ")
        if units[donor] <= 0:
            raise ConfigurationError(f"job {donor} has no {resource!r} units to donate")
        units[donor] -= 1
        units[receiver] += 1
        return self.replace(resource, units)

    def restrict(self, resource_names: Iterable[str]) -> "Configuration":
        """Return a copy partitioning only ``resource_names``."""
        names = list(resource_names)
        return Configuration({name: self.units(name) for name in names})

    # -- numeric views ---------------------------------------------------

    def as_vector(self, resource_order: Sequence[str] = ()) -> np.ndarray:
        """Flatten to a float vector: jobs-major within each resource.

        Args:
            resource_order: resource names defining the coordinate
                order; defaults to this configuration's sorted names.

        The 15-dimensional vectors of the paper's Fig. 15 (5 jobs x 3
        resources) are produced this way.
        """
        order = tuple(resource_order) or self.resource_names
        parts = [self.units(name) for name in order]
        return np.asarray([u for part in parts for u in part], dtype=float)

    def shares(self, catalog: ResourceCatalog) -> Dict[str, Tuple[float, ...]]:
        """Per-job fractional shares of each partitioned resource."""
        result = {}
        for name in self.resource_names:
            total = catalog.get(name).units
            result[name] = tuple(u / total for u in self.units(name))
        return result

    def validate(self, catalog: ResourceCatalog) -> None:
        """Check this configuration against a catalog.

        Verifies that every partitioned resource exists, unit counts
        sum to the resource total, and each job receives at least the
        resource's ``min_units``.

        Raises:
            ConfigurationError: on any violation.
        """
        for name in self.resource_names:
            resource = catalog.get(name)
            units = self.units(name)
            if sum(units) != resource.units:
                raise ConfigurationError(
                    f"{name!r} allocates {sum(units)} units, server has {resource.units}"
                )
            if any(u < resource.min_units for u in units):
                raise ConfigurationError(
                    f"{name!r} allocation {units} violates min_units={resource.min_units}"
                )


def equal_partition(catalog: ResourceCatalog, n_jobs: int) -> Configuration:
    """The paper's ``S_init``: every resource divided as equally as possible.

    When units do not divide evenly the remainder is given to the
    lowest-indexed jobs, one extra unit each.
    """
    if n_jobs < 1:
        raise ConfigurationError(f"need at least one job, got {n_jobs}")
    allocations = {}
    for resource in catalog:
        if resource.units < n_jobs * max(resource.min_units, 1):
            raise ConfigurationError(
                f"cannot split {resource.units} units of {resource.name!r} among {n_jobs} jobs"
            )
        base, extra = divmod(resource.units, n_jobs)
        allocations[resource.name] = tuple(base + (1 if j < extra else 0) for j in range(n_jobs))
    return Configuration(allocations)

