"""Elastic per-node resource budgets: the currency of the broker layer.

A :class:`ResourceBudget` is the number of allocation units of each
resource a node currently *owns* — cores, LLC ways, bandwidth-throttle
steps — drawn from a cluster-wide pool whose per-resource totals are
fixed. Historically every :class:`~repro.cluster.node.ServerNode`
carried a hard-coded catalog and a scalar job capacity derived from
it; budgets make node capacity elastic so a cluster-level broker
(:mod:`repro.broker`) can move units between nodes across placement
epochs, the way Spirit's global enforcer apportions capacity across
its local enforcers.

The node's *catalog* stays what it was: the template describing which
resource kinds exist, their per-job minimums, and the physical
capacity of one unit. The budget only overrides how many units of each
the node holds this epoch; :func:`scaled_catalog` materializes the
combination into the effective :class:`~repro.resources.types.ResourceCatalog`
a node-epoch actually partitions. When a budget equals its catalog's
unit counts, ``scaled_catalog`` returns the catalog object itself, so
fixed-budget node-epoch specs keep byte-identical digests with the
pre-budget code — the run cache and every recorded digest stay valid
(the cache schema version is bumped anyway, as cheap insurance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple, Union

from repro import serialize
from repro.errors import ClusterError
from repro.resources.types import Resource, ResourceCatalog


def _named_units_codec() -> serialize.FieldCodec:
    """Codec for a ``((name, units), ...)`` tuple field."""
    return serialize.FieldCodec(
        encode=lambda value: {name: int(units) for name, units in value},
        decode=lambda data: tuple(sorted((str(k), int(v)) for k, v in data.items())),
    )


@dataclass(frozen=True)
class ResourceBudget:
    """How many units of each resource one node currently owns.

    Attributes:
        units: ``(resource_name, unit_count)`` pairs, stored sorted by
            name (pass a mapping or any iterable of pairs). Every count
            is at least 1 — a node with zero cache ways cannot host
            anything and has no business in the fleet.
    """

    units: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        pairs = self.units
        if isinstance(pairs, Mapping):
            pairs = tuple(pairs.items())
        normalized = tuple(sorted((str(name), int(n)) for name, n in pairs))
        if not normalized:
            raise ClusterError("a resource budget needs at least one resource")
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate resources in budget: {names}")
        for name, n in normalized:
            if n < 1:
                raise ClusterError(f"budget for {name!r} must be >= 1, got {n}")
        object.__setattr__(self, "units", normalized)

    # -- access -----------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.units)

    @property
    def total_units(self) -> int:
        """Sum of unit counts across resources (display/occupancy metric)."""
        return sum(n for _, n in self.units)

    def get(self, name: str) -> int:
        for resource, n in self.units:
            if resource == name:
                return n
        raise ClusterError(f"budget has no resource {name!r}; has {self.names}")

    def as_dict(self) -> Dict[str, int]:
        return dict(self.units)

    # -- arithmetic -------------------------------------------------------

    def with_units(self, name: str, count: int) -> "ResourceBudget":
        """A copy with ``name`` set to ``count`` units."""
        self.get(name)  # raise on unknown resource
        return ResourceBudget(
            tuple((r, count if r == name else n) for r, n in self.units)
        )

    def transfer(self, name: str, delta: int) -> "ResourceBudget":
        """A copy with ``delta`` units added to ``name`` (may be negative)."""
        return self.with_units(name, self.get(name) + delta)

    def capacity(self, catalog: ResourceCatalog) -> int:
        """Most jobs this budget can host under ``catalog``'s per-job minimums."""
        return min(self.get(r.name) // r.min_units for r in catalog)

    def floor(self, catalog: ResourceCatalog, n_jobs: int) -> "ResourceBudget":
        """The smallest feasible budget that still hosts ``n_jobs`` jobs.

        Per resource: ``max(1, n_jobs) * min_units`` (an empty node
        still owns one unit of everything — budgets never reach zero).
        """
        return ResourceBudget(
            tuple(
                (r.name, max(1, max(1, n_jobs) * r.min_units)) for r in catalog
            )
        )

    # -- serialization ----------------------------------------------------

    _CODECS = {"units": _named_units_codec()}

    def to_dict(self) -> Dict[str, Any]:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResourceBudget":
        return serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_catalog(cls, catalog: ResourceCatalog) -> "ResourceBudget":
        """The budget matching a catalog's full unit counts."""
        return cls(tuple((r.name, r.units) for r in catalog))

    @classmethod
    def uniform(cls, catalog: ResourceCatalog, units: int) -> "ResourceBudget":
        """``units`` of every resource in ``catalog`` (heterogeneous fleets)."""
        return cls(tuple((r.name, int(units)) for r in catalog))


def scaled_catalog(catalog: ResourceCatalog, budget: ResourceBudget) -> ResourceCatalog:
    """``catalog`` with unit counts overridden by ``budget``.

    Returns the catalog object itself when the budget matches its unit
    counts exactly, so full-budget node-epoch specs digest identically
    to the pre-budget code (see module docstring).
    """
    if set(budget.names) != set(catalog.names):
        raise ClusterError(
            f"budget resources {budget.names} do not match catalog {catalog.names}"
        )
    if all(budget.get(r.name) == r.units for r in catalog):
        return catalog
    return ResourceCatalog(
        Resource(
            kind=r.kind,
            units=budget.get(r.name),
            min_units=r.min_units,
            unit_capacity=r.unit_capacity,
        )
        for r in catalog
    )


def pool_totals(budgets: Iterable[ResourceBudget]) -> Dict[str, int]:
    """Cluster-wide per-resource unit totals — the conserved quantity."""
    totals: Dict[str, int] = {}
    for budget in budgets:
        for name, n in budget.units:
            totals[name] = totals.get(name, 0) + n
    return totals


BudgetLike = Union[ResourceBudget, int, Mapping[str, int]]


def coerce_budget(value: BudgetLike, catalog: ResourceCatalog) -> ResourceBudget:
    """A :class:`ResourceBudget` from the forms configs use.

    ``int`` means that many units of *every* resource (the
    ``--node-budgets 8,8,4,4`` CLI shorthand); a mapping is per-resource
    unit counts; a budget passes through after a catalog check.
    """
    if isinstance(value, ResourceBudget):
        budget = value
    elif isinstance(value, Mapping):
        budget = ResourceBudget(tuple(value.items()))
    elif isinstance(value, int):
        budget = ResourceBudget.uniform(catalog, value)
    else:
        raise ClusterError(
            f"cannot build a budget from {type(value).__name__}: {value!r}"
        )
    if set(budget.names) != set(catalog.names):
        raise ClusterError(
            f"budget resources {budget.names} do not match catalog {catalog.names}"
        )
    return budget
