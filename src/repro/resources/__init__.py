"""Resource model: catalogs, partitioning configurations, search space.

Public surface of the resource layer; higher layers (hardware
substrate, policies, SATORI core) depend only on these names.
"""

from repro.resources.allocation import Configuration, equal_partition
from repro.resources.presets import preset_catalog, preset_names
from repro.resources.space import (
    ConfigurationSpace,
    compositions_matrix,
    count_compositions,
    iter_compositions,
)
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    POWER,
    Resource,
    ResourceCatalog,
    ResourceKind,
    default_catalog,
)

__all__ = [
    "CORES",
    "LLC_WAYS",
    "MEMORY_BANDWIDTH",
    "POWER",
    "Configuration",
    "ConfigurationSpace",
    "Resource",
    "ResourceCatalog",
    "ResourceKind",
    "compositions_matrix",
    "count_compositions",
    "default_catalog",
    "equal_partition",
    "iter_compositions",
    "preset_catalog",
    "preset_names",
]
