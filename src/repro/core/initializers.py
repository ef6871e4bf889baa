"""Initial configuration sets for the BO engine (Sec. V, overhead notes).

BO outcomes are sensitive to the initial sample set; the paper
mitigates this by starting from "a reasonable set of good
configurations (e.g., equal resource partitions, less imbalance in
partition share across resources for a job) instead of starting from
random configurations". This module builds that set:

* the equal partition (``S_init`` of Algorithm 1);
* one *mild-tilt* configuration per job, granting that job one extra
  unit of every resource taken from the most-provisioned other job —
  low cross-resource imbalance by construction;
* a few uniform samples for coverage of the wider space.
"""

from __future__ import annotations

from typing import List

from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.rng import SeedLike, make_rng


def tilt_toward(space: ConfigurationSpace, base: Configuration, job: int) -> Configuration:
    """Give ``job`` one extra unit of every resource, from the richest donor."""
    config = base
    for resource in space.catalog:
        units = list(config.units(resource.name))
        donors = [
            (units[j], j)
            for j in range(space.n_jobs)
            if j != job and units[j] - 1 >= resource.min_units
        ]
        if not donors:
            continue
        _, donor = max(donors)
        config = config.move_unit(resource.name, donor, job)
    return config


def good_initial_set(space: ConfigurationSpace, rng: SeedLike = None) -> List[Configuration]:
    """The paper's "good" initial configurations for a space.

    Returns the equal partition first (it is also what the controller
    installs while measuring baselines), then one tilt per job, then
    two uniform samples, deduplicated in order.
    """
    rng = make_rng(rng)
    equal = space.equal_partition()
    candidates = [equal]
    candidates.extend(tilt_toward(space, equal, job) for job in range(space.n_jobs))
    candidates.extend(space.sample(rng) for _ in range(2))

    seen = set()
    result = []
    for config in candidates:
        if config not in seen:
            seen.add(config)
            result.append(config)
    return result
