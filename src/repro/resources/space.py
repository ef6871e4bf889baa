"""The configuration search space and its combinatorics.

The paper (Sec. II) sizes the space as a product over resources of the
number of *compositions* of ``U`` units into ``M`` positive parts,
``C(U - 1, M - 1)``. This module provides exact counting, full
enumeration (used by the brute-force Oracle), uniform sampling (used by
Random search and by BO candidate pools), elementary neighbor moves,
and the normalized encoding that the Gaussian-process proxy model
consumes.

Sampling, neighbor moves, enumeration and encoding all work on the
*row form*: a configuration as one int row of length ``dimensions``
(catalog resource order, jobs-major within a resource — the column
layout of :meth:`ConfigurationSpace.encode`). A block of rows is an
``(n, dimensions)`` int array. The :class:`Configuration`-returning
methods are thin wrappers that convert rows at the end.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import SpaceError
from repro.resources.allocation import Configuration, equal_partition
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng


def count_compositions(units: int, parts: int, min_units: int = 1) -> int:
    """Number of ways to split ``units`` into ``parts`` ordered shares.

    Each share receives at least ``min_units``. With ``min_units=1``
    this is the paper's ``C(units - 1, parts - 1)``.
    """
    if parts < 1:
        raise SpaceError(f"parts must be >=1, got {parts}")
    free = units - parts * min_units
    if free < 0:
        return 0
    return comb(free + parts - 1, parts - 1)


def iter_compositions(units: int, parts: int, min_units: int = 1) -> Iterator[Tuple[int, ...]]:
    """Yield every composition of ``units`` into ``parts`` ordered shares."""
    if parts < 1:
        raise SpaceError(f"parts must be >=1, got {parts}")
    free = units - parts * min_units
    if free < 0:
        return
    if parts == 1:
        yield (units,)
        return
    # Stars and bars over the "free" units, shifted up by min_units.
    for cuts in itertools.combinations_with_replacement(range(free + 1), parts - 1):
        shares = []
        prev = 0
        for cut in cuts:
            shares.append(cut - prev + min_units)
            prev = cut
        shares.append(free - prev + min_units)
        yield tuple(shares)


def compositions_matrix(units: int, parts: int, min_units: int = 1) -> np.ndarray:
    """All compositions as an ``(n, parts)`` integer array.

    The vectorized Oracle gathers per-job performance tables through
    these index arrays instead of materializing Configuration objects.
    """
    rows = list(iter_compositions(units, parts, min_units))
    if not rows:
        return np.empty((0, parts), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


class ConfigurationSpace:
    """All valid partitionings of a catalog's resources among ``n_jobs`` jobs.

    Args:
        catalog: the resources being partitioned. Policies that control
            only a subset of the server's resources build their space
            from ``catalog.subset(...)``.
        n_jobs: number of co-located jobs.
    """

    def __init__(self, catalog: ResourceCatalog, n_jobs: int):
        if n_jobs < 1:
            raise SpaceError(f"n_jobs must be >=1, got {n_jobs}")
        for resource in catalog:
            if count_compositions(resource.units, n_jobs, resource.min_units) == 0:
                raise SpaceError(
                    f"{resource.name!r} has {resource.units} units; cannot host {n_jobs} jobs"
                )
        self._catalog = catalog
        self._n_jobs = n_jobs
        # Column layout of the random-key block behind sample_rows():
        # per resource, one key per stars-and-bars slot (resources in
        # catalog order). A configuration always consumes exactly one
        # row of keys, so a loop of scalar sample() calls reads the
        # identical RNG stream as one batched draw.
        self._key_columns: List[Tuple[int, int, int]] = []
        start = 0
        for resource in catalog:
            slots = 0
            if n_jobs > 1:
                slots = resource.units - n_jobs * resource.min_units + n_jobs - 1
            self._key_columns.append((slots, start, start + slots))
            start += slots
        self._total_key_columns = start
        # The slot count every resource shares, if any (the experiment
        # catalog's case): sample_rows() then splits every resource's
        # keys in one argsort over the (n * resources, slots) block.
        counts = {slots for slots, _, _ in self._key_columns}
        self._shared_slots = counts.pop() if n_jobs > 1 and len(counts) == 1 else None
        # Row-form layout: resource r owns columns [r * n_jobs, (r + 1) * n_jobs).
        self._names = catalog.names
        self._column_units = np.repeat([r.units for r in catalog], n_jobs)
        self._column_floors = np.repeat([r.min_units for r in catalog], n_jobs)
        # One delta row per unit move, ordered by resource, then donor,
        # then receiver. A move is legal when its donor column stays at
        # or above the resource's min_units.
        donor, receiver = np.nonzero(~np.eye(n_jobs, dtype=bool))
        offsets = np.repeat(np.arange(len(catalog)) * n_jobs, donor.size)
        self._move_donors = offsets + np.tile(donor, len(catalog))
        moves = np.arange(self._move_donors.size)
        self._move_deltas = np.zeros((moves.size, self.dimensions), dtype=np.int64)
        self._move_deltas[moves, self._move_donors] = -1
        self._move_deltas[moves, offsets + np.tile(receiver, len(catalog))] = 1

    @property
    def catalog(self) -> ResourceCatalog:
        return self._catalog

    @property
    def n_jobs(self) -> int:
        return self._n_jobs

    @property
    def resource_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def dimensions(self) -> int:
        """Length of the flattened configuration vector (jobs x resources)."""
        return self._n_jobs * len(self._catalog)

    def __repr__(self) -> str:
        return f"ConfigurationSpace(n_jobs={self._n_jobs}, catalog={self._catalog!r})"

    # -- combinatorics ---------------------------------------------------

    def size(self) -> int:
        """Exact number of configurations (the paper's ``S_conf``)."""
        total = 1
        for resource in self._catalog:
            total *= count_compositions(resource.units, self._n_jobs, resource.min_units)
        return total

    def enumerate(self) -> Iterator[Configuration]:
        """Yield every configuration in the space.

        Intended for small/medium spaces (unit tests, reduced-scale
        Oracle); the vectorized Oracle uses
        :meth:`per_resource_matrices` instead.
        """
        per_resource = [
            iter_compositions(r.units, self._n_jobs, r.min_units) for r in self._catalog
        ]
        names = self.resource_names
        for combo in itertools.product(*per_resource):
            yield Configuration(dict(zip(names, combo)))

    def per_resource_matrices(self) -> List[np.ndarray]:
        """Composition matrices, one ``(n_r, n_jobs)`` array per resource.

        The full space is the cross product of the rows of these
        matrices; :meth:`configuration_from_indices` maps a tuple of
        row indices back to a :class:`Configuration`.
        """
        return [
            compositions_matrix(r.units, self._n_jobs, r.min_units) for r in self._catalog
        ]

    def configuration_from_indices(
        self, indices: Sequence[int], matrices: Sequence[np.ndarray]
    ) -> Configuration:
        """Build the configuration at one cross-product coordinate."""
        if len(indices) != len(self._catalog):
            raise SpaceError(f"expected {len(self._catalog)} indices, got {len(indices)}")
        allocations = {
            name: tuple(int(u) for u in matrix[index])
            for name, matrix, index in zip(self.resource_names, matrices, indices)
        }
        return Configuration(allocations)

    # -- construction and sampling ----------------------------------------

    def equal_partition(self) -> Configuration:
        """The all-resources-split-equally configuration (``S_init``)."""
        return equal_partition(self._catalog, self._n_jobs)

    def sample(self, rng: SeedLike = None) -> Configuration:
        """Draw one configuration uniformly at random.

        Thin wrapper over :meth:`sample_batch` (a batch of one); the
        paired tests in ``tests/test_batched_eval.py`` assert a loop of
        scalar calls is bit-identical to one batched draw.
        """
        return self.sample_batch(1, rng)[0]

    def sample_batch(self, n: int, rng: SeedLike = None) -> List[Configuration]:
        """Draw ``n`` configurations uniformly (duplicates possible).

        Thin wrapper over :meth:`sample_rows`.
        """
        return [self.from_row(row) for row in self.sample_rows(n, rng)]

    def sample_rows(self, n: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``n`` configurations uniformly as an ``(n, dimensions)`` block.

        One vectorized pass: a single ``(n, total_slots)`` block of
        uniform keys, one row per configuration, then a batched
        stars-and-bars decode: one argsort over every resource's keys
        when all resources have the same slot count, else one per
        resource. Choosing the ``parts - 1`` smallest keys of a slot
        range is a uniform random cut-point subset, so the distribution
        matches the classical per-config
        ``rng.choice(..., replace=False)`` draw — and because numpy
        fills the block row-major from the bit stream, splitting the
        batch (or looping :meth:`sample`) consumes the identical
        stream and yields the identical configurations.
        """
        rng = make_rng(rng)
        if n <= 0:
            return np.empty((0, self.dimensions), dtype=np.int64)
        keys = rng.random((n, self._total_key_columns))
        slots = self._shared_slots
        if slots is not None:
            shares = self._split_keys(keys.reshape(n * len(self._catalog), slots), slots)
            return shares.reshape(n, self.dimensions) + self._column_floors
        blocks: List[np.ndarray] = []
        for resource, (slots, start, stop) in zip(self._catalog, self._key_columns):
            if self._n_jobs == 1:
                blocks.append(np.full((n, 1), resource.units, dtype=np.int64))
            else:
                blocks.append(self._split_keys(keys[:, start:stop], slots) + resource.min_units)
        return np.concatenate(blocks, axis=1)

    def _split_keys(self, keys: np.ndarray, slots: int) -> np.ndarray:
        """Units above ``min_units`` per job, one row per row of ``keys``.

        The ``n_jobs - 1`` smallest of a row's ``slots`` keys are its
        cut points; each job gets the slots between two cuts.
        """
        order = np.argsort(keys, axis=1, kind="stable")
        cuts = np.sort(order[:, : self._n_jobs - 1], axis=1)
        return np.diff(cuts, axis=1, prepend=-1, append=slots) - 1

    def contains(self, config: Configuration) -> bool:
        """Whether ``config`` is a valid member of this space."""
        if config.n_jobs != self._n_jobs:
            return False
        if set(config.resource_names) != set(self.resource_names):
            return False
        for resource in self._catalog:
            units = config.units(resource.name)
            if sum(units) != resource.units:
                return False
            if any(u < resource.min_units for u in units):
                return False
        return True

    # -- row form ----------------------------------------------------------

    def to_rows(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Member configurations as an ``(n, dimensions)`` int block.

        Raises:
            SpaceError: if any configuration is not a member of this
                space.
        """
        names = set(self._names)
        for config in configs:
            if config.n_jobs != self._n_jobs or set(config.resource_names) != names:
                raise SpaceError(f"{config!r} is not a member of {self!r}")
        rows = np.asarray(
            [[u for name in self._names for u in config.units(name)] for config in configs],
            dtype=np.int64,
        ).reshape(len(configs), self.dimensions)
        sums = rows.reshape(len(configs), len(self._names), self._n_jobs).sum(axis=2)
        bad = (sums != self._column_units[:: self._n_jobs]).any(axis=1) | (
            rows < self._column_floors
        ).any(axis=1)
        if bad.any():
            raise SpaceError(f"{configs[int(np.argmax(bad))]!r} is not a member of {self!r}")
        return rows

    def from_row(self, row: np.ndarray) -> Configuration:
        """The configuration one row of the row form describes."""
        j = self._n_jobs
        return Configuration(
            {name: row[r * j : (r + 1) * j] for r, name in enumerate(self._names)}
        )

    def row_dicts(self, rows: np.ndarray) -> List[Dict[str, List[int]]]:
        """Each row in its :meth:`Configuration.to_dict` form, built
        without the configurations. The rows are not checked."""
        j = self._n_jobs
        columns = sorted((name, r * j) for r, name in enumerate(self._names))
        return [{name: row[start : start + j] for name, start in columns} for row in rows.tolist()]

    def enumerate_rows(self) -> np.ndarray:
        """The whole space as rows, in :meth:`enumerate` order."""
        matrices = self.per_resource_matrices()
        grid = np.indices([len(m) for m in matrices]).reshape(len(matrices), -1)
        return np.concatenate([m[index] for m, index in zip(matrices, grid)], axis=1)

    # -- local moves -------------------------------------------------------

    def neighbor_rows(self, row: np.ndarray) -> np.ndarray:
        """All rows one unit-move away from ``row``.

        A unit move transfers one unit of one resource from one job to
        another, respecting the resource's ``min_units``. These moves
        are the local-refinement part of SATORI's BO candidate pool
        (``core/bo.py``).
        """
        legal = row[self._move_donors] > self._column_floors[self._move_donors]
        return row + self._move_deltas[legal]

    # -- encoding for the proxy model ---------------------------------------

    def encode(self, config: Configuration) -> np.ndarray:
        """Encode a configuration as fractional shares in ``[0, 1]``.

        The Gaussian process operates on this normalized vector
        (catalog resource order, jobs-major within a resource) so that
        length scales are comparable across resources with different
        unit counts.
        """
        if not self.contains(config):
            raise SpaceError(f"{config!r} is not a member of {self!r}")
        parts = []
        for resource in self._catalog:
            total = resource.units
            parts.extend(u / total for u in config.units(resource.name))
        return np.asarray(parts, dtype=float)

    def encode_batch(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Encode many configurations as an ``(n, dimensions)`` array.

        Thin wrapper over :meth:`to_rows` and :meth:`encode_rows`; rows
        are bit-identical to :meth:`encode` (same per-element
        ``units / total`` division, same column order).
        """
        return self.encode_rows(self.to_rows(configs))

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Encode a block of rows: each entry divided by its resource's units."""
        return rows / self._column_units

    def decode_rows(self, encoded: np.ndarray) -> np.ndarray:
        """The rows an :meth:`encode_rows` block was made from.

        ``u / units * units`` lies within two ulps of the integer
        ``u``, so rounding recovers it exactly. The encoding is not
        checked for membership.
        """
        return np.rint(encoded * self._column_units).astype(np.int64)
