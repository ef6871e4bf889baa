"""Deterministic random-number helpers.

All stochastic components of the reproduction (measurement noise,
random search, BO candidate pools, synthetic workload generation) draw
from :class:`numpy.random.Generator` instances derived from explicit
seeds, so every experiment in the paper-reproduction harness is exactly
repeatable.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Derived seeds live in numpy's legal seed range.
_SEED_SPACE = 2**63 - 1


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from arbitrary string-able parts.

    The SHA-256 of the parts joined by ``/``, so a child seed depends
    only on what it is derived from, never on call order or process:
    spec streams, fault streams, fleet weather and serve sessions all
    take theirs from here.
    """
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") % _SEED_SPACE


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer seed, an existing generator (returned
    unchanged, so components can share a stream), or ``None`` for an
    OS-entropy seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, key: Optional[int] = None) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used to give each job / policy / monitor its own stream so that
    adding one consumer does not perturb the random sequence observed
    by the others.
    """
    seed = int(rng.integers(0, 2**63 - 1)) if key is None else key
    return np.random.default_rng(seed)


def rng_state(rng: np.random.Generator) -> dict:
    """A generator's exact stream position as JSON-compatible plain data.

    Numpy exposes the underlying bit generator's state as a dict of
    ints and strings (Python ints are arbitrary-precision, so the
    128-bit PCG64 words survive JSON untouched). Restoring this state
    via :func:`rng_from_state` resumes the stream bit-identically —
    the property the policy snapshot/restore protocol is built on.
    """
    return _plain(rng.bit_generator.state)


def rng_from_state(state: dict) -> np.random.Generator:
    """A fresh generator resumed at the stream position of ``state``."""
    name = state.get("bit_generator", "PCG64")
    try:
        bit_generator = getattr(np.random, name)()
    except AttributeError:
        raise ValueError(f"unknown numpy bit generator {name!r}") from None
    bit_generator.state = _plain(state)
    return np.random.Generator(bit_generator)


def _plain(value):
    """Deep-copy nested dicts/lists with numpy scalars coerced to Python."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
