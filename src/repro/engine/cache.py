"""Content-addressed on-disk cache of completed runs.

Artifacts are JSON files addressed by ``sha256(spec digest | salt)``:
the spec digest covers everything that determines the result (workload
models, policy id + kwargs, catalog, run config, goal metrics, seed),
and the *salt* folds in a code-version tag so results computed by an
older engine/runner are never served after the code changes — bumping
:data:`CACHE_SCHEMA_VERSION` (or the package version) invalidates the
whole store without deleting anything.

Layout::

    <root>/<salt>/<key[:2]>/<key>.json

Each artifact stores the full spec dict alongside the result, so a
cache directory is self-describing and greppable. Reads and writes are
crash-safe: artifacts are written to a temp file and atomically
renamed, and unreadable/mismatched artifacts count as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.engine.spec import RunSpec
from repro.experiments.runner import RunResult

#: Bump to invalidate every cached artifact after a semantic change to
#: the runner, the workload models, or the serialization format.
#: v2: RunSpec digests cover the fault plan ("faults" key).
#: v3: BO proxy-model update changed (length-scale refits gated by
#: sample count instead of every call, default every 10 samples, with
#: incremental Cholesky extension in between), so SATORI/Oracle-
#: adjacent run results differ from v2 at the trajectory level; v2
#: artifacts must not be served.
#: v4: policy-state protocol. RunResult carries the policy's final
#: snapshot (``final_state``), RunSpec digests cover the optional
#: ``initial_state`` (warm-start specs can never collide with cold
#: ones), and measurement-noise seeds derive from the cold digest —
#: the spec with warm-start state stripped — so a warm run and its
#: cold twin face paired noise while cold runs keep their historical
#: streams. v3 artifacts lack the final state; they must not be
#: served.
#: v5: elastic node budgets. A node-epoch's spec catalog is now the
#: node's *effective* (budget-scaled) catalog, so shrunken-budget
#: epochs digest differently from full-budget ones. Full-budget specs
#: are constructed from the identical catalog object and keep their
#: v4 digests, but the schema bump retires v4 artifacts anyway as
#: cheap insurance against serving a pre-budget result.
#: v6: batched evaluation core. ``smoothmin`` now keeps its outer
#: power on the array-ufunc path (numpy's scalar-math ``**`` rounds
#: 1 ulp differently), so every modeled IPS value can shift by 1 ulp
#: relative to v5 artifacts; digests are unchanged but v5 results
#: must not be served next to freshly computed ones.
CACHE_SCHEMA_VERSION = 6


def default_cache_salt() -> str:
    """The code-version salt: package version + cache schema."""
    try:
        from repro import __version__ as version
    except ImportError:  # pragma: no cover - repro always has a version
        version = "unknown"
    return f"repro-{version}-schema{CACHE_SCHEMA_VERSION}"


class RunCache:
    """Content-addressed JSON store of :class:`RunResult` artifacts.

    An unwritable cache root (read-only volume, bad path, quota) does
    not fail the run: the first failed write emits one warning, flips
    :attr:`disabled`, and every subsequent operation becomes a no-op —
    the batch computes everything it needs, just without persistence.

    Args:
        root: cache directory (created lazily on first write).
        salt: code-version tag mixed into every key; defaults to
            :func:`default_cache_salt`.
    """

    def __init__(self, root: Union[str, Path], salt: Optional[str] = None):
        self._root = Path(root)
        self._salt = salt or default_cache_salt()
        self._disabled = False

    @property
    def root(self) -> Path:
        return self._root

    @property
    def salt(self) -> str:
        return self._salt

    @property
    def disabled(self) -> bool:
        """Whether caching shut itself off after a failed write."""
        return self._disabled

    def path_for(self, spec: RunSpec) -> Path:
        """The artifact path a spec's result lives at (existing or not)."""
        key = hashlib.sha256(f"{spec.digest}|{self._salt}".encode()).hexdigest()
        return self._root / self._salt / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on a miss."""
        if self._disabled:
            return None
        path = self.path_for(spec)
        try:
            with open(path) as handle:
                artifact = json.load(handle)
            if artifact.get("digest") != spec.digest:
                raise ValueError("artifact digest mismatch")
            result = RunResult.from_dict(artifact["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return result

    def put(self, spec: RunSpec, result: RunResult) -> Optional[Path]:
        """Store ``result`` under ``spec``'s key (atomic replace).

        Returns the artifact path, or ``None`` if the cache root is
        unwritable — in which case caching is disabled for the rest of
        this cache's lifetime and a single warning is emitted.
        """
        if self._disabled:
            return None
        path = self.path_for(spec)
        artifact = {
            "digest": spec.digest,
            "salt": self._salt,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump(artifact, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError as error:
            self._disabled = True
            try:
                tmp.unlink()
            except OSError:
                pass
            warnings.warn(
                f"run cache at {self._root} is unwritable ({error}); "
                f"caching disabled, results will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return path

    def invalidate(self, spec: RunSpec) -> bool:
        """Delete one spec's artifact; returns whether one existed."""
        path = self.path_for(spec)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Delete every artifact under this cache's salt; returns the count."""
        salt_dir = self._root / self._salt
        count = sum(1 for _ in salt_dir.rglob("*.json")) if salt_dir.exists() else 0
        shutil.rmtree(salt_dir, ignore_errors=True)
        return count
