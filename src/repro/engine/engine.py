"""The execution engine: incremental fan-out with deterministic results.

The engine exposes two surfaces over one internal scheduler:

* the historical blocking batch call — :meth:`ExecutionEngine.run`
  takes a batch of :class:`RunSpec` jobs and returns their
  :class:`RunResult` objects in submission order;
* a non-blocking futures surface — :meth:`ExecutionEngine.submit`
  returns an :class:`EngineFuture` immediately, :meth:`ExecutionEngine.poll`
  makes bounded progress without blocking, and
  :meth:`ExecutionEngine.as_completed` yields futures as their specs
  finish. Long-lived callers (the ``repro.serve`` control plane, the
  cluster's speculative batching) interleave submission with other work
  instead of parking on a whole batch.

Worker processes live in one persistent pool per engine, created
lazily on first parallel work and reused across batches — per-batch
pool spin-up is gone. :meth:`ExecutionEngine.close` (or the context
manager form) releases the pool; an abandoned straggler retires the
pool so a stuck worker cannot poison later batches.

Both surfaces guarantee *bit-identical* results regardless of worker
count, submission order, or completion order, because

* every RNG stream a run consumes is derived from the spec's content
  digest (:meth:`RunSpec.seed_for`), never from shared generators or
  submission sequence;
* :meth:`RunResult.to_dict` is lossless and ``from_dict`` inverts it,
  so a result computed serially (handed back as :func:`execute_run`
  built it), computed in a worker (shipped through the pool pipe as
  ``to_dict`` data) or loaded from cache has the same ``to_dict``
  form. Only those two real boundaries pay for the codec.

Duplicate specs inside a batch execute once (the 21-mix PARSEC grid
shares one Balanced Oracle run per mix across all drivers that ask for
it), and an attached :class:`~repro.engine.cache.RunCache` extends the
dedup across engine instances, processes, and sessions.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.blobs import BlobStore, SpecRef
from repro.engine.cache import RunCache
from repro.engine.spec import RunSpec, derive_seed
from repro.errors import EngineError
from repro.experiments.runner import RunResult, run_policy
from repro.obs import TraceCollector, TraceEvent, active_collector, use_collector
from repro.policies.registry import make_policy


def execute_run(spec: RunSpec) -> RunResult:
    """Execute one spec from scratch (no cache, current process).

    This is the single choke point every run goes through — the
    warm-cache tests monkeypatch :func:`repro.experiments.runner.run_policy`
    via this module to prove cached batches trigger zero executions.
    """
    goals = spec.goal_set()
    policy = make_policy(
        spec.policy,
        spec.mix,
        spec.catalog,
        goals,
        rng=spec.seed_for("policy"),
        initial_state=spec.initial_state,
        **spec.kwargs_dict(),
    )
    # Noise derives from the cold digest — the spec with any warm-start
    # state stripped — so a warm continuation and its cold twin measure
    # the same perturbed hardware (their delta is the carried state),
    # while cold specs keep their historical noise streams.
    return run_policy(
        policy,
        spec.mix,
        spec.catalog,
        spec.run_config,
        goals,
        seed=derive_seed(spec.cold_digest, "noise"),
        faults=spec.fault_plan,
        fault_seed=derive_seed(spec.environment_digest, "faults"),
    )


def _execute_run_traced(
    spec: RunSpec, collect: bool = False
) -> Tuple[dict, float, Optional[List[dict]]]:
    """Worker entry point: the result as plain data, wall time and
    (optionally) spans.

    Worker processes have their own memory, so spans recorded inside
    them never reach the parent's collector directly. With ``collect``
    set, the worker records its spans into a local collector and ships
    them back serialized alongside the payload; the parent adopts them
    onto its own timeline (:meth:`TraceCollector.adopt`) under a
    per-worker lane. Without it, only the measured duration crosses
    the pipe — enough for run timing and worker-utilization metrics.
    """
    started = time.perf_counter()
    if not collect:
        return execute_run(spec).to_dict(), time.perf_counter() - started, None
    local = TraceCollector()
    with use_collector(local):
        with local.span("run_spec", "engine"):
            payload = execute_run(spec).to_dict()
    events = [event.to_dict() for event in local.events]
    return payload, time.perf_counter() - started, events


def _execute_run_traced_blob(
    ref: SpecRef, collect: bool = False
) -> Tuple[dict, float, Optional[List[dict]], bool]:
    """Worker entry point for digest-addressed spec transport.

    The submission carries a :class:`~repro.engine.blobs.SpecRef`
    instead of a pickled spec; the worker hydrates the mix from its
    per-process blob cache (at most one disk read + unpickle per mix
    per worker) and runs the rebuilt spec exactly as the pickle
    transport would. The extra tuple element reports whether the mix
    came from the cache, for the parent's hit/miss counters.
    """
    spec, blob_hit = ref.hydrate()
    payload, duration_s, events = _execute_run_traced(spec, collect)
    return payload, duration_s, events, blob_hit


@dataclass(frozen=True)
class RunError:
    """A spec that could not be executed (partial-batch bookkeeping).

    Produced by :meth:`ExecutionEngine.run` with ``on_error="record"``
    in place of the failed spec's :class:`RunResult`, so one crashed or
    hung run does not discard the rest of the batch.

    Attributes:
        spec: the failed spec.
        error: ``"ExceptionType: message"`` of the last failure, or the
            straggler-timeout description.
        attempts: how many times the spec was tried (1 + retries used).
    """

    spec: RunSpec
    error: str
    attempts: int


@dataclass
class EngineStats:
    """Counters for one engine's lifetime (all ``run`` calls summed).

    Attributes:
        submitted: specs passed to ``run``/``submit`` (including
            duplicates).
        executed: specs actually run via :func:`execute_run`.
        deduplicated: duplicate specs coalesced onto an in-flight twin.
        cache_hits / cache_misses: disk-cache lookups (zero without a
            cache attached).
        batches: number of ``run`` calls.
        retried: failed executions that were re-attempted.
        failed: specs that still had no result after all retries.
        cache_errors: cache writes that failed (the cache disables
            itself after the first, so this is at most 1 per cache).
    """

    submitted: int = 0
    executed: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    retried: int = 0
    failed: int = 0
    cache_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches": self.batches,
            "retried": self.retried,
            "failed": self.failed,
            "cache_errors": self.cache_errors,
        }

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        text = (
            f"{self.submitted} submitted, {self.executed} executed, "
            f"{self.deduplicated} deduplicated, "
            f"{self.cache_hits} cache hits, {self.cache_misses} cache misses"
        )
        if self.retried or self.failed:
            text += f", {self.retried} retried, {self.failed} failed"
        if self.cache_errors:
            text += f", {self.cache_errors} cache errors"
        return text


# Slot lifecycle: QUEUED -> RUNNING -> (DONE | RETRY_WAIT -> QUEUED -> ...)
_QUEUED = "queued"
_RUNNING = "running"
_RETRY_WAIT = "retry_wait"
_DONE = "done"


class _Slot:
    """One unique in-flight spec: shared by every future that maps to it."""

    __slots__ = (
        "spec", "state", "outcome", "attempts", "error",
        "pool_future", "retry_at", "retry_delay", "lane",
    )

    def __init__(self, spec: RunSpec):
        self.spec = spec
        self.state = _QUEUED
        self.outcome: Optional[Union[RunResult, RunError]] = None
        self.attempts = 0
        self.error: Optional[str] = None
        self.pool_future: Optional[concurrent.futures.Future] = None
        self.retry_at: Optional[float] = None
        self.retry_delay = 0.0
        self.lane = 0

    @property
    def done(self) -> bool:
        return self.state == _DONE

    def resolve(self, outcome: Union[RunResult, RunError]) -> None:
        self.outcome = outcome
        self.state = _DONE
        self.pool_future = None


class EngineFuture:
    """Handle to one submitted spec.

    Futures for equal specs share one underlying execution (and one
    outcome object); a future stays valid after the engine has moved on
    to other work.
    """

    __slots__ = ("_engine", "_slot")

    def __init__(self, engine: "ExecutionEngine", slot: _Slot):
        self._engine = engine
        self._slot = slot

    @property
    def spec(self) -> RunSpec:
        return self._slot.spec

    @property
    def done(self) -> bool:
        return self._slot.done

    def peek(self) -> Optional[Union[RunResult, RunError]]:
        """The outcome if resolved, else ``None`` (never blocks)."""
        return self._slot.outcome

    def outcome(self, timeout_s: Optional[float] = None) -> Union[RunResult, RunError]:
        """Block (driving the engine) until resolved; never raises for
        a failed spec — the :class:`RunError` is returned instead."""
        self._engine._wait_for(self._slot, timeout_s)
        return self._slot.outcome

    def result(self, timeout_s: Optional[float] = None) -> RunResult:
        """Block until resolved; raise :class:`~repro.errors.EngineError`
        if the spec exhausted its retries."""
        value = self.outcome(timeout_s)
        if isinstance(value, RunError):
            raise EngineError(
                f"{value.spec!r} failed after {value.attempts} attempt(s): {value.error}"
            )
        return value


class ExecutionEngine:
    """Runs specs serially or across a persistent worker-process pool.

    Args:
        workers: process count; ``1`` (the default) executes in-process
            with no multiprocessing dependency, which is also the
            deterministic fallback on single-core machines.
        cache: optional :class:`RunCache`; hits skip execution
            entirely and misses are stored after execution.
        retries: extra execution rounds for specs that failed — a
            worker crash or transient exception is re-attempted up to
            this many times before the spec counts as failed.
        timeout_s: batch deadline in seconds for the worker-pool path
            of :meth:`run`, applied per retry round; specs still
            running when it expires are recorded as straggler failures
            (and retried if ``retries`` allows). ``None`` waits
            indefinitely; the serial path and the non-blocking futures
            surface ignore it.
        spec_timeout_s: per-spec deadline in seconds for the
            worker-pool path of :meth:`run`, measured from when the
            spec is first observed *running* (queue time doesn't
            count). A spec past its deadline is abandoned as a
            straggler without waiting for the rest of the batch.
            ``None`` disables it; the serial path ignores it (a serial
            run can't be abandoned).
        backoff_base_s: base delay for exponential backoff between
            retry rounds; round *r* waits ``backoff_base_s * 2**(r-1)``
            seconds. ``0`` (the default) retries immediately.
        backoff_jitter: fractional jitter added to each backoff delay,
            drawn deterministically from the retried spec's digest so
            reruns sleep identically (``0.25`` stretches delays by up
            to 25%).
        spec_transport: how specs cross the pool boundary. ``"blob"``
            (the default) ships a light :class:`~repro.engine.blobs.SpecRef`
            and spools each distinct mix once into a content-addressed
            :class:`~repro.engine.blobs.BlobStore`, so workers stop
            unpickling identical workload models per submission;
            ``"pickle"`` is the historical whole-spec pickle. Results
            are bit-identical either way — only transport cost changes.
        trace_workers: when the active collector is enabled, workers
            normally record their spans locally and ship them back for
            replay into the parent's collector. Set ``False`` to skip
            that — parent-side spans (engine rounds, broker decides)
            are still recorded, but worker-interior traces are
            dropped at the source. Long runs emit thousands of events
            per spec, and pickling them across the pool boundary can
            dominate a benchmark that only reads parent-side spans.

    The worker pool is created lazily on first parallel work and then
    reused for the engine's lifetime (no per-batch spin-up); call
    :meth:`close` — or use the engine as a context manager — to
    release it. Abandoning a straggler retires the pool (its stuck
    process must not serve later work); a fresh pool replaces it on
    the next parallel round.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[RunCache] = None,
        retries: int = 0,
        timeout_s: Optional[float] = None,
        spec_timeout_s: Optional[float] = None,
        backoff_base_s: float = 0.0,
        backoff_jitter: float = 0.0,
        spec_transport: str = "blob",
        trace_workers: bool = True,
    ):
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise EngineError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise EngineError(f"timeout_s must be positive, got {timeout_s}")
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise EngineError(
                f"spec_timeout_s must be positive, got {spec_timeout_s}"
            )
        if backoff_base_s < 0:
            raise EngineError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        if backoff_jitter < 0:
            raise EngineError(f"backoff_jitter must be >= 0, got {backoff_jitter}")
        if spec_transport not in ("blob", "pickle"):
            raise EngineError(
                f"spec_transport must be 'blob' or 'pickle', got {spec_transport!r}"
            )
        self._workers = int(workers)
        self._cache = cache
        self._retries = int(retries)
        self._timeout_s = timeout_s
        self._spec_timeout_s = spec_timeout_s
        self._backoff_base_s = float(backoff_base_s)
        self._backoff_jitter = float(backoff_jitter)
        self._stats = EngineStats()
        self._spec_transport = spec_transport
        self._trace_workers = bool(trace_workers)
        self._slots: Dict[RunSpec, _Slot] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._blobs: Optional[BlobStore] = None
        self._inflight: Dict[concurrent.futures.Future, _Slot] = {}
        self._lane_counter = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def cache(self) -> Optional[RunCache]:
        return self._cache

    @property
    def retries(self) -> int:
        return self._retries

    @property
    def timeout_s(self) -> Optional[float]:
        return self._timeout_s

    @property
    def spec_timeout_s(self) -> Optional[float]:
        return self._spec_timeout_s

    @property
    def stats(self) -> EngineStats:
        return self._stats

    @property
    def pending(self) -> int:
        """Number of submitted specs not yet resolved."""
        return sum(1 for slot in self._slots.values() if not slot.done)

    # -- lifecycle --------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Release the persistent worker pool (idempotent).

        The engine stays usable afterwards — the next parallel round
        simply creates a fresh pool.
        """
        pool, self._pool = self._pool, None
        self._inflight.clear()
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
        blobs, self._blobs = self._blobs, None
        if blobs is not None:
            blobs.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- blocking batch surface -------------------------------------------

    def run_one(self, spec: RunSpec) -> RunResult:
        """Convenience wrapper: run a single spec."""
        return self.run([spec])[0]

    def run(
        self, specs: Sequence[RunSpec], on_error: str = "raise"
    ) -> List[Union[RunResult, RunError]]:
        """Execute a batch; results align with ``specs`` by position.

        Identical specs (equal content, hence equal digest) execute at
        most once per batch; with a cache attached, at most once ever
        per code version.

        This is a thin wrapper over the futures surface: every spec is
        :meth:`submit`-ted, then the engine is driven to completion
        with the historical round-synchronized retry/backoff and
        straggler-deadline semantics.

        Args:
            specs: the batch.
            on_error: ``"raise"`` (default) raises
                :class:`~repro.errors.EngineError` on the first spec
                that still fails after all retries; ``"record"``
                returns a :class:`RunError` in that spec's position and
                keeps the rest of the batch (partial results).
        """
        if on_error not in ("raise", "record"):
            raise EngineError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        specs = list(specs)
        self._stats.batches += 1
        obs = active_collector()

        with obs.span("engine_batch", "engine"):
            slots = [self._submit_slot(spec, obs) for spec in specs]
            # First-seen order of unique slots keeps scheduling
            # deterministic (dict preserves insertion order).
            batch: Dict[RunSpec, _Slot] = {}
            for slot in slots:
                batch.setdefault(slot.spec, slot)
            try:
                self._drive(list(batch.values()), obs)
                results: List[Union[RunResult, RunError]] = []
                for slot in slots:
                    value = slot.outcome
                    if isinstance(value, RunError) and on_error == "raise":
                        raise EngineError(
                            f"{value.spec!r} failed after {value.attempts} "
                            f"attempt(s): {value.error}"
                        )
                    results.append(value)
            finally:
                self._purge_resolved()
        return results

    # -- futures surface ---------------------------------------------------

    def submit(self, spec: RunSpec) -> EngineFuture:
        """Register one spec for execution and return its future.

        Never blocks: a cache hit resolves the future immediately, a
        spec equal to one already in flight coalesces onto it, and
        anything else is queued. Queued work proceeds during
        :meth:`poll`, :meth:`as_completed`, :meth:`EngineFuture.result`,
        or a later :meth:`run` that includes the same spec.
        """
        return EngineFuture(self, self._submit_slot(spec, active_collector()))

    def cancel(self, future: EngineFuture) -> bool:
        """Withdraw a submitted spec that has not started executing.

        Returns ``True`` if the spec was still queued: its slot is
        removed from the dedup map (a later equal submit starts fresh)
        and the future resolves to a :class:`RunError` — ``result()``
        raises, ``outcome()`` returns the error. Returns ``False`` for
        specs already running, resolved, or in retry backoff: started
        work is never abandoned mid-flight, so a failed cancel simply
        means the result will arrive.

        Futures for equal specs share one execution, so cancelling one
        cancels them all — callers juggling speculative work (the
        cluster's cross-epoch batching) should track one future per
        spec and cancel only futures they own.
        """
        slot = future._slot
        if slot.state != _QUEUED:
            return False
        existing = self._slots.get(slot.spec)
        if existing is slot:
            del self._slots[slot.spec]
        slot.resolve(
            RunError(spec=slot.spec, error="cancelled before execution", attempts=0)
        )
        active_collector().metrics.counter("engine.cancelled").inc()
        return True

    def poll(self, timeout_s: float = 0.0) -> int:
        """Make bounded progress and return the number of unresolved specs.

        Harvests finished worker results, launches queued specs
        (serial engines execute at most one spec per call, so callers
        can interleave), and re-queues retries whose backoff has
        elapsed. ``timeout_s`` bounds how long the call may block
        waiting on worker results (0 = never block).

        The futures surface applies retry backoff as a deadline rather
        than a sleep and does not enforce ``timeout_s``/
        ``spec_timeout_s`` deadlines — long-lived callers own their
        own pacing; the blocking :meth:`run` keeps the historical
        deadline semantics.
        """
        self._pump(active_collector(), timeout_s)
        self._purge_resolved()
        return self.pending

    def as_completed(
        self, futures: Iterable[EngineFuture], timeout_s: Optional[float] = None
    ) -> Iterator[EngineFuture]:
        """Yield ``futures`` as their specs resolve (completion order).

        Raises :class:`~repro.errors.EngineError` if ``timeout_s``
        elapses with futures still unresolved.
        """
        remaining = list(futures)
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        obs = active_collector()
        while remaining:
            ready = [future for future in remaining if future.done]
            if ready:
                for future in ready:
                    remaining.remove(future)
                    yield future
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                raise EngineError(
                    f"as_completed timed out with {len(remaining)} future(s) unresolved"
                )
            self._pump(obs, 0.05)
        self._purge_resolved()

    # -- internals -------------------------------------------------------

    def _submit_slot(self, spec: RunSpec, obs) -> _Slot:
        self._stats.submitted += 1
        slot = self._slots.get(spec)
        if slot is not None:
            self._stats.deduplicated += 1
            obs.metrics.counter("engine.deduplicated").inc()
            return slot
        slot = _Slot(spec)
        self._slots[spec] = slot
        cached = self._cache.get(spec) if self._cache is not None else None
        if cached is not None:
            self._stats.cache_hits += 1
            obs.metrics.counter("engine.cache_hits").inc()
            obs.event("cache_hit", "engine")
            slot.resolve(cached)
        elif self._cache is not None:
            self._stats.cache_misses += 1
            obs.metrics.counter("engine.cache_misses").inc()
        return slot

    def _purge_resolved(self) -> None:
        """Drop resolved slots so the dedup window matches one batch.

        Futures keep their slot references, so purging never
        invalidates a handle; it only means a *later* equal submit
        re-consults the cache instead of aliasing a finished run.
        """
        for spec in [spec for spec, slot in self._slots.items() if slot.done]:
            del self._slots[spec]
        if not self._slots and not self._inflight:
            self._lane_counter = 0

    def _store(self, spec: RunSpec, result: RunResult) -> None:
        """Cache a fresh result; count the write that disables the cache."""
        if self._cache is None:
            return
        was_disabled = self._cache.disabled
        self._cache.put(spec, result)
        if self._cache.disabled and not was_disabled:
            self._stats.cache_errors += 1

    def _note_success(self, slot: _Slot, result: RunResult, obs) -> None:
        slot.attempts += 1
        self._stats.executed += 1
        obs.metrics.counter("engine.executed").inc()
        self._store(slot.spec, result)
        slot.resolve(result)

    def _note_failure(self, slot: _Slot, error: str, obs) -> None:
        slot.attempts += 1
        slot.error = error
        slot.pool_future = None
        if slot.attempts <= self._retries:
            slot.state = _RETRY_WAIT
            slot.retry_at = None
            return
        self._stats.failed += 1
        obs.metrics.counter("engine.failed").inc()
        slot.resolve(RunError(spec=slot.spec, error=str(error), attempts=slot.attempts))

    def _retry_delay(self, spec: RunSpec, round_number: int) -> float:
        """Backoff before retry round ``round_number`` (exponential + jitter).

        The jitter fraction derives from the spec's digest and the
        round number, so identical reruns back off identically —
        determinism extends to the retry schedule.
        """
        if self._backoff_base_s <= 0:
            return 0.0
        delay = self._backoff_base_s * 2 ** (round_number - 1)
        if self._backoff_jitter > 0:
            unit = derive_seed(spec.digest, "backoff", round_number) % 10**6 / 10**6
            delay *= 1.0 + self._backoff_jitter * unit
        return delay

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._workers
            )
        return self._pool

    def _pool_submit(
        self, pool: concurrent.futures.ProcessPoolExecutor, slot: _Slot, obs
    ) -> concurrent.futures.Future:
        """Submit one slot to the pool via the configured transport."""
        collect = obs.enabled and self._trace_workers
        if self._spec_transport == "blob":
            if self._blobs is None:
                self._blobs = BlobStore()
            blob_path = self._blobs.put_mix(slot.spec)
            ref = SpecRef.from_spec(slot.spec, blob_path)
            return pool.submit(_execute_run_traced_blob, ref, collect)
        return pool.submit(_execute_run_traced, slot.spec, collect)

    def _retire_pool(self) -> None:
        """Abandon the pool without waiting (a straggler may be stuck)."""
        pool, self._pool = self._pool, None
        self._inflight.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _harvest(self, future: concurrent.futures.Future, slot: _Slot,
                 lane: int, obs) -> Optional[float]:
        """Fold one finished worker future back into its slot.

        Returns the worker-measured duration on success (for the
        utilization gauge), ``None`` on failure.

        Failures are read with ``future.exception()``, never re-raised
        through ``future.result()``: a raise would attach this frame's
        traceback to the exception the future keeps, and that
        future/traceback/frame cycle would pin every caller frame (a
        whole cluster simulator) until a full garbage collection.
        """
        if future.cancelled():
            error: Optional[BaseException] = concurrent.futures.CancelledError()
        else:
            error = future.exception()
        if error is not None:
            self._note_failure(slot, f"{type(error).__name__}: {error}", obs)
            return None
        outcome = future.result()
        if len(outcome) == 4:  # blob transport reports its cache fate
            payload, duration_s, events, blob_hit = outcome
            obs.metrics.counter(
                "engine.blob_cache_hits" if blob_hit else "engine.blob_cache_misses"
            ).inc()
        else:
            payload, duration_s, events = outcome
        obs.metrics.histogram("engine.run_seconds").observe(duration_s)
        obs.event("run_spec", "engine", duration_s=duration_s)
        if events:
            # Rebase the worker's spans so they end now (completion
            # instant parent-side) and keep their internal
            # nesting/parenting intact.
            obs.adopt(
                [TraceEvent.from_dict(d) for d in events],
                at_ns=obs.now_ns() - int(duration_s * 1e9),
                lane=f"worker:{lane}",
            )
        self._note_success(slot, RunResult.from_dict(payload), obs)
        return duration_s

    def _execute_serial(self, slot: _Slot, obs) -> None:
        """Run one spec in-process (the serial path of both surfaces).

        The result never leaves the process, so it is handed back as
        :func:`execute_run` built it, without a codec round trip.
        """
        slot.state = _RUNNING
        started = time.perf_counter()
        try:
            with obs.span("run_spec", "engine"):
                result = execute_run(slot.spec)
        except Exception as error:  # noqa: BLE001 - reported per spec
            self._note_failure(slot, f"{type(error).__name__}: {error}", obs)
        else:
            self._note_success(slot, result, obs)
        obs.metrics.histogram("engine.run_seconds").observe(
            time.perf_counter() - started
        )

    # -- blocking drive (run()) -------------------------------------------

    def _drive(self, slots: List[_Slot], obs) -> None:
        """Drive ``slots`` to resolution with round-synchronized retries.

        Each round executes every queued slot (serially or on the
        pool); failures eligible for retry wait for the *whole* round,
        then back off once — via ``time.sleep``, announced as a
        ``retry_backoff`` event — and re-queue together. This
        reproduces the historical retry schedule exactly.
        """
        while True:
            round_slots = [slot for slot in slots if slot.state == _QUEUED]
            if round_slots:
                if self._workers == 1 or len(round_slots) == 1:
                    for slot in round_slots:
                        self._execute_serial(slot, obs)
                else:
                    self._pool_round(round_slots, obs)
                continue
            retry = [slot for slot in slots if slot.state == _RETRY_WAIT]
            if not retry:
                if any(slot.state == _RUNNING for slot in slots):
                    # In flight via the futures surface (submitted
                    # before this run() call): finish them there.
                    self._pump(obs, 0.05)
                    continue
                return
            self._stats.retried += len(retry)
            round_number = retry[0].attempts
            delay = self._retry_delay(retry[0].spec, round_number)
            if delay > 0:
                obs.event(
                    "retry_backoff", "engine",
                    round=round_number, delay_s=delay, specs=len(retry),
                )
                time.sleep(delay)
            for slot in retry:
                slot.state = _QUEUED
                slot.retry_at = None

    def _pool_round(self, round_slots: List[_Slot], obs) -> None:
        """One parallel round on the persistent pool, with deadlines."""
        max_workers = min(self._workers, len(round_slots))
        round_started = time.perf_counter()
        busy_seconds = 0.0
        pool = self._ensure_pool()
        abandoned = False
        futures: Dict[concurrent.futures.Future, Tuple[int, _Slot]] = {}
        for index, slot in enumerate(round_slots):
            slot.state = _RUNNING
            futures[self._pool_submit(pool, slot, obs)] = (index, slot)
        remaining = set(futures)
        batch_deadline = (
            None if self._timeout_s is None else round_started + self._timeout_s
        )
        # When any spec was first seen *running* (queue time does not
        # count against its deadline).
        first_running: Dict[concurrent.futures.Future, float] = {}
        try:
            while remaining:
                if self._spec_timeout_s is not None:
                    # Poll often enough that an overdue spec is caught
                    # within a quarter of its deadline.
                    poll: Optional[float] = min(0.05, self._spec_timeout_s / 4)
                elif batch_deadline is not None:
                    poll = max(0.0, batch_deadline - time.perf_counter())
                else:
                    poll = None
                done, _ = concurrent.futures.wait(remaining, timeout=poll)
                now = time.perf_counter()
                for future in done:
                    remaining.discard(future)
                    index, slot = futures[future]
                    duration_s = self._harvest(future, slot, index, obs)
                    if duration_s is not None:
                        busy_seconds += duration_s
                for future in list(remaining):
                    if future not in first_running and future.running():
                        first_running[future] = now
                if self._spec_timeout_s is not None:
                    for future in list(remaining):
                        started = first_running.get(future)
                        if started is None or now - started < self._spec_timeout_s:
                            continue
                        remaining.discard(future)
                        future.cancel()  # running futures won't cancel; abandon
                        abandoned = True
                        _, slot = futures[future]
                        self._note_failure(
                            slot,
                            f"straggler: no result within the "
                            f"{self._spec_timeout_s}s per-spec deadline",
                            obs,
                        )
                if batch_deadline is not None and time.perf_counter() >= batch_deadline:
                    for future in remaining:
                        future.cancel()
                        _, slot = futures[future]
                        self._note_failure(
                            slot,
                            f"straggler: no result within the "
                            f"{self._timeout_s}s batch deadline",
                            obs,
                        )
                    abandoned = abandoned or bool(remaining)
                    remaining = set()
        except BaseException:
            self._retire_pool()
            raise
        if abandoned:
            # A stuck worker must not serve later rounds: retire the
            # pool; the next parallel round starts a fresh one.
            self._retire_pool()
        wall = time.perf_counter() - round_started
        if wall > 0:
            obs.metrics.gauge("engine.worker_utilization").set(
                busy_seconds / (max_workers * wall)
            )

    # -- non-blocking pump (futures surface) -------------------------------

    def _pump(self, obs, timeout_s: float) -> None:
        """One scheduling pass for the futures surface.

        Launches queued slots, harvests finished workers (waiting up
        to ``timeout_s``), and re-queues elapsed retries. Serial
        engines execute at most one queued spec per pass so callers
        can interleave work between polls.
        """
        now = time.perf_counter()
        for slot in self._slots.values():
            if slot.state != _RETRY_WAIT:
                continue
            if slot.retry_at is None:
                # Freshly failed: schedule its backoff deadline.
                slot.retry_delay = self._retry_delay(slot.spec, slot.attempts)
                slot.retry_at = now + slot.retry_delay
                if slot.retry_delay > 0:
                    obs.event(
                        "retry_backoff", "engine",
                        round=slot.attempts, delay_s=slot.retry_delay, specs=1,
                    )
            if now >= slot.retry_at:
                self._stats.retried += 1
                slot.state = _QUEUED
                slot.retry_at = None

        queued = [slot for slot in self._slots.values() if slot.state == _QUEUED]
        if self._workers == 1:
            if queued:
                self._execute_serial(queued[0], obs)
            return

        pool = self._ensure_pool() if (queued or self._inflight) else None
        for slot in queued:
            slot.state = _RUNNING
            slot.lane = self._lane_counter
            self._lane_counter += 1
            self._inflight[self._pool_submit(pool, slot, obs)] = slot
        if not self._inflight:
            return
        done, _ = concurrent.futures.wait(
            set(self._inflight), timeout=max(0.0, timeout_s)
        )
        for future in done:
            slot = self._inflight.pop(future)
            self._harvest(future, slot, slot.lane, obs)

    def _wait_for(self, slot: _Slot, timeout_s: Optional[float]) -> None:
        """Block until ``slot`` resolves, driving the futures pump."""
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        obs = active_collector()
        while not slot.done:
            if deadline is not None and time.perf_counter() >= deadline:
                raise EngineError(f"timed out waiting for {slot.spec!r}")
            if slot.state == _RETRY_WAIT and slot.retry_at is not None:
                # Sleep out the remaining backoff (bounded by deadline).
                pause = max(0.0, slot.retry_at - time.perf_counter())
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - time.perf_counter()))
                if pause > 0:
                    time.sleep(min(pause, 0.25))
            self._pump(obs, 0.05)
        self._purge_resolved()
