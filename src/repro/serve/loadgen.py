"""Load generator: replay an arrival trace against a live control plane.

The cluster layer replays :class:`~repro.workloads.arrivals.ArrivalTrace`
objects in simulated time; this module replays them in *wall-clock*
time against a running :class:`~repro.serve.server.ControlPlaneServer`
over its JSON-lines dialect. Each trace epoch becomes a wall-clock
tick of ``epoch_s`` seconds: arrivals create sessions, departures kill
them (optionally snapshotting first, to exercise that path under
load), and every resident session steps ``steps_per_epoch`` control
intervals. All of one tick's requests are issued concurrently over a
small connection pool, so the server sees genuinely overlapping
traffic, not a serial script.

The resulting :class:`LoadReport` — sessions/sec, steps/sec, peak
concurrency, and the server's own decision-latency percentiles — is
what the serve benchmark writes to ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro import serialize
from repro.errors import ExperimentError
from repro.serve.manager import SessionSpec
from repro.serve.server import MAX_FRAME_BYTES
from repro.workloads.arrivals import ArrivalTrace


@dataclass(frozen=True)
class LoadReport:
    """What one load-generation run measured.

    Latency percentiles are the *server's* decision-latency numbers
    (pulled from its ``stats`` op after the replay), not client
    round-trip times — the benchmark cares about the control plane's
    decide cost, not localhost socket overhead.
    """

    epochs: int
    wall_s: float
    sessions_created: int
    sessions_killed: int
    peak_concurrent: int
    steps_total: int
    sessions_per_sec: float
    steps_per_sec: float
    decision_latency_p50_ms: float
    decision_latency_p99_ms: float
    errors: int
    lagging_epochs: int

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self)


class _Pool:
    """A fixed pool of JSON-lines connections, checked out per request."""

    def __init__(self, host: str, port: int, size: int):
        self._host = host
        self._port = port
        self._size = size
        self._idle: Optional[asyncio.Queue] = None

    async def open(self) -> None:
        self._idle = asyncio.Queue()
        for _ in range(self._size):
            stream = await asyncio.open_connection(
                self._host, self._port, limit=MAX_FRAME_BYTES
            )
            self._idle.put_nowait(stream)

    async def close(self) -> None:
        if self._idle is None:
            return
        while not self._idle.empty():
            _, writer = self._idle.get_nowait()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._idle = None

    async def request(self, payload: dict) -> dict:
        """One request/response round trip on a checked-out connection."""
        reader, writer = await self._idle.get()
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                raise ExperimentError("server closed the connection")
            return json.loads(raw)
        finally:
            self._idle.put_nowait((reader, writer))


class LoadGenerator:
    """Replays an arrival trace as live control-plane traffic.

    Args:
        host, port: where the control plane listens.
        trace: the arrival trace to replay; each job in the trace maps
            to one session.
        base_spec: template session spec; each arriving job gets a
            copy with ``seed = base_spec.seed + job_id`` (distinct
            noise streams) and ``mix = job_id % mix_cycle`` (varied
            workloads).
        epoch_s: wall-clock seconds per trace epoch.
        steps_per_epoch: control intervals each resident session runs
            per epoch.
        connections: size of the client connection pool — the upper
            bound on in-flight requests.
        mix_cycle: how many suite mix indices to cycle through.
        snapshot_on_kill: snapshot each departing session before
            killing it (exercises the snapshot path under load).
    """

    def __init__(
        self,
        host: str,
        port: int,
        trace: ArrivalTrace,
        base_spec: Optional[SessionSpec] = None,
        epoch_s: float = 0.05,
        steps_per_epoch: int = 1,
        connections: int = 16,
        mix_cycle: int = 8,
        snapshot_on_kill: bool = False,
    ):
        if epoch_s <= 0:
            raise ExperimentError(f"epoch_s must be positive, got {epoch_s}")
        if steps_per_epoch < 0:
            raise ExperimentError(f"steps_per_epoch must be >= 0, got {steps_per_epoch}")
        if connections < 1:
            raise ExperimentError(f"connections must be >= 1, got {connections}")
        if mix_cycle < 1:
            raise ExperimentError(f"mix_cycle must be >= 1, got {mix_cycle}")
        self._host = host
        self._port = port
        self._trace = trace
        self._base_spec = base_spec if base_spec is not None else SessionSpec()
        self._epoch_s = epoch_s
        self._steps_per_epoch = steps_per_epoch
        self._connections = connections
        self._mix_cycle = mix_cycle
        self._snapshot_on_kill = snapshot_on_kill

    def _spec_for(self, job_id: int) -> SessionSpec:
        return dataclasses.replace(
            self._base_spec,
            seed=self._base_spec.seed + job_id,
            mix=job_id % self._mix_cycle,
        )

    async def run(self) -> LoadReport:
        """Replay the whole trace; returns the measured report."""
        pool = _Pool(self._host, self._port, self._connections)
        await pool.open()
        live: Dict[int, str] = {}  # job_id -> session_id
        created = killed = steps = errors = lagging = peak = 0

        async def _create(job_id: int) -> None:
            nonlocal created, errors
            spec = self._spec_for(job_id)
            response = await pool.request({"op": "create", "spec": spec.to_dict()})
            if response.get("ok"):
                live[job_id] = response["session"]
                created += 1
            else:
                errors += 1

        async def _kill(job_id: int) -> None:
            nonlocal killed, errors
            session_id = live.pop(job_id, None)
            if session_id is None:
                return
            if self._snapshot_on_kill:
                response = await pool.request(
                    {"op": "snapshot", "session": session_id}
                )
                if not response.get("ok"):
                    errors += 1
            response = await pool.request({"op": "kill", "session": session_id})
            if response.get("ok"):
                killed += 1
            else:
                errors += 1

        async def _step(session_id: str) -> None:
            nonlocal steps, errors
            response = await pool.request(
                {"op": "step", "session": session_id, "n": self._steps_per_epoch}
            )
            if response.get("ok"):
                steps += self._steps_per_epoch
            else:
                errors += 1

        started = time.perf_counter()
        try:
            for epoch in range(self._trace.n_epochs):
                work = [
                    _kill(job.job_id) for job in self._trace.departures_at(epoch)
                ] + [
                    _create(job.job_id) for job in self._trace.arrivals_at(epoch)
                ]
                await asyncio.gather(*work)
                peak = max(peak, len(live))
                if self._steps_per_epoch:
                    await asyncio.gather(
                        *(_step(session_id) for session_id in list(live.values()))
                    )
                deadline = started + (epoch + 1) * self._epoch_s
                remaining = deadline - time.perf_counter()
                if remaining > 0:
                    await asyncio.sleep(remaining)
                else:
                    lagging += 1  # tick overran its wall-clock budget

            stats_response = await pool.request({"op": "stats"})
            stats = stats_response.get("stats", {}) if stats_response.get("ok") else {}
        finally:
            await pool.close()
        wall = time.perf_counter() - started

        return LoadReport(
            epochs=self._trace.n_epochs,
            wall_s=wall,
            sessions_created=created,
            sessions_killed=killed,
            peak_concurrent=peak,
            steps_total=steps,
            sessions_per_sec=created / wall if wall > 0 else 0.0,
            steps_per_sec=steps / wall if wall > 0 else 0.0,
            decision_latency_p50_ms=float(stats.get("decision_latency_p50_ms", float("nan"))),
            decision_latency_p99_ms=float(stats.get("decision_latency_p99_ms", float("nan"))),
            errors=errors,
            lagging_epochs=lagging,
        )

    def drive(self) -> LoadReport:
        """Blocking convenience wrapper around :meth:`run`."""
        return asyncio.run(self.run())
