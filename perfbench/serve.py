"""The ``serve-satori`` workload: an open loop against ``repro serve``.

The server runs in its own process and hosts 8 SATORI sessions on
distinct seeded PARSEC mixes (8 units). This process is the one client:

* the **step connection** carries every step. Session ``i`` steps once
  per 100 ms control interval at phase ``i/8`` of the interval, so
  80 steps/s are offered whatever the server does (open loop), and
  each step is timed from its *scheduled* send time;
* the **lifecycle connection** alternates, once a second, between a
  swap (snapshot -> resume -> kill of one session) and create/kill
  churn.

A swap happens at a fixed position in the session's step sequence: the
session's later steps are held from its snapshot until the swap
completes, then sent (late, and timed from their schedule). So every
session runs exactly its scheduled steps, in order, whatever the
timing, and its final scores depend on the seed alone. A resume the
server rejects or drops is counted as failed and the old session keeps
stepping.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from common import (
    ROOT,
    SCRATCH,
    HarnessError,
    host_factor,
    median,
    percentile,
    proc_status_mb,
    reference_ms,
)

#: Client-side read limit: a snapshot of a long session is far over
#: asyncio's 64 KiB default.
CLIENT_LINE_LIMIT = 64 * 1024 * 1024
#: Every session holds this SLO floor on its first job, so the server
#: scores attainment each step (SATORI itself ignores it).
SLO_FLOOR = 0.55


@dataclass(frozen=True)
class ServeScale:
    # 16 sessions (160 steps/s) saturate the server whenever the host
    # runs in its slow mode: client p50 then jumps from ~2.4 ms to
    # over 100 ms, so the rung measures the host, not the program.
    sessions: int = 8
    units: int = 8
    interval_s: float = 0.1
    # Swaps and churn alternate, so a session is swapped every 5 s and
    # steps held by a swap stay a small fraction of the latency tail.
    lifecycle_period_s: float = 2.5
    setup_samples: int = 3


FULL = ServeScale()
TINY = ServeScale(sessions=4, units=6, lifecycle_period_s=0.5, setup_samples=1)


def session_specs(seed: int, scale: ServeScale, count: int, stream: str) -> List[dict]:
    """``count`` session specs on PARSEC mixes picked by the seed.

    The mixes are a stratified draw: one from each of ``count`` runs of
    neighbouring mix indices (neighbours share most benchmarks), so each
    seed gets a different but equally spread set of mixes and the mean
    session scores move little from seed to seed.
    """
    from repro.workloads.mixes import suite_mixes

    rng = random.Random(f"{seed}/{stream}")
    n_mixes = len(suite_mixes("parsec"))
    mixes = []
    for i in range(count):
        low = i * n_mixes // count
        mixes.append(rng.randrange(low, max(low + 1, (i + 1) * n_mixes // count)))
    rng.shuffle(mixes)
    return [
        {"policy": "SATORI", "suite": "parsec", "mix": mix,
         "units": scale.units, "seed": rng.randrange(2**31),
         "slo_floor": SLO_FLOOR, "qos_jobs": [0]}
        for mix in mixes
    ]


# -- server process ----------------------------------------------------------


class Server:
    """One server process, started by the constructor.

    Its standard error goes to a file, not a pipe: the server logs a
    traceback for every connection a failed resume drops, and a pipe
    nobody drains would block it once full.
    """

    def __init__(self, traced: bool, out: str = "") -> None:
        if traced:
            argv = [sys.executable, "perfbench/serve_launcher.py", "--out", out]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0"]
        self._log_path = os.path.join(SCRATCH, f"server-{os.getpid()}.log")
        self._log = open(self._log_path, "w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.port = 0

    def wait_listening(self) -> float:
        for line in self.process.stdout:
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                return time.perf_counter() - self.started
        self.process.wait()
        with open(self._log_path) as handle:
            raise HarnessError(f"server exited: {handle.read()[-2000:]}")

    def status_mb(self, field: str) -> float:
        return proc_status_mb(self.process.pid, field)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        os.remove(self._log_path)


# -- client ------------------------------------------------------------------


class Dropped(Exception):
    """The server closed the connection without answering."""


class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=CLIENT_LINE_LIMIT)
        return self

    def send(self, request: dict) -> None:
        self.writer.write(json.dumps(request).encode() + b"\n")

    async def receive(self) -> Tuple[dict, int]:
        line = await self.reader.readline()
        if not line:
            raise Dropped()
        return json.loads(line), len(line)

    async def call(self, request: dict) -> Tuple[dict, int]:
        try:
            self.send(request)
            await self.writer.drain()
            return await self.receive()
        except (ConnectionError, asyncio.IncompleteReadError) as error:
            raise Dropped() from error

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    dropped: int = 0
    problems: List[str] = field(default_factory=list)
    op_ms: Dict[str, List[float]] = field(default_factory=dict)
    snapshot_bytes: List[int] = field(default_factory=list)
    failed_resume: int = 0
    resumes_ok: int = 0

    def note(self, op: str, ms: float) -> None:
        self.op_ms.setdefault(op, []).append(ms)


async def create_sessions(port: int, specs: List[dict], tally: Tally) -> List[str]:
    conn = await Connection(port).open()
    ids = []
    try:
        for spec in specs:
            started = time.perf_counter()
            tally.attempted += 1
            response, _ = await conn.call({"op": "create", "spec": spec})
            tally.note("create", (time.perf_counter() - started) * 1e3)
            if not response.get("ok"):
                raise HarnessError(f"create failed: {response}")
            ids.append(response["session"])
    finally:
        await conn.close()
    return ids


@dataclass
class Swap:
    slot: int
    after_step: int
    done: asyncio.Event = field(default_factory=asyncio.Event)
    held: List[Tuple[int, float]] = field(default_factory=list)


class OpenLoop:
    """The timed phase: the step schedule plus lifecycle traffic."""

    def __init__(self, port: int, ids: List[str], seed: int, seconds: float,
                 scale: ServeScale, tally: Tally) -> None:
        self.port = port
        self.ids = list(ids)
        self.scale = scale
        self.tally = tally
        n = len(ids)
        self.n_steps = max(1, round(seconds / scale.interval_s))
        self.schedule = sorted(
            (k * scale.interval_s + i * scale.interval_s / n, i, k)
            for i in range(n) for k in range(self.n_steps)
        )
        rng = random.Random(f"{seed}/lifecycle")
        self.lifecycle: List[Tuple[float, str, Optional[Swap]]] = []
        t, j = scale.lifecycle_period_s, 0
        while t < seconds - scale.lifecycle_period_s / 2:
            if j % 2 == 0:
                slot = rng.randrange(n)
                # The swap starts just after the slot's step k, so it has
                # a whole control interval before step k+1 falls due;
                # steps from k+1 on wait for it.
                k = int((t - slot * scale.interval_s / n) / scale.interval_s)
                start = k * scale.interval_s + slot * scale.interval_s / n
                self.lifecycle.append((start + 0.001, "swap", Swap(slot, k + 1)))
            else:
                self.lifecycle.append((t, "churn", None))
            t += scale.lifecycle_period_s
            j += 1
        self.swaps: Dict[int, List[Swap]] = {}
        for _, kind, swap in self.lifecycle:
            if swap is not None:
                self.swaps.setdefault(swap.slot, []).append(swap)
        self.churn_specs = session_specs(seed, scale, len(self.lifecycle), "churn")
        self.pending: Deque[Tuple[int, int, float]] = deque()
        self.answered = [0] * n
        self.last: Dict[int, dict] = {}
        self.latency_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.held_steps = 0
        self.t0 = 0.0
        self.t_last = 0.0
        self._answered_event = asyncio.Event()

    def _blocking_swap(self, slot: int, k: int) -> Optional[Swap]:
        for swap in self.swaps.get(slot, ()):
            if k >= swap.after_step and not swap.done.is_set():
                return swap
        return None

    def _send_step(self, slot: int, k: int, due: float) -> None:
        self.tally.attempted += 1
        self.pending.append((slot, k, due))
        self.steps.send({"op": "step", "session": self.ids[slot]})

    async def _sender(self) -> None:
        for offset, slot, k in self.schedule:
            due = self.t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            swap = self._blocking_swap(slot, k)
            if swap is not None:
                swap.held.append((k, due))
                continue
            self.lateness_ms.append((time.perf_counter() - due) * 1e3)
            self._send_step(slot, k, due)
            await self.steps.writer.drain()

    async def _receiver(self, total: int) -> None:
        for _ in range(total):
            try:
                response, _ = await self.steps.receive()
            except Dropped:
                self.tally.problems.append("the step connection was dropped")
                raise
            now = time.perf_counter()
            slot, k, due = self.pending.popleft()
            self.latency_ms.append((now - due) * 1e3)
            self.t_last = now
            if not response.get("ok"):
                self.tally.failed += 1
            elif response.get("steps") != k + 1:
                self.tally.problems.append(
                    f"slot {slot} step {k}: server reports {response.get('steps')} steps")
            self.answered[slot] += 1
            self.last[slot] = response
            self._answered_event.set()

    async def _wait_answered(self, slot: int, count: int) -> None:
        while self.answered[slot] < count:
            self._answered_event.clear()
            await self._answered_event.wait()

    async def _life_call(self, op: str, request: dict) -> Optional[dict]:
        self.tally.attempted += 1
        started = time.perf_counter()
        try:
            response, size = await self.life.call(request)
        except Dropped:
            self.tally.note(op, (time.perf_counter() - started) * 1e3)
            self.tally.failed += 1
            self.tally.dropped += 1
            await self.life.close()
            self.life = await Connection(self.port).open()
            return None
        self.tally.note(op, (time.perf_counter() - started) * 1e3)
        if not response.get("ok"):
            self.tally.failed += 1
            return None
        if op == "snapshot":
            self.tally.snapshot_bytes.append(size)
        return response

    async def _swap(self, swap: Swap) -> None:
        await self._wait_answered(swap.slot, swap.after_step)
        old = self.ids[swap.slot]
        snap = await self._life_call("snapshot", {"op": "snapshot", "session": old})
        if snap is not None:
            resumed = await self._life_call(
                "resume", {"op": "resume", "snapshot": snap["snapshot"]})
            if resumed is None:
                self.tally.failed_resume += 1
            else:
                self.tally.resumes_ok += 1
                await self._life_call("kill", {"op": "kill", "session": old})
                self.ids[swap.slot] = resumed["session"]
        swap.done.set()
        for k, due in swap.held:
            self.held_steps += 1
            self._send_step(swap.slot, k, due)
        await self.steps.writer.drain()

    async def _lifecycle(self) -> None:
        churn = iter(self.churn_specs)
        for offset, kind, swap in self.lifecycle:
            delay = self.t0 + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if swap is not None:
                await self._swap(swap)
                continue
            created = await self._life_call(
                "create", {"op": "create", "spec": next(churn)})
            if created is not None:
                await self._life_call("kill", {"op": "kill", "session": created["session"]})

    async def run(self) -> dict:
        """Drive the whole schedule; returns the server's ``stats`` reply."""
        self.steps = await Connection(self.port).open()
        self.life = await Connection(self.port).open()
        try:
            self.t0 = time.perf_counter() + 0.05
            total = len(self.schedule)
            await asyncio.gather(self._sender(), self._receiver(total), self._lifecycle())
            stats, _ = await self.life.call({"op": "stats"})
            self.tally.attempted += 1
            return stats
        finally:
            await self.steps.close()
            await self.life.close()


# -- the runs ----------------------------------------------------------------


@dataclass
class Pass:
    setup_s: float
    raw_setup_s: float
    host_factor: float
    loop: OpenLoop
    tally: Tally
    stats: dict
    peak_rss_mb: float
    rss_growth_mb: float
    spans: Optional[dict]


def _launch(seed: int, scale: ServeScale, traced: bool, out: str,
            tally: Tally) -> Tuple[Server, List[str], float]:
    server = Server(traced, out)
    try:
        server.wait_listening()
        ids = asyncio.run(create_sessions(
            server.port, session_specs(seed, scale, scale.sessions, "sessions"), tally))
    except BaseException:
        server.stop()
        raise
    return server, ids, time.perf_counter() - server.started


def one_pass(seed: int, seconds: float, scale: ServeScale, traced: bool,
             setup_samples: int) -> Pass:
    out = os.path.join(SCRATCH, f"serve-spans-{os.getpid()}.json")
    tally = Tally()
    setups, references = [], [reference_ms()]
    for _ in range(setup_samples - 1):
        server, _, elapsed = _launch(seed, scale, False, "", Tally())
        server.stop()
        setups.append(elapsed)
        references.append(reference_ms())
    server, ids, elapsed = _launch(seed, scale, traced, out, tally)
    setups.append(elapsed)
    try:
        rss_before = server.status_mb("VmRSS")
        loop = OpenLoop(server.port, ids, seed, seconds, scale, tally)
        stats = asyncio.run(loop.run())
        if not stats.get("ok"):
            raise HarnessError(f"stats failed: {stats}")
        peak = server.status_mb("VmHWM")
        growth = server.status_mb("VmRSS") - rss_before
        references.append(reference_ms())
    finally:
        server.stop()
    spans = None
    if traced:
        with open(out) as handle:
            spans = json.load(handle)
        os.remove(out)
    # Set-up is reported at the nominal host speed, as the fleets' is;
    # step latencies are not scaled (queueing does not scale with it).
    factor = host_factor(references)
    return Pass(median(setups) / factor, median(setups), factor, loop, tally,
                stats["stats"], peak, growth, spans)


def check(run: Pass, scale: ServeScale) -> List[str]:
    problems = list(run.tally.problems)
    loop = run.loop
    for slot in range(scale.sessions):
        if loop.answered[slot] != loop.n_steps:
            problems.append(
                f"slot {slot} answered {loop.answered[slot]} of {loop.n_steps} steps")
    if len(loop.latency_ms) != len(loop.schedule):
        problems.append("not every scheduled step was timed")
    for slot, response in loop.last.items():
        if not 0.0 < response.get("mean_fairness", 0.0) <= 1.0:
            problems.append(f"slot {slot} fairness {response.get('mean_fairness')}")
    return problems


def sim_metrics(run: Pass) -> Dict[str, float]:
    """Means over sessions of each session's final step summary."""
    final = [run.loop.last[slot] for slot in sorted(run.loop.last)]
    return {
        name: sum(r[field] for r in final) / len(final)
        for name, field in (("sim_throughput", "mean_throughput"),
                            ("sim_fairness", "mean_fairness"),
                            ("qos.attainment", "slo_attainment"))
    }


def e2e_metrics(run: Pass) -> Dict[str, Tuple[float, str]]:
    loop = run.loop
    elapsed = loop.t_last - loop.t0
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "sim_intervals_per_s": (len(loop.latency_ms) / elapsed, "1/s"),
        # A step is on time when its answer lands inside the control
        # interval it was scheduled in.
        "on_time_ratio": (
            sum(1 for ms in loop.latency_ms if ms <= 1e3 * loop.scale.interval_s)
            / len(loop.latency_ms),
            "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "success_ratio": (1.0 - run.tally.failed / run.tally.attempted, "ratio"),
    }
    sims = sim_metrics(run)
    metrics["sim_throughput"] = (sims["sim_throughput"], "score")
    metrics["sim_fairness"] = (sims["sim_fairness"], "index")
    return metrics


def summary(run: Pass, problems: List[str]) -> Dict:
    loop = run.loop
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "raw_setup_s": round(run.raw_setup_s, 4),
        "host_factor": round(run.host_factor, 4),
        "dropped_connections": run.tally.dropped,
        "failed_resume": run.tally.failed_resume,
        "step_samples": len(loop.latency_ms),
        "held_steps": loop.held_steps,
        "lateness_samples": len(loop.lateness_ms),
        "lateness_p50_ms": round(percentile(loop.lateness_ms, 50), 3),
        "lateness_p99_ms": round(percentile(loop.lateness_ms, 99), 3),
        "server_stats": run.stats,
    }


def run_untraced(seed: int, seconds: float, scale: ServeScale) -> Tuple[Dict, Dict]:
    run = one_pass(seed, seconds, scale, traced=False,
                   setup_samples=scale.setup_samples)
    return summary(run, check(run, scale)), e2e_metrics(run)


def run_traced(seed: int, seconds: float, scale: ServeScale) -> Tuple[Dict, Dict]:
    """An untraced pass, then a pass against the launcher's traced
    server; per-layer metrics from the traced pass."""
    import layers

    plain = one_pass(seed, seconds, scale, traced=False, setup_samples=1)
    traced = one_pass(seed, seconds, scale, traced=True, setup_samples=1)
    problems = check(plain, scale) + check(traced, scale)
    if sim_metrics(plain) != sim_metrics(traced):
        problems.append("traced and untraced passes disagree on sim_* values")
    spans = layers.SpanSet(traced.spans["spans"], traced.spans["instants"])
    metrics = layers.span_metrics(spans)
    loop, tally, stats = traced.loop, traced.tally, traced.stats
    client_p50 = percentile(loop.latency_ms, 50)
    untraced = plain.loop.latency_ms
    counters = traced.spans["counters"]
    step_ms = spans.total_ms("serve.step")
    metrics.update({
        "qos.attainment": sim_metrics(traced)["qos.attainment"],
        "system.contention_calls": traced.spans["counts"]["contention_calls"],
        "core.lengthscale_searches": counters.get("gp.lengthscale_searches", 0.0),
        "core.lengthscale_reuses": counters.get("gp.lengthscale_reuses", 0.0),
        "state.snapshots_read": tally.resumes_ok,
        # Client latency from the untraced pass, timed from the
        # scheduled send time.
        "serve.step_p50_ms": percentile(untraced, 50),
        "serve.step_p90_ms": percentile(untraced, 90),
        "serve.step_p99_ms": percentile(untraced, 99),
        "serve.server_step_p50_ms": stats["decision_latency_p50_ms"],
        "serve.server_step_p99_ms": stats["decision_latency_p99_ms"],
        "serve.transport_p50_ms": client_p50 - stats["decision_latency_p50_ms"],
        "serve.lateness_p99_ms": percentile(loop.lateness_ms, 99),
        "serve.step_samples": len(loop.latency_ms),
        "serve.create_ms": median(tally.op_ms.get("create", [])),
        "serve.snapshot_ms": median(tally.op_ms.get("snapshot", [])),
        "serve.resume_ms": median(tally.op_ms.get("resume", [])),
        "serve.snapshot_bytes": median(tally.snapshot_bytes),
        "serve.failed_resume": tally.failed_resume,
        "serve.rss_growth_mb": traced.rss_growth_mb,
        "obs.events_retained": traced.spans["events_retained"],
        # Share of client-observed step latency spent inside the
        # server's step spans; the rest is transport and queueing.
        "trace.coverage": step_ms / sum(loop.latency_ms),
        "trace.uncovered_ms": (sum(loop.latency_ms) - step_ms) / len(loop.latency_ms),
        "trace.overhead_pct": 100.0 * (
            client_p50 / percentile(untraced, 50) - 1.0),
    })
    taken = metrics["state.snapshots_taken"]
    metrics["state.read_ratio"] = metrics["state.snapshots_read"] / taken if taken else 0.0
    result = summary(traced, problems)
    result["spans"] = len(spans.spans)
    return result, layers.complete(metrics)
