"""Serve-layer tests: session lifecycle, control-plane server, CLI.

The load-bearing guarantee is **bit-identical resume**: a session
snapshotted at interval k and resumed in a fresh manager must produce,
from interval k+1 on, exactly the telemetry records the original
session produces when simply left running — the snapshot captures the
policy state, both server RNG streams, and the session loop's held
baseline with nothing approximated. Everything else here is surface:
the JSON-lines and REST dialects, the manager's bookkeeping, and the
``python -m repro serve`` / ``loadgen`` entry points.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys

import pytest

import repro.serve.server as server_module
from repro.errors import ExperimentError
from repro.serve import (
    ControlPlaneServer,
    LoadGenerator,
    SessionManager,
    SessionSpec,
)
from repro.serve.server import MAX_FRAME_BYTES
from repro.workloads.arrivals import ArrivalTrace, JobArrival, poisson_trace
from repro.workloads.registry import default_registry

#: Small, fast session recipe used throughout: 4-unit catalog, the
#: compact ECP suite, stateful SATORI controller (exercises policy
#: state in snapshots).
SPEC = SessionSpec(policy="SATORI", suite="ecp", mix=0, units=4, seed=7)

#: asyncio's default stream line limit, which used to cap every frame.
DEFAULT_STREAM_LIMIT = 64 * 1024
#: Steps after which a SPEC session's snapshot frame exceeds it.
LONG_STEPS = 100


# -- SessionSpec ---------------------------------------------------------


class TestSessionSpec:
    def test_round_trips_through_json(self):
        spec = SessionSpec(policy="EqualPartition", suite="ecp", mix=2,
                           units=4, seed=11, baseline_reset_s=None,
                           policy_kwargs={"x": 1})
        decoded = SessionSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert decoded == spec

    def test_rejects_bad_interval(self):
        with pytest.raises(ExperimentError, match="interval_s"):
            SessionSpec(interval_s=0.0)

    def test_rejects_bad_baseline_reset(self):
        with pytest.raises(ExperimentError, match="baseline_reset_s"):
            SessionSpec(baseline_reset_s=-1.0)


# -- SessionManager lifecycle --------------------------------------------


class TestSessionLifecycle:
    def test_create_step_kill(self):
        manager = SessionManager()
        sid = manager.create(SPEC)
        assert sid in manager
        summary = manager.step(sid, 3)
        assert summary["steps"] == 3
        assert summary["time_s"] == pytest.approx(3 * SPEC.interval_s)
        manager.kill(sid)
        assert sid not in manager
        with pytest.raises(ExperimentError, match="unknown session"):
            manager.step(sid)

    def test_resume_is_bit_identical(self):
        """The tentpole guarantee: snapshot/resume loses nothing.

        Run a control session 10 intervals, snapshot, force the
        snapshot through a JSON round trip (what the wire does), then
        step original and resumed sessions 15 more intervals each —
        every telemetry record must match exactly, field for field.
        """
        manager = SessionManager()
        sid = manager.create(SPEC)
        manager.step(sid, 10)
        snapshot = json.loads(json.dumps(manager.snapshot(sid)))

        manager.step(sid, 15)
        original = manager._get(sid).session.telemetry.records

        fresh = SessionManager()
        rid = fresh.resume(snapshot)
        fresh.step(rid, 15)
        resumed = fresh._get(rid).session.telemetry.records

        assert len(original) == len(resumed) == 25
        for a, b in zip(original, resumed):
            assert a == b

    def test_resume_continues_step_count(self):
        manager = SessionManager()
        sid = manager.create(SPEC)
        manager.step(sid, 4)
        rid = manager.resume(manager.snapshot(sid))
        assert manager.info(rid).steps == 4
        assert manager.info(rid).time_s == pytest.approx(4 * SPEC.interval_s)

    def test_resume_rejects_newer_snapshot_version(self):
        manager = SessionManager()
        snapshot = manager.snapshot(manager.create(SPEC))
        snapshot["version"] = 999
        with pytest.raises(ExperimentError, match="newer"):
            manager.resume(snapshot)

    def test_create_rejects_bad_mix_index(self):
        with pytest.raises(ExperimentError, match="mix index"):
            SessionManager().create(SessionSpec(suite="ecp", mix=10_000, units=4))

    def test_session_ids_never_reused(self):
        manager = SessionManager()
        first = manager.create(SPEC)
        manager.kill(first)
        second = manager.create(SPEC)
        assert second != first

    def test_stats_counts_lifecycle(self):
        manager = SessionManager()
        sid = manager.create(SPEC)
        manager.step(sid, 2)
        manager.resume(manager.snapshot(sid))
        manager.kill(sid)
        stats = manager.stats()
        assert stats["sessions_created"] == 1
        assert stats["sessions_resumed"] == 1
        assert stats["sessions_killed"] == 1
        assert stats["sessions_live"] == 1
        assert stats["steps_total"] == 2
        assert stats["decision_latency_p99_ms"] > 0.0

    def test_list_sessions(self):
        manager = SessionManager()
        ids = {manager.create(SPEC) for _ in range(3)}
        listed = manager.list_sessions()
        assert {info.session_id for info in listed} == ids
        assert all(info.policy == "SATORI" for info in listed)


# -- per-session SLO scoring ----------------------------------------------


class TestSessionSLO:
    """Live sessions can carry a speedup-floor SLO: every stepped
    interval is scored, the metrics surface on ``/metrics``, and the
    spec (hence the scoring) survives snapshot/resume."""

    SLO_SPEC = SessionSpec(
        policy="BoPF", suite="parsec", mix=0, units=8, seed=7,
        slo_floor=0.6, qos_jobs=(0,),
    )

    def test_spec_validation_and_round_trip(self):
        decoded = SessionSpec.from_dict(
            json.loads(json.dumps(self.SLO_SPEC.to_dict()))
        )
        assert decoded == self.SLO_SPEC
        assert decoded.slo_active
        assert not SessionSpec(slo_floor=0.6).slo_active  # no qos jobs
        assert not SessionSpec(qos_jobs=(0,)).slo_active  # no floor
        with pytest.raises(ExperimentError, match="slo_floor"):
            SessionSpec(slo_floor=1.5)
        with pytest.raises(ExperimentError, match="qos_jobs"):
            SessionSpec(qos_jobs=(-1,))

    def test_qos_slot_beyond_mix_rejected(self):
        with pytest.raises(ExperimentError, match="qos_jobs"):
            SessionManager().create(
                SessionSpec(policy="BoPF", suite="parsec", mix=0, units=8,
                            slo_floor=0.6, qos_jobs=(99,))
            )

    def test_stepping_scores_intervals_and_emits_metrics(self):
        from repro.obs import TraceCollector, use_collector
        from repro.obs.export import prometheus_text

        collector = TraceCollector()
        with use_collector(collector):
            manager = SessionManager()
            sid = manager.create(self.SLO_SPEC)
            summary = manager.step(sid, 20)
        assert 0.0 <= summary["slo_attainment"] <= 1.0
        stats = manager.stats()
        assert stats["slo_intervals"] == 20
        assert stats["slo_misses"] <= 20
        assert stats["slo_attainment"] == pytest.approx(
            1.0 - stats["slo_misses"] / 20
        )
        text = prometheus_text(collector.metrics)
        assert "serve_slo_intervals" in text
        assert "serve_slo_worst_speedup" in text
        assert "serve_slo_attainment" in text

    def test_sessions_without_slo_do_not_score(self):
        manager = SessionManager()
        summary = manager.step(manager.create(SPEC), 3)
        assert "slo_attainment" not in summary
        assert manager.stats()["slo_attainment"] is None

    def test_slo_spec_survives_resume_bit_identically(self):
        manager = SessionManager()
        sid = manager.create(self.SLO_SPEC)
        manager.step(sid, 10)
        snapshot = json.loads(json.dumps(manager.snapshot(sid)))

        manager.step(sid, 10)
        original = manager._get(sid)

        fresh = SessionManager()
        rid = fresh.resume(snapshot)
        resumed = fresh._get(rid)
        assert resumed.spec == self.SLO_SPEC
        fresh.step(rid, 10)
        # Same per-interval telemetry => same SLO verdicts.
        assert resumed.session.telemetry.records[-1] == (
            original.session.telemetry.records[-1]
        )


# -- control-plane server -------------------------------------------------


async def _jsonl_client(host, port):
    return await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)


async def _request(reader, writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def _http(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read(1 << 22)
    writer.close()
    await writer.wait_closed()
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, content


class TestControlPlaneServer:
    @pytest.mark.asyncio
    async def test_jsonl_full_lifecycle(self):
        server = ControlPlaneServer()
        await server.start()
        try:
            reader, writer = await _jsonl_client(*server.address)
            ping = await _request(reader, writer, {"op": "ping"})
            assert ping["ok"] and ping["sessions_live"] == 0

            created = await _request(
                reader, writer, {"op": "create", "spec": SPEC.to_dict()}
            )
            sid = created["session"]
            stepped = await _request(
                reader, writer, {"op": "step", "session": sid, "n": 3}
            )
            assert stepped["ok"] and stepped["steps"] == 3

            snapshot = await _request(reader, writer, {"op": "snapshot", "session": sid})
            resumed = await _request(
                reader, writer, {"op": "resume", "snapshot": snapshot["snapshot"]}
            )
            assert resumed["ok"] and resumed["session"] != sid

            listing = await _request(reader, writer, {"op": "list"})
            assert len(listing["sessions"]) == 2

            killed = await _request(reader, writer, {"op": "kill", "session": sid})
            assert killed["ok"] and killed["killed"]

            stats = await _request(reader, writer, {"op": "stats"})
            assert stats["stats"]["sessions_live"] == 1
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    @pytest.mark.asyncio
    async def test_jsonl_errors_keep_connection_alive(self):
        server = ControlPlaneServer()
        await server.start()
        try:
            reader, writer = await _jsonl_client(*server.address)
            bad_json = await _request(reader, writer, "not an object")
            assert not bad_json["ok"]
            unknown_op = await _request(reader, writer, {"op": "nope"})
            assert not unknown_op["ok"] and "unknown op" in unknown_op["error"]
            missing = await _request(reader, writer, {"op": "step", "session": "s9"})
            assert not missing["ok"] and "unknown session" in missing["error"]
            # The connection survived three errors:
            assert (await _request(reader, writer, {"op": "ping"}))["ok"]
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    @pytest.mark.asyncio
    async def test_jsonl_resume_of_a_large_snapshot_is_bit_identical(self):
        server = ControlPlaneServer()
        await server.start()
        try:
            reader, writer = await _jsonl_client(*server.address)
            created = await _request(
                reader, writer, {"op": "create", "spec": SPEC.to_dict()}
            )
            sid = created["session"]
            await _request(reader, writer, {"op": "step", "session": sid, "n": LONG_STEPS})
            snapshot = (
                await _request(reader, writer, {"op": "snapshot", "session": sid})
            )["snapshot"]
            assert len(json.dumps({"op": "resume", "snapshot": snapshot})) > (
                DEFAULT_STREAM_LIMIT
            )
            resumed = await _request(reader, writer, {"op": "resume", "snapshot": snapshot})
            assert resumed["ok"], resumed
            rid = resumed["session"]
            for session in (sid, rid):
                stepped = await _request(
                    reader, writer, {"op": "step", "session": session, "n": 10}
                )
                assert stepped["ok"] and stepped["steps"] == LONG_STEPS + 10
            original = server.manager._get(sid).session.telemetry.records
            continued = server.manager._get(rid).session.telemetry.records
            assert len(original) == LONG_STEPS + 10
            assert continued == original
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    @pytest.mark.asyncio
    async def test_over_limit_frame_is_answered_then_closed(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 1024)
        server = ControlPlaneServer()
        await server.start()
        try:
            reader, writer = await _jsonl_client(*server.address)
            answer = await _request(reader, writer, {"op": "ping", "pad": "x" * 1400})
            assert not answer["ok"] and "exceeds 1024 bytes" in answer["error"]
            assert await reader.readline() == b""
            writer.close()
            await writer.wait_closed()
            # The listener itself is unaffected.
            reader, writer = await _jsonl_client(*server.address)
            assert (await _request(reader, writer, {"op": "ping"}))["ok"]
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    @pytest.mark.asyncio
    async def test_rest_surface(self):
        server = ControlPlaneServer()
        await server.start()
        host, port = server.address
        try:
            status, body = await _http(host, port, "GET", "/healthz")
            assert status == 200 and json.loads(body)["ok"]

            status, body = await _http(host, port, "POST", "/sessions", SPEC.to_dict())
            assert status == 200
            sid = json.loads(body)["session"]

            status, body = await _http(
                host, port, "POST", f"/sessions/{sid}/step", {"n": 2}
            )
            assert status == 200 and json.loads(body)["steps"] == 2

            status, body = await _http(host, port, "GET", f"/sessions/{sid}/snapshot")
            assert status == 200
            snapshot = json.loads(body)["snapshot"]

            status, body = await _http(
                host, port, "POST", "/sessions", {"snapshot": snapshot}
            )
            assert status == 200 and json.loads(body)["session"] != sid

            status, body = await _http(host, port, "GET", "/sessions")
            assert status == 200 and len(json.loads(body)["sessions"]) == 2

            status, body = await _http(host, port, "GET", "/metrics")
            assert status == 200
            text = body.decode()
            assert "serve_decision_seconds" in text
            assert "serve_sessions_created" in text

            status, _ = await _http(host, port, "DELETE", f"/sessions/{sid}")
            assert status == 200
            status, _ = await _http(host, port, "DELETE", f"/sessions/{sid}")
            assert status == 404
            status, _ = await _http(host, port, "GET", "/nope")
            assert status == 404
        finally:
            await server.stop()

    @pytest.mark.asyncio
    async def test_loadgen_against_live_server(self):
        server = ControlPlaneServer()
        await server.start()
        host, port = server.address
        try:
            trace = poisson_trace(
                n_epochs=4, arrival_rate=1.5, mean_residency=3.0,
                suites=("ecp",), seed=2, initial_jobs=2,
            )
            generator = LoadGenerator(
                host, port, trace,
                base_spec=SessionSpec(policy="EqualPartition", suite="ecp", units=4),
                epoch_s=0.02, steps_per_epoch=1, connections=4, mix_cycle=4,
            )
            report = await generator.run()
            assert report.errors == 0
            assert report.sessions_created >= 2
            assert report.steps_total > 0
            assert report.decision_latency_p99_ms > 0.0
        finally:
            await server.stop()


    @pytest.mark.asyncio
    async def test_loadgen_snapshots_a_long_session_on_kill(self):
        # One job resident for two epochs of LONG_STEPS steps each: its
        # snapshot response is far beyond the default stream limit.
        job = JobArrival(0, default_registry().get("amg"), 0, departure_epoch=2)
        server = ControlPlaneServer()
        await server.start()
        host, port = server.address
        try:
            generator = LoadGenerator(
                host, port, ArrivalTrace(n_epochs=3, jobs=(job,)),
                base_spec=SPEC, epoch_s=0.01, steps_per_epoch=LONG_STEPS,
                connections=2, mix_cycle=1, snapshot_on_kill=True,
            )
            report = await generator.run()
            assert report.errors == 0
            assert report.sessions_created == report.sessions_killed == 1
            assert report.steps_total == 2 * LONG_STEPS
        finally:
            await server.stop()
        # The snapshot the generator fetched really was that large.
        manager = SessionManager()
        sid = manager.create(generator._spec_for(0))
        manager.step(sid, 2 * LONG_STEPS)
        assert len(json.dumps({"snapshot": manager.snapshot(sid)})) > DEFAULT_STREAM_LIMIT


# -- CLI smoke ------------------------------------------------------------


class TestServeCli:
    def test_serve_and_loadgen_end_to_end(self, tmp_path):
        """``python -m repro serve`` hosts sessions; ``loadgen`` drives it."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=root,
        )
        try:
            line = server.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"no listen line in {line!r}"
            host, port = match.group(1), match.group(2)

            report_path = tmp_path / "load.json"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "loadgen",
                    "--host", host, "--port", port,
                    "--suite", "ecp", "--units", "4",
                    "--policy", "EqualPartition",
                    "--epochs", "4", "--epoch-s", "0.02",
                    "--json", str(report_path),
                ],
                capture_output=True, text=True, env=env, cwd=root, timeout=120,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            report = json.loads(report_path.read_text())
            assert report["errors"] == 0
            assert report["sessions_created"] > 0
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
