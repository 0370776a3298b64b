"""IngestServer behaviour: admission control, HTTP surface, drain/resume.

Every test runs a real loopback server on a :class:`ServiceThread` over a
small seeded chaos home — the same stack ``repro serve`` deploys, minus
the process boundary.
"""

import http.client
import json
import os
import socket

import pytest

from repro import telemetry
from repro.durability import DurableFleetGateway
from repro.durability.runtime import encode_event_frame
from repro.faults.crash import (
    LATENESS_SECONDS,
    POLICY,
    build_chaos_deployment,
)
from repro.fleet import FleetGateway
from repro.service import (
    IngestServer,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    protocol,
)
from repro.service.protocol import FrameDecoder, encode_message
from repro.service.server import (
    DISCONNECTS_TOTAL,
    QUEUE_DEPTH_GAUGE,
    SHED_TOTAL,
)
from repro.streaming import HardenedOnlineDice, canonical_alerts
from repro.streaming.guard import OVERLOAD
from repro.telemetry.prometheus import validate_prometheus_text


@pytest.fixture(scope="module")
def deployment():
    return build_chaos_deployment(11, home_id="home-0000")


def _durable(deployment, journal_root, *, metrics=None):
    gateway = FleetGateway(
        1, metrics=metrics if metrics is not None else telemetry.MetricsRegistry()
    )
    gateway.add_runtime(
        deployment.home_id,
        HardenedOnlineDice(
            deployment.fit_detector(metrics=telemetry.NULL_REGISTRY),
            start=deployment.split,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        ),
    )
    return DurableFleetGateway(gateway, journal_root)


def _counter(snapshot: dict, name: str) -> float:
    entry = snapshot["metrics"].get(name)
    if entry is None:
        return 0.0
    return float(sum(row["value"] for row in entry["series"]))


def _http_get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _blast(port: int, home_id: str, events) -> None:
    """Fire *events* at the server as fast as the socket will take them —
    no acks read, no retries — then ride out the disconnect."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    try:
        sock.sendall(encode_message(protocol.hello(home_id)))
        decoder = FrameDecoder()
        while True:
            messages = decoder.feed(sock.recv(4096))
            if messages:
                assert messages[0]["type"] == "welcome"
                break
        sock.sendall(b"".join(encode_event_frame(e) for e in events))
        while sock.recv(4096):
            pass  # drain until the server cuts us off
    except (ConnectionError, OSError):
        pass  # the shed disconnect, arriving mid-send
    finally:
        sock.close()


class TestOverload:
    def test_queue_full_sheds_bounded_and_recoverable(self, deployment, tmp_path):
        """A saturated queue sheds (structured OVERLOAD drops + counter +
        disconnect) with bounded depth, and a patient retrying client still
        lands the complete stream — overload degrades throughput, never
        correctness."""
        events = deployment.events[:200]
        assert len(events) == 200
        durable = _durable(deployment, os.fspath(tmp_path / "journals"))
        config = ServiceConfig(
            queue_capacity=8,
            dispatch_delay_s=0.002,  # makes overload machine-independent
            ack_every=16,
        )
        server = IngestServer(durable, config)
        handle = ServiceThread(server).start()
        try:
            _blast(handle.port, deployment.home_id, events)

            snapshot = handle.call(durable.metrics_snapshot)
            shed = _counter(snapshot, SHED_TOTAL)
            assert shed >= 1.0
            drops = handle.call(
                lambda: durable.runtime_of(deployment.home_id).drops.count(
                    OVERLOAD
                )
            )
            assert drops == shed  # every shed is a structured drop record
            assert handle.call(lambda: server.max_queue_depth) <= 8
            assert (
                _counter(snapshot, DISCONNECTS_TOTAL) >= 1.0
            )  # the overloading client was cut, not buffered for

            # Shed events were never journaled, so `applied` is exactly the
            # admitted prefix and a patient retry completes the stream.
            applied = handle.call(
                lambda: durable.ingest_seqs.get(deployment.home_id, 0)
            )
            assert 0 < applied < len(events)
            patient = ServiceClient(
                "127.0.0.1",
                handle.port,
                max_attempts=200,
                base_delay=0.002,
                max_delay=0.05,
                jitter_seed=1,
            )
            report = patient.send_stream(
                deployment.home_id, events, finish=False
            )
            assert report.applied == len(events)
            assert handle.call(
                lambda: durable.ingest_seqs.get(deployment.home_id, 0)
            ) == len(events)
        finally:
            handle.kill()

    def test_queue_depth_gauge_exported(self, deployment, tmp_path):
        durable = _durable(deployment, os.fspath(tmp_path / "journals"))
        handle = ServiceThread(IngestServer(durable, ServiceConfig())).start()
        try:
            snapshot = handle.call(durable.metrics_snapshot)
            assert QUEUE_DEPTH_GAUGE in snapshot["metrics"]
        finally:
            handle.kill()


class TestHttp:
    def test_metrics_health_ready(self, deployment, tmp_path):
        durable = _durable(deployment, os.fspath(tmp_path / "journals"))
        server = IngestServer(durable, ServiceConfig())
        handle = ServiceThread(server).start()
        try:
            client = ServiceClient("127.0.0.1", handle.port, jitter_seed=0)
            client.send_stream(
                deployment.home_id, deployment.events[:50], finish=False
            )

            status, body = _http_get(handle.http_port, "/metrics")
            assert status == 200
            assert validate_prometheus_text(body) > 0
            assert QUEUE_DEPTH_GAUGE in body

            status, body = _http_get(handle.http_port, "/health")
            assert status == 200
            health = json.loads(body)
            assert health["service"]["ready"] is True
            assert health["service"]["draining"] is False
            assert health["service"]["queue_capacity"] == 4096

            status, body = _http_get(handle.http_port, "/ready")
            assert (status, body) == (200, "ready\n")

            status, _ = _http_get(handle.http_port, "/nope")
            assert status == 404
        finally:
            handle.kill()

    def test_ready_flips_503_then_refuses_after_drain(self, deployment, tmp_path):
        durable = _durable(deployment, os.fspath(tmp_path / "journals"))
        server = IngestServer(durable, ServiceConfig())
        handle = ServiceThread(server).start()
        http_port = handle.http_port
        assert _http_get(http_port, "/ready")[0] == 200
        # The readiness probe answers 503 the moment the server stops
        # being ready — the drain window a load balancer must see.
        handle.call(lambda: setattr(server, "ready", False))
        status, body = _http_get(http_port, "/ready")
        assert (status, body) == (503, "draining\n")
        handle.drain()
        # After drain the HTTP listener is gone: connection refused, never
        # a stale "ready".
        with pytest.raises(OSError):
            _http_get(http_port, "/ready")


class TestDrainResume:
    def test_drain_checkpoints_and_resume_matches_oracle(
        self, deployment, tmp_path
    ):
        """Stop mid-stream via graceful drain, recover from the drain
        checkpoint, finish on a new server: byte-identical alerts vs the
        uninterrupted in-process run."""
        home = deployment.home_id
        events = deployment.events
        cut = len(events) // 2

        oracle = _durable(
            deployment,
            os.fspath(tmp_path / "oracle"),
            metrics=telemetry.NULL_REGISTRY,
        )
        oracle.dispatch((home, event) for event in events)
        oracle.finish_home(home, deployment.end)
        expected = canonical_alerts(oracle.alerts_of(home))

        journal_root = os.fspath(tmp_path / "journals")
        ckpt = os.fspath(tmp_path / "ckpt")
        durable = _durable(deployment, journal_root)
        server = IngestServer(durable, ServiceConfig(), checkpoint_dir=ckpt)
        handle = ServiceThread(server).start()
        client = ServiceClient("127.0.0.1", handle.port, jitter_seed=0)
        report = client.send_stream(home, events[:cut], finish=False)
        assert report.applied == cut
        prefix = handle.call(lambda: list(durable.alerts_of(home)))
        handle.drain()  # graceful: flush + checkpoint into `ckpt`

        recovered, replayed = DurableFleetGateway.recover(
            {home: deployment.fit_detector(metrics=telemetry.NULL_REGISTRY)},
            journal_root,
            checkpoint_dir=ckpt,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        assert replayed == []  # drain checkpointed, so the tail is empty
        assert recovered.ingest_seqs[home] == cut
        handle2 = ServiceThread(IngestServer(recovered, ServiceConfig())).start()
        try:
            client2 = ServiceClient("127.0.0.1", handle2.port, jitter_seed=1)
            report = client2.send_stream(home, events, end=deployment.end)
            assert report.applied == len(events)
            assert report.resent == 0  # resume skipped the applied prefix
        finally:
            handle2.drain()
        got = canonical_alerts(prefix + recovered.alerts_of(home))
        assert got == expected
