"""``service-ingest``: open-loop ingest over loopback into ``repro serve``.

The server runs as a child process (through :mod:`serve_launcher`) with two
homes, two shards, ``fsync=interval`` and an alert file.  One
single-threaded generator holds one connection per home and sends
pre-encoded frames on a fixed schedule: home *h* sends its ``n_h`` events
evenly over ``--seconds``, the ``n_h`` summing to ``OFFERED_RATE x
seconds``.  Sends follow due times only, never replies.  Each home sends a
``sync`` probe every ``PROBE_INTERVAL_S`` of schedule time, behind the
last event due by then; the ``synced`` reply means every event before it
is journaled and dispatched.  An event's ingest latency runs from its due
time to the ``synced`` reply that covers it; a probe's batch (tick)
latency runs from the due time of the first event it covers.

Each home's stream is dirty, drawn from ``--seed``: one
:mod:`repro.faults.models` fault on the live segment, then
:mod:`repro.faults.pipe` corruption, duplicates and delayed (so
reordered) arrivals, some past the reorder budget, on a few percent of
events.

Checks: the served alerts (the ``--alerts-out`` records, deduped by id)
must equal, home by home, those of an in-process
:class:`DurableFleetGateway` fed the same dirty streams; the dirty-input
drops must match that reference reason by reason and agree with what the
generator injected; every event must be applied at ``fin``; and the run is
invalid when the generator falls behind its schedule or latency trends
upward across the run.
"""

from __future__ import annotations

import collections
import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    LATENESS_S,
    QUARANTINE_S,
    ROOT,
    SILENCE_S,
    SRC,
    BenchError,
    HostSpeed,
    beyond,
    count_lines,
    counter_total,
    fresh_dir,
    home_digests,
    median,
    parse_prometheus,
    percentile,
    tails,
    vm_hwm_mb,
)

HOMES = 2
SHARDS = 2
TRAIN_HOURS = 36.0
#: Live hours simulated per second of run: the two homes log about 180
#: events per hour together, so this leaves a 1.5x margin over the offer.
LIVE_HOURS_PER_SECOND = 23.0
#: Offered load, events/s over both homes: about half of the highest rate
#: this server sustains without a growing backlog on a 2-CPU machine
#: (about 5.5k/s), calibrated once and frozen.
OFFERED_RATE = 2800.0
#: Schedule time between a home's sync probes: about 200 probes per
#: second over both homes, so the batch p99 of a 10 s run has about 20
#: samples beyond it (the per-event p99 has hundreds).
PROBE_INTERVAL_S = 0.01
SETUP_REPEATS = 3
#: Host-speed samples taken before and after each spawn.
SETUP_SAMPLES = 4
#: Validity limits of the open loop.
MAX_LATENESS_P99_S = 0.025
TREND_FACTOR = 2.0
TREND_SLACK_S = 0.020
START_TIMEOUT_S = 60.0

EVENT, PROBE = 0, 1


def _fault_types():
    from repro.faults import FaultType

    # Stuck-at and high-noise are left out: they add readings until the
    # trace ends (tens of thousands per home), which floods the stream and
    # the alert path, so the spread between runs would be set by which
    # seeds draw them.
    return (FaultType.FAIL_STOP, FaultType.OUTLIER, FaultType.SPIKE)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #


def hours_for(seconds: float) -> float:
    return TRAIN_HOURS + math.ceil(LIVE_HOURS_PER_SECOND * seconds)


def dirty_streams(seed: int, seconds: float):
    """``(homes, streams, injected)``: each home's dirty arrival sequence,
    cut so both homes together offer ``OFFERED_RATE x seconds`` events."""
    import numpy as np

    from repro.faults import FaultInjector
    from repro.faults.pipe import PipeFaultInjector, PipeFaultSpec, PipeFaultType
    from repro.fleet import build_fleet_homes

    homes = build_fleet_homes(
        HOMES, seed=seed, hours=hours_for(seconds), train_hours=TRAIN_HOURS
    )
    streams = []
    faults = []
    for index, home in enumerate(homes):
        rng = np.random.default_rng([seed, index])
        faulty, fault = FaultInjector(rng, _fault_types()).inject(home.live)
        faults.append(f"{home.home_id}:{fault.fault_type.value}@{fault.device_id}")
        # Each sorting pipe fault re-derives arrival order from timestamps,
        # so only the last one's disorder survives composition: the delay
        # comes last and is the reordering (within the lateness budget for
        # most delayed events, beyond it for the rest).
        pipe = PipeFaultInjector(rng, [
            PipeFaultSpec(PipeFaultType.CORRUPT_VALUE, rate=0.01),
            PipeFaultSpec(PipeFaultType.DUPLICATE, rate=0.01, max_delay_seconds=30.0),
            PipeFaultSpec(PipeFaultType.DELAY, rate=0.02, max_delay_seconds=300.0),
        ])
        streams.append(pipe.apply(list(faulty)))
    wanted = int(OFFERED_RATE * seconds)
    available = sum(len(s) for s in streams)
    if available < wanted:
        raise BenchError(f"only {available} events for {wanted} offered")
    cut = [int(round(wanted * len(s) / available)) for s in streams]
    streams = [s[:n] for s, n in zip(streams, cut)]
    return homes, streams, {"faults": faults, **injected_counts(streams)}


def injected_counts(streams) -> dict:
    """What the generator put into the streams that the guard and reorder
    buffer must drop: non-finite values exactly; duplicate copies and
    arrivals behind the lateness budget as an upper bound."""
    nonfinite = duplicates = late = 0
    for stream in streams:
        seen = set()
        newest = -math.inf
        for event in stream:
            if not math.isfinite(event.value):
                nonfinite += 1
                continue
            key = (event.timestamp, event.device_id, event.value)
            if key in seen:
                duplicates += 1
            seen.add(key)
            if event.timestamp <= newest - LATENESS_S:
                late += 1
            newest = max(newest, event.timestamp)
    return {"non_finite_value": nonfinite, "duplicates": duplicates, "late": late}


def build_schedule(streams, seconds: float):
    """``(items, dues)``: the merged send schedule of ``(due offset, home,
    frame, kind, index)`` items (a probe's index is the ``(first, last)``
    event range it covers) and each home's event due offsets."""
    from repro.durability.runtime import encode_event_frame
    from repro.service import protocol

    sync_frame = protocol.encode_message(protocol.sync())
    items = []
    dues = []
    for home, stream in enumerate(streams):
        n = len(stream)
        step = seconds / n
        offset = step * (0.25 + 0.5 * home)  # interleave the two homes
        home_dues = [offset + k * step for k in range(n)]
        dues.append(home_dues)
        first = 0
        for k, event in enumerate(stream):
            due = home_dues[k]
            items.append((due, home, encode_event_frame(event), EVENT, k))
            if k == n - 1 or (
                int(home_dues[k + 1] / PROBE_INTERVAL_S) > int(due / PROBE_INTERVAL_S)
            ):
                items.append((due, home, sync_frame, PROBE, (first, k)))
                first = k + 1
    items.sort(key=lambda item: (item[0], item[1], item[3]))
    return items, dues


# ---------------------------------------------------------------------- #
# Server process
# ---------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` child and its files."""

    def __init__(self, workdir: str, seed: int, hours: float,
                 spans_out: str = None) -> None:
        self.ports_path = os.path.join(workdir, "ports.json")
        self.alerts_path = os.path.join(workdir, "alerts.jsonl")
        self.log_path = os.path.join(workdir, "server.log")
        args = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py")]
        if spans_out:
            args += ["--spans-out", spans_out]
        args += [
            "serve", "--homes", str(HOMES), "--seed", str(seed),
            "--hours", repr(hours),
            "--train-hours", repr(TRAIN_HOURS), "--shards", str(SHARDS),
            "--fsync", "interval", "--journal-dir", os.path.join(workdir, "wal"),
            "--alerts-out", self.alerts_path, "--ports-out", self.ports_path,
        ]
        env = dict(os.environ, PYTHONPATH=SRC)
        self._stdout = open(os.path.join(workdir, "server.out"), "wb")
        self._stderr = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=self._stdout, stderr=self._stderr,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.ports = self._await_ports()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._stdout.close()
            self._stderr.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_ports(self) -> dict:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode} at start")
            try:
                with open(self.ports_path, "r", encoding="utf-8") as handle:
                    return json.load(handle)
            except (OSError, ValueError):
                time.sleep(0.005)
        raise BenchError("server did not publish its ports in time")

    def http(self, path: str) -> str:
        url = f"http://127.0.0.1:{self.ports['http_port']}{path}"
        try:
            with urllib.request.urlopen(url, timeout=30) as reply:
                return reply.read().decode("utf-8")
        except OSError as exc:
            raise BenchError(f"GET {path} failed: {exc}") from exc

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("server did not drain within 60 s")
        finally:
            self._stdout.close()
            self._stderr.close()


def start_server(seed: int, hours: float,
                 spans_out: str = None) -> Tuple["Server", List[float]]:
    """Spawn the server ``SETUP_REPEATS`` times and keep the last one
    running.  Set-up is measured each time and returned at reference host
    speed, from host-speed samples taken just before and after the spawn."""
    setups = []
    for attempt in range(SETUP_REPEATS):
        host = HostSpeed()
        host.sample(SETUP_SAMPLES)
        server = Server(fresh_dir("service-ingest", "server"), seed, hours,
                        spans_out if attempt == SETUP_REPEATS - 1 else None)
        # The ports file is written just before the SIGTERM handler is
        # installed; an answered /ready means the handler is in place.
        server.http("/ready")
        host.sample(SETUP_SAMPLES)
        setups.append(server.setup_s / host.factor())
        if attempt < SETUP_REPEATS - 1:
            if server.stop() != 0:
                raise BenchError("server drain failed during set-up")
    return server, setups


# ---------------------------------------------------------------------- #
# Generator
# ---------------------------------------------------------------------- #


def _connect(port: int, home_id: str):
    from repro.service import protocol
    from repro.service.protocol import FrameDecoder

    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    decoder = FrameDecoder()
    sock.sendall(protocol.encode_message(protocol.hello(home_id)))
    while True:
        data = sock.recv(65536)
        if not data:
            raise BenchError(f"server closed {home_id} during the handshake")
        messages = decoder.feed(data)
        if messages:
            break
    if messages[0]["type"] != "welcome" or messages[0]["applied"] != 0:
        raise BenchError(f"unexpected handshake reply {messages[0]}")
    sock.sendall(protocol.encode_message(protocol.resume(0)))
    sock.setblocking(False)
    return sock, decoder


def generate(server: Server, homes, streams, seconds: float) -> dict:
    """Run the open loop; returns timings and reply accounting."""
    from repro.service import protocol

    schedule, dues = build_schedule(streams, seconds)
    socks, decoders = [], []
    for home in homes:
        sock, decoder = _connect(server.ports["port"], home.home_id)
        socks.append(sock)
        decoders.append(decoder)
    ends = [
        max(e.timestamp for e in stream if math.isfinite(e.value)) for stream in streams
    ]
    clock = time.perf_counter
    outbuf = [bytearray() for _ in homes]
    probes = [collections.deque() for _ in homes]
    sent = [0] * len(homes)
    lateness: List[float] = []
    ingest: List[float] = []  # per event
    batch: List[float] = []  # per probe, from its first event's due time
    trend: List[Tuple[float, float]] = []  # (due, latency) of each probe's last event
    unapplied_probes = 0
    errors: List[str] = []
    fins: Dict[int, Tuple[int, float]] = {}
    ended = False
    i, n = 0, len(schedule)
    t0 = clock() + 0.05
    deadline = t0 + seconds + 60.0
    while len(fins) < len(homes):
        now = clock()
        if now > deadline:
            errors.append("deadline")
            break
        while i < n and t0 + schedule[i][0] <= now:
            due, home, frame, kind, k = schedule[i]
            outbuf[home] += frame
            if kind == EVENT:
                lateness.append(now - (t0 + due))
                sent[home] += 1
            else:
                probes[home].append(k)
            i += 1
        if i == n and not ended:
            for home, end in enumerate(ends):
                outbuf[home] += protocol.encode_message(protocol.end(end))
            ended = True
        for home, sock in enumerate(socks):
            if outbuf[home]:
                try:
                    written = sock.send(outbuf[home])
                except BlockingIOError:
                    written = 0
                del outbuf[home][:written]
        wait = 0.05 if i == n else max(0.0, t0 + schedule[i][0] - clock())
        writers = [s for h, s in enumerate(socks) if outbuf[h]]
        readable, _, _ = select.select(socks, writers, [], min(wait, 0.05))
        for sock in readable:
            home = socks.index(sock)
            data = sock.recv(1 << 16)
            if not data:
                errors.append(f"server closed home {home}")
                fins[home] = (-1, clock())
                continue
            arrived = clock()
            for message in decoders[home].feed(data):
                kind = message["type"]
                if kind == "synced":
                    first, last = probes[home].popleft()
                    home_dues = dues[home]
                    confirmed = arrived
                    if message["applied"] <= last:  # short: missed any limit
                        unapplied_probes += 1
                        confirmed = math.inf
                    ingest.extend(confirmed - (t0 + home_dues[e]) for e in range(first, last + 1))
                    batch.append(confirmed - (t0 + home_dues[first]))
                    trend.append((home_dues[last], confirmed - (t0 + home_dues[last])))
                elif kind == "fin":
                    fins[home] = (int(message["applied"]), arrived)
                elif kind == "error":
                    errors.append(f"home {home}: {message.get('reason')}")
    for sock in socks:
        sock.close()
    missing = sum(len(q) for q in probes)
    for queue in probes:  # never confirmed: missed any limit
        for first, last in queue:
            ingest.extend([math.inf] * (last + 1 - first))
            batch.append(math.inf)
    trend.sort()
    return {
        "t0": t0,
        "t1": max(t for _, t in fins.values()) if fins else clock(),
        "sent": sent, "ends": ends,
        "applied": [fins.get(h, (0, 0.0))[0] for h in range(len(homes))],
        "probes": sum(1 for item in schedule if item[3] == PROBE),
        "lateness": lateness,
        "ingest": ingest,
        "batch": batch,
        "trend": [latency for _, latency in trend],
        "missing_probes": missing, "unapplied_probes": unapplied_probes,
        "errors": errors,
    }


def trend_breached(latencies: List[float]) -> bool:
    """Latency trending upward: the last quarter's median exceeds the
    first quarter's by more than ``TREND_FACTOR`` x plus slack."""
    quarter = len(latencies) // 4
    if quarter < 10:
        return False
    first = median(latencies[:quarter])
    last = median(latencies[-quarter:])
    return last > TREND_FACTOR * first + TREND_SLACK_S


# ---------------------------------------------------------------------- #
# Reference
# ---------------------------------------------------------------------- #


def reference(homes, streams, ends) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Per-home alert digests and drop counts of an in-process durable
    fleet fed the same dirty streams, one home after the other."""
    from repro import telemetry
    from repro.durability import AlertOutbox, CallbackSink, DurableFleetGateway
    from repro.fleet import FleetGateway, fit_fleet_detectors
    from repro.streaming import SupervisorPolicy

    workdir = fresh_dir("service-ingest", "reference")
    detectors = fit_fleet_detectors(homes)
    policy = SupervisorPolicy(silence_seconds=SILENCE_S, quarantine_seconds=QUARANTINE_S)
    gateway = FleetGateway(SHARDS)
    for home in homes:
        gateway.add_home(
            home.home_id, detectors[home.home_id], start=home.split,
            lateness_seconds=LATENESS_S, policy=policy,
        )
    delivered: List[dict] = []
    outbox = AlertOutbox(os.path.join(workdir, "outbox"), CallbackSink(delivered.append))
    durable = DurableFleetGateway(gateway, workdir, fsync="interval", outbox=outbox)
    with open(os.path.join(workdir, "program.log"), "w", encoding="utf-8") as handle:
        telemetry.configure(stream=handle)
        try:
            for home, stream, end in zip(homes, streams, ends):
                for lo in range(0, len(stream), 256):
                    durable.dispatch([(home.home_id, e) for e in stream[lo:lo + 256]])
                durable.finish_home(home.home_id, end)
                durable.deliver_pending()
        finally:
            telemetry.configure(stream=None)
            durable.close()
    drops: Dict[str, int] = collections.Counter()
    for home in homes:
        drops.update(durable.runtime_of(home.home_id).drops.counts)
    return home_digests(delivered), dict(drops)


def served_alerts(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------- #
# One measured server run
# ---------------------------------------------------------------------- #


def serve_once(seed: int, seconds: float, homes, streams, spans_out=None) -> dict:
    server, setups = start_server(seed, hours_for(seconds), spans_out)
    try:
        log_before = count_lines(server.log_path)
        cpu_before = server.cpu_s()
        gen = generate(server, homes, streams, seconds)
        cpu_s = server.cpu_s() - cpu_before
        metrics_text = server.http("/metrics")
        health = json.loads(server.http("/health"))
        rss_mb = vm_hwm_mb(str(server.proc.pid))
        log_lines = count_lines(server.log_path) - log_before
    finally:
        code = server.stop()
    if code != 0:
        raise BenchError(f"server drain exited with {code}")
    gen.update(
        setups=setups, cpu_s=cpu_s, rss_mb=rss_mb, log_lines=log_lines,
        samples=parse_prometheus(metrics_text),
        queue_depth_max=float(health["service"]["max_queue_depth"]),
        alerts=served_alerts(server.alerts_path),
    )
    return gen


def run(seed: int, seconds: float, trace: bool) -> dict:
    homes, streams, injected = dirty_streams(seed, seconds)
    spans_path = os.path.join(fresh_dir("service-ingest", "spans"), "server.spans")
    runs = []
    if trace:
        runs.append(serve_once(seed, seconds, homes, streams))
    runs.append(serve_once(seed, seconds, homes, streams, spans_path if trace else None))
    gen = runs[-1]
    ref_digests, ref_drops = reference(homes, streams, gen["ends"])
    samples = gen["samples"]
    got_digests = home_digests(gen["alerts"])
    served_drops = {
        reason: int(counter_total(samples, "dice_ingest_dropped_total", f'reason="{reason}"'))
        for reason in ("empty_device_id", "non_finite_timestamp", "non_finite_value",
                       "unknown_device", "before_start", "too_late", "duplicate", "overload")
    }
    sheds = int(counter_total(samples, "dice_service_shed_total"))
    disconnects = int(counter_total(samples, "dice_service_disconnects_total"))
    total_sent = sum(gen["sent"])
    unapplied = sum(max(0, s - a) for s, a in zip(gen["sent"], gen["applied"]))
    failed = (unapplied + sheds + disconnects + gen["missing_probes"]
              + gen["unapplied_probes"] + len(gen["errors"]))
    attempted = total_sent + gen["probes"] + len(homes)
    lateness_p99 = percentile(gen["lateness"], 99)
    problems = []
    if got_digests != ref_digests:
        problems.append(f"alert digests differ: served {got_digests} vs reference {ref_digests}")
    expected_drops = {r: ref_drops.get(r, 0) for r in served_drops}
    if served_drops != expected_drops:
        problems.append(f"drops by reason differ: served {served_drops} vs reference {expected_drops}")
    if served_drops["non_finite_value"] != injected["non_finite_value"]:
        problems.append(f"non-finite drops {served_drops['non_finite_value']} != "
                        f"injected {injected['non_finite_value']}")
    if served_drops["duplicate"] + served_drops["too_late"] > injected["duplicates"] + injected["late"]:
        problems.append("more duplicate/late drops than the generator injected")
    if any(served_drops[r] for r in ("empty_device_id", "non_finite_timestamp",
                                     "unknown_device", "before_start", "overload")):
        problems.append(f"drops the generator never injected: {served_drops}")
    if gen["applied"] != gen["sent"]:
        problems.append(f"applied {gen['applied']} != sent {gen['sent']} at fin")
    if lateness_p99 > MAX_LATENESS_P99_S:
        problems.append(f"generator fell behind: lateness p99 {lateness_p99 * 1e3:.1f} ms")
    if trend_breached(gen["trend"]):
        problems.append("ingest latency trends upward across the run (backlog)")
    if gen["errors"]:
        problems.append(f"generator errors: {gen['errors'][:5]}")
    ingest = gen["ingest"]
    wall = gen["t1"] - gen["t0"]
    notes = [
        f"service-ingest: offered {OFFERED_RATE:.0f} ev/s open loop, {total_sent} events "
        f"({gen['sent']} per home); ingest: {len(ingest)} event samples, "
        f"{beyond(ingest, 99)} beyond p99; tick: {gen['probes']} probe batches, "
        f"{beyond(gen['batch'], 99)} beyond p99",
        f"service-ingest: generator lateness p50 {percentile(gen['lateness'], 50) * 1e3:.3f} ms "
        f"p99 {lateness_p99 * 1e3:.3f} ms over {len(gen['lateness'])} sends",
        f"service-ingest: injected {injected['faults']}, non-finite {injected['non_finite_value']}, "
        f"duplicate copies {injected['duplicates']}, behind budget {injected['late']}; "
        f"dirty-input drops {served_drops}",
        f"service-ingest: alerts served {len({r['id'] for r in gen['alerts']})}, "
        f"digests {'match' if got_digests == ref_digests else 'DIFFER'}; sheds {sheds}, "
        f"disconnects {disconnects}, unapplied {unapplied}",
        "service-ingest: /metrics at end: frames {:.0f}, sheds {}, journal appends {:.0f}, "
        "cache hits {:.0f} misses {:.0f}, provenance records {:.0f}; outbox delivered "
        "{} (the server's outbox exports no counter; read from --alerts-out)".format(
            counter_total(samples, "dice_service_frames_total"), sheds,
            counter_total(samples, "dice_journal_appends_total"),
            counter_total(samples, "dice_correlation_cache_hits_total"),
            counter_total(samples, "dice_correlation_cache_misses_total"),
            counter_total(samples, "dice_provenance_records_total"), len(gen["alerts"]),
        ),
        tails(gen["batch"], ingest),
    ] + [f"INVALID: {p}" for p in problems]
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "end_to_end": {
            "events_per_s": (sum(gen["applied"]) / wall, "1/s"),
            "tick_p50_ms": (1000.0 * percentile(gen["batch"], 50), "ms"),
            "ingest_p50_ms": (1000.0 * percentile(ingest, 50), "ms"),
            "protocol_s": (wall, "s"),
            "setup_s": (median(gen["setups"]), "s"),
            "peak_rss_mb": (gen["rss_mb"], "MB"),
        },
    }
    if trace:
        import tracing

        out["trace"] = {
            "recorder": tracing.Recorder.load(spans_path),
            "t0": gen["t0"], "t1": gen["t1"],
            "overhead": gen["cpu_s"] / runs[0]["cpu_s"],
            "samples": samples,
            "log_lines": gen["log_lines"],
            "extra": {
                "queue_depth_max": gen["queue_depth_max"],
                "lateness_p50_ms": 1000.0 * percentile(gen["lateness"], 50),
                "lateness_p99_ms": 1000.0 * lateness_p99,
                "lateness_samples": float(len(gen["lateness"])),
                "ingest_samples": float(len(ingest)),
            },
        }
    return out
