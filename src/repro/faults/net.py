"""Network fault injection for the ingest service's send path.

Where :mod:`repro.faults.pipe` perturbs the *event* stream (reorder,
duplicate, corrupt values) and :mod:`repro.faults.crash` kills the
*process*, this module attacks the layer the ingest service adds: the
**byte stream between client and server**.  :class:`NetFaultInjector`
plugs into :class:`~repro.service.ServiceClient`'s send path and injects
the transport failures a real deployment sees:

* **torn writes / disconnect mid-frame** — a frame's prefix is written,
  then the connection dies; the server must discard the partial frame;
* **clean disconnects** between frames;
* **garbage bytes** — line noise that must kill the connection at the
  CRC/length check, never the server;
* **slowloris** — a frame dribbled out in tiny chunks (the server's
  frame-completion deadline bounds how long it will humour this);
* **duplicate sends** — the at-least-once failure mode a retrying client
  actually produces: after a reconnect it resumes *below* the server's
  applied count and re-sends a suffix the server has already journaled
  (the server skips exactly those frames).

The service layer of the chaos driver (:mod:`repro.faults.crash`) runs
its retrying clients through this injector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "NetFaultSpec",
    "NetFaultInjector",
    "SimulatedDisconnect",
]


class SimulatedDisconnect(ConnectionError):
    """The injector cut the connection (possibly mid-frame)."""


@dataclass
class NetFaultSpec:
    """Per-frame fault probabilities for one injector.

    Rates apply independently per outgoing *event* frame; the handshake
    frames stay clean so every connection at least reaches the resume
    negotiation (handshake corruption is covered by the decoder fuzz
    tests, which need no live server).
    """

    torn_write_rate: float = 0.01  # partial frame, then disconnect
    disconnect_rate: float = 0.005  # clean cut between frames
    garbage_rate: float = 0.002  # line noise injected before the frame
    slowloris_rate: float = 0.005  # frame dribbled in tiny chunks
    duplicate_rate: float = 0.3  # chance a reconnect rewinds its resume
    duplicate_depth: int = 6  # max frames re-sent below ``applied``
    slow_chunk_bytes: int = 5
    slow_delay_s: float = 0.001


@dataclass
class _FaultCounts:
    torn_writes: int = 0
    disconnects: int = 0
    garbage: int = 0
    slowloris: int = 0
    duplicates: int = 0  # frames deliberately re-sent below applied


class NetFaultInjector:
    """Seeded byte-level fault source for one client's send path."""

    def __init__(self, rng, spec: Optional[NetFaultSpec] = None) -> None:
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self.spec = spec if spec is not None else NetFaultSpec()
        self.counts = _FaultCounts()

    # -- ServiceClient hooks ------------------------------------------- #

    def on_connect(self) -> None:
        """A new connection opened; nothing to reset (rates are per-frame)."""

    def resume_from(self, applied: int) -> int:
        """Possibly rewind the resume point: the duplicate-sends fault."""
        spec = self.spec
        if applied > 0 and self.rng.random() < spec.duplicate_rate:
            rewind = min(applied, 1 + int(self.rng.integers(spec.duplicate_depth)))
            self.counts.duplicates += rewind
            return applied - rewind
        return applied

    def send(self, sock, data: bytes, kind: str) -> None:
        """Deliver one frame's bytes, possibly perturbed."""
        spec = self.spec
        if kind != "event":
            sock.sendall(data)
            return
        roll = float(self.rng.random())
        edge = spec.torn_write_rate
        if roll < edge and len(data) > 1:
            cut = 1 + int(self.rng.integers(len(data) - 1))
            sock.sendall(data[:cut])
            self.counts.torn_writes += 1
            raise SimulatedDisconnect(f"torn write after {cut} bytes")
        edge += spec.disconnect_rate
        if roll < edge:
            self.counts.disconnects += 1
            raise SimulatedDisconnect("disconnect between frames")
        edge += spec.garbage_rate
        if roll < edge:
            noise = self.rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
            self.counts.garbage += 1
            sock.sendall(noise)
            # The server will kill this connection at the CRC check; keep
            # writing until it does — the client recovers via its retry loop.
            sock.sendall(data)
            return
        edge += spec.slowloris_rate
        if roll < edge:
            self.counts.slowloris += 1
            step = max(1, spec.slow_chunk_bytes)
            for offset in range(0, len(data), step):
                sock.sendall(data[offset : offset + step])
                time.sleep(spec.slow_delay_s)
            return
        sock.sendall(data)
