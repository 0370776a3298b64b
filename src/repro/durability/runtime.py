"""The journal's event record codec.

Every raw event the durable gateway (:mod:`repro.durability.fleet`)
accepts is journaled as one compact JSON record before it touches any
runtime state; recovery decodes the journal tail back into events with
:func:`record_to_event`.  :func:`encode_event_frame` is the hot-path
encoder shared verbatim by the ingest service's wire protocol.
"""

from __future__ import annotations

import json

from ..model import Event
from .journal import frame_payload


def event_to_record(event: Event) -> dict:
    """The journal form of one event (lossless float round trip)."""
    return {"type": "event", "t": event.timestamp, "d": event.device_id, "v": event.value}


def record_to_event(record: dict) -> Event:
    return Event(record["t"], record["d"], record["v"])


_INF = float("inf")
_device_json_cache: dict = {}


def _json_num(value) -> str:
    """``json.dumps`` rendering of one number, without the dispatch cost.

    ``json`` serializes floats via ``repr`` (shortest round trip) except
    the non-finite values, which it spells ``NaN``/``Infinity``; matching
    that exactly keeps the fast path byte-identical to
    ``encode_record(event_to_record(event))``.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return repr(value)
    return json.dumps(value)


def encode_event_frame(event: Event) -> bytes:
    """Pre-framed journal bytes for one event.

    Byte-identical to ``encode_record(event_to_record(event))`` but several
    times faster — the ingest hot path pays this per accepted event, and
    the journal's overhead budget is 1.5x of the unjournaled runtime.
    """
    device = _device_json_cache.get(event.device_id)
    if device is None:
        device = json.dumps(event.device_id, ensure_ascii=False)
        _device_json_cache[event.device_id] = device
    payload = (
        f'{{"d":{device},"t":{_json_num(event.timestamp)},'
        f'"type":"event","v":{_json_num(event.value)}}}'
    ).encode("utf-8")
    return frame_payload(payload)
