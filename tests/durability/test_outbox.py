"""The alert outbox: journal-then-deliver, retries, dedup, dead letters.

At-least-once means exactly: every offered alert ends up either acked as
delivered or in the dead-letter file, never silently dropped — across
flaky sinks, retry exhaustion, duplicate offers and process restarts.
"""

import builtins
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    AlertOutbox,
    CallbackSink,
    DurableFleetGateway,
    FileSink,
    FlakySink,
    alert_record,
)
from repro.streaming import Alert
from repro.telemetry import MetricsRegistry


def _alert(time=100.0, kind="detection", devices=("motion_kitchen",)):
    return Alert(kind=kind, time=time, check="order", devices=frozenset(devices))


def _record(seq=1, **kwargs):
    return alert_record("home-0000", seq, _alert(**kwargs))


class RecordingSleep:
    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


class TestAlertRecord:
    def test_id_is_deterministic(self):
        assert _record()["id"] == _record()["id"]

    def test_id_covers_content_and_sequence(self):
        base = _record()["id"]
        assert _record(seq=2)["id"] != base
        assert _record(time=101.0)["id"] != base
        assert _record(devices=("motion_bedroom",))["id"] != base
        assert alert_record("home-0001", 1, _alert())["id"] != base


class TestDelivery:
    def test_file_sink_receives_every_alert(self, tmp_path):
        out_path = tmp_path / "alerts.jsonl"
        outbox = AlertOutbox(tmp_path / "outbox", FileSink(out_path))
        records = [_record(seq=i) for i in range(1, 4)]
        for record in records:
            assert outbox.offer(record)
        stats = outbox.deliver_pending()
        assert stats == {"delivered": 3, "dead": 0}
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [line["id"] for line in lines] == [r["id"] for r in records]
        assert outbox.pending == []

    def test_flaky_sink_retries_with_backoff(self, tmp_path):
        sleep = RecordingSleep()
        sink = FlakySink(FileSink(tmp_path / "alerts.jsonl"), failures=2)
        outbox = AlertOutbox(
            tmp_path / "outbox",
            sink,
            max_attempts=4,
            base_delay=0.1,
            jitter=0.0,
            sleep=sleep,
        )
        outbox.offer(_record())
        assert outbox.deliver_pending() == {"delivered": 1, "dead": 0}
        # two failures → two backoff sleeps, exponentially spaced
        assert sleep.delays == [0.1, 0.2]
        assert len(sink.delivered) == 1

    def test_backoff_is_capped_and_jittered(self, tmp_path):
        outbox = AlertOutbox(
            tmp_path / "outbox",
            FileSink(tmp_path / "alerts.jsonl"),
            base_delay=1.0,
            max_delay=2.0,
            jitter=0.5,
        )
        for attempt in range(1, 8):
            delay = outbox._backoff(attempt)
            assert delay <= 2.0 * 1.5
            assert delay >= min(2.0, 1.0 * 2 ** (attempt - 1))

    def test_exhaustion_dead_letters(self, tmp_path):
        registry = MetricsRegistry()
        sink = FlakySink(FileSink(tmp_path / "alerts.jsonl"), failures=99)
        outbox = AlertOutbox(
            tmp_path / "outbox",
            sink,
            max_attempts=3,
            sleep=lambda _s: None,
            metrics=registry,
        )
        record = _record()
        outbox.offer(record)
        assert outbox.deliver_pending() == {"delivered": 0, "dead": 1}
        (entry,) = outbox.dead_letters()
        assert entry["record"]["id"] == record["id"]
        assert entry["attempts"] == 3
        assert "flaky sink" in entry["error"]
        # dead alerts are acked (as dead) so they stop blocking the queue
        assert outbox.pending == []
        assert outbox.delivered_ids() == []
        snapshot = registry.snapshot()["metrics"]
        assert (
            sum(r["value"] for r in snapshot["dice_outbox_dead_letter_total"]["series"])
            == 1
        )

    def test_duplicate_offers_suppressed(self, tmp_path):
        delivered = []
        outbox = AlertOutbox(tmp_path / "outbox", CallbackSink(delivered.append))
        record = _record()
        assert outbox.offer(record) is True
        assert outbox.offer(record) is False  # a replay re-offering history
        outbox.deliver_pending()
        assert len(delivered) == 1

    def test_invalid_max_attempts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            AlertOutbox(tmp_path, FileSink(tmp_path / "a"), max_attempts=0)

    def test_jitter_seed_makes_backoff_deterministic(self, tmp_path):
        """Chaos trials pin the retry schedule byte-for-byte: the same
        jitter_seed replays identical jittered delays, a different seed
        diverges (so trials don't accidentally share a schedule)."""

        def schedule(directory, seed):
            sleep = RecordingSleep()
            sink = FlakySink(FileSink(directory / "alerts.jsonl"), failures=3)
            outbox = AlertOutbox(
                directory / "outbox",
                sink,
                max_attempts=5,
                base_delay=0.1,
                jitter=0.5,
                sleep=sleep,
                jitter_seed=seed,
            )
            outbox.offer(_record())
            outbox.deliver_pending()
            return sleep.delays

        first = schedule(tmp_path / "a", seed=7)
        assert len(first) == 3
        assert any(delay > base for delay, base in zip(first, (0.1, 0.2, 0.4)))
        assert schedule(tmp_path / "b", seed=7) == first
        assert schedule(tmp_path / "c", seed=8) != first


class TestRestart:
    def test_unacked_alerts_redeliver_after_restart(self, tmp_path):
        # Crash between journal and delivery: the next incarnation of the
        # outbox must re-send exactly the unacked alerts.
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        acked_record, lost_record = _record(seq=1), _record(seq=2)
        first.offer(acked_record)
        first.deliver_pending()  # seq 1 delivered and acked
        first.offer(lost_record)  # seq 2 journaled, then "crash"

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert [r["id"] for r in second.pending] == [lost_record["id"]]
        assert second.deliver_pending() == {"delivered": 1, "dead": 0}
        assert [r["id"] for r in delivered] == [acked_record["id"], lost_record["id"]]
        assert set(second.delivered_ids()) == {acked_record["id"], lost_record["id"]}

    def test_restart_does_not_resend_acked(self, tmp_path):
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        record = _record()
        first.offer(record)
        first.deliver_pending()

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert second.pending == []
        assert second.deliver_pending() == {"delivered": 0, "dead": 0}
        assert len(delivered) == 1


class TestPendingCost:
    """``pending`` and ``deliver_pending`` follow the unacked records, not
    the outbox's history, and every log keeps one open handle."""

    @pytest.mark.parametrize("history", [50, 500])
    def test_delivery_visits_only_pending_records(self, tmp_path, history):
        visited = []
        outbox = AlertOutbox(tmp_path / "outbox", CallbackSink(visited.append))
        acked = [_record(seq=i) for i in range(1, history + 1)]
        for record in acked:
            outbox.offer(record)
        assert outbox.pending == acked
        assert outbox.deliver_pending() == {"delivered": history, "dead": 0}
        fresh = [_record(seq=history + i) for i in range(1, 6)]
        for record in fresh:
            outbox.offer(record)
        assert outbox.pending == fresh
        del visited[:]
        assert outbox.deliver_pending() == {"delivered": 5, "dead": 0}
        assert visited == fresh
        assert outbox.pending == []
        outbox.close()
        assert AlertOutbox(tmp_path / "outbox", CallbackSink(visited.append)).pending == []

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.integers(1, 20).map(lambda seq: ("offer", seq)),
                st.just(("deliver", None)),
                st.just(("restart", None)),
            ),
            max_size=40,
        )
    )
    def test_pending_is_the_unacked_records_in_journal_order(self, ops):
        visited = []

        def sink(record):
            visited.append(record["id"])
            if record["seq"] % 3 == 0:  # dead-letters: acked as dead
                raise ConnectionError("refused")

        with tempfile.TemporaryDirectory() as root:
            def reopen():
                return AlertOutbox(
                    os.path.join(root, "outbox"), CallbackSink(sink),
                    max_attempts=1, sleep=lambda seconds: None,
                )

            outbox = reopen()
            journaled, acked = [], set()
            for op, seq in ops:
                if op == "offer":
                    record = _record(seq=seq)
                    fresh = record["id"] not in {r["id"] for r in journaled}
                    assert outbox.offer(record) == fresh
                    if fresh:
                        journaled.append(record)
                elif op == "deliver":
                    before = outbox.pending
                    del visited[:]
                    outbox.deliver_pending()
                    assert visited == [r["id"] for r in before]
                    acked.update(visited)
                else:
                    outbox.close()
                    outbox = reopen()
                assert outbox.pending == [r for r in journaled if r["id"] not in acked]
            outbox.close()

    def test_durable_replay_opens_each_file_once(self, tmp_path):
        from repro.fleet import (
            FleetGateway,
            build_fleet_homes,
            fit_fleet_detectors,
            merged_ticks,
        )

        def replay(hours):
            homes = build_fleet_homes(2, seed=3, hours=hours, train_hours=24.0)
            detectors = fit_fleet_detectors(homes)
            gateway = FleetGateway(1)
            for home in homes:
                gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)
            root = tmp_path / f"{hours:g}h"
            outbox = AlertOutbox(root / "outbox", FileSink(root / "alerts.jsonl"))
            durable = DurableFleetGateway(gateway, root, outbox=outbox)
            opened = []
            real_open = builtins.open

            def counting_open(path, *args, **kwargs):
                opened.append(os.fspath(path))
                return real_open(path, *args, **kwargs)

            with mock.patch("builtins.open", counting_open):
                for _, batch in merged_ticks(homes, 300.0):
                    durable.dispatch(batch)
                    durable.deliver_pending()
                durable.finish()
                durable.deliver_pending()
            durable.close()
            return len(durable.alerts), opened

        few, few_opened = replay(30.0)
        many, many_opened = replay(42.0)
        assert 0 < few < many
        # Two journals, two provenance logs, outbox, acks and the sink.
        assert len(few_opened) == len(many_opened) == 7
        assert len(set(many_opened)) == len(many_opened)
