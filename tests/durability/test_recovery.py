"""Standalone crash recovery: checkpoint + journal tail == uninterrupted.

The chaos harness is the test: seeded deployments, randomized kill
points (some mid-journal-write), recovery, byte-level alert-stream
comparison.  The targeted tests underneath pin the individual failure
modes — torn tails, crash-before-first-checkpoint, counter exactness —
so a chaos regression localizes.
"""

import dataclasses

import numpy as np
import pytest

from repro.durability import DurableOnlineDice
from repro.faults import ALL_FAULT_TYPES, FaultType
from repro.faults.crash import (
    LATENESS_SECONDS,
    POLICY,
    TrialPlan,
    _counter_total,
    build_chaos_deployment,
    chaos_oracle,
    run_chaos,
    run_trial,
    tear_final_record,
)
from repro.streaming import canonical_alerts
from repro.streaming.runtime import ALERTS_TOTAL
from tests.faults.chaos_golden import GOLDEN


@pytest.fixture(scope="module")
def deployment():
    return build_chaos_deployment(42)


@pytest.fixture(scope="module")
def oracle(deployment):
    return chaos_oracle([deployment])


@pytest.fixture(scope="module")
def expected(oracle, deployment):
    return oracle.alerts[deployment.home_id]


def _trial(oracle, workdir, plan, **options):
    return run_trial("standalone", oracle, plan, str(workdir), **options)


class TestChaosBatch:
    def test_25_seeded_kill_points_all_recover(self, tmp_path):
        report = run_chaos("standalone", str(tmp_path), units=5, kills=5, seed=0)
        summary = report.summary()
        assert summary["trials"] == 25
        assert report.ok, summary
        # The batch must actually exercise the interesting regimes.
        assert summary["torn_trials"] >= 3
        assert summary["checkpointed_trials"] >= 5
        assert summary["delivered"] > 0
        assert summary["dead_letters"] == 0
        # These are the CI chaos-smoke sizes: the same trials and verdicts
        # as the golden recorded before the three drivers became one.
        assert summary == GOLDEN["summaries"]["standalone"]


class TestFaultClasses:
    """Chaos victims can fail in any Ni et al. rendering, not just fail-stop."""

    def _victim_events_after_onset(self, dep):
        return [
            e
            for e in dep.events
            if e.device_id == dep.fault_device and e.timestamp >= dep.fault_time
        ]

    def test_fail_stop_victim_goes_silent(self, deployment):
        assert deployment.fault_class is FaultType.FAIL_STOP
        assert not self._victim_events_after_onset(deployment)

    @pytest.mark.parametrize(
        "fault_class",
        [t for t in ALL_FAULT_TYPES if t is not FaultType.FAIL_STOP],
        ids=lambda t: t.value,
    )
    def test_non_fail_stop_victim_keeps_reporting(self, fault_class):
        dep = build_chaos_deployment(42, fault_class=fault_class)
        assert dep.fault_class is fault_class
        assert self._victim_events_after_onset(dep)

    def test_fail_stop_build_unchanged_by_refactor(self, deployment):
        # The explicit-kwarg path must reproduce the historical seed-42
        # deployment byte for byte (golden chaos seeds depend on it).
        rebuilt = build_chaos_deployment(42, fault_class=FaultType.FAIL_STOP)
        assert rebuilt.fault_device == deployment.fault_device
        assert rebuilt.fault_time == deployment.fault_time
        assert [
            (e.timestamp, e.device_id, e.value) for e in rebuilt.events
        ] == [(e.timestamp, e.device_id, e.value) for e in deployment.events]

    def test_stuck_at_deployment_recovers_with_parity(self, tmp_path):
        dep = build_chaos_deployment(42, fault_class=FaultType.STUCK_AT)
        result = _trial(
            chaos_oracle([dep]),
            tmp_path,
            TrialPlan(kill=len(dep.events) // 2, checkpoint=len(dep.events) // 3),
        )
        assert result.ok
        assert result.checkpointed


class TestProvenanceParity:
    """Evidence records survive the crash byte-for-byte (or regenerate so)."""

    def test_recovered_archive_matches_oracle_bytes(
        self, deployment, oracle, tmp_path
    ):
        assert oracle.provenance[deployment.home_id], (
            "the chaos scenario must produce evidence"
        )
        n = len(deployment.events)
        result = _trial(oracle, tmp_path, TrialPlan(kill=(3 * n) // 4, checkpoint=n // 2))
        assert result.provenance_parity
        assert result.ok

    def test_parity_detects_a_tampered_record(self, deployment, oracle, tmp_path):
        tampered = dict(oracle.provenance[deployment.home_id])
        victim = next(iter(tampered))
        tampered[victim] = tampered[victim] + b"x"
        result = _trial(
            dataclasses.replace(
                oracle, provenance={deployment.home_id: tampered}
            ),
            tmp_path,
            TrialPlan(kill=len(deployment.events) // 2),
        )
        assert not result.provenance_parity
        assert not result.ok
        assert result.failures == ["provenance_parity"]

    def test_oracle_ids_match_the_delivered_alert_ids(self, deployment, oracle):
        # Shared id scheme end to end: every id in the provenance oracle is
        # the trace id the outbox would stamp on the delivered alert.
        from repro.durability import alert_record

        expected_alerts = oracle.alerts[deployment.home_id]
        expected_provenance = oracle.provenance[deployment.home_id]
        outbox_ids = {
            alert_record(deployment.home_id, seq, alert)["id"]
            for seq, alert in enumerate(expected_alerts, start=1)
        }
        assert set(expected_provenance) <= outbox_ids


class TestTargetedTrials:
    def test_crash_without_checkpoint(self, deployment, oracle, tmp_path):
        result = _trial(oracle, tmp_path, TrialPlan(kill=len(deployment.events) // 2))
        assert result.ok
        assert not result.checkpointed

    def test_crash_after_checkpoint(self, deployment, oracle, tmp_path):
        n = len(deployment.events)
        result = _trial(oracle, tmp_path, TrialPlan(kill=(3 * n) // 4, checkpoint=n // 2))
        assert result.ok
        assert result.checkpointed

    def test_torn_final_record_is_discarded_and_refed(self, deployment, oracle, tmp_path):
        result = _trial(
            oracle, tmp_path, TrialPlan(kill=len(deployment.events) // 2, torn=True)
        )
        assert result.ok
        assert result.torn

    @pytest.mark.parametrize("fsync", ["interval", "always"])
    def test_stricter_fsync_policies_recover_too(
        self, deployment, oracle, tmp_path, fsync
    ):
        result = _trial(
            oracle, tmp_path, TrialPlan(kill=len(deployment.events) // 3), fsync=fsync
        )
        assert result.ok

    def test_retry_exhaustion_dead_letters_instead_of_losing(
        self, deployment, oracle, expected, tmp_path
    ):
        # Sink worse than the attempt budget: nothing is delivered, but
        # every expected alert is accounted for in the dead-letter file.
        result = _trial(
            oracle,
            tmp_path,
            TrialPlan(kill=len(deployment.events) // 2),
            flaky_failures=99,
            max_attempts=2,
        )
        assert result.parity
        assert result.delivery_ok
        assert result.delivered == 0
        assert result.dead_letters == len(expected)


class TestDurableRuntime:
    def test_recover_counters_match_uninterrupted(self, deployment, expected, tmp_path):
        events = deployment.events
        cut = len(events) // 2
        durable = DurableOnlineDice(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        durable.ingest_many(events[:cut])
        durable.save_checkpoint(tmp_path / "ckpt.json")
        at_ckpt = _counter_total(durable.metrics, ALERTS_TOTAL)
        prefix = list(durable.alerts)
        durable.ingest_many(events[cut : cut + 5])
        durable.close()

        recovered, replayed = DurableOnlineDice.recover(
            deployment.fit_detector(),
            tmp_path / "journal",
            checkpoint_path=tmp_path / "ckpt.json",
            start=deployment.split,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        assert _counter_total(recovered.metrics, ALERTS_TOTAL) >= at_ckpt
        recovered.ingest_many(events[cut + 5 :])
        recovered.finish_stream(deployment.end)
        recovered.close()
        assert canonical_alerts(prefix + recovered.alerts) == canonical_alerts(expected)
        assert _counter_total(recovered.metrics, ALERTS_TOTAL) == float(len(expected))

    def test_fresh_runtime_over_dirty_journal_rotates(self, deployment, tmp_path):
        first = DurableOnlineDice(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
        )
        first.ingest_many(deployment.events[:10])
        first.close()
        epoch_before = first.journal.epoch
        # A *fresh* (non-recovery) runtime must never extend a segment
        # from an earlier life.
        second = DurableOnlineDice(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
        )
        assert second.journal.epoch == epoch_before + 1
        second.close()

    def test_tear_helper_cuts_partial_frame(self, deployment, tmp_path):
        durable = DurableOnlineDice(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
        )
        durable.ingest_many(deployment.events[:10])
        durable.close()
        cut = tear_final_record(
            str(tmp_path / "journal"),
            deployment.events[9],
            np.random.default_rng(0),
        )
        assert cut > 0
        # Recovery discards exactly the torn record and replays the rest.
        recovered, _ = DurableOnlineDice.recover(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
        )
        replayed = _counter_total(
            recovered.metrics, "dice_journal_replayed_total"
        )
        torn = _counter_total(recovered.metrics, "dice_journal_torn_records_total")
        assert replayed == 9.0
        assert torn == 1.0
        recovered.close()

    def test_health_reports_durability_section(self, deployment, tmp_path):
        durable = DurableOnlineDice(
            deployment.fit_detector(),
            tmp_path / "journal",
            start=deployment.split,
        )
        durable.ingest_many(deployment.events[:5])
        report = durable.health()
        assert report["durability"]["journal_epoch"] == durable.journal.epoch
        assert report["durability"]["alert_seq"] == durable.alert_seq
        durable.close()
