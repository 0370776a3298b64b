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

from repro.durability import DurableFleetGateway, record_to_event, replay_records
from repro.faults import ALL_FAULT_TYPES, FaultType
from repro.faults.crash import (
    LATENESS_SECONDS,
    POLICY,
    TrialPlan,
    _counter_total,
    _fresh_fleet,
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


def _one_home(deployment, journal_root, **options):
    """A journaled standalone home: a one-home, one-shard durable fleet."""
    detectors = {deployment.home_id: deployment.fit_detector()}
    return DurableFleetGateway(
        _fresh_fleet([deployment], detectors, 1), journal_root, **options
    )


def _stream(deployment, events):
    return [(deployment.home_id, event) for event in events]


class TestDurableRuntime:
    def test_recover_counters_match_uninterrupted(self, deployment, expected, tmp_path):
        home = deployment.home_id
        merged = _stream(deployment, deployment.events)
        cut = len(merged) // 2
        durable = _one_home(deployment, tmp_path / "journals")
        durable.dispatch(merged[:cut])
        durable.save_checkpoint(tmp_path / "ckpt")
        at_ckpt = _counter_total(durable.runtime_of(home).metrics, ALERTS_TOTAL)
        prefix = list(durable.alerts_of(home))
        durable.dispatch(merged[cut : cut + 5])
        durable.close()

        recovered, replayed = DurableFleetGateway.recover(
            {home: deployment.fit_detector()},
            tmp_path / "journals",
            checkpoint_dir=tmp_path / "ckpt",
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        metrics = recovered.runtime_of(home).metrics
        assert _counter_total(metrics, ALERTS_TOTAL) >= at_ckpt
        recovered.dispatch(merged[cut + 5 :])
        recovered.finish({home: deployment.end})
        recovered.close()
        assert canonical_alerts(prefix + recovered.alerts_of(home)) == canonical_alerts(
            expected
        )
        assert _counter_total(metrics, ALERTS_TOTAL) == float(len(expected))

    def test_fresh_runtime_over_dirty_journal_rotates(self, deployment, tmp_path):
        home = deployment.home_id
        first = _one_home(deployment, tmp_path / "journals")
        first.dispatch(_stream(deployment, deployment.events[:10]))
        first.close()
        epoch_before = first.journals[home].epoch
        # A *fresh* (non-recovery) gateway must never extend a segment
        # from an earlier life.
        second = _one_home(deployment, tmp_path / "journals")
        assert second.journals[home].epoch == epoch_before + 1
        second.close()

    def test_fresh_gateway_after_torn_tail_keeps_new_events(
        self, deployment, tmp_path
    ):
        # Appending after a torn record would make every new record
        # invisible to replay, which stops at the first torn frame.
        home = deployment.home_id
        journal = str(tmp_path / "journals" / home)
        events = deployment.events
        first = _one_home(deployment, tmp_path / "journals")
        first.dispatch(_stream(deployment, events[:50]))
        first.close()
        assert tear_final_record(journal, events[49], np.random.default_rng(0)) > 0
        second = _one_home(deployment, tmp_path / "journals")
        second.dispatch(_stream(deployment, events[50:80]))
        second.close()
        records, torn = replay_records(journal)
        assert (len(records), torn) == (79, 0)
        assert [record_to_event(r) for r in records] == events[:49] + events[50:80]

    def test_second_crash_after_torn_recovery_replays(self, deployment, tmp_path):
        # Recovery over a torn tail, then a second crash before any
        # checkpoint: the next recovery must read both lives' segments.
        home = deployment.home_id
        journal = str(tmp_path / "journals" / home)
        events = deployment.events
        first = _one_home(deployment, tmp_path / "journals")
        first.dispatch(_stream(deployment, events[:50]))
        first.close()
        tear_final_record(journal, events[49], np.random.default_rng(0))
        detectors = {home: deployment.fit_detector()}
        second, _ = DurableFleetGateway.recover(
            detectors,
            tmp_path / "journals",
            gateway=_fresh_fleet([deployment], detectors, 1),
        )
        second.dispatch(_stream(deployment, events[49:80]))
        second.close()
        records, torn = replay_records(journal)
        assert (len(records), torn) == (80, 0)

    def test_tear_helper_cuts_partial_frame(self, deployment, tmp_path):
        home = deployment.home_id
        durable = _one_home(deployment, tmp_path / "journals")
        durable.dispatch(_stream(deployment, deployment.events[:10]))
        durable.close()
        cut = tear_final_record(
            str(tmp_path / "journals" / home),
            deployment.events[9],
            np.random.default_rng(0),
        )
        assert cut > 0
        # Recovery discards exactly the torn record and replays the rest.
        detectors = {home: deployment.fit_detector()}
        recovered, _ = DurableFleetGateway.recover(
            detectors,
            tmp_path / "journals",
            gateway=_fresh_fleet([deployment], detectors, 1),
        )
        metrics = recovered.runtime_of(home).metrics
        assert _counter_total(metrics, "dice_journal_replayed_total") == 9.0
        assert _counter_total(metrics, "dice_journal_torn_records_total") == 1.0
        recovered.close()

    def test_health_reports_durability_section(self, deployment, tmp_path):
        home = deployment.home_id
        durable = _one_home(deployment, tmp_path / "journals")
        durable.dispatch(_stream(deployment, deployment.events[:5]))
        report = durable.health()["durability"]
        assert report["journal_epochs"][home] == durable.journals[home].epoch
        assert report["alert_seqs"] == dict(durable.alert_seqs)
        assert report["ingest_seqs"] == {home: 5}
        durable.close()
