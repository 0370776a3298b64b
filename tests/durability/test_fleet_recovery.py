"""Fleet crash recovery: per-home journals, resharding, at-least-once.

Journals are keyed by home, not shard, so a fleet may come back with a
different shard count and still replay every home's tail exactly —
the chaos batch randomizes shard layouts across the crash to prove it.
"""

import pytest

from repro.durability import DurableFleetGateway
from repro.streaming import CheckpointError
from repro.faults.crash import (
    TrialPlan,
    _fresh_fleet,
    build_chaos_fleet,
    chaos_oracle,
    run_chaos,
    run_trial,
)
from tests.faults.chaos_golden import GOLDEN


@pytest.fixture(scope="module")
def fleet():
    deployments, merged = build_chaos_fleet(7, num_homes=3)
    oracle = chaos_oracle(deployments, merged)
    return deployments, merged, oracle


class TestChaosBatch:
    def test_randomized_kills_across_shard_layouts(self, tmp_path):
        report = run_chaos(
            "fleet",
            str(tmp_path),
            units=2,
            kills=4,
            num_homes=3,
            seed=0,
            shard_choices=(1, 2, 4),
        )
        summary = report.summary()
        assert summary["trials"] == 8
        assert report.ok, summary
        # At least one trial must have actually changed shard layout
        # across the crash (reshard-on-restore).
        assert any(t.shards_before != t.shards_after for t in report.trials)
        # The CI chaos-smoke sizes: the golden's trials and verdicts.
        assert summary == GOLDEN["summaries"]["fleet"]


class TestTargetedTrials:
    @pytest.mark.parametrize("shards_after", [1, 2, 4])
    def test_reshard_on_restore(self, fleet, tmp_path, shards_after):
        _, merged, oracle = fleet
        plan = TrialPlan(
            kill=len(merged) // 2,
            checkpoint=len(merged) // 4,
            shards_before=2,
            shards_after=shards_after,
        )
        result = run_trial("fleet", oracle, plan, str(tmp_path))
        assert result.ok, result
        assert result.checkpointed

    def test_torn_home_journal(self, fleet, tmp_path):
        _, merged, oracle = fleet
        plan = TrialPlan(
            kill=len(merged) // 2, torn=True, shards_before=2, shards_after=2
        )
        result = run_trial("fleet", oracle, plan, str(tmp_path))
        assert result.ok, result
        assert result.torn

    def test_dead_letters_account_for_every_alert(self, fleet, tmp_path):
        _, merged, oracle = fleet
        plan = TrialPlan(kill=len(merged) // 2, shards_before=2, shards_after=2)
        result = run_trial(
            "fleet", oracle, plan, str(tmp_path), flaky_failures=99, max_attempts=2
        )
        assert result.parity
        assert result.delivery_ok
        assert result.delivered == 0
        assert result.dead_letters == sum(len(a) for a in oracle.alerts.values())


class TestRecoverGuards:
    def test_recover_without_checkpoint_or_gateway_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="no fleet checkpoint"):
            DurableFleetGateway.recover({}, tmp_path / "journals")

    def test_durability_section_written_in_each_home_file(self, fleet, tmp_path):
        import json

        from repro.fleet.checkpoint import MANIFEST_NAME

        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[: len(merged) // 4])
        epochs = {h: journal.epoch for h, journal in durable.journals.items()}
        durable.save_checkpoint(tmp_path / "ckpt")
        durable.close()
        ckpt = tmp_path / "ckpt"
        assert sorted(p.name for p in ckpt.iterdir() if not p.name.startswith("home-")) == [
            MANIFEST_NAME
        ]
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert set(manifest["homes"]) == {d.home_id for d in deployments}
        for home_id, entry in manifest["homes"].items():
            section = json.loads((ckpt / entry["file"]).read_text())["durability"]
            assert section == {
                "journal_epoch": epochs[home_id],
                "alert_seq": durable.alert_seqs.get(home_id, 0),
                "ingest_seq": durable.ingest_seqs[home_id],
            }

    def test_only_current_checkpoint_versions_restore(self, fleet, tmp_path):
        # One checkpoint version per layer: a v4 runtime snapshot and a /2
        # fleet manifest are each refused with a CheckpointError naming the
        # version found.
        import json

        from repro.fleet.checkpoint import MANIFEST_NAME
        from repro.streaming import restore_runtime

        deployments, merged, _ = fleet

        def fitted():
            return {dep.home_id: dep.fit_detector() for dep in deployments}

        journals, ckpt = tmp_path / "journals", tmp_path / "ckpt"
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, fitted(), 2), journals
        )
        durable.dispatch(merged[: len(merged) // 4])
        durable.save_checkpoint(ckpt)
        durable.close()

        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        home_id = deployments[0].home_id
        snapshot = json.loads((ckpt / manifest["homes"][home_id]["file"]).read_text())
        with pytest.raises(CheckpointError, match="version 4"):
            restore_runtime(fitted()[home_id], dict(snapshot, version=4))

        (ckpt / MANIFEST_NAME).write_text(
            json.dumps(dict(manifest, schema="dice-fleet-manifest/2"))
        )
        with pytest.raises(CheckpointError, match="dice-fleet-manifest/2"):
            DurableFleetGateway.recover(fitted(), journals, checkpoint_dir=ckpt)

    def test_recover_refuses_checkpoint_without_durability_section(
        self, fleet, tmp_path
    ):
        # A plain snapshot names no journal epoch and no alert sequence:
        # recovering from it would replay the whole journal on top of the
        # restored state and number alerts from 0 again.
        import json
        import shutil

        from repro.fleet.checkpoint import MANIFEST_NAME

        deployments, merged, _ = fleet

        def fitted():
            return {dep.home_id: dep.fit_detector() for dep in deployments}

        journals, full, plain = (
            tmp_path / "journals", tmp_path / "durable", tmp_path / "plain"
        )
        durable = DurableFleetGateway(_fresh_fleet(deployments, fitted(), 2), journals)
        durable.dispatch(merged[: len(merged) // 2])
        assert sum(durable.alert_seqs.values()) > 0
        durable.save_checkpoint(full)
        durable.close()
        shutil.copytree(full, plain)
        victim = deployments[1].home_id
        entry = json.loads((plain / MANIFEST_NAME).read_text())["homes"][victim]
        snapshot = json.loads((plain / entry["file"]).read_text())
        del snapshot["durability"]
        (plain / entry["file"]).write_text(json.dumps(snapshot))

        with pytest.raises(CheckpointError, match=f"{victim!r}.*'durability' section"):
            DurableFleetGateway.recover(fitted(), journals, checkpoint_dir=plain)
        recovered, _ = DurableFleetGateway.recover(
            fitted(), journals, checkpoint_dir=full
        )
        assert recovered.alert_seqs == durable.alert_seqs
        recovered.close()

    def test_recover_refuses_a_file_as_checkpoint(self, tmp_path):
        ckpt = tmp_path / "gateway.json"
        ckpt.write_text("{}")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            DurableFleetGateway.recover({}, tmp_path / "journals", checkpoint_dir=ckpt)

    def test_health_reports_per_home_epochs(self, fleet, tmp_path):
        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[:50])
        report = durable.health()
        assert set(report["durability"]["journal_epochs"]) == {
            d.home_id for d in deployments
        }
        durable.close()


class _Killed(Exception):
    """The process dies here."""


def _kill_before_manifest(patch):
    import repro.fleet.checkpoint as fleet_checkpoint

    write = fleet_checkpoint.write_json_atomic

    def cut(state, path):
        if str(path).endswith(fleet_checkpoint.MANIFEST_NAME):
            raise _Killed
        write(state, path)

    patch.setattr(fleet_checkpoint, "write_json_atomic", cut)


def _kill_after_first_home_file(patch):
    import repro.fleet.checkpoint as fleet_checkpoint

    write = fleet_checkpoint.write_json_atomic
    written = []

    def cut(state, path):
        if written:
            raise _Killed
        write(state, path)
        written.append(path)

    patch.setattr(fleet_checkpoint, "write_json_atomic", cut)


def _kill_before_rotate(patch):
    from repro.durability import EventJournal

    def cut(self, epoch=None):
        raise _Killed

    patch.setattr(EventJournal, "rotate", cut)


class TestKillInsideSaveCheckpoint:
    """Rewrite a durable checkpoint and die partway through the save.

    Whatever subset of home files the cut save left behind, each one
    carries its own journal epoch and sequences, so recovery reaches the
    uninterrupted run's alerts, delivered ids and drop counts exactly.
    """

    @pytest.mark.parametrize(
        "kill",
        [_kill_after_first_home_file, _kill_before_manifest, _kill_before_rotate],
        ids=["after-first-home-file", "before-manifest", "before-rotate"],
    )
    @pytest.mark.parametrize("homes", [1, 3])
    def test_recovery_reaches_parity(self, tmp_path, monkeypatch, kill, homes):
        from repro.durability import AlertOutbox, FileSink
        from repro.faults.crash import (
            LATENESS_SECONDS,
            POLICY,
            _expected_ids,
            build_chaos_deployment,
        )
        from repro.streaming import canonical_alerts
        from repro.telemetry import NULL_REGISTRY

        if homes == 1:
            deployments = [build_chaos_deployment(3)]
            merged = [(deployments[0].home_id, e) for e in deployments[0].events]
        else:
            deployments, merged = build_chaos_fleet(3, num_homes=homes)
        oracle = chaos_oracle(deployments, merged)
        ends = {dep.home_id: dep.end for dep in deployments}

        def fitted():
            return {dep.home_id: dep.fit_detector() for dep in deployments}

        reference = _fresh_fleet(deployments, fitted(), 1)
        reference.dispatch(merged)
        reference.finish(ends)

        def outbox():
            return AlertOutbox(
                tmp_path / "outbox",
                FileSink(tmp_path / "delivered.jsonl"),
                metrics=NULL_REGISTRY,
            )

        journals, ckpt = tmp_path / "journals", tmp_path / "ckpt"
        first, second = len(merged) // 3, 2 * len(merged) // 3
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, fitted(), 1), journals, outbox=outbox()
        )
        durable.dispatch(merged[:first])
        durable.save_checkpoint(ckpt)
        durable.dispatch(merged[first:second])
        with monkeypatch.context() as patch:
            kill(patch)
            with pytest.raises(_Killed):
                durable.save_checkpoint(ckpt)
        before = {h: durable.alerts_of(h) for h in ends}
        durable.deliver_pending()
        durable.close()

        recovered, replayed = DurableFleetGateway.recover(
            fitted(),
            journals,
            checkpoint_dir=ckpt,
            outbox=outbox(),
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        recovered.dispatch(merged[second:])
        recovered.finish(ends)
        recovered.deliver_pending()
        recovered.close()
        for home_id, expected in oracle.alerts.items():
            # The home's restored point: its final sequence, less every
            # alert raised since (replayed or fresh).
            restored = recovered.alert_seqs.get(home_id, 0) - len(
                recovered.alerts_of(home_id)
            )
            stream = before[home_id][:restored] + recovered.alerts_of(home_id)
            assert canonical_alerts(stream) == canonical_alerts(expected), home_id
            assert recovered.alert_seqs.get(home_id, 0) == len(expected)
            assert dict(recovered.runtime_of(home_id).drops.counts) == dict(
                reference.runtime_of(home_id).drops.counts
            ), home_id
        expected_ids = {
            alert_id
            for home_id, alerts in oracle.alerts.items()
            for alert_id in _expected_ids(home_id, alerts)
        }
        assert set(recovered.outbox.delivered_ids()) == expected_ids
        assert not recovered.outbox.dead_letters()
