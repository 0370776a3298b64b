"""Fleet crash recovery: per-home journals, resharding, at-least-once.

Journals are keyed by home, not shard, so a fleet may come back with a
different shard count and still replay every home's tail exactly —
the chaos batch randomizes shard layouts across the crash to prove it.
"""

import pytest

from repro.durability import DURABILITY_SIDECAR, DurableFleetGateway
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

    def test_sidecar_written_with_checkpoint(self, fleet, tmp_path):
        import json
        import os

        from repro.durability import DURABILITY_SCHEMA

        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[: len(merged) // 4])
        durable.save_checkpoint(tmp_path / "ckpt")
        durable.close()
        sidecar_path = os.path.join(tmp_path, "ckpt", DURABILITY_SIDECAR)
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        assert sidecar["schema"] == DURABILITY_SCHEMA
        assert set(sidecar["journal_epochs"]) == {d.home_id for d in deployments}

    def test_only_current_checkpoint_versions_restore(self, fleet, tmp_path):
        # One checkpoint version per layer: a v4 runtime snapshot, a /2
        # fleet manifest and a /1 durability sidecar are each refused with
        # a CheckpointError naming the version found.
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

        def stamped(name, key, value):
            doc = json.loads((ckpt / name).read_text())
            return dict(doc, **{key: value})

        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        home_id = deployments[0].home_id
        snapshot = stamped(manifest["homes"][home_id]["file"], "version", 4)
        with pytest.raises(CheckpointError, match="version 4"):
            restore_runtime(fitted()[home_id], snapshot)

        (ckpt / MANIFEST_NAME).write_text(
            json.dumps(dict(manifest, schema="dice-fleet-manifest/2"))
        )
        with pytest.raises(CheckpointError, match="dice-fleet-manifest/2"):
            DurableFleetGateway.recover(fitted(), journals, checkpoint_dir=ckpt)
        (ckpt / MANIFEST_NAME).write_text(json.dumps(manifest))

        sidecar = stamped(DURABILITY_SIDECAR, "schema", "dice-fleet-durability/1")
        (ckpt / DURABILITY_SIDECAR).write_text(json.dumps(sidecar))
        with pytest.raises(CheckpointError, match="dice-fleet-durability/1"):
            DurableFleetGateway.recover(fitted(), journals, checkpoint_dir=ckpt)

    def test_recover_refuses_checkpoint_without_durability_section(
        self, fleet, tmp_path
    ):
        # A plain runtime snapshot names no journal epoch and no alert
        # sequence: recovering from it would replay the whole journal on
        # top of the restored state and number alerts from 0 again.
        from repro.durability import DurableOnlineDice
        from repro.streaming import save_checkpoint

        deployments, _, _ = fleet
        dep = deployments[0]
        journals = tmp_path / "journals"
        durable = DurableOnlineDice(
            dep.fit_detector(), journals, home_id=dep.home_id, start=dep.split
        )
        durable.ingest_many(dep.events[:300])
        assert durable.alert_seq > 0
        plain, full = tmp_path / "plain.json", tmp_path / "durable.json"
        save_checkpoint(durable.runtime, plain)
        durable.save_checkpoint(full)
        durable.close()

        with pytest.raises(CheckpointError, match="'durability' section"):
            DurableOnlineDice.recover(
                dep.fit_detector(), journals, checkpoint_path=plain,
                home_id=dep.home_id, start=dep.split,
            )
        recovered, _ = DurableOnlineDice.recover(
            dep.fit_detector(), journals, checkpoint_path=full,
            home_id=dep.home_id, start=dep.split,
        )
        assert recovered.alert_seq == durable.alert_seq
        recovered.close()

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
