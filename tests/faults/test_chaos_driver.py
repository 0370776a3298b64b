"""The one chaos-trial driver: plan sampler, verdict report, layer options.

The batch trials themselves are exercised per layer in
``tests/durability`` (standalone, fleet) and ``tests/service`` (service).
"""

import os

import pytest

from repro.faults import FaultType
from repro.faults import crash
from repro.faults.crash import (
    LAYERS,
    ChaosReport,
    CrashTrialResult,
    run_chaos,
    sample_plans,
)
from tests.faults.chaos_golden import GOLDEN


class TestPlanSampler:
    @pytest.mark.parametrize("layer", list(LAYERS))
    def test_plans_match_golden(self, layer):
        fields = GOLDEN["fields"]
        plans = [
            [getattr(plan, name) for name in fields]
            for _, _, plan in sample_plans(layer, seed=0, **GOLDEN["sizes"][layer])
        ]
        assert plans == GOLDEN["plans"][layer]

    def test_service_tear_order_is_a_seeded_permutation(self):
        sizes = GOLDEN["sizes"]["service"]
        for _, (deployments, _), plan in sample_plans("service", seed=0, **sizes):
            if plan.torn:
                assert sorted(plan.tear_order) == list(range(len(deployments)))
            else:
                assert plan.tear_order == ()

    def test_units_share_their_deployments(self):
        units = {}
        for unit_seed, unit, _ in sample_plans("fleet", units=2, kills=3, seed=4):
            assert units.setdefault(unit_seed, unit) is unit
        assert sorted(units) == [4000, 4001]


def _result(**verdicts):
    fields = dict(
        mode="fleet",
        deploy_seed=7,
        kill_index=120,
        total_events=900,
        checkpointed=True,
        torn=False,
        parity=True,
        counters_monotone=True,
        delivery_ok=True,
        replayed_alerts=3,
        delivered=40,
        dead_letters=0,
        shards_before=2,
        shards_after=4,
    )
    fields.update(verdicts)
    return CrashTrialResult(**fields)


class TestReport:
    def test_provenance_only_failure_is_named(self):
        trial = _result(provenance_parity=False)
        assert not trial.ok
        assert trial.failures == ["provenance_parity"]
        summary, fail = ChaosReport("fleet", [trial]).lines()
        assert summary.endswith("-> FAIL")
        assert fail == (
            "  FAIL fleet seed=7 kill=120/900 shards=2->4 torn=False "
            "checkpointed=True failed=provenance_parity"
        )

    def test_every_false_verdict_is_named(self):
        trial = _result(parity=False, delivery_ok=False, provenance_parity=False)
        _, fail = ChaosReport("fleet", [trial]).lines()
        assert fail.endswith("failed=parity,delivery_ok,provenance_parity")

    def test_passing_trials_print_only_the_summary(self):
        report = ChaosReport("service", [_result(mode="service")] * 2)
        assert report.lines() == [
            "service: 2 trials (0 torn, 2 checkpointed), 80 alerts delivered, "
            "0 dead-lettered -> OK"
        ]


class TestServiceLayerOptions:
    """``--fault-class`` and ``--fsync`` reach the service layer too."""

    def test_fault_class_and_fsync_reach_the_service_trials(self, tmp_path, monkeypatch):
        oracles, fsyncs = [], set()
        real_oracle = crash.chaos_oracle

        def spy_oracle(deployments, merged=None):
            oracles.append(deployments)
            return real_oracle(deployments, merged)

        class SpyGateway(crash.DurableFleetGateway):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fsyncs.update(journal.fsync for journal in self.journals.values())

        monkeypatch.setattr(crash, "chaos_oracle", spy_oracle)
        monkeypatch.setattr(crash, "DurableFleetGateway", SpyGateway)
        report = run_chaos(
            "service",
            os.fspath(tmp_path),
            units=1,
            kills=1,
            num_homes=2,
            seed=0,
            fsync="always",
            fault_class=FaultType.STUCK_AT,
        )
        assert report.ok, report.summary()
        (deployments,) = oracles
        assert [dep.fault_class for dep in deployments] == [FaultType.STUCK_AT] * 2
        assert fsyncs == {"always"}


class TestCounterFloor:
    """Replay never undercuts a home's checkpointed alert counter — judged
    for every home on every layer."""

    @staticmethod
    def _checkpointed_trial(layer):
        for _, unit, plan in sample_plans(layer, units=1, kills=8, num_homes=2, seed=0):
            if plan.checkpointed:
                return crash.chaos_oracle(*unit), plan
        raise AssertionError("no checkpointed plan drawn")

    @pytest.mark.parametrize("layer", ["standalone", "fleet"])
    def test_floor_covers_every_home(self, layer, tmp_path, monkeypatch):
        seen = []
        real = crash._floor_holds

        def spy(at_checkpoint, after_replay):
            seen.append((at_checkpoint, after_replay))
            return real(at_checkpoint, after_replay)

        monkeypatch.setattr(crash, "_floor_holds", spy)
        oracle, plan = self._checkpointed_trial(layer)
        assert crash.run_trial(layer, oracle, plan, os.fspath(tmp_path)).ok
        ((at_checkpoint, after_replay),) = seen
        homes = {dep.home_id for dep in oracle.deployments}
        assert set(at_checkpoint) == set(after_replay) == homes
        assert all(after_replay[h] >= at_checkpoint[h] for h in homes)

    @pytest.mark.parametrize("layer", ["standalone", "fleet"])
    def test_an_undercut_floor_fails_the_counters_verdict(
        self, layer, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(crash, "_floor_holds", lambda *_: False)
        oracle, plan = self._checkpointed_trial(layer)
        result = crash.run_trial(layer, oracle, plan, os.fspath(tmp_path))
        assert result.failures == ["counters_monotone"]
