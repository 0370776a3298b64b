"""Network chaos: kill-and-recover through a live loopback ingest service.

The chaos driver's service layer, pinned on every run: targeted trials,
a small seeded batch, and the 20-trial CI batch against the golden.  The
contract — byte-identical per-home alerts and evidence, exact
at-least-once ingest accounting, at-least-once outbox delivery — is
judged by the same ``judge`` as the standalone and fleet layers.
"""

import os

import pytest

from repro.faults.crash import TrialPlan, build_chaos_fleet, chaos_oracle, run_chaos, run_trial
from tests.faults.chaos_golden import GOLDEN


@pytest.fixture(scope="module")
def fleet():
    return chaos_oracle(*build_chaos_fleet(7, num_homes=2))


class TestServiceTrial:
    def test_kill_and_recover_is_exact(self, fleet, tmp_path):
        total = len(fleet.merged)
        plan = TrialPlan(kill=total // 2, faults=True, shards_before=2, shards_after=2)
        result = run_trial("service", fleet, plan, os.fspath(tmp_path))
        assert result.ok, result
        assert result.mode == "service"
        assert not result.checkpointed

    def test_checkpoint_torn_tail_and_reshard(self, fleet, tmp_path):
        total = len(fleet.merged)
        plan = TrialPlan(
            kill=(2 * total) // 3,
            checkpoint=total // 3,
            torn=True,
            faults=True,
            shards_before=1,
            shards_after=4,
        )
        result = run_trial("service", fleet, plan, os.fspath(tmp_path))
        assert result.ok, result
        assert result.checkpointed
        assert result.torn

    def test_faultless_baseline(self, fleet, tmp_path):
        total = len(fleet.merged)
        plan = TrialPlan(kill=total // 2, shards_before=2, shards_after=2)
        result = run_trial("service", fleet, plan, os.fspath(tmp_path))
        assert result.ok, result


class TestChaosBatch:
    def test_randomized_batch_is_green(self, tmp_path):
        report = run_chaos(
            "service", os.fspath(tmp_path), units=1, kills=3, num_homes=2, seed=5
        )
        summary = report.summary()
        assert summary["trials"] == 3
        assert report.ok, summary
        assert summary["delivered"] > 0

    def test_ci_batch_matches_golden(self, tmp_path):
        # The CI chaos-smoke service batch: the golden's trials and verdicts,
        # now including provenance parity on every trial.
        sizes = GOLDEN["sizes"]["service"]
        report = run_chaos("service", os.fspath(tmp_path), seed=0, **sizes)
        assert report.summary() == GOLDEN["summaries"]["service"]
