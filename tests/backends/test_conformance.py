"""The backend conformance battery: every registered backend, one contract.

Five properties, each an oracle the DICE pipeline already passes:

1. **streaming == batch** — replaying a live segment event-at-a-time
   through :class:`OnlineDice` raises exactly the alerts the backend's
   batch replay derives from the same segment in one pass (for DICE, also
   exactly the alerts of the reference loop in ``tests/reference_dice.py``);
2. **checkpoint-cut determinism** — cut the stream at a seeded-random
   event, serialize, restore onto a freshly fitted backend, replay the
   tail: the alert sequence and the *end-of-stream checkpoint bytes*
   match an uninterrupted run;
3. **quarantine masking** — a window checked with every sensor bit
   quarantined can never be a violation;
4. **hardened supervision** — a fail-stop victim under an aggressive
   supervisor policy quarantines cleanly and the stream completes;
5. **chaos crash-recovery** — the durability harness (journal + outbox +
   kill/recover) reaches alert parity with the uninterrupted oracle.

Fleet shard parity has its own module (``test_fleet_conformance.py``).
"""

import json
import random

import pytest

from repro import telemetry
from repro.core import create_backend
from repro.core.backend import _BatchWindow
from repro.faults.crash import (
    TrialPlan,
    build_chaos_deployment,
    chaos_oracle,
    run_trial,
)
from repro.streaming import (
    HardenedOnlineDice,
    OnlineDice,
    SupervisorPolicy,
    canonical_alerts,
    restore_runtime,
)
from tests import reference_dice
from tests.backends.conftest import (
    ALERTING_BACKENDS,
    HOUR,
    PERTURBATIONS,
    SEED,
    build_deployment,
    fit_backend,
    perturbed_live,
)

PARITY_TRIALS = 10


class TestStreamingBatchParity:
    def test_streaming_matches_batch_on_perturbed_traces(self, backend_name):
        rng = random.Random(SEED)
        total = 0
        for trial in range(PARITY_TRIALS):
            registry, trace, split = build_deployment(
                rng,
                hours=rng.choice([6.0, 8.0]),
                phase=rng.choice([300.0, 600.0]),
                k_binary=rng.randrange(2, 5),
            )
            live = perturbed_live(
                rng, trace, split, PERTURBATIONS[trial % len(PERTURBATIONS)]
            )
            streamed = fit_backend(backend_name, registry, trace, split)
            batched = fit_backend(backend_name, registry, trace, split)
            s = canonical_alerts(OnlineDice(streamed, start=live.start).replay(live))
            b = canonical_alerts(batched.process_batch(live))
            assert s == b, f"{backend_name} diverged on trial {trial}"
            if backend_name == "dice":
                # Both arms above share the backend template; the
                # independent reference loop is DICE's second opinion.
                reference = reference_dice.process(batched.dice_detector, live)
                r = canonical_alerts(reference_dice.report_alerts(reference))
                assert r == b, f"dice diverged from the reference on trial {trial}"
            total += s.count("'detection'") + s.count("'identification'")
        if backend_name in ALERTING_BACKENDS:
            # The corpus must exercise the pipeline, not compare silence.
            assert total > 0, f"{backend_name} never alerted on the corpus"


class TestCheckpointCut:
    def _policy(self):
        return SupervisorPolicy(
            silence_seconds=4 * HOUR, quarantine_seconds=8 * HOUR
        )

    def _runtime(self, backend, start):
        return HardenedOnlineDice(
            backend,
            start=start,
            lateness_seconds=120.0,
            policy=self._policy(),
            provenance=telemetry.NULL_PROVENANCE,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_cut_restore_is_byte_identical(self, backend_name, seed):
        rng = random.Random(SEED + seed)
        registry, trace, split = build_deployment(rng)
        kind = PERTURBATIONS[seed % len(PERTURBATIONS)]
        events = list(perturbed_live(rng, trace, split, kind))
        assert len(events) > 2

        def fitted():
            # NULL metrics: checkpoint bytes then carry no counter state,
            # so byte-comparison pins the runtime/model sections exactly.
            return fit_backend(
                backend_name,
                registry,
                trace,
                split,
                metrics=telemetry.NULL_REGISTRY,
            )

        full = self._runtime(fitted(), split)
        expected = full.ingest_many(events)
        expected += full.finish_stream(trace.end)

        cut = rng.randrange(1, len(events))
        first = self._runtime(fitted(), split)
        head = first.ingest_many(events[:cut])
        # Force a genuine serialize -> parse cycle, as a crash would.
        snapshot = json.loads(json.dumps(first.checkpoint()))
        assert snapshot["backend"] == backend_name
        resumed = restore_runtime(
            fitted(),
            snapshot,
            policy=self._policy(),
            provenance=telemetry.NULL_PROVENANCE,
        )
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(trace.end)

        assert canonical_alerts(head + tail) == canonical_alerts(expected), f"cut at {cut}"
        assert json.dumps(resumed.checkpoint(), sort_keys=True) == json.dumps(
            full.checkpoint(), sort_keys=True
        )


class TestQuarantineMasking:
    def test_full_quarantine_masks_every_violation(self, backend_name):
        # With every sensor bit quarantined a backend has no evidence left;
        # whatever its internal state, no window may be called a violation.
        # (No actuators: actuator activations are not quarantinable bits.)
        # This seed's corpus makes all three registered backends violate
        # with quarantine off, so the masking assertion is never vacuous.
        rng = random.Random(SEED + 26)
        registry, trace, split = build_deployment(rng, with_actuator=False)
        live = perturbed_live(rng, trace, split, "drop_device")
        masked = fit_backend(backend_name, registry, trace, split)
        open_eyes = fit_backend(backend_name, registry, trace, split)
        windows = masked.encode_window(live)
        assert len(windows) > 0
        qbits = (1 << masked.encoder.layout.num_bits) - 1
        seconds = masked.encoder.window_seconds
        masked_violations = open_violations = 0
        for i, (mask, acts) in enumerate(windows):
            snap = _BatchWindow(
                i,
                live.start + i * seconds,
                live.start + (i + 1) * seconds,
                mask,
                acts,
            )
            masked_violations += masked.observe_window(snap, qbits).violation
            open_violations += open_eyes.observe_window(snap, 0).violation
        assert masked_violations == 0
        assert open_violations > 0

    def test_fail_stop_victim_quarantines_and_stream_completes(
        self, backend_name
    ):
        rng = random.Random(SEED + 23)
        registry, trace, split = build_deployment(rng)
        victim = registry.device_ids[0]
        live = [
            e
            for e in trace.slice(split, trace.end)
            if e.device_id != victim
        ]
        backend = fit_backend(backend_name, registry, trace, split)
        runtime = HardenedOnlineDice(
            backend,
            start=split,
            policy=SupervisorPolicy(
                silence_seconds=600.0, quarantine_seconds=1200.0
            ),
        )
        runtime.ingest_many(live)
        runtime.finish_stream(trace.end)
        health = runtime.health()
        assert victim in health["quarantined"]
        assert health["drops"]["total"] == 0


class TestChaosRecovery:
    def test_crash_recovery_reaches_alert_parity(self, backend_name, tmp_path):
        deployment = build_chaos_deployment(42, backend=backend_name)
        n = len(deployment.events)
        result = run_trial(
            "standalone",
            chaos_oracle([deployment]),
            TrialPlan(kill=(3 * n) // 4, checkpoint=n // 2),
            str(tmp_path),
        )
        assert result.ok, f"{backend_name} lost parity after crash-recovery"
        assert result.checkpointed
