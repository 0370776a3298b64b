"""The chaos-trial driver: kill a durable gateway, recover, judge parity.

The durability contract says: kill the gateway anywhere — between events,
right after a checkpoint, or **mid-journal-write** (a torn tail) — and
``checkpoint + journal-tail replay`` reproduces the exact alert stream of
an uninterrupted run, with every alert delivered to the sink at least
once.  This module *tests that by doing it*, with one driver for every
layer the contract covers:

* ``standalone`` — one journaled home: a one-home, one-shard
  :class:`DurableFleetGateway`;
* ``fleet`` — a sharded :class:`DurableFleetGateway`, possibly resharded
  on restore;
* ``service`` — a live loopback :class:`~repro.service.IngestServer`
  killed while retrying clients stream into it (optionally through the
  :class:`~repro.faults.net.NetFaultInjector`), restarted on the same
  port from recovery.

A trial is keyed by *layer* × :class:`TrialPlan`.  :func:`sample_plans`
is the one plan sampler (each layer draws from its own seeded stream);
:func:`run_trial` runs the layer's two lives — before the kill, and the
recovered one — and :func:`judge` builds the verdict the same way for
every layer: per-home alert parity against the uninterrupted oracle,
exact alert counters, byte-identical evidence archives, and at-least-once
outbox delivery (the service layer adds exact ingest accounting).
:func:`run_chaos` is the batch loop over both.

Crash model
-----------
A *process* crash loses user-space buffers but not the OS page cache, so
the driver closes file handles (flush-to-OS) before abandoning the
runtime object.  A *power* crash can also tear the last journal record
mid-write; the driver simulates that by chopping bytes off the end of
the newest segment — strictly fewer than the final record's frame, so
the CRC check must detect and discard it.  The write-ahead discipline
makes the torn case recoverable: the journal append precedes processing,
so a record torn on disk corresponds to an event whose effects the
recovered state must not contain — the source re-feeds it, exactly as a
resumed pipe would.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core import DiceDetector
from ..durability import (
    AlertOutbox,
    DurableFleetGateway,
    FileSink,
    FlakySink,
    ProvenanceLog,
    alert_record,
    encode_record,
    event_to_record,
    list_segments,
)
from ..fleet import FleetGateway
from ..model import (
    DeviceRegistry,
    Event,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)
from ..service import IngestServer, ServiceClient, ServiceConfig, ServiceThread
from ..streaming import Alert, HardenedOnlineDice, SupervisorPolicy, canonical_alerts
from ..streaming.guard import OVERLOAD
from ..streaming.runtime import ALERTS_TOTAL
from ..telemetry.provenance import canonical_record_bytes
from .models import FaultType, InjectedFault, apply_fault
from .net import NetFaultInjector
from .pipe import PipeFaultInjector, PipeFaultSpec, PipeFaultType

_log = telemetry.get_logger("repro.faults.crash")

HOUR = 3600.0

#: Runtime knobs every chaos run (oracle and crashed) shares — parity
#: only means anything when both sides run the same configuration.
LATENESS_SECONDS = 120.0
POLICY = SupervisorPolicy(silence_seconds=400.0, quarantine_seconds=800.0)

#: The chaos layers and the offset of each one's plan stream from the
#: batch seed (the offsets every historical seed was drawn with).
LAYERS = {"standalone": 0, "fleet": 7, "service": 13}

#: The share of service trials that run their clients through network faults.
SERVICE_FAULT_RATE = 0.7


# --------------------------------------------------------------------- #
# Synthetic chaos deployments
# --------------------------------------------------------------------- #


def _chaos_registry(prefix: str = "") -> DeviceRegistry:
    return DeviceRegistry(
        [
            binary_sensor(f"{prefix}motion_kitchen", SensorType.MOTION, "kitchen"),
            binary_sensor(f"{prefix}motion_bedroom", SensorType.MOTION, "bedroom"),
            numeric_sensor(f"{prefix}temp_kitchen", SensorType.TEMPERATURE, "kitchen"),
            actuator(f"{prefix}hue_kitchen", SensorType.BULB, "kitchen"),
        ]
    )


def _cyclic_trace(
    registry: DeviceRegistry, hours: float, phase_seconds: float
) -> Trace:
    """Alternating kitchen/bedroom phases with a temperature ramp and a
    bulb activation — enough context structure for every DICE stage."""
    times: List[float] = []
    devs: List[int] = []
    vals: List[float] = []
    horizon = hours * HOUR
    t = 0.0
    while t < horizon:
        half = phase_seconds / 2.0
        for s in np.arange(t, t + half, 30.0):
            times.append(float(s)), devs.append(0), vals.append(1.0)
        for s in np.arange(t, t + half, 20.0):
            times.append(float(s)), devs.append(2), vals.append(25.0 + (s - t) / 60.0)
        times.append(t + 70.0), devs.append(3), vals.append(1.0)
        times.append(t + half), devs.append(3), vals.append(0.0)
        for s in np.arange(t + half, t + phase_seconds, 30.0):
            times.append(float(s)), devs.append(1), vals.append(1.0)
        for s in np.arange(t + half, t + phase_seconds, 20.0):
            times.append(float(s))
            devs.append(2)
            vals.append(25.0 + (t + phase_seconds - s) / 60.0)
        t += phase_seconds
    arr_t = np.array(times)
    keep = arr_t < horizon  # the final phase may overshoot the horizon
    return Trace(
        registry,
        arr_t[keep],
        np.array(devs, dtype=np.int32)[keep],
        np.array(vals)[keep],
        start=0.0,
        end=horizon,
    )


@dataclass
class ChaosDeployment:
    """One seeded synthetic home plus the adversarial live arrival stream."""

    home_id: str
    registry: DeviceRegistry
    trace: Trace
    split: float  # training is [start, split); live is [split, end)
    events: List[Event]  # live arrival sequence, pipe faults applied
    fault_device: str
    fault_time: float
    fault_class: FaultType = FaultType.FAIL_STOP
    backend: str = "dice"

    @property
    def end(self) -> float:
        return self.trace.end

    def fit_detector(
        self, metrics: Optional["telemetry.MetricsRegistry"] = None
    ):
        """A fresh fitted detector (fresh metrics, so trial runs never
        share counters or memo state with each other).

        A ``dice`` deployment returns the bare :class:`DiceDetector` —
        byte-compatible with every pre-backend chaos seed — while other
        backends return the fitted :class:`~repro.core.DetectorBackend`.
        """
        if metrics is None:
            metrics = telemetry.MetricsRegistry()
        train = self.trace.slice(self.trace.start, self.split)
        if self.backend == "dice":
            return DiceDetector(self.registry, metrics=metrics).fit(train)
        from ..core import create_backend

        return create_backend(self.backend, self.registry, metrics=metrics).fit(
            train
        )


def build_chaos_deployment(
    seed: int,
    home_id: str = "home-0000",
    *,
    hours: float = 4.5,
    fault_class: FaultType = FaultType.FAIL_STOP,
    backend: str = "dice",
) -> ChaosDeployment:
    """A pure function of ``(seed, home_id, hours, fault_class, backend)``.

    The live segment carries a seeded device fault — fail-stop by default
    (one motion sensor goes silent), or any Ch. IV.2 class via
    *fault_class* — plus reorder/duplicate/corrupt pipe faults, so crash
    points land among detections, open identification sessions,
    quarantines and guarded drops — the states a recovery must reproduce.
    """
    rng = np.random.default_rng(seed)
    phase = float(rng.choice([480.0, 600.0, 720.0]))
    registry = _chaos_registry(prefix=f"{home_id}_")
    trace = _cyclic_trace(registry, hours, phase)
    split = 3.0 * HOUR
    live = list(trace.slice(split, trace.end))
    sensors = [d.device_id for d in registry if not d.is_actuator][:2]
    victim = sensors[int(rng.integers(len(sensors)))]
    fault_time = split + (0.3 + 0.4 * float(rng.random())) * (trace.end - split)
    if fault_class is FaultType.FAIL_STOP:
        # Kept as the original event-list filter so pre-existing seeds
        # reproduce byte-identical deployments.
        live = [
            e
            for e in live
            if not (e.device_id == victim and e.timestamp >= fault_time)
        ]
    else:
        faulty = apply_fault(
            trace,
            InjectedFault(victim, fault_class, fault_time),
            np.random.default_rng(seed + 2),
        )
        live = list(faulty.slice(split, faulty.end))
    injector = PipeFaultInjector(
        np.random.default_rng(seed + 1),
        [
            PipeFaultSpec(PipeFaultType.REORDER, max_delay_seconds=60.0),
            PipeFaultSpec(PipeFaultType.DUPLICATE, rate=0.08, max_delay_seconds=60.0),
            PipeFaultSpec(PipeFaultType.CORRUPT_VALUE, rate=0.02),
        ],
    )
    return ChaosDeployment(
        home_id=home_id,
        registry=registry,
        trace=trace,
        split=split,
        events=injector.apply(live),
        fault_device=victim,
        fault_time=fault_time,
        fault_class=fault_class,
        backend=backend,
    )


def build_chaos_fleet(
    seed: int,
    num_homes: int = 3,
    fault_class: FaultType = FaultType.FAIL_STOP,
) -> Tuple[List[ChaosDeployment], List[Tuple[str, Event]]]:
    """*num_homes* chaos deployments plus their merged arrival stream."""
    deployments = [
        build_chaos_deployment(
            seed * 100 + i, home_id=f"home-{i:04d}", fault_class=fault_class
        )
        for i in range(num_homes)
    ]
    merged: List[Tuple[float, int, str, Event]] = []
    for order, dep in enumerate(deployments):
        for event in dep.events:
            merged.append((event.timestamp, order, dep.home_id, event))
    merged.sort(key=lambda item: (item[0], item[1]))
    return deployments, [(home_id, event) for _, _, home_id, event in merged]


def _fresh_fleet(
    deployments: Sequence[ChaosDeployment],
    detectors: Dict[str, DiceDetector],
    num_shards: int,
) -> FleetGateway:
    gateway = FleetGateway(num_shards, metrics=telemetry.NULL_REGISTRY)
    for dep in deployments:
        gateway.add_runtime(
            dep.home_id,
            HardenedOnlineDice(
                detectors[dep.home_id],
                start=dep.split,
                lateness_seconds=LATENESS_SECONDS,
                policy=POLICY,
            ),
        )
    return gateway


def _fit_all(deployments: Sequence[ChaosDeployment]) -> Dict[str, DiceDetector]:
    return {dep.home_id: dep.fit_detector() for dep in deployments}


# --------------------------------------------------------------------- #
# Canonicalization & counters
# --------------------------------------------------------------------- #


def canonical_provenance(records: Sequence[dict]) -> Dict[str, bytes]:
    """Trace id → exact journal bytes, the form provenance parity compares.

    Keyed by id (not ordered) because the recovered archive interleaves
    pre-crash appends with replay-regenerated ones; the contract is that
    every record exists exactly once with byte-identical evidence, not
    that append order survives the crash."""
    return {record["id"]: canonical_record_bytes(record) for record in records}


def _counter_total(metrics: "telemetry.MetricsRegistry", name: str) -> float:
    entry = metrics.snapshot()["metrics"].get(name)
    if entry is None:
        return 0.0
    return float(sum(row["value"] for row in entry["series"]))


def _expected_ids(home_id: str, alerts: Sequence[Alert]) -> List[str]:
    return [
        alert_record(home_id, seq, alert)["id"]
        for seq, alert in enumerate(alerts, start=1)
    ]


def tear_final_record(journal_dir: str, last_event: Event, rng) -> int:
    """Chop bytes off the newest segment so its final record fails CRC.

    Removes between 1 and ``frame_size - 1`` bytes — never the whole
    frame, so the file provably ends in a *partial* record that the
    reader must detect and discard.  Returns the number of bytes cut.
    """
    segments = list_segments(journal_dir)
    if not segments:
        return 0
    path = segments[-1][1]
    frame = len(encode_record(event_to_record(last_event)))
    size = os.path.getsize(path)
    if size < frame:
        return 0
    cut = int(rng.integers(1, frame))
    with open(path, "ab") as handle:
        handle.truncate(size - cut)
    return cut


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


@dataclass
class ChaosOracle:
    """The uninterrupted run a trial over *deployments* is judged against."""

    deployments: Sequence[ChaosDeployment]
    merged: Sequence[Tuple[str, Event]]  # the arrival stream every life replays
    alerts: Dict[str, List[Alert]]
    provenance: Dict[str, Dict[str, bytes]]  # per home, canonical form


def chaos_oracle(
    deployments: Sequence[ChaosDeployment],
    merged: Optional[Sequence[Tuple[str, Event]]] = None,
) -> ChaosOracle:
    """Per-home alert streams and evidence archives of an uninterrupted
    single-shard run over *merged* (default: the one home's own arrival
    order — the standalone case, where a one-shard fleet raises exactly
    the bare runtime's alerts and evidence)."""
    if merged is None:
        (dep,) = deployments
        merged = [(dep.home_id, event) for event in dep.events]
    detectors = {
        dep.home_id: dep.fit_detector(metrics=telemetry.NULL_REGISTRY)
        for dep in deployments
    }
    gateway = _fresh_fleet(deployments, detectors, num_shards=1)
    gateway.dispatch(merged)
    gateway.finish({dep.home_id: dep.end for dep in deployments})
    return ChaosOracle(
        deployments,
        merged,
        {dep.home_id: gateway.alerts_of(dep.home_id) for dep in deployments},
        {
            dep.home_id: canonical_provenance(
                gateway.runtime_of(dep.home_id).provenance.records()
            )
            for dep in deployments
        },
    )


# --------------------------------------------------------------------- #
# Plans, results and the report
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TrialPlan:
    """Where one trial kills, checkpoints and tears, and what it varies.

    ``kill`` and ``checkpoint`` count events applied (fleet-wide).
    """

    kill: int
    checkpoint: Optional[int] = None
    torn: bool = False  # tear the newest journal record after the kill
    faults: bool = False  # service: network faults on every client
    shards_before: int = 1
    shards_after: int = 1
    #: Seeds the tear's byte count (standalone, fleet) or the service
    #: trial's clients, outbox jitter and tear.
    seed: Optional[int] = 0
    #: Service: the order homes are tried in for a journal to tear
    #: (empty: home order).
    tear_order: Tuple[int, ...] = ()

    @property
    def checkpointed(self) -> bool:
        return self.checkpoint is not None and 0 < self.checkpoint < self.kill


#: The verdict fields of a :class:`CrashTrialResult`, all of which must hold.
VERDICTS = ("parity", "counters_monotone", "delivery_ok", "provenance_parity")


@dataclass
class CrashTrialResult:
    """One kill-and-recover cycle, judged against the uninterrupted run."""

    mode: str  # the layer: "standalone", "fleet" or "service"
    deploy_seed: int
    kill_index: int
    total_events: int
    checkpointed: bool
    torn: bool
    parity: bool
    counters_monotone: bool
    delivery_ok: bool
    replayed_alerts: int
    delivered: int
    dead_letters: int
    shards_before: int = 1
    shards_after: int = 1
    #: Every provenance record in the recovered archive is byte-identical
    #: to the uninterrupted run's evidence.
    provenance_parity: bool = True

    @property
    def failures(self) -> List[str]:
        """The names of the verdict fields that do not hold."""
        return [name for name in VERDICTS if not getattr(self, name)]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ChaosReport:
    """Aggregate verdict over a batch of trials on one layer."""

    layer: str = ""
    trials: List[CrashTrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    def summary(self) -> dict:
        return {
            "trials": len(self.trials),
            "ok": self.ok,
            "parity_failures": sum(1 for t in self.trials if not t.parity),
            "counter_failures": sum(
                1 for t in self.trials if not t.counters_monotone
            ),
            "delivery_failures": sum(1 for t in self.trials if not t.delivery_ok),
            "provenance_failures": sum(
                1 for t in self.trials if not t.provenance_parity
            ),
            "torn_trials": sum(1 for t in self.trials if t.torn),
            "checkpointed_trials": sum(1 for t in self.trials if t.checkpointed),
            "delivered": sum(t.delivered for t in self.trials),
            "dead_letters": sum(t.dead_letters for t in self.trials),
        }

    def lines(self) -> List[str]:
        """The summary line, then one FAIL line per failed trial naming
        every verdict field that does not hold."""
        s = self.summary()
        lines = [
            f"{self.layer}: {s['trials']} trials ({s['torn_trials']} torn, "
            f"{s['checkpointed_trials']} checkpointed), "
            f"{s['delivered']} alerts delivered, "
            f"{s['dead_letters']} dead-lettered -> {'OK' if self.ok else 'FAIL'}"
        ]
        for t in self.trials:
            if t.failures:
                lines.append(
                    f"  FAIL {t.mode} seed={t.deploy_seed} "
                    f"kill={t.kill_index}/{t.total_events} "
                    f"shards={t.shards_before}->{t.shards_after} "
                    f"torn={t.torn} checkpointed={t.checkpointed} "
                    f"failed={','.join(t.failures)}"
                )
        return lines


# --------------------------------------------------------------------- #
# The plan sampler
# --------------------------------------------------------------------- #


def sample_plans(
    layer: str,
    *,
    units: int,
    kills: int,
    num_homes: int = 3,
    seed: int = 0,
    fault_class: FaultType = FaultType.FAIL_STOP,
    shard_choices: Sequence[int] = (1, 2, 4),
) -> Iterator[Tuple[int, tuple, TrialPlan]]:
    """Yield ``(unit_seed, (deployments, merged), plan)`` for *units*
    seeded deployments (one home standalone, *num_homes* otherwise) ×
    *kills* plans each, from the layer's stream ``seed + LAYERS[layer]``.

    Each plan is drawn in the order every existing seed was drawn in:
    kill, checkpoint, tear, transport faults (service), shard layouts
    (fleet, service), then the tear seed (torn standalone/fleet trials),
    or the trial seed and, when torn, the order homes are tried for a
    journal to tear (service).
    """
    rng = np.random.default_rng(seed + LAYERS[layer])
    service = layer == "service"
    for u in range(units):
        unit_seed = seed * 1000 + u
        if layer == "standalone":
            dep = build_chaos_deployment(unit_seed, fault_class=fault_class)
            unit = ([dep], [(dep.home_id, event) for event in dep.events])
        else:
            unit = build_chaos_fleet(unit_seed, num_homes, fault_class)
        for _ in range(kills):
            kill = int(rng.integers(2, len(unit[1])))
            checkpoint: Optional[int] = None
            if rng.random() < 0.5 and kill > 2:
                checkpoint = int(rng.integers(1, kill))
            torn = bool(rng.random() < 0.34)
            faults = bool(rng.random() < SERVICE_FAULT_RATE) if service else False
            shards = (1, 1)
            if layer != "standalone":
                shards = (int(rng.choice(shard_choices)), int(rng.choice(shard_choices)))
            trial_seed = int(rng.integers(1 << 31)) if service or torn else None
            tear_order: Tuple[int, ...] = ()
            if service and torn:
                tear_order = tuple(int(i) for i in rng.permutation(len(unit[0])))
            plan = TrialPlan(kill, checkpoint, torn, faults, *shards, trial_seed, tear_order)
            yield unit_seed, unit, plan


# --------------------------------------------------------------------- #
# The three layers' lives
# --------------------------------------------------------------------- #


def _outbox(
    workdir: str, seed: Optional[int], flaky_failures: int, max_attempts: int
) -> AlertOutbox:
    """One life's outbox: shared directory, a sink that fails each alert's
    first *flaky_failures* attempts, and no real backoff sleeps."""
    sink = FlakySink(
        FileSink(os.path.join(workdir, "delivered.jsonl")), failures=flaky_failures
    )
    return AlertOutbox(
        os.path.join(workdir, "outbox"),
        sink,
        max_attempts=max_attempts,
        sleep=lambda _s: None,
        jitter_seed=seed,
        metrics=telemetry.NULL_REGISTRY,
    )


@dataclass
class _Recovered:
    """What a layer's two lives hand the judge."""

    alerts: Dict[str, List[Alert]]  # per home: checkpoint prefix + recovered
    counters: Dict[str, float]  # per home: the final alert counter
    outbox: AlertOutbox  # the recovered life's
    replayed: int
    torn: bool  # a journal record was actually torn
    #: Every home's counter after replay is at least its checkpoint value.
    counters_floor: bool = True
    healthy: bool = True  # service: every client and stream close succeeded
    #: Service: every event journaled exactly once and nothing shed.
    ingest_exact: bool = True


def _tear(plan: TrialPlan, journal_root: str, merged) -> int:
    """Tear the record of the last event fed before the kill, when the
    plan says so; return where the source resumes (it re-feeds a torn
    event, which never durably happened)."""
    if plan.torn:
        home_id, event = merged[plan.kill - 1]
        journal = os.path.join(journal_root, home_id)
        if tear_final_record(journal, event, np.random.default_rng(plan.seed)):
            return plan.kill - 1
    return plan.kill


def _recover_fleet(
    deployments: Sequence[ChaosDeployment],
    journal_root: str,
    ckpt_dir: Optional[str],
    num_shards: int,
    fsync: str,
    outbox: AlertOutbox,
    detectors: Optional[Dict[str, DiceDetector]] = None,
) -> Tuple[DurableFleetGateway, List]:
    detectors = detectors or _fit_all(deployments)
    return DurableFleetGateway.recover(
        detectors,
        journal_root,
        checkpoint_dir=ckpt_dir,
        gateway=(
            None
            if ckpt_dir is not None
            else _fresh_fleet(deployments, detectors, num_shards)
        ),
        num_shards=num_shards,
        fsync=fsync,
        outbox=outbox,
        lateness_seconds=LATENESS_SECONDS,
        policy=POLICY,
    )


def _alerts_by_home(durable: DurableFleetGateway, homes) -> Dict[str, List[Alert]]:
    return {home_id: list(durable.alerts_of(home_id)) for home_id in homes}


def _counters_by_home(durable: DurableFleetGateway, homes) -> Dict[str, float]:
    return {
        home_id: _counter_total(durable.gateway.runtime_of(home_id).metrics, ALERTS_TOTAL)
        for home_id in homes
    }


def _floor_holds(at_checkpoint: Dict[str, float], after_replay: Dict[str, float]) -> bool:
    """No home's alert counter after replay undercuts its checkpoint value."""
    return all(after_replay[h] >= at_checkpoint.get(h, 0.0) for h in after_replay)


def _fleet_lives(
    oracle: ChaosOracle, plan: TrialPlan, workdir: str, fsync: str, make_outbox
) -> _Recovered:
    """Kill a fleet mid-stream, recover (possibly resharded), finish.

    The ``standalone`` layer is the one-home, one-shard case."""
    deployments, merged = oracle.deployments, oracle.merged
    homes = [dep.home_id for dep in deployments]
    journal_root = os.path.join(workdir, "journals")
    ckpt_dir = os.path.join(workdir, "fleet-ckpt")
    durable = DurableFleetGateway(
        _fresh_fleet(deployments, _fit_all(deployments), plan.shards_before),
        journal_root,
        fsync=fsync,
        outbox=make_outbox(),
    )
    prefix: Dict[str, List[Alert]] = {home_id: [] for home_id in homes}
    at_checkpoint: Dict[str, float] = {}
    begin = 0
    if plan.checkpointed:
        durable.dispatch(merged[: plan.checkpoint])
        durable.save_checkpoint(ckpt_dir)
        # Restore does not resurrect alert *history* (those alerts were
        # already delivered); the end-to-end stream is prefix + recovered.
        prefix = _alerts_by_home(durable, homes)
        at_checkpoint = _counters_by_home(durable, homes)
        begin = plan.checkpoint
    durable.dispatch(merged[begin : plan.kill])
    durable.deliver_pending()  # some alerts reach the sink pre-crash
    durable.close()  # process crash: user buffers flush to the OS, then death

    resume = _tear(plan, journal_root, merged)
    outbox = make_outbox()
    recovered, replayed = _recover_fleet(
        deployments,
        journal_root,
        ckpt_dir if plan.checkpointed else None,
        plan.shards_after,
        fsync,
        outbox,
    )
    after_replay = _counters_by_home(recovered, homes)
    recovered.dispatch(merged[resume:])
    recovered.finish({dep.home_id: dep.end for dep in deployments})
    recovered.deliver_pending()
    recovered.close()
    return _Recovered(
        alerts={h: prefix[h] + recovered.alerts_of(h) for h in homes},
        counters=_counters_by_home(recovered, homes),
        outbox=outbox,
        replayed=len(replayed),
        torn=resume != plan.kill,
        counters_floor=_floor_holds(at_checkpoint, after_replay),
    )


def _service_lives(
    oracle: ChaosOracle, plan: TrialPlan, workdir: str, fsync: str, make_outbox
) -> _Recovered:
    """One network kill-and-recover cycle against a live loopback server.

    Phase 1 streams every home concurrently through retrying clients
    (barrier-synced, streams left open).  When the fleet-wide applied
    count crosses ``plan.kill`` the server dies abruptly — after an
    optional mid-run checkpoint, and with an optional torn journal tail
    (the mid-append death; the client re-sends the torn event because the
    recovered ``applied`` count excludes it).  A recovered server takes
    over the same port; once every client reports its full stream
    applied, phase 2 closes each home's stream exactly once.
    """
    deployments = oracle.deployments
    homes = [dep.home_id for dep in deployments]
    journal_root = os.path.join(workdir, "journals")
    ckpt_dir = os.path.join(workdir, "fleet-ckpt")
    total = len(oracle.merged)
    trial_seed = plan.seed

    # Fit both generations up front so the restart gap stays short.
    detectors_before = _fit_all(deployments)
    detectors_after = _fit_all(deployments)
    config = ServiceConfig(
        queue_capacity=8192, read_timeout_s=5.0, frame_timeout_s=5.0, ack_every=16
    )
    durable = DurableFleetGateway(
        _fresh_fleet(deployments, detectors_before, plan.shards_before),
        journal_root,
        fsync=fsync,
        outbox=make_outbox(),
    )
    handle = ServiceThread(IngestServer(durable, config)).start()
    port = handle.port
    errors: List[BaseException] = []

    # The checkpoint must land between two known applied counts or the
    # consumer can race past it (even to the end of every stream) before
    # the checkpoint callback runs on the loop, truncating away the very
    # tail a torn trial wants to damage.  So when a checkpoint is planned
    # the clients send in two waves: wave 1 is each home's proportional
    # prefix of ``plan.checkpoint`` events, confirmed applied before the
    # checkpoint is taken with nothing in flight; wave 2 resumes by
    # sequence and the kill lands mid-wave, guaranteeing post-checkpoint
    # journal bytes exist to tear.
    wave1_done = [threading.Event() for _ in deployments]
    wave2_gate = threading.Event()

    def client_main(index: int, dep: ChaosDeployment) -> None:
        injector = None
        if plan.faults:
            injector = NetFaultInjector(
                np.random.default_rng(trial_seed * 7919 + index)
            )
        client = ServiceClient(
            "127.0.0.1",
            port,
            max_attempts=400,
            base_delay=0.002,
            max_delay=0.05,
            jitter_seed=trial_seed + index,
            io_timeout=5.0,
            fault_injector=injector,
        )
        try:
            if plan.checkpointed:
                head = dep.events[: (len(dep.events) * plan.checkpoint) // total]
                if head:
                    client.send_stream(dep.home_id, head, finish=False)
                wave1_done[index].set()
                wave2_gate.wait()
            client.send_stream(dep.home_id, dep.events, finish=False)
        except BaseException as exc:  # judged by the trial, not raised here
            errors.append(exc)
            wave1_done[index].set()

    threads = [
        threading.Thread(target=client_main, args=(i, dep), daemon=True)
        for i, dep in enumerate(deployments)
    ]
    for thread in threads:
        thread.start()

    prefix: Dict[str, List[Alert]] = {home_id: [] for home_id in homes}
    at_checkpoint: Dict[str, float] = {}
    if plan.checkpointed:
        for flag in wave1_done:
            flag.wait()

        def do_checkpoint() -> Tuple[Dict[str, List[Alert]], Dict[str, float]]:
            durable.save_checkpoint(ckpt_dir)
            return _alerts_by_home(durable, homes), _counters_by_home(durable, homes)

        prefix, at_checkpoint = handle.call(do_checkpoint)
        wave2_gate.set()
    kill_at = min(plan.kill, total)
    while handle.call(lambda: sum(durable.ingest_seqs.values())) < kill_at:
        time.sleep(0.002)
    handle.kill()
    applied_at_kill = dict(durable.ingest_seqs)

    # A home whose client stalled after the checkpoint leaves an empty
    # newest segment (nothing to tear), so walk the homes in the plan's
    # seeded order (default: home order) and tear the first journal that
    # actually has a final record to damage.
    torn = False
    tear_order = (plan.tear_order or range(len(deployments))) if plan.torn else ()
    for index in tear_order:
        victim = deployments[index]
        applied = applied_at_kill.get(victim.home_id, 0)
        if applied and tear_final_record(
            os.path.join(journal_root, victim.home_id),
            victim.events[applied - 1],
            np.random.default_rng(trial_seed ^ 0x5EED),
        ):
            torn = True
            break

    # --- the next life: recover onto the same port --------------------- #
    outbox = make_outbox()
    recovered, replayed = _recover_fleet(
        deployments,
        journal_root,
        ckpt_dir if plan.checkpointed else None,
        plan.shards_after,
        fsync,
        outbox,
        detectors_after,
    )
    after_replay = _counters_by_home(recovered, homes)
    handle2 = ServiceThread(
        IngestServer(recovered, dataclasses.replace(config, port=port))
    ).start()
    for thread in threads:
        thread.join(timeout=120.0)

    # Phase 2: close every stream (exactly once, on the surviving server).
    if not errors:
        for dep in deployments:
            closer = ServiceClient(
                "127.0.0.1",
                port,
                max_attempts=50,
                base_delay=0.002,
                max_delay=0.05,
                jitter_seed=trial_seed ^ 0xF1,
                io_timeout=10.0,
            )
            try:
                closer.send_stream(dep.home_id, dep.events, end=dep.end, finish=True)
            except BaseException as exc:
                errors.append(exc)
    handle2.drain()
    if errors:
        _log.error(
            "service_trial_client_failure", errors=[repr(e) for e in errors]
        )

    # Exact ingest accounting: every event journaled exactly once, and no
    # overload sheds at any point (the queue was never allowed to fill, so
    # every shed here would be a resume-arithmetic bug, not backpressure).
    healthy = not errors
    overload_drops = sum(
        gw.runtime_of(home_id).drops.count(OVERLOAD)
        for gw in (durable.gateway, recovered.gateway)
        for home_id in homes
    )
    ingest_exact = (
        healthy
        and overload_drops == 0
        and all(
            recovered.ingest_seqs.get(dep.home_id, 0) == len(dep.events)
            for dep in deployments
        )
    )
    return _Recovered(
        alerts={h: prefix[h] + recovered.alerts_of(h) for h in homes},
        counters=_counters_by_home(recovered, homes),
        outbox=outbox,
        replayed=len(replayed),
        torn=torn,
        counters_floor=_floor_holds(at_checkpoint, after_replay),
        healthy=healthy,
        ingest_exact=ingest_exact,
    )


_LIVES: Dict[str, Callable[..., _Recovered]] = {
    "standalone": _fleet_lives,
    "fleet": _fleet_lives,
    "service": _service_lives,
}


# --------------------------------------------------------------------- #
# The judge and the driver
# --------------------------------------------------------------------- #


def judge(
    layer: str,
    oracle: ChaosOracle,
    plan: TrialPlan,
    workdir: str,
    recovered: _Recovered,
    *,
    dead_letters_allowed: bool = False,
) -> CrashTrialResult:
    """The verdict on one trial, the same for every layer.

    * **parity** — per home, prefix + recovered alerts equal the oracle's
      in canonical form;
    * **counters** — every home's alert counter ends at the oracle's
      count, and replay never undercuts its checkpoint value;
    * **provenance** — every home's evidence archive, read fresh from
      disk, is byte-identical to the oracle's;
    * **delivery** — every oracle alert id is acked or dead-lettered, with
      no dead letters unless the sink is worse than the attempt budget
      (service: and the ingest accounting is exact).
    """
    expected = oracle.alerts
    healthy = recovered.healthy
    parity = healthy and all(
        canonical_alerts(recovered.alerts[home_id])
        == canonical_alerts(expected[home_id])
        for home_id in expected
    )
    counters_monotone = (
        healthy
        and recovered.counters_floor
        and all(
            recovered.counters[home_id] == float(len(expected[home_id]))
            for home_id in expected
        )
    )
    # Read the archives from disk: a home whose records all predate the
    # crash may never have opened a log handle in the recovered life.
    provenance_parity = all(
        canonical_provenance(
            ProvenanceLog(os.path.join(workdir, "journals", home_id)).records()
        )
        == archive
        for home_id, archive in oracle.provenance.items()
    )
    expected_ids = {
        alert_id
        for home_id, alerts in expected.items()
        for alert_id in _expected_ids(home_id, alerts)
    }
    acked = set(recovered.outbox.delivered_ids())
    dead = recovered.outbox.dead_letters()
    dead_ids = {entry["record"]["id"] for entry in dead}
    delivery_ok = (
        parity
        and recovered.ingest_exact
        and expected_ids == (acked | dead_ids)
        and (dead_letters_allowed or not dead_ids)
    )
    return CrashTrialResult(
        mode=layer,
        deploy_seed=-1,  # the batch loop stamps it
        kill_index=plan.kill,
        total_events=len(oracle.merged),
        checkpointed=plan.checkpointed,
        torn=recovered.torn,
        parity=parity,
        counters_monotone=counters_monotone,
        delivery_ok=delivery_ok,
        replayed_alerts=recovered.replayed,
        delivered=len(acked),
        dead_letters=len(dead),
        shards_before=plan.shards_before,
        shards_after=plan.shards_after,
        provenance_parity=provenance_parity,
    )


def run_trial(
    layer: str,
    oracle: ChaosOracle,
    plan: TrialPlan,
    workdir: str,
    *,
    fsync: str = "never",
    flaky_failures: int = 1,
    max_attempts: int = 4,
) -> CrashTrialResult:
    """Run *plan* on *layer* — live, kill, recover, finish — and judge it
    against *oracle*.  The sink fails each alert's first *flaky_failures*
    attempts; at or above *max_attempts* alerts dead-letter instead."""
    os.makedirs(workdir, exist_ok=True)
    make_outbox = functools.partial(
        _outbox, workdir, plan.seed, flaky_failures, max_attempts
    )
    recovered = _LIVES[layer](oracle, plan, workdir, fsync, make_outbox)
    return judge(
        layer,
        oracle,
        plan,
        workdir,
        recovered,
        dead_letters_allowed=flaky_failures >= max_attempts,
    )


def run_chaos(
    layer: str, base_dir: str, *, fsync: str = "never", **sampling
) -> ChaosReport:
    """The chaos batch on *layer*: every plan :func:`sample_plans` draws
    from *sampling* (its keyword arguments), run and judged against its
    unit's oracle."""
    report = ChaosReport(layer)
    oracle: Optional[ChaosOracle] = None
    for index, (unit_seed, unit, plan) in enumerate(sample_plans(layer, **sampling)):
        if oracle is None or oracle.deployments is not unit[0]:
            oracle = chaos_oracle(*unit)
        workdir = os.path.join(base_dir, f"{layer}-{unit_seed}-{index}")
        result = run_trial(layer, oracle, plan, workdir, fsync=fsync)
        result.deploy_seed = unit_seed
        report.trials.append(result)
        _log.info(
            "chaos_trial",
            mode=layer,
            seed=unit_seed,
            kill=plan.kill,
            shards=f"{plan.shards_before}->{plan.shards_after}",
            faults=plan.faults,
            torn=result.torn,
            checkpointed=result.checkpointed,
            ok=result.ok,
        )
    return report
