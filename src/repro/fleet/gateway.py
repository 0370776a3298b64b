"""The sharded multi-home gateway: one process hosting a fleet of homes.

:class:`FleetGateway` is the router the ROADMAP's fleet-scale deployments
put in front of many per-home :class:`~repro.streaming.HardenedOnlineDice`
instances.  Homes are hashed onto ``N`` worker shards
(:func:`~repro.fleet.sharding.shard_of`); each shard owns its homes'
runtimes and nothing else — shards share no mutable state, so the layout
generalises directly to threads, processes, or machines.

The load-bearing guarantee, pinned by the test suite: **sharding is an
invisible scaling layer**.  For any event stream, a fleet run with any
shard count produces, per home, exactly the alert sequence that home's
runtime would produce standalone.  The router therefore never reorders a
home's events, never routes across homes, and never injects synthetic
time: :meth:`dispatch` only feeds events, and :meth:`finish` closes the
streams the way a standalone ``finish_stream`` would.  (The fleet-level
*interleaving* of different homes' alerts depends on the shard layout and
is deliberately unspecified.)

Telemetry stays shared-nothing too: every home's runtime records into its
own detector's registry, and :meth:`metrics_snapshot` joins them with
:func:`~repro.telemetry.merge_many` — the same worker-join primitive the
parallel evaluation runner uses.

Two capacity layers ride on the invisibility guarantee (both on by
default, both per-home-parity-preserving):

* **Shared contexts** — :meth:`add_home` interns each fitted detector in
  a :class:`~repro.core.SharedContextStore`; homes whose trained state is
  content-identical reference one frozen copy (copy-on-write: the first
  context refresh forks a private one).  :meth:`memory_report` accounts
  for the savings.
* **Batched tick** — :meth:`dispatch` stages every home's events first,
  pre-warms each shared correlation memo once across all homes in the
  batch (one vectorised ``distances_many`` pass instead of per-home
  scalar scans), then drains per home.  Only the fleet-level alert
  interleaving — unspecified anyway — differs from the per-event path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import (
    CorrelationChecker,
    DetectorBackend,
    DiceDetector,
    SharedContextStore,
    as_backend,
    trained_context_nbytes,
)
from ..model import Event
from ..streaming import Alert, HardenedOnlineDice
from .sharding import shard_of

#: Fleet-router counters/gauges.
FLEET_EVENTS_TOTAL = "dice_fleet_events_total"
FLEET_UNROUTED_TOTAL = "dice_fleet_unrouted_total"
FLEET_DISPATCHES_TOTAL = "dice_fleet_dispatches_total"
FLEET_HOMES_GAUGE = "dice_fleet_homes"

_log = telemetry.get_logger("repro.fleet.gateway")


def _rss_bytes() -> Optional[int]:
    """Process resident set size (Linux), informational only — allocator
    behaviour makes RSS unfit for CI budgets, unlike the estimator."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


@dataclass(frozen=True)
class FleetAlert:
    """One alert, attributed to the home whose runtime raised it."""

    home_id: str
    alert: Alert


class FleetShard:
    """One worker shard: the per-home runtimes hashed onto it.

    A shard is deliberately dumb — it keeps a dict of runtimes and replays
    batches into them in arrival order.  All routing decisions live in the
    gateway; all detection state lives in the runtimes.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.homes: Dict[str, HardenedOnlineDice] = {}

    def __len__(self) -> int:
        return len(self.homes)

    def dispatch(self, batch: Iterable[Tuple[str, Event]]) -> List[FleetAlert]:
        """Feed already-routed ``(home_id, event)`` pairs in order."""
        fresh: List[FleetAlert] = []
        homes = self.homes
        for home_id, event in batch:
            for alert in homes[home_id].ingest(event):
                fresh.append(FleetAlert(home_id, alert))
        return fresh

    def dispatch_batched(
        self, batch: Iterable[Tuple[str, Event]]
    ) -> List[FleetAlert]:
        """Batched tick: stage every home's events, pre-warm each distinct
        correlation memo once, then drain per home.

        Per-home alert sequences are byte-identical to :meth:`dispatch` —
        staging pins quarantine bits per window and the memo warm-up is a
        pure cache fill.  Only the fleet-level interleaving changes
        (alerts come out grouped by home, not by event arrival), which
        the gateway contract deliberately leaves unspecified.  When homes
        share an interned context they also share the memo, so one
        vectorised ``distances_many`` pass covers the whole batch's novel
        masks across every home on the context.
        """
        homes = self.homes
        staged: Dict[str, List[tuple]] = {}
        order: List[str] = []
        for home_id, event in batch:
            items = staged.get(home_id)
            if items is None:
                items = staged[home_id] = []
                order.append(home_id)
            homes[home_id].stage_event(event, items)
        warm: Dict[int, Tuple[CorrelationChecker, List[int]]] = {}
        for home_id in order:
            runtime = homes[home_id]
            masks = runtime.staged_window_masks(staged[home_id])
            if not masks:
                continue
            checker = runtime.backend.correlation_checker
            if checker is None:  # backend has no correlation memo to warm
                continue
            entry = warm.get(id(checker))
            if entry is None:
                warm[id(checker)] = (checker, masks)
            else:
                entry[1].extend(masks)
        for checker, masks in warm.values():
            checker.warm(masks)
        fresh: List[FleetAlert] = []
        for home_id in order:
            for alert in homes[home_id].drain_staged(staged[home_id]):
                fresh.append(FleetAlert(home_id, alert))
        return fresh

    def advance_to(self, timestamp: float) -> List[FleetAlert]:
        fresh: List[FleetAlert] = []
        for home_id, runtime in self.homes.items():
            for alert in runtime.advance_to(timestamp):
                fresh.append(FleetAlert(home_id, alert))
        return fresh

    def finish(self, ends: Dict[str, Optional[float]]) -> List[FleetAlert]:
        fresh: List[FleetAlert] = []
        for home_id, runtime in self.homes.items():
            for alert in runtime.finish_stream(ends.get(home_id)):
                fresh.append(FleetAlert(home_id, alert))
        return fresh


class FleetGateway:
    """Shard router + per-home runtime registry for one fleet process.

    Parameters
    ----------
    num_shards:
        Worker shard count.  Any positive value is legal for any fleet;
        the home → shard map is a pure hash, so changing the count between
        runs (including across a checkpoint/restore cycle) only moves
        homes between shards.
    metrics:
        Registry for the *router's* counters (events routed, unrouted
        drops, homes per shard).  Defaults to a fresh private registry so
        fleet-level numbers never mix with any single home's; pass
        ``telemetry.NULL_REGISTRY`` to disable.
    share_contexts:
        Intern each :meth:`add_home` detector in the fleet's
        :class:`~repro.core.SharedContextStore`, so content-identical
        trained states are stored once (copy-on-write on divergence).
    batch_tick:
        Use the staged, memo-prewarming :meth:`FleetShard.dispatch_batched`
        per tick instead of per-event ingest.  Per-home alert parity is
        pinned by the test suite; disable only to A/B the paths.
    context_store:
        Share an existing store (e.g. across gateways in one process);
        defaults to a fresh private one.
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
        share_contexts: bool = True,
        batch_tick: bool = True,
        context_store: Optional[SharedContextStore] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        self.share_contexts = bool(share_contexts)
        self.batch_tick = bool(batch_tick)
        self.context_store = (
            context_store if context_store is not None else SharedContextStore()
        )
        self.shards = [FleetShard(i) for i in range(self.num_shards)]
        # Hosted home → shard index: the one record of membership, filled
        # once per home by :meth:`add_runtime` so a tick routes by lookup
        # instead of hashing every event (:func:`shard_of` stays the one
        # definition of the map).  The runtime itself lives in its shard.
        self._routes: Dict[str, int] = {}
        self.alerts: List[FleetAlert] = []
        self.unrouted = 0
        self.metrics = (
            metrics if metrics is not None else telemetry.MetricsRegistry()
        )
        self._events_counter = self.metrics.counter(
            FLEET_EVENTS_TOTAL,
            "Events routed to a shard, by shard index",
            labelnames=("shard",),
        )
        self._unrouted_counter = self.metrics.counter(
            FLEET_UNROUTED_TOTAL, "Events addressed to homes this fleet does not host"
        )
        self._dispatch_counter = self.metrics.counter(
            FLEET_DISPATCHES_TOTAL, "dispatch() batches processed"
        )
        if self.metrics.enabled:
            homes_gauge = self.metrics.gauge(
                FLEET_HOMES_GAUGE, "Homes hosted per shard", labelnames=("shard",)
            )

            def collect() -> None:
                for shard in self.shards:
                    homes_gauge.labels(shard=str(shard.index)).set(len(shard))

            self.metrics.register_collector("fleet", collect)

    # ------------------------------------------------------------------ #
    # Home management
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, home_id: str) -> bool:
        return home_id in self._routes

    @property
    def home_ids(self) -> List[str]:
        """Hosted homes, sorted."""
        return sorted(self._routes)

    def runtime_of(self, home_id: str) -> HardenedOnlineDice:
        return self.shards[self._routes[home_id]].homes[home_id]

    def shard_index_of(self, home_id: str) -> int:
        """The shard hosting *home_id* (``KeyError`` when not hosted)."""
        return self._routes[home_id]

    def add_home(
        self,
        home_id: str,
        detector: Union[DiceDetector, DetectorBackend],
        *,
        start: float = 0.0,
        **runtime_kwargs,
    ) -> HardenedOnlineDice:
        """Create and register a hardened runtime for *home_id*.

        *detector* is a fitted :class:`DiceDetector` or any fitted
        :class:`~repro.core.DetectorBackend`.  ``runtime_kwargs`` pass
        through to :class:`HardenedOnlineDice` (lateness budget, supervisor
        policy, ...).  With context sharing on, a DICE detector is interned
        *before* the runtime captures its base hash — an adopted detector
        reuses the canonical copy's.  Backends without a DICE context
        (Markov, ensembles) skip interning.
        """
        backend = as_backend(detector)
        if self.share_contexts and backend.dice_detector is not None:
            self.context_store.intern(backend.dice_detector)
        runtime = HardenedOnlineDice(backend, start=start, **runtime_kwargs)
        return self.add_runtime(home_id, runtime)

    def add_runtime(
        self, home_id: str, runtime: HardenedOnlineDice
    ) -> HardenedOnlineDice:
        """Register an existing runtime (checkpoint restore path)."""
        if home_id in self._routes:
            raise ValueError(f"home {home_id!r} is already hosted")
        # Alert provenance trace ids hash the home id; stamp it the moment
        # home identity attaches, before any event can reach the runtime.
        if runtime.provenance.enabled:
            runtime.provenance.home_id = home_id
        index = shard_of(home_id, self.num_shards)
        shard = self.shards[index]
        shard.homes[home_id] = runtime
        self._routes[home_id] = index
        _log.debug("home_added", home=home_id, shard=shard.index)
        return runtime

    # ------------------------------------------------------------------ #
    # Event flow
    # ------------------------------------------------------------------ #

    def dispatch(
        self, events: Iterable[Tuple[str, Event]]
    ) -> List[FleetAlert]:
        """Route one tick's batch of ``(home_id, event)`` pairs.

        Events are grouped per shard **preserving each home's arrival
        order**, then every shard drains its sub-batch; shards are
        processed in index order.  Events addressed to homes this fleet
        does not host are counted (``dice_fleet_unrouted_total``) and
        dropped — a router must never crash on a stray tenant id.
        """
        batches: List[List[Tuple[str, Event]]] = [[] for _ in self.shards]
        routes = self._routes
        for item in events:
            index = routes.get(item[0])
            if index is None:
                self.unrouted += 1
                self._unrouted_counter.inc()
                continue
            batches[index].append(item)
        fresh: List[FleetAlert] = []
        for shard, batch in zip(self.shards, batches):
            if batch:
                if self.batch_tick:
                    fresh.extend(shard.dispatch_batched(batch))
                else:
                    fresh.extend(shard.dispatch(batch))
        for index, batch in enumerate(batches):
            if batch:
                self._events_counter.labels(shard=str(index)).inc(len(batch))
        self._dispatch_counter.inc()
        self.alerts.extend(fresh)
        return fresh

    def advance_to(self, timestamp: float) -> List[FleetAlert]:
        """Account for wall-clock time on every home.

        Alert *content* is the same as an event-driven run would produce,
        but quiet-tail windows and silence verdicts may surface earlier;
        the parity-pinned drivers (tests, bench, CLI) are therefore purely
        event-driven and call :meth:`finish` once at end-of-stream.
        """
        fresh: List[FleetAlert] = []
        for shard in self.shards:
            fresh.extend(shard.advance_to(timestamp))
        self.alerts.extend(fresh)
        return fresh

    def finish(
        self, ends: Union[None, float, Dict[str, float]] = None
    ) -> List[FleetAlert]:
        """End-of-stream for every home.

        *ends* is one timestamp for the whole fleet, a per-home mapping,
        or ``None`` (flush buffers and conclude sessions without closing
        a quiet tail).
        """
        if ends is None or isinstance(ends, (int, float)):
            per_home = {home_id: ends for home_id in self._routes}
        else:
            per_home = {home_id: ends.get(home_id) for home_id in self._routes}
        fresh: List[FleetAlert] = []
        for shard in self.shards:
            fresh.extend(shard.finish(per_home))
        self.alerts.extend(fresh)
        return fresh

    def finish_home(
        self, home_id: str, end: Optional[float] = None
    ) -> List[FleetAlert]:
        """End-of-stream for a single home (the ingest service's per-stream
        close), leaving every other home's stream open."""
        runtime = self.runtime_of(home_id)
        fresh = [FleetAlert(home_id, alert) for alert in runtime.finish_stream(end)]
        self.alerts.extend(fresh)
        return fresh

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def alerts_of(self, home_id: str) -> List[Alert]:
        """One home's alert sequence, in emission order."""
        return [fa.alert for fa in self.alerts if fa.home_id == home_id]

    def memory_report(self) -> dict:
        """Fleet memory accounting: trained-state bytes as hosted (shared)
        vs what per-home replication would cost, plus store dedup stats.

        The byte numbers come from the deterministic
        :func:`~repro.core.trained_context_nbytes` estimator — an adopted
        detector reports the canonical copy's size, so summing over homes
        *is* the replicated cost.  RSS rides along informationally.
        """
        per_context: Dict[int, int] = {}
        replicated = 0
        for home_id in self.home_ids:
            detector = self.runtime_of(home_id).detector
            if detector is None:  # backend without a DICE trained context
                continue
            nbytes = trained_context_nbytes(detector)
            replicated += nbytes
            per_context.setdefault(id(detector.model), nbytes)
        shared = sum(per_context.values())
        homes = len(self._routes)
        return {
            "homes": homes,
            "distinct_contexts": len(per_context),
            "trained_bytes_shared": shared,
            "trained_bytes_replicated": replicated,
            "trained_bytes_per_home": (shared / homes) if homes else 0.0,
            "replicated_bytes_per_home": (replicated / homes) if homes else 0.0,
            "savings_ratio": (replicated / shared) if shared else 1.0,
            "store": self.context_store.stats(),
            "rss_bytes": _rss_bytes(),
        }

    def metrics_snapshot(self) -> dict:
        """One fleet-wide snapshot: router registry + every home's, merged.

        Homes sharing a registry object (e.g. all defaulted to the
        process-global one) are merged exactly once — counters must not be
        double-counted just because tenants share a sink.
        """
        snapshots = [self.metrics.snapshot()]
        seen = {id(self.metrics)}
        for home_id in self.home_ids:
            registry = self.runtime_of(home_id).metrics
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            snapshots.append(registry.snapshot())
        return telemetry.merge_many(snapshots)

    def health(self) -> dict:
        """JSON-serializable fleet health: routing totals plus a per-home
        rollup of the numbers an operator triages by."""
        alert_counts: Dict[str, int] = {}
        for fleet_alert in self.alerts:
            kind = fleet_alert.alert.kind
            alert_counts[kind] = alert_counts.get(kind, 0) + 1
        homes = {}
        for home_id in self.home_ids:
            runtime = self.runtime_of(home_id)
            homes[home_id] = {
                "shard": self._routes[home_id],
                "backend": runtime.backend.name,
                "alerts": len(runtime.alerts),
                "drops": runtime.drops.total,
                "quarantined": runtime.quarantined_devices,
            }
        return {
            "num_shards": self.num_shards,
            "num_homes": len(self._routes),
            "homes_per_shard": {
                str(shard.index): len(shard) for shard in self.shards
            },
            "alerts": alert_counts,
            "unrouted": self.unrouted,
            "contexts": self.context_store.stats(),
            "homes": homes,
        }

    # ------------------------------------------------------------------ #
    # Checkpoint (see repro.fleet.checkpoint)
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, directory) -> None:
        from .checkpoint import save_fleet_checkpoint

        save_fleet_checkpoint(self, directory)
