"""Fault injection (Ch. IV.2) and security attacks (Ch. VI).

The chaos-trial driver lives in :mod:`repro.faults.crash` and is imported
from there: it pulls in the durability, fleet and service layers, which
nothing else here needs.
"""

from .attacks import (
    Attack,
    attack_events,
    coordinated_attack,
    light_attack,
    spoof_sensor_high,
    temperature_attack,
)
from .drift import (
    ALL_DRIFT_TYPES,
    DriftType,
    InjectedDrift,
    apply_drift,
    inject_device_replacement,
    inject_seasonal_shift,
)
from .injector import FaultInjector, InjectionPolicy
from .net import (
    NetFaultInjector,
    NetFaultSpec,
    SimulatedDisconnect,
)
from .models import (
    ALL_FAULT_TYPES,
    NON_FAIL_STOP_TYPES,
    FaultType,
    InjectedFault,
    apply_fault,
    inject_fail_stop,
    inject_high_noise,
    inject_outlier,
    inject_spike,
    inject_stuck_at,
)
from .pipe import (
    ALL_PIPE_FAULT_TYPES,
    PipeFaultInjector,
    PipeFaultSpec,
    PipeFaultType,
    apply_pipe_fault,
    corrupt_values,
    delay_events,
    drop_events,
    duplicate_events,
    reorder_events,
)
from .segments import SegmentPair, make_segment_pairs, segment_starts, split_precompute

__all__ = [
    "ALL_PIPE_FAULT_TYPES",
    "PipeFaultInjector",
    "PipeFaultSpec",
    "PipeFaultType",
    "apply_pipe_fault",
    "corrupt_values",
    "delay_events",
    "drop_events",
    "duplicate_events",
    "reorder_events",
    "Attack",
    "attack_events",
    "coordinated_attack",
    "light_attack",
    "spoof_sensor_high",
    "temperature_attack",
    "ALL_DRIFT_TYPES",
    "DriftType",
    "InjectedDrift",
    "apply_drift",
    "inject_device_replacement",
    "inject_seasonal_shift",
    "FaultInjector",
    "InjectionPolicy",
    "NetFaultInjector",
    "NetFaultSpec",
    "SimulatedDisconnect",
    "ALL_FAULT_TYPES",
    "NON_FAIL_STOP_TYPES",
    "FaultType",
    "InjectedFault",
    "apply_fault",
    "inject_fail_stop",
    "inject_high_noise",
    "inject_outlier",
    "inject_spike",
    "inject_stuck_at",
    "SegmentPair",
    "make_segment_pairs",
    "segment_starts",
    "split_precompute",
]
