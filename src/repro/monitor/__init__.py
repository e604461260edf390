"""Runtime monitoring: emergency detection over a fitted placement,
served for S streams at once by :meth:`FleetMonitor.run_batch` (a
single stream is a fleet of one), with sensor fault injection
(:mod:`repro.monitor.faults`), online fault screens, and automatic
failover to leave-one-sensor-out fallback models."""

from repro.monitor.faults import (
    SCREEN_FROZEN,
    SCREEN_NAN,
    SCREEN_RANGE,
    DriftFault,
    DropoutFault,
    FaultPolicy,
    GlitchFault,
    SensorFault,
    StuckAtFault,
)
from repro.monitor.fleet import (
    CompiledPredictor,
    EmergencyEvent,
    FleetMonitor,
    FleetStats,
    MonitorStats,
    SensorFailure,
)

__all__ = [
    "EmergencyEvent",
    "MonitorStats",
    "FleetMonitor",
    "FleetStats",
    "CompiledPredictor",
    "SensorFailure",
    "SensorFault",
    "DropoutFault",
    "StuckAtFault",
    "DriftFault",
    "GlitchFault",
    "FaultPolicy",
    "SCREEN_NAN",
    "SCREEN_RANGE",
    "SCREEN_FROZEN",
]
