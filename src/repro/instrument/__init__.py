"""Loop instrumentation: timers, measurement protocol, raw-data export."""

from repro.instrument.report import (
    FORMAT_VERSION,
    LoopRecord,
    MeasurementRollup,
    ResilienceEvent,
    UnitTiming,
    read_records,
    write_records,
)
from repro.instrument.timers import (
    LoopMeasurement,
    LoopTimerBank,
    measure_benchmark,
    measure_loop,
)

__all__ = [
    "FORMAT_VERSION",
    "LoopMeasurement",
    "LoopRecord",
    "LoopTimerBank",
    "MeasurementRollup",
    "ResilienceEvent",
    "UnitTiming",
    "measure_benchmark",
    "measure_loop",
    "read_records",
    "write_records",
]
