"""Loop instrumentation: the raw-data export and the measurement rollup.

The median-of-N timing protocol itself runs in
:func:`repro.pipeline.labeling.measure_benchmark_factor`.
"""

from repro.instrument.report import (
    FORMAT_VERSION,
    LoopRecord,
    MeasurementRollup,
    ResilienceEvent,
    UnitTiming,
    read_records,
    write_records,
)

__all__ = [
    "FORMAT_VERSION",
    "LoopRecord",
    "MeasurementRollup",
    "ResilienceEvent",
    "UnitTiming",
    "read_records",
    "write_records",
]
