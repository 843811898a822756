"""Raw loop-data export/import.

The paper released its instrumentation library *and the raw loop data* "so
other researchers can easily apply their own learning techniques".  This
module is that release format: a line-oriented JSON container with one record
per loop carrying the feature vector, the per-factor median cycle counts,
and provenance (benchmark, suite, language).  Datasets round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.features.catalog import FEATURE_NAMES

#: Format version written into every export.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResilienceEvent:
    """One fault-tolerance action taken during a run.

    ``kind`` is one of ``"retry"``, ``"timeout"``, ``"quarantine"``,
    ``"broken-pool"``, or ``"resume"``; ``key`` names the work unit (or
    subsystem) involved.  The rollup aggregates these so a run's output
    accounts for every recovery, not just its timings.
    """

    kind: str
    key: str
    detail: str = ""


@dataclass(frozen=True)
class UnitTiming:
    """Wall-clock accounting for one measurement work unit.

    A unit is one (benchmark, unroll factor) configuration — the paper's
    "compile one binary, time all its loops" granularity — executed by one
    worker process.
    """

    benchmark: str
    factor: int
    worker: int  # process id of the worker that ran the unit
    n_loops: int
    seconds: float
    analysis_hits: int = 0  # loop analyses reused by the second regime
    analysis_misses: int = 0  # loop analyses computed from scratch


@dataclass
class MeasurementRollup:
    """Aggregates :class:`UnitTiming` records across a measurement run.

    The parallel pipeline hands every finished unit to the rollup; the CLI
    prints the per-worker summary so load imbalance (one worker stuck on a
    giant benchmark) is visible rather than inferred.
    """

    timings: list[UnitTiming] = field(default_factory=list)
    events: list[ResilienceEvent] = field(default_factory=list)

    def record(self, timing: UnitTiming) -> None:
        self.timings.append(timing)

    def record_event(self, event: ResilienceEvent) -> None:
        self.events.append(event)

    def count(self, kind: str) -> int:
        """Number of resilience events of one kind (``"retry"``, ...)."""
        return sum(1 for event in self.events if event.kind == kind)

    def quarantined_units(self) -> list[str]:
        """Labels of work units that failed every attempt."""
        return [event.key for event in self.events if event.kind == "quarantine"]

    def resilience_summary(self) -> str | None:
        """One line accounting for every recovery action, or ``None`` when
        the run needed none."""
        if not self.events:
            return None
        parts = [
            f"{self.count(kind)} {label}"
            for kind, label in (
                ("resume", "resumed from journal"),
                ("retry", "retried"),
                ("timeout", "timed out"),
                ("quarantine", "quarantined"),
                ("broken-pool", "broken-pool fallback(s)"),
            )
            if self.count(kind)
        ]
        return "resilience: " + ", ".join(parts)

    @property
    def n_units(self) -> int:
        return len(self.timings)

    def total_seconds(self) -> float:
        """Cumulative busy time across all workers (not wall clock)."""
        return sum(t.seconds for t in self.timings)

    def per_worker(self) -> dict[int, float]:
        """Busy seconds keyed by worker process id."""
        busy: dict[int, float] = {}
        for t in self.timings:
            busy[t.worker] = busy.get(t.worker, 0.0) + t.seconds
        return busy

    def analysis_hits(self) -> int:
        """Loop analyses reused by the second regime of a paired unit."""
        return sum(t.analysis_hits for t in self.timings)

    def analysis_misses(self) -> int:
        """Loop analyses computed from scratch."""
        return sum(t.analysis_misses for t in self.timings)

    # ------------------------------------------------------------------
    # Latency/throughput view (used by the serving engine, where each
    # "unit" is one prediction request and ``seconds`` is its latency).
    # ------------------------------------------------------------------

    def latency_percentiles(self, percentiles=(50.0, 95.0, 99.0)) -> dict[float, float]:
        """Per-unit latency percentiles in seconds (empty dict when no
        units were recorded)."""
        if not self.timings:
            return {}
        seconds = np.array([t.seconds for t in self.timings])
        return {p: float(np.percentile(seconds, p)) for p in percentiles}

    def throughput(self, wall_seconds: float) -> float:
        """Units completed per wall-clock second (0.0 for a zero/negative
        wall time, so callers can print it unconditionally)."""
        if wall_seconds <= 0.0:
            return 0.0
        return self.n_units / wall_seconds

    def latency_summary(self, wall_seconds: float | None = None) -> str:
        """One line of request-latency statistics for the serving CLI."""
        if not self.timings:
            return "no requests served"
        pcts = self.latency_percentiles()
        text = (
            f"{self.n_units} request(s) over {len(self.per_worker())} worker(s); "
            f"latency p50 {pcts[50.0] * 1e3:.2f}ms, p95 {pcts[95.0] * 1e3:.2f}ms, "
            f"p99 {pcts[99.0] * 1e3:.2f}ms"
        )
        if wall_seconds is not None and wall_seconds > 0.0:
            text += f"; {self.throughput(wall_seconds):.0f} req/s over {wall_seconds:.2f}s"
        return text

    def summary(self) -> str:
        if not self.timings:
            return "no measurement units executed (cache hit)"
        busy = self.per_worker()
        slowest = max(self.timings, key=lambda t: t.seconds)
        text = (
            f"{self.n_units} units over {len(busy)} worker(s), "
            f"{self.total_seconds():.2f}s busy total; "
            f"slowest unit {slowest.benchmark} u={slowest.factor} "
            f"({slowest.seconds:.2f}s, {slowest.n_loops} loops)"
        )
        reused = self.analysis_hits()
        if reused:
            text += f"; {reused} loop analyses reused across regimes"
        resilience = self.resilience_summary()
        if resilience:
            text += f"; {resilience}"
        return text


@dataclass(frozen=True)
class LoopRecord:
    """One exported loop: provenance, features, and measurements."""

    loop_name: str
    benchmark: str
    suite: str
    language: str
    features: tuple[float, ...]
    median_cycles: tuple[float, ...]  # indexed by unroll factor - 1

    @property
    def best_factor(self) -> int:
        return int(np.argmin(self.median_cycles)) + 1


def write_records(records, path: str | Path) -> int:
    """Write loop records as JSON lines (with a header line); returns the
    number of records written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as handle:
        header = {
            "format_version": FORMAT_VERSION,
            "feature_names": list(FEATURE_NAMES),
        }
        handle.write(json.dumps(header) + "\n")
        for record in records:
            payload = {
                "loop": record.loop_name,
                "benchmark": record.benchmark,
                "suite": record.suite,
                "language": record.language,
                "features": list(record.features),
                "median_cycles": list(record.median_cycles),
            }
            handle.write(json.dumps(payload) + "\n")
            count += 1
    return count


def read_records(path: str | Path) -> list[LoopRecord]:
    """Read loop records written by :func:`write_records`."""
    path = Path(path)
    records: list[LoopRecord] = []
    with path.open() as handle:
        header = json.loads(handle.readline())
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported loop-data format {header.get('format_version')!r}"
            )
        if tuple(header.get("feature_names", ())) != FEATURE_NAMES:
            raise ValueError("feature catalog mismatch; re-export the data")
        for line in handle:
            if not line.strip():
                continue
            payload = json.loads(line)
            records.append(
                LoopRecord(
                    loop_name=payload["loop"],
                    benchmark=payload["benchmark"],
                    suite=payload["suite"],
                    language=payload["language"],
                    features=tuple(payload["features"]),
                    median_cycles=tuple(payload["median_cycles"]),
                )
            )
    return records
