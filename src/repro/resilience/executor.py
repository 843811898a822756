"""Fault-tolerant fan-out of independent work units.

:func:`run_units` is the resilient core both measurement fan-outs sit on:
it runs a list of :class:`UnitTask` items serially or over a
``ProcessPoolExecutor``, and survives the failure modes a long measurement
campaign actually hits:

* **Per-unit timeouts** — a unit that overruns ``unit_timeout_s`` is
  treated as failed and retried; the stuck worker keeps its slot until the
  run ends (process tasks cannot be preempted), its eventual result is
  discarded, and if any unit timed out the pool is torn down without
  waiting — hung workers are terminated rather than allowed to block the
  run at pool exit.
* **Retries with deterministic backoff** — failures are retried up to
  ``RetryPolicy.max_attempts`` times with exponential backoff whose jitter
  derives from the unit's own seed child, so a retried run is bit-identical
  to an untroubled one (the measurement RNG is never touched).
* **Quarantine instead of abort** — a unit that fails every attempt is
  recorded as a :class:`~repro.instrument.report.ResilienceEvent` and
  omitted from the results; the caller degrades (NaN-fills the rows)
  rather than losing the whole run.
* **Worker death** — ``BrokenProcessPool`` (a worker was OOM-killed,
  segfaulted, or fault-injected) falls back to serial re-execution of every
  unit not yet committed, keeping all completed work.
* **Checkpoint/resume** — with a :class:`~repro.resilience.journal.
  CheckpointJournal`, every completed unit is durably committed; a resumed
  run replays committed units from the journal and only executes the rest.

Results are keyed, never ordered by completion, so all of the above is
invisible to the deterministic merge that consumes them.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.instrument.report import ResilienceEvent
from repro.resilience.faults import AbortRun, get_injector, mark_pool_worker
from repro.resilience.journal import CheckpointJournal
from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for a measurement run.

    ``quarantine=False`` turns exhausted retries back into a hard error
    (:class:`UnitFailedError`) for callers that must not degrade.
    """

    retry: RetryPolicy = RetryPolicy()
    unit_timeout_s: float | None = None
    quarantine: bool = True


DEFAULT_RESILIENCE = ResilienceConfig()


class UnitFailedError(RuntimeError):
    """A work unit failed every attempt and quarantine is disabled."""


@dataclass(frozen=True)
class UnitTask:
    """One schedulable work unit.

    ``fn``/``args`` must be picklable (the pool path ships them to
    workers).  ``label`` doubles as the journal key and the fault-match
    key.
    """

    key: Any
    label: str
    fn: Callable
    args: tuple
    seed: np.random.SeedSequence | None = None


@dataclass
class RunReport:
    """What the executor did: keyed results plus every resilience event."""

    results: dict = field(default_factory=dict)
    events: list[ResilienceEvent] = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    @property
    def quarantined(self) -> list[ResilienceEvent]:
        return [event for event in self.events if event.kind == "quarantine"]


def _pool_init(initializer: Callable | None) -> None:
    """Pool initializer: flag the process as a worker (arms ``worker.kill``)
    and run the caller's own initializer."""
    mark_pool_worker()
    if initializer is not None:
        initializer()


def _run_unit(fn: Callable, args: tuple, label: str, attempt: int):
    """Pool-side unit entry point: apply worker-scoped faults, then run."""
    injector = get_injector()
    if injector.active:
        key = f"{label}#a{attempt}"
        injector.kill("worker.kill", key)
        injector.delay("unit.delay", key)
        injector.raise_fault("unit.error", key)
    return fn(*args)


def _call_serial(task: UnitTask, attempt: int):
    """Parent-side unit execution (serial mode and broken-pool fallback).
    Worker-kill faults do not apply here — there is no worker to kill."""
    injector = get_injector()
    if injector.active:
        key = f"{task.label}#a{attempt}"
        injector.delay("unit.delay", key)
        injector.raise_fault("unit.error", key)
    return task.fn(*task.args)


def run_units(
    tasks: list[UnitTask],
    jobs: int = 1,
    config: ResilienceConfig | None = None,
    journal: CheckpointJournal | None = None,
    encode: Callable[[Any], dict] | None = None,
    decode: Callable[[dict], Any] | None = None,
    initializer: Callable | None = None,
) -> RunReport:
    """Run every task, tolerating unit failures, and report what happened.

    Args:
        tasks: the work units; results land in ``report.results[task.key]``.
        jobs: worker processes (1 = in-process serial execution).
        config: retry/timeout/quarantine policy.
        journal: checkpoint journal; units already committed there are
            replayed (``decode``), fresh completions are committed
            (``encode``).  Both codecs must be given to use a journal.
        initializer: per-worker-process initializer for the pool path.
    """
    config = config or DEFAULT_RESILIENCE
    report = RunReport()
    injector = get_injector()
    attempts: dict[str, int] = {}

    pending: list[UnitTask] = []
    for task in tasks:
        payload = journal.completed.get(task.label) if journal is not None else None
        if payload is not None and decode is not None:
            report.results[task.key] = decode(payload)
            report.events.append(ResilienceEvent("resume", task.label))
        else:
            pending.append(task)
            attempts[task.label] = 0

    def commit(task: UnitTask, result) -> None:
        report.results[task.key] = result
        if journal is not None and encode is not None:
            journal.commit(task.label, encode(result))
        # Test hook: a simulated kill *after* the commit, i.e. at a unit
        # boundary — exactly what the resume path must survive.
        injector.abort("run.abort", task.label)

    def requeue(failures: list[tuple[UnitTask, str]]) -> list[UnitTask]:
        """Failed units either go into the next wave or quarantine."""
        wave: list[UnitTask] = []
        max_sleep = 0.0
        for task, message in failures:
            attempts[task.label] += 1
            if attempts[task.label] >= config.retry.max_attempts:
                if not config.quarantine:
                    raise UnitFailedError(
                        f"unit {task.label} failed after "
                        f"{attempts[task.label]} attempt(s): {message}"
                    )
                report.events.append(
                    ResilienceEvent("quarantine", task.label, message)
                )
            else:
                report.events.append(ResilienceEvent("retry", task.label, message))
                max_sleep = max(
                    max_sleep, config.retry.backoff_s(attempts[task.label], task.seed)
                )
                wave.append(task)
        if max_sleep > 0.0:
            time.sleep(max_sleep)
        return wave

    serial_tasks: list[UnitTask] = []
    if jobs > 1 and pending:
        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=_pool_init, initargs=(initializer,)
        )
        hung_workers = False
        try:
            wave = pending
            while wave:
                futures = [
                    (
                        task,
                        pool.submit(
                            _run_unit,
                            task.fn,
                            task.args,
                            task.label,
                            attempts[task.label],
                        ),
                    )
                    for task in wave
                ]
                failures: list[tuple[UnitTask, str]] = []
                for task, future in futures:
                    try:
                        commit(task, future.result(timeout=config.unit_timeout_s))
                    except FuturesTimeout as error:
                        # On 3.11+ this alias also catches a TimeoutError
                        # raised *inside* the unit; only an undone future
                        # under an actual deadline is a pool-level timeout.
                        if config.unit_timeout_s is None or future.done():
                            failures.append(
                                (task, f"{type(error).__name__}: {error}")
                            )
                            continue
                        future.cancel()
                        hung_workers = True
                        report.events.append(
                            ResilienceEvent(
                                "timeout",
                                task.label,
                                f"no result within {config.unit_timeout_s}s",
                            )
                        )
                        failures.append(
                            (task, f"timed out after {config.unit_timeout_s}s")
                        )
                    except (AbortRun, BrokenProcessPool):
                        raise
                    except Exception as error:
                        failures.append((task, f"{type(error).__name__}: {error}"))
                wave = requeue(failures)
        except BrokenProcessPool as error:
            # A worker died out from under the pool.  Everything already
            # committed is kept; everything else re-executes serially in
            # this process, where nothing can kill a worker.
            report.events.append(
                ResilienceEvent("broken-pool", "", f"{error}; falling back to serial")
            )
            quarantined = {event.key for event in report.quarantined}
            serial_tasks = [
                task
                for task in pending
                if task.key not in report.results and task.label not in quarantined
            ]
        finally:
            if hung_workers:
                # A timed-out unit may still be wedged in a worker; a
                # waiting shutdown would block the run on it forever.
                # Snapshot the workers first — shutdown() drops the pool's
                # reference to them — then kill whoever is left, so neither
                # the run nor interpreter exit can block on a hung unit.
                processes = list((getattr(pool, "_processes", None) or {}).values())
                pool.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    process.terminate()
            else:
                pool.shutdown(wait=True)
    else:
        serial_tasks = pending

    wave = serial_tasks
    while wave:
        failures = []
        for task in wave:
            try:
                result = _call_serial(task, attempts[task.label])
            except AbortRun:
                raise
            except Exception as error:
                failures.append((task, f"{type(error).__name__}: {error}"))
            else:
                commit(task, result)
        wave = requeue(failures)

    return report
