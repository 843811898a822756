"""Deterministic fault injection: the test harness for every recovery path.

A :class:`FaultPlan` is a seedable, declarative list of faults to inject at
named operation sites (kill a pool worker, delay a work unit past its
timeout, corrupt a cache entry, bit-flip a model artifact, mangle a serve
request, abort a run at a unit boundary).  Injection is **never on by
default**: a plan activates only through the ``REPRO_FAULT_PLAN``
environment variable (inline JSON or a path to a JSON file) or the CLI's
``--fault-plan`` test hook, both of which feed :func:`install_fault_plan`.
Worker processes inherit the environment variable, so one plan governs the
whole process tree.

Determinism comes from *matching*, not randomness: every injection site
reports an ``(op, key)`` pair — e.g. ``("unit.error", "cg:u3#a0")`` for
benchmark ``cg`` at unroll factor 3 on attempt 0 — and a rule fires only
when its glob pattern matches.  The same plan against the same run injects
the same faults at the same places, in every process, regardless of worker
scheduling.

Injection sites wired through the stack:

========================  ===================================================
op                        effect at the site
========================  ===================================================
``worker.kill``           ``os._exit`` inside a pool worker (ignored outside
                          one) — induces ``BrokenProcessPool`` in the parent
``unit.delay``            sleep ``delay_s`` before running a work unit
``unit.error``            raise :class:`InjectedFault` in a work unit
``run.abort``             raise :class:`AbortRun` after a unit commits — a
                          simulated kill at a checkpoint boundary
``cache.corrupt``         flip one byte of a measurement-cache file before
                          it is read
``artifact.bitflip``      flip one byte of a model artifact before it is
                          loaded
``serve.delay``           sleep ``delay_s`` while handling a serve request
``serve.internal``        raise :class:`InjectedFault` inside the engine's
                          dispatch (exercises the ``internal-error`` path)
``serve.malformed``       replace a serve request with garbage
========================  ===================================================
"""

from __future__ import annotations

import contextlib
import dataclasses
import fnmatch
import json
import os
import threading
import time
from pathlib import Path

#: Environment variable carrying the active plan (inline JSON or file path).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code a worker dies with under ``worker.kill`` (recognisable in CI
#: logs as an induced death, not an organic crash).
KILL_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault injector."""


class AbortRun(RuntimeError):
    """An injected simulation of a killed run (e.g. SIGKILL between two
    checkpointed work units).  Never caught by the retry machinery — the
    point is to die and test the resume path."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One fault to inject: fire at site ``op`` when the event key matches.

    Attributes:
        op: injection-site name (see the module table).
        match: glob pattern over the site's event key.  Unit-level keys end
            in ``#a<attempt>``, so ``"*#a0"`` means "first attempts only".
        times: maximum firings (0 = unlimited).
        skip: matching events to let pass before the first firing (``skip=3``
            fires on the fourth match — how ``run.abort`` picks a kill point).
        delay_s: sleep duration for the delay-flavoured ops.
    """

    op: str
    match: str = "*"
    times: int = 1
    skip: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.op:
            raise ValueError("fault rule needs an op name")
        if self.times < 0 or self.skip < 0 or self.delay_s < 0:
            raise ValueError(f"negative times/skip/delay in fault rule for {self.op!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown fault rule field(s): {', '.join(sorted(unknown))}")
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of :class:`FaultRule` entries."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse inline JSON, or read the JSON file ``text`` points at."""
        text = text.strip()
        if not text.startswith("{"):
            text = Path(text).read_text()
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        rules = tuple(FaultRule.from_dict(rule) for rule in payload.get("rules", ()))
        return cls(seed=int(payload.get("seed", 0)), rules=rules)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [dataclasses.asdict(rule) for rule in self.rules],
            },
            sort_keys=True,
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the injection sites.

    Thread-safe; one injector per process (workers build their own from the
    inherited environment).  ``events`` records every firing as an
    ``(op, key)`` pair so tests can assert exactly which faults landed.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self._seen = [0] * len(plan.rules)
        self._fired = [0] * len(plan.rules)
        self._by_op: dict[str, list[int]] = {}
        for index, rule in enumerate(plan.rules):
            self._by_op.setdefault(rule.op, []).append(index)

    @property
    def active(self) -> bool:
        """Whether the plan has any rules at all (the common-case fast path
        checks this once and skips the per-site bookkeeping)."""
        return bool(self.plan.rules)

    def fire(self, op: str, key: str = "") -> FaultRule | None:
        """The rule that fires for this event, if any (consumes budget)."""
        indices = self._by_op.get(op)
        if not indices:
            return None
        with self._lock:
            for index in indices:
                rule = self.plan.rules[index]
                if not fnmatch.fnmatchcase(key, rule.match):
                    continue
                seen = self._seen[index]
                self._seen[index] += 1
                if seen < rule.skip:
                    continue
                if rule.times and self._fired[index] >= rule.times:
                    continue
                self._fired[index] += 1
                self.events.append((op, key))
                return rule
        return None

    # ------------------------------------------------------------------
    # Site-flavoured helpers (each a no-op unless a rule fires).
    # ------------------------------------------------------------------

    def kill(self, op: str, key: str = "") -> None:
        """Die instantly — but only inside a pool worker, so a plan written
        for parallel runs can never take down the parent process."""
        if in_pool_worker() and self.fire(op, key) is not None:
            os._exit(KILL_EXIT_CODE)

    def delay(self, op: str, key: str = "") -> None:
        rule = self.fire(op, key)
        if rule is not None and rule.delay_s > 0:
            time.sleep(rule.delay_s)

    def raise_fault(self, op: str, key: str = "") -> None:
        if self.fire(op, key) is not None:
            raise InjectedFault(f"injected {op} fault at {key!r}")

    def abort(self, op: str, key: str = "") -> None:
        if self.fire(op, key) is not None:
            raise AbortRun(f"injected {op} at {key!r} (simulated kill)")

    def corrupt_file(self, op: str, key: str, path: str | Path) -> bool:
        """Flip one byte of ``path`` in place (deterministic offset drawn
        from the plan seed and file size).  Returns whether it fired."""
        if self.fire(op, key) is None:
            return False
        path = Path(path)
        size = path.stat().st_size
        if size == 0:
            return False
        offset = (self.plan.seed * 2654435761 + size) % size
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        return True

    def mangle(self, op: str, key: str, request):
        """Replace a serve request with structurally-invalid garbage."""
        if self.fire(op, key) is not None:
            return ["__injected_malformed_request__", key]
        return request


# ---------------------------------------------------------------------------
# Process-global activation.
# ---------------------------------------------------------------------------

_EMPTY_PLAN = FaultPlan()
_cached: tuple[str, FaultInjector] | None = None

_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Flag this process as a pool worker (called by the executor's pool
    initializer); gates the ``worker.kill`` site."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def in_pool_worker() -> bool:
    """Whether this process was flagged as a pool worker."""
    return _IN_POOL_WORKER


def get_injector() -> FaultInjector:
    """The process-wide injector for the currently-installed plan.

    With no plan installed this returns an inert injector whose ``active``
    is false — call sites stay branch-cheap in production.  The injector is
    rebuilt (with fresh budgets) whenever the installed plan text changes.
    """
    global _cached
    text = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if _cached is not None and _cached[0] == text:
        return _cached[1]
    plan = FaultPlan.parse(text) if text else _EMPTY_PLAN
    injector = FaultInjector(plan)
    _cached = (text, injector)
    return injector


def install_fault_plan(plan: FaultPlan | str | None) -> None:
    """Install (or, with ``None``, clear) the process-wide fault plan.

    The plan is stored in ``REPRO_FAULT_PLAN`` so that worker processes
    spawned afterwards inherit it.  Strings pass through verbatim (inline
    JSON or a file path); plans are serialised.
    """
    global _cached
    _cached = None
    if plan is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    elif isinstance(plan, str):
        os.environ[FAULT_PLAN_ENV] = plan
    else:
        os.environ[FAULT_PLAN_ENV] = plan.to_json()


@contextlib.contextmanager
def fault_plan(plan: FaultPlan | str | None):
    """Context manager used by tests: install a plan, yield the injector,
    restore whatever was installed before."""
    previous = os.environ.get(FAULT_PLAN_ENV)
    install_fault_plan(plan)
    try:
        yield get_injector()
    finally:
        install_fault_plan(previous)
