"""In-memory span recorder and the wrappers the traced runs install.

The benchmark records spans from its own files only: each wrapper
replaces a program function *where the program looks it up* (for
example ``repro.simulate.executor.modulo_schedule``, the name the cost
model calls, not ``repro.sched.modulo.modulo_schedule``), times the call
with ``perf_counter_ns`` and charges it to a named layer.  Nested spans
subtract from their parent, so every layer reports both its total time
and its self time.  Nothing is written until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Recorder:
    """Per-layer totals: calls, total and self nanoseconds, extra counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` timed as layer ``name``."""
        stack_of = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total_ns[name] += elapsed
                    self.self_ns[name] += elapsed - children
            return result

        return wrapper

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "layers": {
                    name: {
                        "calls": self.calls[name],
                        "total_s": self.total_ns[name] / 1e9,
                        "self_s": self.self_ns[name] / 1e9,
                    }
                    for name in sorted(self.calls)
                },
                "counters": dict(self.counters),
            }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, sort_keys=True)


def _patch(owner, attribute: str, recorder: Recorder, name: str) -> None:
    setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))


def _patch_classmethod(cls, attribute: str, recorder: Recorder, name: str) -> None:
    bound = getattr(cls, attribute)
    timed = recorder.wrap(name, bound)
    setattr(cls, attribute, classmethod(lambda _cls, *args, **kwargs: timed(*args, **kwargs)))


#: Labelling layers, each the name the cost model or pipeline calls.
LABELLING_LAYERS = (
    "transforms.optimize_for_factor",
    "ir.analyze_dependences",
    "sched.precompute",
    "sched.list_schedule",
    "sched.steady_state",
    "sched.modulo_schedule",
    "sched.regpressure",
    "simulate.noise",
    "features.extract",
)


def install_labelling(recorder: Recorder) -> None:
    """Wrap the cost model's and the labelling pipeline's layer calls."""
    import repro.pipeline.labeling as labeling
    import repro.simulate.executor as executor
    from repro.simulate.noise import NoiseModel

    _patch(executor, "optimize_for_factor", recorder, "transforms.optimize_for_factor")
    _patch(executor, "analyze_dependences", recorder, "ir.analyze_dependences")
    _patch_classmethod(executor.SchedPrecomp, "build", recorder, "sched.precompute")
    _patch(executor, "list_schedule", recorder, "sched.list_schedule")
    _patch(executor, "steady_state_cycles", recorder, "sched.steady_state")
    for attribute in ("max_live", "swp_register_pressure", "spill_cycles"):
        _patch(executor, attribute, recorder, "sched.regpressure")
    _patch(NoiseModel, "batch_medians", recorder, "simulate.noise")
    _patch(labeling, "extract_features", recorder, "features.extract")

    schedule = executor.modulo_schedule
    timed = recorder.wrap("sched.modulo_schedule", schedule)

    def modulo_schedule(*args, **kwargs):
        try:
            kernel = timed(*args, **kwargs)
        except executor.ModuloScheduleError:
            recorder.count("sched.modulo_schedule.failed")
            raise
        recorder.count("sched.modulo_schedule.ii_minus_mii", kernel.ii - kernel.mii)
        return kernel

    executor.modulo_schedule = modulo_schedule


#: Training layers: one span per family fit.
FIT_FAMILIES = ("nn", "svm", "mlp", "forest", "ensemble")


def install_training(recorder: Recorder) -> None:
    """Wrap the per-family trainers ``train_model_artifact`` calls."""
    import repro.registry.artifact as artifact

    for family in FIT_FAMILIES:
        _patch(artifact, f"train_{family}_heuristic", recorder, f"ml.fit.{family}")


def install_serving(recorder: Recorder) -> None:
    """Wrap the daemon's request-path layers and the artifact load."""
    import repro.frontend as frontend
    import repro.heuristics.learned as learned
    import repro.serve.loader as loader
    from repro.serve.requestlog import RequestLog

    _patch(loader, "load_or_quarantine", recorder, "registry.load")
    _patch(frontend, "parse_program", recorder, "frontend.parse_program")
    _patch(learned, "extract_features", recorder, "features.extract")
    _patch(learned.EnsembleHeuristic, "predict_loop_detail", recorder, "ml.predict.ensemble")
    _patch(learned.EnsembleHeuristic, "predict_detail", recorder, "ml.predict.ensemble")
    _patch(RequestLog, "record", recorder, "serve.requestlog.record")

    predict_features = learned.LearnedHeuristic.predict_features
    timed = {}

    def per_family(self, X):
        wrapped = timed.get(self.name)
        if wrapped is None:
            wrapped = timed[self.name] = recorder.wrap(
                f"ml.predict.{self.name}", predict_features
            )
        return wrapped(self, X)

    learned.LearnedHeuristic.predict_features = per_family
