"""The batched prediction engine.

One engine wraps one loaded artifact and answers any number of requests
without ever retraining — the paper's compile-time deployment path scaled
to service shape.  Requests are plain dicts (the JSON-lines protocol of
``repro-unroll serve``):

* ``{"id": ..., "features": [38 floats]}`` — a pre-extracted feature
  vector in catalog order;
* ``{"id": ..., "source": "loop ... end"}`` — loop-language source; every
  loop in the program gets a prediction;
* either form takes an optional
  ``"classifier": "nn" | "svm" | "mlp" | "forest" | "ensemble"``.

Responses mirror the request ``id`` and either carry a factor or a typed
error; ensemble responses additionally carry ``confidence`` (combined
probability of the chosen factor) and ``votes`` (per-family factors) — **every** malformed input maps onto the error taxonomy below and
comes back as a response; the engine never raises on bad input, so one
poisoned request cannot take down a batch.

Each request is timed; an engine given a
:class:`~repro.instrument.MeasurementRollup` records one unit per request
(``seconds`` = latency), which gives the CLI's batch path p50/p95/p99
latency and requests-per-second for free.  An engine without one keeps no
per-request record, so a long-running daemon does not grow with traffic.
:meth:`PredictionEngine.handle` answers one request and
:meth:`PredictionEngine.handle_batch` a batch, in request order; the
:class:`~repro.serve.gateway.ServeGateway` is the batch front door that
adds admission control, deadlines and a pool over engine replicas.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.features.catalog import N_FEATURES
from repro.instrument.report import MeasurementRollup, UnitTiming
from repro.registry.artifact import ModelArtifact
from repro.resilience.faults import get_injector

#: A line that was not valid JSON (only the CLI layer produces this).
ERROR_INVALID_JSON = "invalid-json"
#: Structurally wrong request: not an object, no/ambiguous payload,
#: unknown classifier.
ERROR_MALFORMED_REQUEST = "malformed-request"
#: A feature vector of the wrong length, or with non-numeric/non-finite
#: entries.
ERROR_BAD_FEATURE_VECTOR = "bad-feature-vector"
#: Loop source that does not lex/parse (including "no loops found").
ERROR_UNPARSEABLE_LOOP = "unparseable-loop"
#: Anything unexpected; the message carries the exception text.
ERROR_INTERNAL = "internal-error"
#: The gateway's bounded queue is full — backpressure, retry later.
ERROR_OVERLOADED = "overloaded"
#: The request's deadline elapsed before (or while) it was served.
ERROR_DEADLINE_EXCEEDED = "deadline-exceeded"

_CLASSIFIERS = ("nn", "svm", "mlp", "forest", "ensemble")


def error_response(request_id, error_type: str, message: str, latency_s: float = 0.0) -> dict:
    """A typed error response (the only failure shape the engine emits)."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
        "latency_ms": round(latency_s * 1e3, 3),
    }


class _MalformedRequest(Exception):
    """Internal: maps a validation failure onto (error_type, message)."""

    def __init__(self, error_type: str, message: str):
        super().__init__(message)
        self.error_type = error_type


class _InvalidLine:
    """Sentinel for a JSON-lines entry that failed to parse."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


def parse_request_lines(lines) -> list:
    """JSON-lines protocol parsing: one request per non-blank line; a line
    that is not valid JSON becomes an :class:`_InvalidLine` sentinel that
    the engine maps onto an ``invalid-json`` response in its slot."""
    requests = []
    for line in lines:
        text = line.strip()
        if not text:
            continue
        try:
            requests.append(json.loads(text))
        except json.JSONDecodeError as error:
            requests.append(_InvalidLine(str(error)))
    return requests


class PredictionEngine:
    """Load an artifact once, answer requests singly or as a batch."""

    def __init__(
        self,
        artifact: ModelArtifact,
        classifier: str = "svm",
        rollup: MeasurementRollup | None = None,
    ):
        if classifier not in _CLASSIFIERS:
            raise ValueError(f"unknown classifier {classifier!r}")
        self.artifact = artifact
        self.default_classifier = classifier
        #: Per-request latency record (``None``: keep none).
        self.rollup = rollup
        # Resolve each classifier's heuristic once; every request (and the
        # vectorized batch path) reads this immutable table instead of
        # re-asking the artifact per prediction.
        self._heuristics = {name: artifact.heuristic(name) for name in _CLASSIFIERS}
        # Requests carry full-catalog vectors when the model selects a
        # subset (the heuristic applies it); models trained without a
        # subset dictate their own input width.
        if artifact.feature_indices is not None:
            self.input_width = N_FEATURES
        else:
            self.input_width = int(artifact.nn.classifier._X.shape[1])

    # ------------------------------------------------------------------

    def handle(self, request) -> dict:
        """Answer one request dict; never raises on bad input."""
        start = time.perf_counter()
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            payload, n_loops = self._dispatch(request)
        except _MalformedRequest as error:
            latency = time.perf_counter() - start
            self._record(0, 0, latency)
            return error_response(request_id, error.error_type, str(error), latency)
        except Exception as error:
            # The taxonomy's floor: any defect below _dispatch becomes a
            # typed response instead of a crashed batch.  Reached in tests
            # through the ``serve.internal`` fault-injection site.
            latency = time.perf_counter() - start
            self._record(0, 0, latency)
            return error_response(request_id, ERROR_INTERNAL, str(error), latency)
        latency = time.perf_counter() - start
        self._record(payload["factor"], n_loops, latency)
        response = {"id": request_id, "ok": True, "latency_ms": round(latency * 1e3, 3)}
        response.update(payload)
        return response

    def handle_batch(self, requests) -> list[dict]:
        """Answer a batch with one vectorized prediction per classifier.

        Feature-vector requests that pass validation are stacked into a
        single ``(B, width)`` matrix and answered by one
        ``predict_features`` call per classifier — the micro-batching fast
        path the serve daemon coalesces traffic into.  Everything else
        (source requests, malformed input) falls through to :meth:`handle`
        in place, so the error taxonomy and response shapes are identical
        to per-request serving.  Responses come back in request order.

        With a fault plan active the batch is served request-by-request:
        the ``serve.delay`` / ``serve.internal`` / per-request injection
        semantics only exist on the scalar path, and chaos runs must keep
        them.
        """
        requests = list(requests)
        if len(requests) <= 1 or get_injector().active:
            return [self.handle(request) for request in requests]
        responses: list[dict | None] = [None] * len(requests)
        groups: dict[str, list[tuple[int, np.ndarray]]] = {}
        for index, request in enumerate(requests):
            vectorized = self._vectorizable(request)
            if vectorized is None:
                responses[index] = self.handle(request)
            else:
                classifier, vector = vectorized
                groups.setdefault(classifier, []).append((index, vector))
        for classifier, members in groups.items():
            # Clock each group's own stack+predict, not the whole batch:
            # latency_ms must stay comparable with the scalar path, which
            # never charges a request for its batch-mates' work.
            group_start = time.perf_counter()
            try:
                matrix = np.stack([vector for _, vector in members])
                if classifier == "ensemble":
                    # Same predict_detail call as the scalar path, so the
                    # batched factor/confidence/votes match per-request
                    # serving exactly.
                    detail = self._heuristics[classifier].predict_detail(matrix)
                    factors = detail.labels
                else:
                    detail = None
                    factors = self._heuristics[classifier].predict_features(matrix)
            except Exception:
                # The taxonomy's floor, batch edition: if the vectorized
                # call fails, each member is re-answered individually so a
                # defect surfaces as typed per-request responses, never a
                # crashed batch.
                for index, _ in members:
                    responses[index] = self.handle(requests[index])
                continue
            latency = time.perf_counter() - group_start
            latency_ms = round(latency * 1e3, 3)
            for row, ((index, _), factor) in enumerate(zip(members, factors)):
                request = requests[index]
                self._record(int(factor), 1, latency)
                if detail is not None:
                    payload = self._ensemble_payload(detail, row)
                else:
                    payload = {"factor": int(factor), "classifier": classifier}
                response = {
                    "id": request.get("id"),
                    "ok": True,
                    "latency_ms": latency_ms,
                }
                response.update(payload)
                responses[index] = response
        return responses

    def _vectorizable(self, request) -> tuple[str, np.ndarray] | None:
        """``(classifier, vector)`` when a request can join a stacked
        batch; ``None`` routes it through :meth:`handle` (which emits the
        typed error for anything actually malformed)."""
        if not isinstance(request, dict):
            return None
        if "features" not in request or "source" in request:
            return None
        classifier = request.get("classifier", self.default_classifier)
        if classifier not in _CLASSIFIERS:
            return None
        try:
            vector = self._coerce_features(request["features"])
        except _MalformedRequest:
            return None
        return classifier, vector

    # ------------------------------------------------------------------

    def _record(self, factor: int, n_loops: int, seconds: float) -> None:
        if self.rollup is None:
            return
        self.rollup.record(
            UnitTiming(
                benchmark="serve",
                factor=int(factor),
                worker=threading.get_ident(),
                n_loops=n_loops,
                seconds=seconds,
            )
        )

    def _dispatch(self, request) -> tuple[dict, int]:
        injector = get_injector()
        if injector.active:
            key = str(request.get("id")) if isinstance(request, dict) else ""
            injector.delay("serve.delay", key)
            injector.raise_fault("serve.internal", key)
        if isinstance(request, _InvalidLine):
            raise _MalformedRequest(ERROR_INVALID_JSON, request.message)
        if not isinstance(request, dict):
            raise _MalformedRequest(
                ERROR_MALFORMED_REQUEST,
                f"request must be a JSON object, got {type(request).__name__}",
            )
        classifier = request.get("classifier", self.default_classifier)
        if classifier not in _CLASSIFIERS:
            raise _MalformedRequest(
                ERROR_MALFORMED_REQUEST,
                f"unknown classifier {classifier!r} (choose from {', '.join(_CLASSIFIERS)})",
            )
        has_features = "features" in request
        has_source = "source" in request
        if has_features == has_source:
            raise _MalformedRequest(
                ERROR_MALFORMED_REQUEST,
                "request needs exactly one of 'features' or 'source'",
            )
        if has_features:
            return self._predict_features(request["features"], classifier), 1
        loops = self._predict_source(request["source"], classifier)
        payload = {
            "factor": loops[0]["factor"],
            "classifier": classifier,
            "loops": loops,
        }
        return payload, len(loops)

    def _coerce_features(self, features) -> np.ndarray:
        """Validate one feature payload into a ``(width,)`` float vector;
        raises :class:`_MalformedRequest` on any structural defect."""
        if not isinstance(features, (list, tuple)):
            raise _MalformedRequest(
                ERROR_BAD_FEATURE_VECTOR, "'features' must be a list of numbers"
            )
        try:
            vector = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError):
            raise _MalformedRequest(
                ERROR_BAD_FEATURE_VECTOR, "'features' contains non-numeric entries"
            ) from None
        if vector.shape != (self.input_width,):
            raise _MalformedRequest(
                ERROR_BAD_FEATURE_VECTOR,
                f"expected {self.input_width} features, got shape {vector.shape}",
            )
        if not np.isfinite(vector).all():
            raise _MalformedRequest(
                ERROR_BAD_FEATURE_VECTOR, "'features' contains non-finite entries"
            )
        return vector

    def _predict_features(self, features, classifier: str) -> dict:
        """The success payload for one feature-vector request.  The
        ensemble goes through :meth:`predict_detail` so the scalar path
        reports exactly what the batched path reports."""
        vector = self._coerce_features(features)
        heuristic = self._heuristics[classifier]
        if classifier == "ensemble":
            detail = heuristic.predict_detail(vector[None, :])
            return self._ensemble_payload(detail, 0)
        factor = int(heuristic.predict_features(vector[None, :])[0])
        return {"factor": factor, "classifier": classifier}

    @staticmethod
    def _ensemble_payload(detail, row: int) -> dict:
        """One row of an ensemble detail batch as response fields."""
        return {
            "factor": int(detail.labels[row]),
            "classifier": "ensemble",
            "confidence": float(detail.confidence[row]),
            "votes": {
                family: int(labels[row]) for family, labels in detail.votes.items()
            },
        }

    def _predict_source(self, source, classifier: str) -> list[dict]:
        from repro.frontend import LexError, ParseError, parse_program

        if not isinstance(source, str):
            raise _MalformedRequest(ERROR_UNPARSEABLE_LOOP, "'source' must be a string")
        try:
            entries = parse_program(source)
        except (LexError, ParseError) as error:
            raise _MalformedRequest(ERROR_UNPARSEABLE_LOOP, str(error)) from None
        heuristic = self._heuristics[classifier]
        if classifier == "ensemble":
            loops = []
            for entry in entries:
                factor, confidence = heuristic.predict_loop_detail(entry.loop)
                loops.append(
                    {"loop": entry.loop.name, "factor": factor, "confidence": confidence}
                )
            return loops
        return [
            {"loop": entry.loop.name, "factor": int(heuristic.predict_loop(entry.loop))}
            for entry in entries
        ]
