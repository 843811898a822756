"""The serving half of the train-once/serve-many split.

:class:`PredictionEngine` loads a trained :class:`~repro.registry.ModelArtifact`
once and answers batched prediction requests — loop source or feature
vectors in, unroll factors out — with a malformed-input error taxonomy
instead of crashes, and per-request latency/throughput counters flowing
through :class:`~repro.instrument.MeasurementRollup`.

:class:`ServeGateway` hardens that engine for service shape: a bounded
queue with typed ``overloaded`` backpressure, per-client fair-share
admission, per-request deadlines, batched execution over engine replicas,
and a graceful drain that never drops admitted work.
:func:`load_serving_artifact` is the circuit breaker in front of both — a
corrupt artifact is quarantined and the registry's last good model is
served in its place.  :class:`ServeDaemon` is the network tier on top:
an asyncio TCP front-end that coalesces concurrent clients' requests
into vectorized engine batches, hot-reloads newer registry artifacts with
zero downtime, and answers ``healthz`` probes.  :class:`ServeCluster`
multiplies that daemon across N shared-nothing worker *processes* on one
port — the kernel shards connections with ``SO_REUSEPORT`` — with crash
restarts, drain fan-out, and aggregated cluster health.  :class:`RequestLog` records every served
prediction as append-mode JSON lines, off the hot path.
"""

from repro.serve.daemon import (
    BackgroundDaemon,
    DaemonConfig,
    ServeDaemon,
    WindowController,
    merge_worker_health,
    probe_healthz,
)
from repro.serve.engine import (
    ERROR_BAD_FEATURE_VECTOR,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_INVALID_JSON,
    ERROR_MALFORMED_REQUEST,
    ERROR_OVERLOADED,
    ERROR_UNPARSEABLE_LOOP,
    PredictionEngine,
    error_response,
)
from repro.serve.gateway import (
    BatchStats,
    GatewayConfig,
    GatewayCounters,
    ServeGateway,
)
from repro.serve.loader import LoadedArtifact, load_serving_artifact
from repro.serve.multiproc import (
    ClusterConfig,
    ServeCluster,
    WorkerStartupError,
)
from repro.serve.requestlog import (
    RequestLog,
    features_checksum,
    iter_request_log,
    read_request_log,
    request_log_segments,
)

__all__ = [
    "ERROR_BAD_FEATURE_VECTOR",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_INTERNAL",
    "ERROR_INVALID_JSON",
    "ERROR_MALFORMED_REQUEST",
    "ERROR_OVERLOADED",
    "ERROR_UNPARSEABLE_LOOP",
    "BackgroundDaemon",
    "BatchStats",
    "ClusterConfig",
    "DaemonConfig",
    "GatewayConfig",
    "GatewayCounters",
    "LoadedArtifact",
    "PredictionEngine",
    "RequestLog",
    "ServeCluster",
    "ServeDaemon",
    "ServeGateway",
    "WindowController",
    "WorkerStartupError",
    "error_response",
    "features_checksum",
    "iter_request_log",
    "load_serving_artifact",
    "merge_worker_health",
    "probe_healthz",
    "read_request_log",
    "request_log_segments",
]
