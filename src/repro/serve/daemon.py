"""The network-native serve tier: a TCP daemon with micro-batching.

``repro serve --listen HOST:PORT`` promotes the stdin/stdout JSON-lines
protocol to a real daemon: many concurrent connections, each a stream of
newline-delimited request objects, each answered by a newline-delimited
response object matched by ``id``.  The wire format is *identical* to the
batch path — a client that worked against ``repro serve --input`` works
against the socket unchanged.

What the daemon adds over one-process/one-client serving:

* **Adaptive micro-batching.**  Requests from *all* connections funnel
  into one coalescing loop: the first arrival opens a window of
  ``batch_window_ms``; everything arriving before it closes (or before
  ``max_batch`` is hit) is executed as one engine batch, and
  ``PredictionEngine.handle_batch`` answers the batch's feature-vector
  requests with a single vectorized ``(B, width)`` prediction per
  classifier instead of B scalar calls.  Under light traffic the window
  expires almost empty and latency stays near per-request; under load
  batches fill up and throughput scales with the vector width — the
  window adapts by doing nothing.
* **Engine replicas.**  ``replicas`` independent
  :class:`~repro.serve.engine.PredictionEngine` instances share one
  loaded :class:`~repro.registry.ModelArtifact` (immutable, zero copies)
  behind one :class:`~repro.serve.gateway.ServeGateway`; concurrent
  batches are dealt round-robin so they execute in parallel workers.
* **Admission at arrival.**  Every request is admitted or rejected the
  moment it is read, tagged with its connection's peer address —
  the gateway's queue bound and per-client fair share mean one flooding
  connection is told ``overloaded`` while everyone else keeps being
  served.
* **Hot artifact reload.**  :meth:`ServeDaemon.maybe_reload` (and the
  background watcher when ``reload_poll_s`` is set) notices a newer
  last-good artifact in the registry, loads it through the PR-4
  quarantine/fallback path, and swaps in fresh replicas between batches —
  in-flight batches finish on the engines they started with, so reload
  drops zero accepted requests.
* **Introspection.**  A ``{"healthz": true}`` request is answered inline
  (never queued) with gateway counters, batching stats, replica count,
  and the loaded artifact's path + checksum — the daemon's whole state in
  one probe.

Shutdown is drain-shaped: stop accepting connections, flush the
coalescing queue, then ``gateway.drain()`` — every admitted request gets
its response before the sockets close.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import socket
import threading
import time
from pathlib import Path

from repro.machine.itanium2 import ITANIUM2
from repro.machine.model import MachineModel
from repro.registry.artifact import ArtifactStore, load_or_quarantine
from repro.serve.engine import (
    ERROR_INVALID_JSON,
    ERROR_MALFORMED_REQUEST,
    PredictionEngine,
    _InvalidLine,
    error_response,
)
from repro.serve.gateway import GatewayConfig, ServeGateway
from repro.serve.loader import load_serving_artifact
from repro.serve.requestlog import RequestLog, features_checksum

#: Longest request line a connection may send (asyncio's default
#: ``StreamReader`` limit, made explicit so the error can name it).
LINE_LIMIT = 2**16


@dataclasses.dataclass(frozen=True)
class DaemonConfig:
    """Tunables for one :class:`ServeDaemon`.

    ``batch_window_ms`` is the coalescing window: how long the batch loop
    holds the first request of a batch open for company.  Larger windows
    trade tail latency for bigger (faster-per-request) vectorized batches;
    ``0`` disables coalescing entirely (every request is its own batch).
    Otherwise that value is the *ceiling*: a latency-aware controller
    shrinks the live window toward zero while batches close under-full (a
    trickle pays per-request latency, not the window) and grows it back
    under sustained queue depth (a flood earns its coalescing).
    ``port=0`` binds an ephemeral port (the bound address is on
    :attr:`ServeDaemon.address` after start).

    ``worker_id`` marks a cluster worker (see :mod:`repro.serve.multiproc`)
    and tags its healthz and request-log records.  A worker binds its
    listen socket with ``SO_REUSEPORT`` so sibling processes share one
    port (the kernel shards connections), and opens a second, ephemeral
    *control* listener speaking the same protocol — the supervisor's
    direct line to one worker for health probes and peer updates
    (accepted there only) regardless of where the kernel routes public
    connections.  ``request_log`` appends one JSON line per served
    response (see :mod:`repro.serve.requestlog`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_ms: float = 2.0
    max_batch: int = 32
    replicas: int = 2
    queue_limit: int = 256
    deadline_s: float | None = None
    reload_poll_s: float | None = None
    classifier: str = "svm"
    worker_id: int | None = None
    request_log: str | None = None
    request_log_max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {self.batch_window_ms}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


class WindowController:
    """Latency-aware adaptation of the coalescing window, AIMD-flavoured.

    The controller watches how every batch *closed*: a batch that filled
    to ``max_batch`` — or left tokens waiting on the queue — is pressure
    (the window is earning throughput); a batch that closed well
    under-full with an empty queue behind it is idleness (the window is
    pure added latency).  Two consecutive observations of either kind
    move the window: halve toward zero on idleness (snapping to exactly
    ``0`` once it is a negligible fraction of the base, so a trickle pays
    true per-request latency), double toward the configured base on
    pressure (re-entering from zero at ``base/8``).  The base is a hard
    ceiling — the operator's ``batch_window_ms`` still bounds tail
    latency.

    The two-observation hysteresis is what makes the controller stable:
    a single odd-sized batch (the first of a burst, the last of a drain)
    never whipsaws the window.
    """

    #: Consecutive same-direction observations before the window moves.
    HYSTERESIS = 2
    #: Shrinking below ``base / SNAP_DENOMINATOR`` snaps the window to 0.
    SNAP_DENOMINATOR = 64.0
    #: A window growing from 0 re-enters at ``base / REENTRY_DENOMINATOR``.
    REENTRY_DENOMINATOR = 8.0

    def __init__(self, base_ms: float, max_batch: int):
        self.base_ms = base_ms
        self.max_batch = max_batch
        self.window_ms = base_ms
        self.shrinks = 0
        self.grows = 0
        self._pressure_streak = 0
        self._idle_streak = 0
        # Nothing to adapt when coalescing is off by construction.
        self.enabled = base_ms > 0 and max_batch > 1

    def observe(self, batch_size: int, queue_depth: int) -> float:
        """Account one closed batch; returns the window for the next."""
        if not self.enabled:
            return self.window_ms
        if batch_size >= self.max_batch or queue_depth > 0:
            self._pressure_streak += 1
            self._idle_streak = 0
            if self._pressure_streak >= self.HYSTERESIS and self.window_ms < self.base_ms:
                self.window_ms = min(
                    self.base_ms,
                    max(self.window_ms * 2.0, self.base_ms / self.REENTRY_DENOMINATOR),
                )
                self.grows += 1
        elif batch_size <= max(1, self.max_batch // 4):
            self._idle_streak += 1
            self._pressure_streak = 0
            if self._idle_streak >= self.HYSTERESIS and self.window_ms > 0.0:
                shrunk = self.window_ms / 2.0
                self.window_ms = (
                    0.0 if shrunk < self.base_ms / self.SNAP_DENOMINATOR else shrunk
                )
                self.shrinks += 1
        else:
            # Mid-sized batches: the window is pulling its weight; hold.
            self._pressure_streak = 0
            self._idle_streak = 0
        return self.window_ms

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "current_window_ms": round(self.window_ms, 4),
            "base_window_ms": self.base_ms,
            "shrinks": self.shrinks,
            "grows": self.grows,
        }


def merge_worker_health(workers: list[dict]) -> dict:
    """Merge per-worker ``healthz`` payloads into one cluster view.

    ``workers`` entries are either a worker's ``healthz`` dict (tagged
    with its ``worker`` identity) or an ``{"alive": False, ...}`` stub
    for a worker that could not be probed.  The merged gateway counters
    are plain sums; ``balanced`` holds exactly when every live worker's
    own counters balance — which, summed, is the cluster-wide
    admitted == ok + error + deadline identity.
    """
    counter_keys = (
        "admitted", "served_ok", "served_error", "overloaded", "deadline_exceeded"
    )
    merged_counters = dict.fromkeys(counter_keys, 0)
    batching = {"batches": 0, "batched_requests": 0, "max_batch": 0}
    request_log_records = 0
    request_log_bytes = 0
    request_log_dropped = 0
    alive = 0
    balanced = True
    per_worker = []
    for health in workers:
        if not health.get("alive", True):
            balanced = False
            per_worker.append(health)
            continue
        alive += 1
        gateway = health.get("gateway", {})
        for key in counter_keys:
            merged_counters[key] += gateway.get(key, 0)
        worker_balanced = gateway.get("admitted", 0) == (
            gateway.get("served_ok", 0)
            + gateway.get("served_error", 0)
            + gateway.get("deadline_exceeded", 0)
        )
        balanced = balanced and worker_balanced
        stats = health.get("batching", {})
        batching["batches"] += stats.get("batches", 0)
        batching["batched_requests"] += stats.get("batched_requests", 0)
        batching["max_batch"] = max(batching["max_batch"], stats.get("max_batch", 0))
        log_stats = health.get("request_log") or {}
        request_log_records += log_stats.get("records", 0)
        request_log_bytes += log_stats.get("bytes_written", 0)
        request_log_dropped += log_stats.get("dropped", 0)
        per_worker.append(
            {
                "worker": health.get("worker"),
                "alive": True,
                "balanced": worker_balanced,
                "gateway": gateway,
                "batching": stats,
                "uptime_s": health.get("uptime_s"),
            }
        )
    return {
        "aggregate": True,
        "cluster_size": len(workers),
        "workers_alive": alive,
        "gateway": merged_counters,
        "batching": batching,
        "request_log_records": request_log_records,
        "request_log_bytes": request_log_bytes,
        "request_log_dropped": request_log_dropped,
        "balanced": balanced,
        "workers": per_worker,
    }


def probe_healthz(host: str, port: int, timeout: float = 5.0) -> dict:
    """One blocking healthz round trip; raises ``OSError`` on transport
    failure (callers decide whether a dead worker is an error)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(json.dumps({"healthz": True}) + "\n")
        stream.flush()
        return json.loads(stream.readline())["healthz"]


def _file_checksum(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ServeDaemon:
    """One artifact, N engine replicas, one socket, shared micro-batching.

    Construct, then either drive the asyncio lifecycle directly
    (``await start()`` / ``await stop()`` on a running loop) or use
    :class:`BackgroundDaemon` / :meth:`run` which own a loop for you.
    """

    def __init__(
        self,
        model_path: str | Path,
        config: DaemonConfig | None = None,
        store: ArtifactStore | None = None,
        machine: MachineModel = ITANIUM2,
    ):
        self.config = config or DaemonConfig()
        self._machine = machine
        self._store = store if store is not None else ArtifactStore()
        self.loaded = load_serving_artifact(model_path, store=self._store, machine=machine)
        self.checksum = _file_checksum(self.loaded.path)
        self._artifact_mtime = self.loaded.path.stat().st_mtime
        self.gateway = ServeGateway(
            self._build_replicas(self.loaded.artifact),
            GatewayConfig(
                max_workers=self.config.replicas,
                queue_limit=self.config.queue_limit,
                deadline_s=self.config.deadline_s,
            ),
        )
        self.reloads = 0
        self._reload_lock = threading.Lock()
        self._started = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._control_server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._batch_task: asyncio.Task | None = None
        self._watch_task: asyncio.Task | None = None
        self._connections: set = set()
        self._deliveries: set = set()
        self._closing = False
        self.address: tuple[str, int] | None = None
        self.control_address: tuple[str, int] | None = None
        self.window = WindowController(self.config.batch_window_ms, self.config.max_batch)
        self.gateway.batch_stats.window_ms = self.window.window_ms
        self.request_log = (
            RequestLog(
                self.config.request_log,
                worker=self.config.worker_id,
                max_bytes=self.config.request_log_max_bytes,
            )
            if self.config.request_log
            else None
        )
        #: Sibling workers for aggregated healthz: (worker_id, host, port)
        #: control addresses, installed by the supervisor's peer broadcast.
        self._peers: tuple[tuple[int, str, int], ...] = ()

    def _build_replicas(self, artifact) -> tuple[PredictionEngine, ...]:
        """N engines over one immutable artifact — shared weights, no
        copies, and no per-request record (the daemon runs unbounded
        traffic; its counters and the request log are the record)."""
        return tuple(
            PredictionEngine(artifact, classifier=self.config.classifier)
            for _ in range(self.config.replicas)
        )

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the socket(s) and start the batch loop (and watcher, if any).

        A cluster worker's public listener joins an ``SO_REUSEPORT``
        group — sibling worker processes bind the same ``host:port`` and
        the kernel shards incoming connections across them — and a second,
        always-ephemeral control listener serves the same protocol for
        direct per-worker probes.
        """
        worker = self.config.worker_id is not None
        self._queue = asyncio.Queue()
        self._batch_task = asyncio.ensure_future(self._batch_loop())
        if self.config.reload_poll_s is not None:
            self._watch_task = asyncio.ensure_future(self._watch_registry())
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            reuse_port=worker or None,
            limit=LINE_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if worker:
            self._control_server = await asyncio.start_server(
                functools.partial(self._handle_connection, control=True),
                self.config.host,
                0,
                limit=LINE_LIMIT,
            )
            control_name = self._control_server.sockets[0].getsockname()
            self.control_address = (control_name[0], control_name[1])

    async def stop(self) -> None:
        """Drain-shaped shutdown: no request admitted before the sockets
        closed goes unanswered."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
        if self._batch_task is not None:
            # Stop admitting *before* the sentinel goes on the queue.  Both
            # the flag-then-sentinel here and a handler's check-then-enqueue
            # run without yielding to the loop, so no handler can slip a
            # token behind the sentinel: it either enqueued first (the loop
            # executes it) or it sees ``_closing`` and rejects the read with
            # a typed error.  The sentinel itself queues behind any
            # still-coalescing tokens, so the loop executes every admitted
            # request before exiting.
            self._closing = True
            self._queue.put_nowait(None)
            await self._batch_task
        await asyncio.get_event_loop().run_in_executor(None, self.gateway.drain)
        # Every future is resolved now; let in-flight response writes land,
        # then cancel handlers still parked on an idle connection's readline.
        if self._deliveries:
            await asyncio.gather(*tuple(self._deliveries), return_exceptions=True)
        for task in tuple(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)
        if self.request_log is not None:
            # Every response has been delivered (and therefore recorded);
            # sealing here flushes the writer's backlog to disk.
            await asyncio.get_event_loop().run_in_executor(
                None, self.request_log.close
            )

    # ------------------------------------------------------------------
    # hot reload

    def maybe_reload(self) -> bool:
        """Swap in the registry's newest artifact if it is newer than ours.

        Thread-safe and cheap when nothing changed (one registry scan +
        stat).  On reload the gateway's replicas are replaced atomically:
        batches already executing keep their engines, every later batch
        runs the new model.  Returns whether a swap happened.
        """
        with self._reload_lock:
            newest: tuple[float, Path] | None = None
            for path in self._store.entries():
                try:
                    mtime = path.stat().st_mtime
                except FileNotFoundError:
                    continue
                if newest is None or mtime > newest[0]:
                    newest = (mtime, path)
            if newest is None:
                return False
            mtime, path = newest
            if path == self.loaded.path and mtime <= self._artifact_mtime:
                return False
            if mtime < self._artifact_mtime:
                return False
            try:
                # Through the quarantine path: a corrupt "newer" artifact
                # is renamed aside and we keep serving what we have.
                artifact = load_or_quarantine(path, machine=self._machine)
            except Exception:
                return False
            checksum = _file_checksum(path)
            if checksum == self.checksum:
                # Re-saved identical bytes (deterministic serialization):
                # remember the newer mtime, skip the swap.
                self._artifact_mtime = mtime
                return False
            self.gateway.swap_replicas(self._build_replicas(artifact))
            self.loaded = dataclasses.replace(
                self.loaded, artifact=artifact, path=path, fallback=False
            )
            self.checksum = checksum
            self._artifact_mtime = mtime
            self.reloads += 1
            return True

    async def _watch_registry(self) -> None:
        while True:
            await asyncio.sleep(self.config.reload_poll_s)
            await asyncio.get_event_loop().run_in_executor(None, self.maybe_reload)

    # ------------------------------------------------------------------
    # introspection

    def healthz(self) -> dict:
        counters = self.gateway.counters
        stats = self.gateway.batch_stats
        return {
            "ok": True,
            "healthz": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "worker": self.config.worker_id,
                "pid": os.getpid(),
                "artifact": {
                    "path": str(self.loaded.path),
                    "checksum": self.checksum,
                    "fallback": self.loaded.fallback,
                    "reloads": self.reloads,
                    # Per-family presence: which classifier names this
                    # artifact can serve (all five under schema v2).
                    "families": {
                        name: self.loaded.artifact.heuristic(name) is not None
                        for name in self.loaded.artifact.families
                    },
                },
                "gateway": dataclasses.asdict(counters),
                "batching": {
                    "batches": stats.batches,
                    "batched_requests": stats.batched_requests,
                    "max_batch": stats.max_batch,
                    "mean_batch": round(stats.mean_batch(), 3),
                    "window_ms": self.config.batch_window_ms,
                    "max_batch_limit": self.config.max_batch,
                    "adaptive": self.window.stats(),
                },
                "replicas": len(self.gateway.replicas),
                "cluster_peers": len(self._peers),
                "request_log": (
                    self.request_log.stats() if self.request_log is not None else None
                ),
            },
        }

    def set_peers(self, peers) -> int:
        """Install the sibling-worker control addresses used by
        aggregated healthz; returns how many are now known.  The
        supervisor broadcasts this after startup and after every worker
        restart (a restarted worker binds a fresh control port)."""
        self._peers = tuple(
            (int(worker_id), str(host), int(port)) for worker_id, host, port in peers
        )
        return len(self._peers)

    def _gather_cluster_health(self) -> dict:
        """Blocking fan-out: probe every peer's control listener, merge.

        Runs on an executor thread so the event loop keeps accepting
        while probes are in flight.  This worker answers for itself
        locally (no self-connection); a peer that cannot be reached is
        reported ``alive: False`` rather than hiding the hole.
        """
        own = self.healthz()["healthz"]
        if not self._peers:
            return merge_worker_health([own])
        workers = []
        for worker_id, host, port in self._peers:
            if worker_id == self.config.worker_id:
                workers.append(own)
                continue
            try:
                workers.append(probe_healthz(host, port))
            except (OSError, ValueError, KeyError):
                workers.append({"worker": worker_id, "alive": False})
        return merge_worker_health(workers)

    async def aggregate_healthz(self) -> dict:
        merged = await asyncio.get_event_loop().run_in_executor(
            None, self._gather_cluster_health
        )
        return {"ok": True, "healthz": merged}

    def _log_entry(self, token, response: dict) -> dict:
        """One served-request log record (see :mod:`repro.serve.requestlog`
        for the field contract)."""
        request = token.request if isinstance(token.request, dict) else {}
        ok = bool(response.get("ok"))
        return {
            "ts": round(time.time(), 6),
            "worker": self.config.worker_id,
            "id": token.request_id,
            "classifier": response.get(
                "classifier", request.get("classifier", self.config.classifier)
            ),
            "features_sha256": features_checksum(request),
            # The raw payload makes the log replayable: the lifecycle's
            # drift scan and canary gate re-predict exactly what clients
            # sent, not a hash of it.
            "features": request.get("features"),
            "source": request.get("source"),
            "ok": ok,
            "factor": response.get("factor"),
            "confidence": response.get("confidence"),
            "error_type": None if ok else response.get("error", {}).get("type"),
            "latency_ms": round((time.monotonic() - token.enqueued) * 1e3, 3),
        }

    # ------------------------------------------------------------------
    # the coalescing loop

    async def _batch_loop(self) -> None:
        """Pull admitted tokens off the shared queue; coalesce arrivals
        within ``batch_window_ms`` (up to ``max_batch``) into one gateway
        batch.  A ``None`` sentinel — queued behind all remaining tokens at
        shutdown — ends the loop once everything before it has executed.

        The coalescing window is re-read from the latency-aware
        :class:`WindowController` for every batch: a trickle shrinks it
        toward zero (responses leave as fast as the engine answers), a
        flood grows it back toward the configured ceiling (batches fill
        and the vectorized path earns its keep)."""
        loop = asyncio.get_event_loop()
        while True:
            token = await self._queue.get()
            if token is None:
                self._flush_queue([])
                return
            batch = [token]
            deadline = loop.time() + self.window.window_ms / 1e3
            closing = False
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window expired: sweep whatever already arrived, then go.
                    try:
                        while len(batch) < self.config.max_batch:
                            extra = self._queue.get_nowait()
                            if extra is None:
                                closing = True
                                break
                            batch.append(extra)
                    except asyncio.QueueEmpty:
                        pass
                    break
                try:
                    extra = await asyncio.wait_for(self._queue.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if extra is None:
                    closing = True
                    break
                batch.append(extra)
            if closing:
                self._flush_queue(batch)
                return
            self.gateway.execute_batch(batch)
            self.window.observe(len(batch), self._queue.qsize())
            stats = self.gateway.batch_stats
            stats.window_ms = self.window.window_ms
            stats.window_shrinks = self.window.shrinks
            stats.window_grows = self.window.grows

    def _flush_queue(self, batch: list) -> None:
        """Sentinel seen: execute the final batch plus any tokens still on
        the queue, so nothing admitted is left with an unresolved future —
        belt-and-braces behind the ``_closing`` admission gate."""
        while True:
            try:
                extra = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if extra is not None:
                batch.append(extra)
        for start in range(0, len(batch), self.config.max_batch):
            self.gateway.execute_batch(batch[start : start + self.config.max_batch])

    # ------------------------------------------------------------------
    # per-connection protocol

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        control: bool = False,
    ) -> None:
        """Serve one connection; ``control`` marks the supervisor's control
        listener, the only one allowed to rewrite the peer list."""
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        write_lock = asyncio.Lock()
        deliveries: set[asyncio.Task] = set()
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

        async def write_response(response: dict) -> None:
            async with write_lock:
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()

        async def deliver(future, token=None) -> None:
            response = await asyncio.wrap_future(future)
            if self.request_log is not None and token is not None:
                # Enqueue-only (the log's writer thread does the I/O):
                # the response is not delayed by logging it.
                self.request_log.record(self._log_entry(token, response))
            with contextlib.suppress(ConnectionError):
                await write_response(response)

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over LINE_LIMIT: the rest of the line cannot be framed,
                    # so answer once, let in-flight responses land, and close.
                    await write_response(
                        error_response(
                            None,
                            ERROR_MALFORMED_REQUEST,
                            f"request line exceeds {LINE_LIMIT} bytes; closing",
                        )
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    request = json.loads(text)
                except json.JSONDecodeError as error:
                    request = _InvalidLine(str(error))
                if isinstance(request, dict) and request.get("healthz"):
                    if request.get("aggregate"):
                        merged = await self.aggregate_healthz()
                        await write_response({**merged, "id": request.get("id")})
                    else:
                        await write_response(
                            {**self.healthz(), "id": request.get("id")}
                        )
                    continue
                if isinstance(request, dict) and "cluster_peers" in request:
                    # Supervisor control-plane: install sibling control
                    # addresses for aggregated healthz.  Answered inline,
                    # never queued — peer updates must land even while the
                    # serve queue is saturated.
                    if not control:
                        await write_response(
                            error_response(
                                request.get("id"),
                                ERROR_MALFORMED_REQUEST,
                                "cluster_peers is accepted only on the control listener",
                            )
                        )
                        continue
                    try:
                        count = self.set_peers(request["cluster_peers"])
                    except (TypeError, ValueError) as error:
                        await write_response(
                            error_response(
                                request.get("id"),
                                ERROR_INVALID_JSON,
                                f"malformed cluster_peers: {error}",
                            )
                        )
                        continue
                    await write_response(
                        {"ok": True, "id": request.get("id"), "peers": count}
                    )
                    continue
                if self._closing:
                    # Shutdown has begun: the batch loop is (or is about to
                    # be) gone, so admitting would strand a token with an
                    # unresolved future behind the sentinel.  Refuse with a
                    # typed error instead — the drain guarantee covers what
                    # was admitted, not what arrives mid-shutdown.
                    await write_response(
                        self.gateway.reject(
                            request, "daemon is shutting down; retry elsewhere"
                        )
                    )
                    continue
                token = self.gateway.admit(request, client=client)
                if token.admitted:
                    await self._queue.put(token)
                # Responses are written in completion order, matched to
                # requests by id — a pipelining client must tag requests.
                delivery = asyncio.ensure_future(deliver(token.future, token))
                for registry in (deliveries, self._deliveries):
                    registry.add(delivery)
                    delivery.add_done_callback(registry.discard)
            if deliveries:
                await asyncio.gather(*deliveries, return_exceptions=True)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on readline after every
            # response has been written; the connection just closes.
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # blocking entry points

    def run(self) -> None:
        """Serve until interrupted (the CLI's ``--listen`` path).

        SIGINT/SIGTERM trigger the drain-shaped shutdown: stop accepting,
        answer everything admitted, then exit."""
        import signal

        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(signum, loop.stop)
            host, port = self.address
            print(f"daemon listening on {host}:{port}", flush=True)
            try:
                loop.run_forever()
            except KeyboardInterrupt:
                pass
            loop.run_until_complete(self.stop())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


class BackgroundDaemon:
    """Run a :class:`ServeDaemon` on a background thread (tests, embedding).

    ``with BackgroundDaemon(daemon) as d:`` yields once the socket is
    bound (``d.address`` is live); exit performs the full drain-shaped
    shutdown before returning.
    """

    def __init__(self, daemon: ServeDaemon):
        self.daemon = daemon
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> ServeDaemon:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self.daemon

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.daemon.start())
        except BaseException as error:  # surface bind failures to __enter__
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.daemon.stop())
        self._loop.close()

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._startup_error is None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join()
