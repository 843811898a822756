"""The shared-nothing multi-process serve tier: one port, N interpreters.

PR 7's daemon is one Python process: the socket loop and every replica
prediction contend on a single GIL.  This module escapes it the way
production Python services do — by not sharing anything.  ``repro serve
--listen HOST:PORT --workers N`` runs a :class:`ServeCluster`: a parent
*supervisor* process that spawns N completely independent
:class:`~repro.serve.daemon.ServeDaemon` worker processes, each with its
own interpreter, its own loaded artifact, its own replicas, batch loop,
window controller, and hot-reload watcher.

Connections are sharded by the kernel: every worker binds the same
``host:port`` with ``SO_REUSEPORT`` and the kernel deals incoming
connections across the listening sockets — no user-space balancer, no
shared accept lock, no extra hop.  The supervisor holds a bound (never
listening) reservation socket in the same group so ``port 0`` resolves to
one concrete port before any worker starts, and the port stays owned
across worker restarts.  A platform without ``SO_REUSEPORT`` cannot run
the cluster: :meth:`ServeCluster.start` raises
:class:`WorkerStartupError` before it spawns anything (a single
``--workers 1`` daemon needs no sharding and runs anywhere).

The supervisor also owns the *lifecycle*:

* **Crash restarts with backoff.**  A monitor thread watches worker
  processes; a dead worker is respawned after an exponentially growing
  delay (reset once a worker proves stable) on the reserved port, and
  announced to its siblings.
* **Signal fan-out.**  SIGINT/SIGTERM to the supervisor forwards SIGTERM
  to every worker, each of which performs the daemon's drain-shaped
  shutdown (every admitted request answered); the supervisor waits for
  all of them before exiting.
* **Aggregated healthz.**  Each worker carries a *control* listener (an
  ephemeral second socket speaking the same protocol).  The supervisor
  broadcasts the control addresses to every worker, so a
  ``{"healthz": true, "aggregate": true}`` probe against *any* worker —
  wherever the kernel routed the connection — fans out to all siblings
  and answers with merged counters.  :meth:`ServeCluster.healthz` is the
  same merge done supervisor-side.

Workers are spawned (not forked) so no parent thread, lock, or event
loop leaks into a child; everything a worker needs travels as picklable
arguments.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import threading
import time

from repro.serve.daemon import (
    DaemonConfig,
    ServeDaemon,
    merge_worker_health,
    probe_healthz,
)

@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Tunables for one :class:`ServeCluster`.

    ``daemon`` is the per-worker template: its ``host``/``port``/
    ``worker_id`` fields are overridden per worker; everything else
    (window, max_batch, replicas, queue limit, deadline, reload poll,
    classifier, request log) applies to every worker identically.  Restart backoff doubles from
    ``restart_backoff_s`` to ``restart_backoff_max_s`` across
    consecutive failures and resets once a worker survives
    ``stable_after_s``.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    daemon: DaemonConfig = dataclasses.field(default_factory=DaemonConfig)
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 2.0
    stable_after_s: float = 10.0
    ready_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.restart_backoff_s <= 0:
            raise ValueError(
                f"restart_backoff_s must be positive, got {self.restart_backoff_s}"
            )


@dataclasses.dataclass
class WorkerHandle:
    """One live worker as the supervisor sees it."""

    worker_id: int
    process: multiprocessing.Process
    pid: int
    control_address: tuple[str, int]
    started: float
    restarts: int = 0
    backoff_s: float = 0.1
    restart_at: float | None = None

    def alive(self) -> bool:
        return self.process.is_alive()


def _worker_main(model_path, config, store_root, ready):  # pragma: no cover
    """Worker-process entry point (runs in the spawned child).

    Builds the daemon, binds its sockets, reports its control address
    back through ``ready``, then serves until SIGTERM/SIGINT triggers the
    drain-shaped shutdown.  Excluded from coverage: it executes in a
    separate interpreter the parent's tracer cannot see.
    """
    import asyncio
    import contextlib

    from repro.registry.artifact import ArtifactStore

    store = ArtifactStore(store_root) if store_root is not None else ArtifactStore()
    try:
        daemon = ServeDaemon(model_path, config, store=store)
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
    except BaseException as error:
        with contextlib.suppress(OSError, ValueError):
            ready.send({"worker": config.worker_id, "error": repr(error)})
        raise
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, loop.stop)
    ready.send(
        {
            "worker": config.worker_id,
            "pid": os.getpid(),
            "control": list(daemon.control_address),
        }
    )
    ready.close()
    try:
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        loop.run_until_complete(daemon.stop())
        loop.close()


class WorkerStartupError(RuntimeError):
    """The cluster could not start: no ``SO_REUSEPORT`` or no port to
    reserve, or a worker died, reported a bind failure, or missed its
    ready deadline during spawn."""


class ServeCluster:
    """Supervisor for N shared-nothing daemon workers on one port.

    Usable as a context manager (``with ServeCluster(...) as cluster:``
    yields with every worker ready and ``cluster.address`` live) or via
    :meth:`run` for the CLI's serve-until-signalled path.
    """

    def __init__(
        self,
        model_path,
        config: ClusterConfig | None = None,
        store_root=None,
    ):
        self.config = config or ClusterConfig()
        self._model_path = str(model_path)
        self._store_root = str(store_root) if store_root is not None else None
        self._ctx = multiprocessing.get_context("spawn")
        self.address: tuple[str, int] | None = None
        self.restarts = 0
        self._reservation: socket.socket | None = None
        self._workers: list[WorkerHandle] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False
        #: Lifecycle announcements ("worker 2 pid 123 restarted ...");
        #: the CLI points this at print, tests at a list.
        self.on_event = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Reserve the port, spawn every worker, start the restart monitor.

        Raises :class:`WorkerStartupError` before spawning anything when
        the platform cannot share a port with ``SO_REUSEPORT``."""
        if self._started:
            raise RuntimeError("cluster already started")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise WorkerStartupError(
                "this platform has no SO_REUSEPORT; run a single daemon "
                "(--workers 1) instead of a cluster"
            )
        # Reserve the concrete port (resolving port 0 now) with a bound,
        # never-listening socket in the reuseport group: the kernel only
        # deals connections to *listening* sockets, so the reservation
        # receives nothing but keeps the port ours across worker restarts.
        host, port = self.config.host, self.config.port
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        reservation = socket.socket(family, socket.SOCK_STREAM)
        try:
            reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reservation.bind((host, port))
        except OSError as error:
            reservation.close()
            raise WorkerStartupError(
                f"cannot reserve {host}:{port} with SO_REUSEPORT: {error}"
            ) from error
        self._reservation = reservation
        self.address = (host, reservation.getsockname()[1])
        spawning = [
            self._spawn(worker_id) for worker_id in range(self.config.workers)
        ]
        try:
            self._workers = [self._await_ready(*pending) for pending in spawning]
        except Exception:
            for process, _ in spawning:
                if process.is_alive():
                    process.terminate()
            reservation.close()
            raise
        self._broadcast_peers()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._started = True
        self._monitor.start()

    def stop(self) -> None:
        """Drain-shaped cluster shutdown: stop restarts, let every worker
        answer what it admitted, then reap them all."""
        if not self._started:
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join()
        self._signal_workers(signal.SIGTERM)
        deadline = time.monotonic() + 60.0
        for handle in self._workers:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        self._reservation.close()
        self._started = False

    def __enter__(self) -> "ServeCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def run(self) -> None:
        """Serve until SIGINT/SIGTERM (the CLI's ``--workers N`` path)."""
        finished = threading.Event()
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda *_: finished.set())
        try:
            self.start()
            host, port = self.address
            self._announce(
                f"daemon listening on {host}:{port} workers={self.config.workers}"
            )
            for handle in self._workers:
                self._announce(
                    f"worker {handle.worker_id} pid {handle.pid} ready on {host}:{port}"
                )
            finished.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()

    # ------------------------------------------------------------------
    # introspection

    @property
    def workers(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def healthz(self) -> dict:
        """The supervisor-side aggregated health: probe every worker's
        control listener, merge counters, report the dead by id."""
        merged = merge_worker_health(
            [self._probe_worker(handle) for handle in self.workers]
        )
        merged["restarts"] = self.restarts
        return merged

    def summary(self) -> str:
        health = self.healthz()
        gateway = health["gateway"]
        return (
            f"cluster: {health['workers_alive']}/"
            f"{health['cluster_size']} worker(s), {self.restarts} restart(s), "
            f"{gateway['admitted']} admitted, {gateway['served_ok']} ok, "
            f"{gateway['served_error']} error(s), "
            f"{gateway['overloaded']} overloaded, "
            f"balanced={health['balanced']}"
        )

    @staticmethod
    def _probe_worker(handle: WorkerHandle) -> dict:
        try:
            return probe_healthz(*handle.control_address)
        except (OSError, ValueError, KeyError):
            return {"worker": handle.worker_id, "alive": False}

    # ------------------------------------------------------------------
    # spawning

    def _daemon_config(self, worker_id: int) -> DaemonConfig:
        return dataclasses.replace(
            self.config.daemon,
            host=self.address[0],
            port=self.address[1],
            worker_id=worker_id,
        )

    def _spawn(self, worker_id: int):
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._model_path,
                self._daemon_config(worker_id),
                self._store_root,
                child_conn,
            ),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _await_ready(self, process, conn) -> WorkerHandle:
        deadline = time.monotonic() + self.config.ready_timeout_s
        try:
            while not conn.poll(0.05):
                if not process.is_alive():
                    raise WorkerStartupError(
                        f"worker process {process.pid} died before ready "
                        f"(exitcode {process.exitcode})"
                    )
                if time.monotonic() > deadline:
                    process.terminate()
                    raise WorkerStartupError(
                        f"worker process {process.pid} missed the "
                        f"{self.config.ready_timeout_s}s ready deadline"
                    )
            try:
                info = conn.recv()
            except EOFError:
                process.join(timeout=5.0)
                raise WorkerStartupError(
                    f"worker process {process.pid} closed its ready pipe "
                    f"without reporting (exitcode {process.exitcode})"
                ) from None
        finally:
            conn.close()
        if "error" in info:
            process.join(timeout=5.0)
            raise WorkerStartupError(
                f"worker {info.get('worker')} failed to start: {info['error']}"
            )
        return WorkerHandle(
            worker_id=info["worker"],
            process=process,
            pid=info["pid"],
            control_address=(info["control"][0], info["control"][1]),
            started=time.monotonic(),
            backoff_s=self.config.restart_backoff_s,
        )

    # ------------------------------------------------------------------
    # control plane

    def _broadcast_peers(self) -> None:
        """Tell every live worker where its siblings' control listeners
        are, enabling wire-level aggregated healthz from any worker."""
        import json as json_mod

        with self._lock:
            peers = [
                [handle.worker_id, *handle.control_address]
                for handle in self._workers
                if handle.alive()
            ]
            targets = [
                handle.control_address for handle in self._workers if handle.alive()
            ]
        payload = (json_mod.dumps({"cluster_peers": peers}) + "\n").encode("utf-8")
        for target in targets:
            try:
                with socket.create_connection(target, timeout=5) as sock:
                    sock.sendall(payload)
                    stream = sock.makefile("r", encoding="utf-8", newline="\n")
                    stream.readline()
            except OSError:
                # Died between the snapshot and the send: the monitor will
                # respawn it and re-broadcast.
                continue

    def _signal_workers(self, signum: int) -> None:
        for handle in self.workers:
            if handle.alive():
                try:
                    os.kill(handle.pid, signum)
                except (ProcessLookupError, PermissionError):
                    continue

    def _announce(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    # ------------------------------------------------------------------
    # the restart monitor

    def _monitor_loop(self) -> None:
        """Watch workers; respawn the dead after their backoff.

        Exponential backoff per slot (doubling to the cap on consecutive
        failures, reset after ``stable_after_s`` of uptime) keeps a
        crash-looping model from melting the host while a one-off kill is
        healed in ~``restart_backoff_s``.
        """
        while not self._stopping.wait(0.05):
            now = time.monotonic()
            for index in range(len(self._workers)):
                with self._lock:
                    handle = self._workers[index]
                if handle.alive():
                    if (
                        handle.restart_at is None
                        and now - handle.started > self.config.stable_after_s
                        and handle.backoff_s != self.config.restart_backoff_s
                    ):
                        handle.backoff_s = self.config.restart_backoff_s
                    continue
                if handle.restart_at is None:
                    # Just noticed the death: schedule the respawn.
                    handle.restart_at = now + handle.backoff_s
                    self._announce(
                        f"worker {handle.worker_id} pid {handle.pid} died "
                        f"(exitcode {handle.process.exitcode}); restart in "
                        f"{handle.backoff_s:.2f}s"
                    )
                    continue
                if now < handle.restart_at:
                    continue
                try:
                    replacement = self._await_ready(
                        *self._spawn(handle.worker_id)
                    )
                except WorkerStartupError as error:
                    handle.backoff_s = min(
                        self.config.restart_backoff_max_s, handle.backoff_s * 2.0
                    )
                    handle.restart_at = time.monotonic() + handle.backoff_s
                    self._announce(
                        f"worker {handle.worker_id} restart failed ({error}); "
                        f"retry in {handle.backoff_s:.2f}s"
                    )
                    continue
                replacement.restarts = handle.restarts + 1
                replacement.backoff_s = min(
                    self.config.restart_backoff_max_s, handle.backoff_s * 2.0
                )
                with self._lock:
                    self._workers[index] = replacement
                self.restarts += 1
                self._announce(
                    f"worker {replacement.worker_id} pid {replacement.pid} "
                    f"restarted on {self.address[0]}:{self.address[1]}"
                )
                self._broadcast_peers()
