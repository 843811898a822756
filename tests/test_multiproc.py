"""The multi-process serve tier: SO_REUSEPORT sharding, supervisor
restarts, aggregated healthz, the adaptive batch window, and the
served-request log.

The wire-protocol tests are *inherited* from ``tests.test_daemon`` — the
same test bodies that validate the single-process daemon run here against
a live 2-worker cluster whose workers share one port through the kernel's
``SO_REUSEPORT`` connection sharding.  Cluster spin-up costs real
spawn time, so the protocol suites share one module-scoped cluster.
"""

import multiprocessing
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.registry import ArtifactStore, train_model_artifact
from repro.serve import (
    BackgroundDaemon,
    ClusterConfig,
    DaemonConfig,
    RequestLog,
    ServeCluster,
    ServeDaemon,
    WindowController,
    WorkerStartupError,
    features_checksum,
    merge_worker_health,
    probe_healthz,
    read_request_log,
)
from repro.serve import requestlog as requestlog_module

from tests import test_daemon as daemon_tests
from tests.test_daemon import _Client, _features
from tests.test_model_artifacts import synthetic_dataset

needs_reuseport = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="SO_REUSEPORT unavailable on this platform",
)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset()


@pytest.fixture(scope="module")
def artifact(dataset):
    return train_model_artifact(dataset)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, artifact):
    root = tmp_path_factory.mktemp("cluster-store")
    store = ArtifactStore(root)
    path = store.store("base", artifact)
    return root, path


@pytest.fixture
def store(model_dir):
    # The inherited wire tests take a ``store`` fixture; the cluster
    # harness ignores it (the cluster is already serving the artifact).
    root, _ = model_dir
    return ArtifactStore(root)


def _start_cluster(model_dir, config):
    root, path = model_dir
    cluster = ServeCluster(path, config, store_root=root)
    cluster.start()
    return cluster


@pytest.fixture(scope="module")
def cluster(model_dir):
    """The module's 2-worker cluster, started on first use."""
    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("SO_REUSEPORT unavailable on this platform")
    config = ClusterConfig(
        workers=2,
        daemon=DaemonConfig(batch_window_ms=2.0, replicas=2),
    )
    cluster = _start_cluster(model_dir, config)
    yield cluster
    cluster.stop()


def _stall_log_writes(monkeypatch):
    """Make every request-log ``os.write`` wait for the returned
    ``release`` event (a stalled disk); ``entered`` is set once the
    writer thread is parked inside one."""
    entered, release = threading.Event(), threading.Event()

    class _StalledOs:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def write(fd, data):
            entered.set()
            assert release.wait(30)
            return os.write(fd, data)

    monkeypatch.setattr(requestlog_module, "os", _StalledOs())
    return entered, release


class _ClusterCounters:
    """``gateway.counters``-shaped view over aggregated cluster health,
    so inherited assertions like ``daemon.gateway.counters.balanced()``
    check the merged per-worker identity."""

    def __init__(self, cluster):
        self._cluster = cluster

    def balanced(self) -> bool:
        return bool(self._cluster.healthz()["balanced"])


class _ClusterGateway:
    def __init__(self, cluster):
        self.counters = _ClusterCounters(cluster)


class _ClusterServer:
    """What the inherited tests see as "the daemon": the cluster's public
    address plus an aggregated counters shim."""

    def __init__(self, cluster):
        self.address = cluster.address
        self.gateway = _ClusterGateway(cluster)


class _ClusterHarness(daemon_tests.DaemonHarness):
    @pytest.fixture(autouse=True)
    def _attach_cluster(self, cluster):
        self._cluster = cluster

    @contextmanager
    def _run(self, store, config=None, **kwargs):
        # Config knobs are ignored: the shared cluster serves with its own
        # settings.  The inherited tests only assert wire behavior.
        yield _ClusterServer(self._cluster)


class TestReuseportProtocol(_ClusterHarness, daemon_tests.TestProtocol):
    """The daemon protocol suite against kernel-sharded workers."""


class TestReuseportFamilies(_ClusterHarness, daemon_tests.TestClassifierFamilies):
    pass


class TestClusterHealth:
    def test_connections_shard_across_workers(self, cluster, dataset):
        seen = set()
        deadline = time.time() + 30.0
        while len(seen) < 2 and time.time() < deadline:
            client = _Client(cluster.address)
            health = client.ask({"healthz": True})["healthz"]
            seen.add((health["worker"], health["pid"]))
            client.close()
        assert {worker for worker, _ in seen} == {0, 1}
        assert len({pid for _, pid in seen}) == 2

    def test_wire_aggregate_healthz_merges_all_workers(self, cluster, dataset):
        client = _Client(cluster.address)
        client.ask({"id": 0, "features": _features(dataset)})
        merged = client.ask({"healthz": True, "aggregate": True, "id": "agg"})
        client.close()
        assert merged["ok"] is True
        assert merged["id"] == "agg"
        health = merged["healthz"]
        assert health["aggregate"] is True
        assert health["cluster_size"] == 2
        assert health["workers_alive"] == 2
        assert health["balanced"] is True
        assert {w["worker"] for w in health["workers"]} == {0, 1}
        assert health["gateway"]["admitted"] >= 1

    def test_supervisor_healthz_matches_wire_aggregate(self, cluster):
        supervisor = cluster.healthz()
        assert supervisor["aggregate"] is True
        assert supervisor["cluster_size"] == 2
        assert supervisor["workers_alive"] == 2
        assert "restarts" in supervisor
        assert "worker(s)" in cluster.summary()

    def test_worker_healthz_carries_identity(self, cluster):
        handle = cluster.workers[0]
        health = probe_healthz(*handle.control_address)
        assert health["worker"] == handle.worker_id
        assert health["pid"] == handle.pid
        assert health["cluster_peers"] == 2


class TestSupervisorRestart:
    @needs_reuseport
    def test_kill_nine_survivors_keep_answering(self, model_dir, dataset):
        """Chaos scenario 6's in-suite twin: kill -9 one worker; the
        survivor keeps answering through the shared port while the
        supervisor respawns the dead slot, and the healed cluster's
        aggregated counters balance."""
        # A 1s backoff leaves a real outage window: the survivors answer
        # while the dead slot is still down, *before* the replacement's
        # spawn (imports, artifact load) starts competing for the CPU.
        config = ClusterConfig(
            workers=2,
            restart_backoff_s=1.0,
            daemon=DaemonConfig(batch_window_ms=1.0),
        )
        cluster = _start_cluster(model_dir, config)
        events = []
        cluster.on_event = events.append
        try:
            victim = cluster.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            answered = 0
            deadline = time.time() + 30.0
            while answered < 5 and time.time() < deadline:
                try:
                    client = _Client(cluster.address)
                    # Keep one stalled ask from eating the whole deadline.
                    client.sock.settimeout(5)
                    response = client.ask({"id": answered, "features": _features(dataset)})
                    client.close()
                    if response.get("ok"):
                        answered += 1
                except (OSError, ValueError):
                    # Kernel-sharded connections can land on the corpse
                    # until the supervisor reaps it; retry is the contract.
                    continue
            assert answered >= 5, "survivor stopped answering during the outage"
            deadline = time.time() + 30.0
            while cluster.restarts < 1 and time.time() < deadline:
                time.sleep(0.02)
            assert cluster.restarts >= 1
            deadline = time.time() + 30.0
            while time.time() < deadline:
                health = cluster.healthz()
                if health["workers_alive"] == 2:
                    break
                time.sleep(0.05)
            assert health["workers_alive"] == 2
            assert health["balanced"] is True
            replacement = cluster.workers[0]
            assert replacement.worker_id == victim.worker_id
            assert replacement.pid != victim.pid
            assert any("died" in event for event in events)
            assert any("restarted" in event for event in events)
            # The peer rebroadcast reached the survivors: a wire-level
            # aggregate probe sees both workers again.
            client = _Client(cluster.address)
            merged = client.ask({"healthz": True, "aggregate": True})["healthz"]
            client.close()
            assert merged["workers_alive"] == 2
        finally:
            cluster.stop()

    def test_worker_startup_failure_is_reported(self, tmp_path):
        with pytest.raises((WorkerStartupError, FileNotFoundError)):
            cluster = ServeCluster(
                tmp_path / "nope.rma",
                ClusterConfig(workers=1, ready_timeout_s=60.0),
            )
            cluster.start()
            cluster.stop()

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ClusterConfig(workers=0)
        with pytest.raises(ValueError, match="restart_backoff_s"):
            ClusterConfig(restart_backoff_s=0.0)


class TestModeSelection:
    """Where a cluster can start, and the CLI's serve-until-signalled path."""

    def test_missing_reuseport_fails_before_any_spawn(self, model_dir, monkeypatch):
        """Without ``SO_REUSEPORT`` the cluster cannot share a port: start
        raises a typed error naming it, and no worker process exists."""
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        spawned = []
        monkeypatch.setattr(
            ServeCluster, "_spawn", lambda self, worker_id: spawned.append(worker_id)
        )
        before = set(multiprocessing.active_children())
        cluster = ServeCluster(
            model_dir[1], ClusterConfig(workers=2), store_root=model_dir[0]
        )
        with pytest.raises(WorkerStartupError, match="SO_REUSEPORT"):
            cluster.start()
        assert spawned == []
        assert set(multiprocessing.active_children()) == before
        assert cluster.workers == []
        cluster.stop()  # never started: a no-op

    @needs_reuseport
    def test_run_serves_until_sigterm(self, model_dir, dataset):
        """The CLI path: ``run()`` announces readiness, serves, drains on
        SIGTERM, and restores the previous signal handlers."""
        cluster = ServeCluster(
            model_dir[1],
            ClusterConfig(workers=1),
            store_root=model_dir[0],
        )
        events = []
        cluster.on_event = events.append
        before_term = signal.getsignal(signal.SIGTERM)

        probe_ok = []

        def probe_then_kill():
            # ``address`` appears as soon as the port is pinned, before the
            # worker listens — so the probe retries until a worker answers.
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if cluster.address is None:
                    time.sleep(0.02)
                    continue
                try:
                    client = _Client(cluster.address)
                    response = client.ask({"id": 0, "features": _features(dataset)})
                    client.close()
                except (OSError, ValueError):
                    time.sleep(0.02)
                    continue
                if response.get("ok"):
                    probe_ok.append(response)
                    break
            os.kill(os.getpid(), signal.SIGTERM)

        killer = threading.Thread(target=probe_then_kill)
        killer.start()
        cluster.run()
        killer.join()
        assert probe_ok, "no prediction was served before the SIGTERM"
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert any(event.startswith("daemon listening on ") for event in events)
        assert any("worker 0 pid" in event and "ready" in event for event in events)


class TestMergeWorkerHealth:
    def _worker(self, worker, admitted=4, ok=3, error=1, records=2):
        return {
            "worker": worker,
            "gateway": {
                "admitted": admitted,
                "served_ok": ok,
                "served_error": error,
                "overloaded": 1,
                "deadline_exceeded": 0,
            },
            "batching": {"batches": 2, "batched_requests": admitted, "max_batch": 3},
            "request_log": {"records": records, "write_errors": 0},
            "uptime_s": 1.0,
        }

    def test_counters_sum_and_balance(self):
        merged = merge_worker_health([self._worker(0), self._worker(1)])
        assert merged["cluster_size"] == 2
        assert merged["workers_alive"] == 2
        assert merged["gateway"]["admitted"] == 8
        assert merged["gateway"]["served_ok"] == 6
        assert merged["gateway"]["overloaded"] == 2
        assert merged["batching"]["batched_requests"] == 8
        assert merged["batching"]["max_batch"] == 3
        assert merged["request_log_records"] == 4
        assert merged["balanced"] is True

    def test_unbalanced_worker_breaks_the_identity(self):
        lopsided = self._worker(1, admitted=5, ok=3, error=1)
        merged = merge_worker_health([self._worker(0), lopsided])
        assert merged["balanced"] is False
        by_worker = {w["worker"]: w for w in merged["workers"]}
        assert by_worker[0]["balanced"] is True
        assert by_worker[1]["balanced"] is False

    def test_dead_worker_stub_forces_unbalanced(self):
        merged = merge_worker_health(
            [self._worker(0), {"worker": 1, "alive": False}]
        )
        assert merged["workers_alive"] == 1
        assert merged["balanced"] is False
        assert {w["worker"] for w in merged["workers"]} == {0, 1}


class TestAdaptiveWindow:
    def test_controller_shrinks_under_trickle(self):
        controller = WindowController(base_ms=4.0, max_batch=32)
        for _ in range(40):
            controller.observe(batch_size=1, queue_depth=0)
        assert controller.window_ms == 0.0
        assert controller.shrinks > 0
        stats = controller.stats()
        assert stats["enabled"] is True
        assert stats["current_window_ms"] == 0.0
        assert stats["base_window_ms"] == 4.0

    def test_controller_grows_under_pressure(self):
        controller = WindowController(base_ms=4.0, max_batch=8)
        for _ in range(40):
            controller.observe(batch_size=1, queue_depth=0)
        assert controller.window_ms == 0.0
        for _ in range(40):
            controller.observe(batch_size=8, queue_depth=4)
        assert controller.window_ms == 4.0  # grown back to the ceiling
        assert controller.grows > 0

    def test_controller_hysteresis_ignores_single_observations(self):
        controller = WindowController(base_ms=4.0, max_batch=32)
        controller.observe(batch_size=1, queue_depth=0)
        assert controller.window_ms == 4.0  # one idle batch is not a trend
        controller.observe(batch_size=16, queue_depth=0)  # mid-band resets
        controller.observe(batch_size=1, queue_depth=0)
        assert controller.window_ms == 4.0

    def test_controller_disabled_without_batching(self):
        for base, max_batch in ((0.0, 32), (4.0, 1)):
            controller = WindowController(base_ms=base, max_batch=max_batch)
            assert controller.enabled is False
            assert controller.observe(1, 0) == base
            assert controller.stats()["enabled"] is False

    def test_daemon_window_shrinks_under_trickle_traffic(self, store, dataset):
        """Acceptance: strictly sequential requests (every batch closes
        with one request, queue empty) drive the live window toward zero,
        and the decision is visible in BatchStats and healthz."""
        config = DaemonConfig(batch_window_ms=4.0, max_batch=32)
        daemon = ServeDaemon(store.path_for("base"), config, store=store)
        with BackgroundDaemon(daemon) as server:
            client = _Client(server.address)
            for i in range(24):
                client.ask({"id": i, "features": _features(dataset)})
            health = client.ask({"healthz": True})["healthz"]
            client.close()
        assert daemon.window.window_ms < 4.0
        assert daemon.window.shrinks > 0
        stats = daemon.gateway.batch_stats
        assert stats.window_ms < 4.0
        assert stats.window_shrinks > 0
        adaptive = health["batching"]["adaptive"]
        assert adaptive["enabled"] is True
        assert adaptive["current_window_ms"] < 4.0
        assert adaptive["shrinks"] > 0
        # The configured base stays reported for operators.
        assert health["batching"]["window_ms"] == 4.0

    def test_daemon_window_grows_back_under_flood(self, store, dataset):
        """Acceptance: after a trickle has shrunk the window, a pipelined
        flood (batches close full, queue stays deep) grows it back."""
        config = DaemonConfig(batch_window_ms=4.0, max_batch=4, queue_limit=2000)
        daemon = ServeDaemon(store.path_for("base"), config, store=store)
        with BackgroundDaemon(daemon) as server:
            client = _Client(server.address)
            for i in range(24):
                client.ask({"id": i, "features": _features(dataset)})
            shrunk_to = daemon.window.window_ms
            n = 400
            def pump():
                for i in range(n):
                    client.send({"id": f"f{i}", "features": _features(dataset)})
            pumper = threading.Thread(target=pump)
            pumper.start()
            responses = [client.recv() for _ in range(n)]
            pumper.join()
            client.close()
        assert shrunk_to < 4.0
        assert all(r["ok"] for r in responses)
        assert daemon.window.grows > 0
        assert daemon.window.window_ms > shrunk_to
        assert daemon.gateway.batch_stats.window_grows > 0


class TestRequestLog:
    def test_features_checksum_is_format_insensitive(self):
        a = features_checksum({"features": [1.0, 2.0]})
        b = features_checksum({"features": [1.00, 2.00], "id": "ignored"})
        assert a == b
        assert features_checksum({"features": [1.0, 2.5]}) != a
        assert features_checksum({"source": "for i in 0..4 { }"}) is not None
        assert features_checksum({"healthz": True}) is None
        assert features_checksum("not a dict") is None

    def test_record_and_read_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        log = RequestLog(path, worker=3)
        for i in range(5):
            log.record({"id": i, "worker": log.worker})
        log.close()
        records = read_request_log(path)
        assert [r["id"] for r in records] == list(range(5))
        assert log.records == 5
        stats = log.stats()
        assert stats["path"] == str(path)
        assert stats["records"] == 5
        assert stats["write_errors"] == 0
        assert stats["rotations"] == 0
        # Operators alarm on log stall via bytes written vs file size:
        # with a single writer they agree exactly.
        assert stats["bytes_written"] > 0
        assert stats["file_bytes"] == stats["bytes_written"]

    def test_records_after_close_are_dropped(self, tmp_path):
        log = RequestLog(tmp_path / "requests.jsonl")
        log.record({"id": 0})
        log.close()
        log.record({"id": 1})
        log.close()  # idempotent
        assert [r["id"] for r in read_request_log(log.path)] == [0]

    def test_append_mode_interleaves_writers(self, tmp_path):
        """Two logs on one path — the multi-process arrangement — append
        whole lines without tearing each other."""
        path = tmp_path / "shared.jsonl"
        first, second = RequestLog(path, worker=0), RequestLog(path, worker=1)
        for i in range(50):
            first.record({"worker": 0, "id": i})
            second.record({"worker": 1, "id": i})
        first.close()
        second.close()
        records = read_request_log(path)
        assert len(records) == 100
        by_worker = {0: [], 1: []}
        for record in records:
            by_worker[record["worker"]].append(record["id"])
        assert by_worker[0] == list(range(50))
        assert by_worker[1] == list(range(50))

    def test_daemon_records_served_requests(self, store, dataset, tmp_path):
        path = tmp_path / "served.jsonl"
        config = DaemonConfig(request_log=str(path), worker_id=5)
        daemon = ServeDaemon(store.path_for("base"), config, store=store)
        with BackgroundDaemon(daemon) as server:
            client = _Client(server.address)
            ok = client.ask({"id": "good", "features": _features(dataset)})
            ensemble = client.ask(
                {"id": "conf", "classifier": "ensemble", "features": _features(dataset)}
            )
            bad = client.ask({"id": "bad", "features": [1.0]})
            health = client.ask({"healthz": True})["healthz"]
            client.close()
        records = {r["id"]: r for r in read_request_log(path)}
        assert set(records) == {"good", "conf", "bad"}
        good = records["good"]
        assert good["ok"] is True
        assert good["worker"] == 5
        assert good["factor"] == ok["factor"]
        assert good["classifier"] == "svm"
        assert good["features_sha256"] == features_checksum(
            {"features": _features(dataset)}
        )
        assert good["latency_ms"] >= 0.0
        assert good["ts"] > 0
        conf = records["conf"]
        assert conf["classifier"] == "ensemble"
        assert conf["confidence"] == ensemble["confidence"]
        failed = records["bad"]
        assert failed["ok"] is False
        assert failed["factor"] is None
        assert failed["error_type"] == bad["error"]["type"]
        # healthz surfaces the log's counters (records are written by a
        # background thread; the daemon drain seals the log, so by the
        # time we read the file all three are durable).
        assert health["request_log"]["path"] == str(path)

    def test_stalled_writer_bounds_the_queue_and_counts_drops(
        self, tmp_path, monkeypatch
    ):
        """A writer stuck in ``os.write`` (a stalled disk) holds at most
        ``QUEUE_BOUND`` records; the rest are dropped and counted, and
        ``close()`` still writes everything that was queued."""
        entered, release = _stall_log_writes(monkeypatch)
        bound, extra = requestlog_module.QUEUE_BOUND, 25
        log = RequestLog(tmp_path / "stalled.jsonl")
        # Park the writer inside os.write with one record in hand, so the
        # queue fills from empty and nothing drains it meanwhile.
        log.record({"id": "parked"})
        assert entered.wait(10)
        for i in range(bound + extra):
            log.record({"id": i})
        assert log._queue.qsize() == bound
        assert log.dropped == extra
        assert log.stats()["dropped"] == extra
        release.set()
        log.close()
        records = read_request_log(log.path)
        assert [r["id"] for r in records] == ["parked", *range(bound)]
        assert log.records == bound + 1
        assert log.dropped == extra

    def test_concurrent_records_keep_the_bound_exact(self, tmp_path, monkeypatch):
        """Many recording threads against a stalled writer: every record
        is either queued or counted as dropped, and the queue never
        passes the bound."""
        import sys

        _, release = _stall_log_writes(monkeypatch)
        monkeypatch.setattr(requestlog_module, "QUEUE_BOUND", 500)
        log = RequestLog(tmp_path / "contended.jsonl")
        threads, per_thread = 8, 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda t=t: [
                        log.record({"id": f"{t}-{i}"}) for i in range(per_thread)
                    ]
                )
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # The writer took at most one sweep before stalling in os.write.
        queued = log._queue.qsize()
        assert queued <= 500
        release.set()
        log.close()
        assert log.records + log.dropped == threads * per_thread
        assert len(read_request_log(log.path)) == log.records

    def test_merge_sums_dropped_records(self):
        merged = merge_worker_health(
            [
                {"worker": 0, "request_log": {"records": 3, "dropped": 2}},
                {"worker": 1, "request_log": {"records": 1, "dropped": 5}},
                {"worker": 2, "request_log": None},
            ]
        )
        assert merged["request_log_records"] == 4
        assert merged["request_log_dropped"] == 7

    @needs_reuseport
    def test_cluster_workers_share_one_log(self, model_dir, dataset, tmp_path):
        """Every worker appends to the same path; lines interleave at
        record granularity and carry the writing worker's id."""
        path = tmp_path / "cluster.jsonl"
        config = ClusterConfig(
            workers=2,
            daemon=DaemonConfig(batch_window_ms=1.0, request_log=str(path)),
        )
        root, model = model_dir
        n = 40
        with ServeCluster(model, config, store_root=root) as cluster:
            for i in range(n):
                client = _Client(cluster.address)
                response = client.ask({"id": i, "features": _features(dataset)})
                assert response["ok"] is True
                client.close()
        records = read_request_log(path)
        assert len(records) == n
        assert sorted(r["id"] for r in records) == list(range(n))
        workers_seen = {r["worker"] for r in records}
        assert workers_seen <= {0, 1}
        assert len(workers_seen) == 2, "both workers should have served traffic"
        assert all(r["features_sha256"] for r in records)
