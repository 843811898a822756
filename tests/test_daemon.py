"""The serve daemon: protocol over real sockets, micro-batching, hot
reload, healthz, and drain-shaped shutdown.

Every test runs a real asyncio TCP server on an ephemeral port via
:class:`BackgroundDaemon` and talks to it with plain blocking sockets —
the same way an external client would.
"""

import collections
import dataclasses
import json
import socket
import threading
import time
import types

import pytest

from repro.registry import ArtifactStore, train_model_artifact
from repro.serve import (
    ERROR_BAD_FEATURE_VECTOR,
    ERROR_INVALID_JSON,
    ERROR_MALFORMED_REQUEST,
    ERROR_OVERLOADED,
    BackgroundDaemon,
    DaemonConfig,
    ServeDaemon,
)
from repro.serve.daemon import LINE_LIMIT

from tests.test_model_artifacts import synthetic_dataset


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset()


@pytest.fixture(scope="module")
def artifact(dataset):
    return train_model_artifact(dataset)


@pytest.fixture
def store(tmp_path, artifact):
    store = ArtifactStore(tmp_path)
    store.store("base", artifact)
    return store


def _features(dataset, row=0):
    return [float(v) for v in dataset.X[row]]


class _Client:
    """A blocking JSON-lines client for one daemon connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, request: dict) -> None:
        self.stream.write(json.dumps(request) + "\n")
        self.stream.flush()

    def send_raw(self, line: str) -> None:
        self.stream.write(line + "\n")
        self.stream.flush()

    def recv(self) -> dict:
        return json.loads(self.stream.readline())

    def ask(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    def close(self) -> None:
        self.sock.close()


def _run(store, config=None, **kwargs):
    daemon = ServeDaemon(
        store.path_for("base"), config or DaemonConfig(**kwargs), store=store
    )
    return BackgroundDaemon(daemon)


class DaemonHarness:
    """The server factory behind the wire-protocol tests.

    ``self._run(store, ...)`` yields a server object exposing at least
    ``address`` (and for the classes below, ``gateway.counters``).  The
    multi-process suite subclasses the test classes with a harness whose
    ``_run`` points the same tests at a running worker cluster instead —
    same wire contract, different server shape.
    """

    def _run(self, store, config=None, **kwargs):
        return _run(store, config, **kwargs)


class TestProtocol(DaemonHarness):
    def test_feature_request_round_trip(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            response = client.ask({"id": 1, "features": _features(dataset)})
            client.close()
        assert response["ok"] is True
        assert response["id"] == 1
        assert 1 <= response["factor"] <= 8

    def test_error_taxonomy_over_the_wire(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            client.send_raw("{torn json")
            invalid = client.recv()
            bad = client.ask({"id": 2, "features": [1.0]})
            client.close()
        assert invalid["ok"] is False
        assert invalid["error"]["type"] == ERROR_INVALID_JSON
        assert bad["ok"] is False
        assert bad["error"]["type"] == ERROR_BAD_FEATURE_VECTOR
        assert bad["id"] == 2

    def test_blank_lines_are_skipped(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            client.send_raw("")
            response = client.ask({"id": 3, "features": _features(dataset)})
            client.close()
        assert response["id"] == 3

    def test_pipelined_requests_all_answered(self, store, dataset, artifact):
        n = 40
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            for i in range(n):
                client.send({"id": i, "classifier": "svm", "features": _features(dataset, i)})
            responses = [client.recv() for _ in range(n)]
            client.close()
        # Completion-ordered, id-matched: every id exactly once, all ok.
        assert sorted(r["id"] for r in responses) == list(range(n))
        assert all(r["ok"] for r in responses)
        # Whatever the server shape (one daemon, or a cluster of workers in
        # either sharding mode), each factor is exactly the artifact's own
        # single-row prediction.
        for r in responses:
            row = dataset.X[r["id"] : r["id"] + 1]
            assert r["factor"] == artifact.predict_features(row, "svm")[0]

    def test_public_port_cannot_rewrite_cluster_peers(self, store):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            before = client.ask({"id": 1, "healthz": True})["healthz"]["cluster_peers"]
            reply = client.ask({"id": 2, "cluster_peers": [[7, "203.0.113.9", 9]]})
            after = client.ask({"id": 3, "healthz": True})["healthz"]["cluster_peers"]
            client.close()
        assert reply["ok"] is False
        assert reply["id"] == 2
        assert reply["error"]["type"] == ERROR_MALFORMED_REQUEST
        assert after == before

    def test_oversized_line_gets_typed_error_then_clean_close(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            client.send({"id": 1, "features": _features(dataset)})
            client.send({"id": 2, "source": "x" * (100 * 1024)})
            responses = {r["id"]: r for r in (client.recv(), client.recv())}
            assert client.stream.readline() == ""  # closed, not reset
            client.close()
            other = _Client(daemon.address)
            unaffected = other.ask({"id": 3, "features": _features(dataset)})
            other.close()
            assert daemon.gateway.counters.balanced()
        assert responses[1]["ok"] is True and 1 <= responses[1]["factor"] <= 8
        assert responses[None]["ok"] is False
        assert responses[None]["error"]["type"] == ERROR_MALFORMED_REQUEST
        assert str(LINE_LIMIT) in responses[None]["error"]["message"]
        assert unaffected["ok"] is True


class TestMicroBatching:
    def test_concurrent_clients_coalesce_into_batches(self, store, dataset, artifact):
        n_clients, per_client = 4, 25
        with _run(store, batch_window_ms=5.0, max_batch=32) as daemon:
            barrier = threading.Barrier(n_clients)
            failures = []
            factors = {}

            def client_thread(index):
                try:
                    client = _Client(daemon.address)
                    barrier.wait()
                    for i in range(per_client):
                        client.send(
                            {
                                "id": index * per_client + i,
                                "features": _features(dataset, i % 40),
                            }
                        )
                    responses = [client.recv() for _ in range(per_client)]
                    assert all(r["ok"] for r in responses)
                    factors.update((r["id"], r["factor"]) for r in responses)
                    client.close()
                except Exception as error:  # pragma: no cover - diagnostic
                    failures.append(error)

            threads = [
                threading.Thread(target=client_thread, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = daemon.gateway.batch_stats
        assert not failures
        total = n_clients * per_client
        assert stats.batched_requests == total
        # Coalescing happened: far fewer engine batches than requests.
        assert stats.batches < total
        assert stats.max_batch > 1
        assert daemon.gateway.counters.balanced()
        # Coalescing changes no answer: each factor equals the artifact's
        # single-row prediction for that request's row.
        assert len(factors) == total
        for request_id, factor in factors.items():
            row = (request_id % per_client) % 40
            assert factor == artifact.predict_features(dataset.X[row : row + 1])[0]

    def test_max_batch_one_serves_per_request(self, store, dataset):
        with _run(store, batch_window_ms=0.0, max_batch=1) as daemon:
            client = _Client(daemon.address)
            for i in range(8):
                client.send({"id": i, "features": _features(dataset)})
            responses = [client.recv() for _ in range(8)]
            client.close()
            stats = daemon.gateway.batch_stats
        assert all(r["ok"] for r in responses)
        assert stats.max_batch == 1
        assert stats.batches == 8

    def test_flooding_client_gets_typed_overloaded(self, store, dataset):
        # Queue of 8, one client blasting 200 pipelined requests: the
        # excess must come back as typed overloaded errors, never a hang
        # or a closed connection.
        with _run(store, queue_limit=8, batch_window_ms=0.0) as daemon:
            client = _Client(daemon.address)
            n = 200
            def pump():
                for i in range(n):
                    client.send({"id": i, "features": _features(dataset)})
            pumper = threading.Thread(target=pump)
            pumper.start()
            responses = [client.recv() for _ in range(n)]
            pumper.join()
            client.close()
        assert sorted(r["id"] for r in responses) == list(range(n))
        rejected = [r for r in responses if not r["ok"]]
        for response in rejected:
            assert response["error"]["type"] == ERROR_OVERLOADED
        assert daemon.gateway.counters.balanced()


class TestClassifierFamilies(DaemonHarness):
    """The multi-family wire contract: every classifier — the calibrated
    ensemble included — is addressable per request over the socket."""

    def test_ensemble_request_carries_confidence_and_votes(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            response = client.ask(
                {"id": 1, "classifier": "ensemble", "features": _features(dataset)}
            )
            client.close()
        assert response["ok"] is True
        assert response["classifier"] == "ensemble"
        assert 1 <= response["factor"] <= 8
        assert 0.0 <= response["confidence"] <= 1.0
        assert set(response["votes"]) == {"nn", "svm", "mlp", "forest"}
        for factor in response["votes"].values():
            assert 1 <= factor <= 8

    def test_every_family_answers_over_the_wire(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            responses = {
                name: client.ask(
                    {"id": name, "classifier": name, "features": _features(dataset)}
                )
                for name in ("nn", "svm", "mlp", "forest", "ensemble")
            }
            client.close()
        for name, response in responses.items():
            assert response["ok"] is True, name
            assert response["classifier"] == name
            assert 1 <= response["factor"] <= 8

    def test_mixed_classifier_micro_batch_groups_correctly(self, store, dataset):
        """Pipelined requests alternating classifiers coalesce into
        micro-batches, yet every response matches its request's family and
        equals the per-request answer."""
        names = ("nn", "svm", "mlp", "forest", "ensemble")
        n = 30
        with self._run(store, batch_window_ms=5.0, max_batch=32) as daemon:
            client = _Client(daemon.address)
            scalar = {
                name: client.ask(
                    {"id": f"ref-{name}", "classifier": name,
                     "features": _features(dataset, 0)}
                )
                for name in names
            }
            for i in range(n):
                client.send(
                    {
                        "id": i,
                        "classifier": names[i % len(names)],
                        "features": _features(dataset, 0),
                    }
                )
            responses = [client.recv() for _ in range(n)]
            client.close()
        assert all(r["ok"] for r in responses)
        for response in responses:
            name = names[response["id"] % len(names)]
            assert response["classifier"] == name
            assert response["factor"] == scalar[name]["factor"]
            if name == "ensemble":
                assert response["confidence"] == scalar[name]["confidence"]
                assert response["votes"] == scalar[name]["votes"]
        assert daemon.gateway.counters.balanced()

    def test_unknown_family_is_a_typed_error_over_the_wire(self, store, dataset):
        with self._run(store) as daemon:
            client = _Client(daemon.address)
            response = client.ask(
                {"id": 9, "classifier": "xgboost", "features": _features(dataset)}
            )
            client.close()
        assert response["ok"] is False
        assert response["id"] == 9
        assert response["error"]["type"] == ERROR_MALFORMED_REQUEST
        assert "xgboost" in response["error"]["message"]


def _retained_items(root) -> int:
    """Container entries reachable from ``root`` through instance
    attributes and containers (classes, modules and functions are not
    followed: they are program, not state)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            items = list(obj.items())
            total += len(items)
            stack.extend(value for item in items for value in item)
        elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            items = list(obj)
            total += len(items)
            stack.extend(items)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total


def _quiescent_retained_items(daemon, timeout_s: float = 10.0) -> int:
    """:func:`_retained_items` once the daemon holds no in-flight work.

    A client has its answer before the daemon finishes the request's
    bookkeeping (admission release, batch-queue hand-off, the delivery
    task's exit, request-log enqueue), so an immediate count can catch
    transient entries, and catches more of them on a loaded machine.  Poll
    until the gateway has nothing pending, the batch queue is empty, no
    response write is in flight and the request log (if one is attached)
    has drained, then count."""
    deadline = time.monotonic() + timeout_s
    while not (
        daemon.gateway._pending == 0
        and daemon._queue.empty()
        and not daemon._deliveries
        and (daemon.request_log is None or daemon.request_log._queue.empty())
    ):
        assert time.monotonic() < deadline, "daemon never went quiescent"
        time.sleep(0.005)
    return _retained_items(daemon)


def _start_every_pool_thread(pool) -> None:
    """Make a ``ThreadPoolExecutor`` start all the threads it ever will.

    The pool starts threads lazily, up to ``max_workers``: a batch that is
    submitted before the previous batch's thread has marked itself idle
    starts a new one, which happens more often on a loaded machine.  Each
    thread adds ~24 retained items once, however many requests follow, so
    a warm-up leaves the pool at its cap: ``max_workers`` tasks that wait
    on one barrier must each run on their own thread."""
    barrier = threading.Barrier(pool._max_workers)
    for future in [pool.submit(barrier.wait, 10) for _ in range(pool._max_workers)]:
        future.result()


class TestBoundedState(DaemonHarness):
    def test_retained_state_does_not_grow_with_requests(self, store, dataset):
        """A daemon serves unbounded traffic, so nothing it holds may grow
        with the number of requests it has answered."""

        def serve(client, n):
            for i in range(n):
                row = i % len(dataset.X)
                assert client.ask({"id": i, "features": _features(dataset, row)})["ok"]

        with self._run(store) as daemon:
            client = _Client(daemon.address)
            serve(client, 20)  # warm-up: lazily built state settles
            _start_every_pool_thread(daemon.gateway._pool)
            before = _quiescent_retained_items(daemon)
            serve(client, 200)
            after = _quiescent_retained_items(daemon)
            client.close()
        assert after - before < 20


class TestHealthz:
    def test_healthz_reports_state(self, store, dataset):
        with _run(store, replicas=3) as daemon:
            client = _Client(daemon.address)
            client.ask({"id": 0, "features": _features(dataset)})
            response = client.ask({"healthz": True, "id": "probe"})
            client.close()
        assert response["ok"] is True
        assert response["id"] == "probe"
        health = response["healthz"]
        assert health["replicas"] == 3
        assert health["artifact"]["checksum"] == daemon.checksum
        assert health["artifact"]["fallback"] is False
        assert health["artifact"]["reloads"] == 0
        assert health["artifact"]["families"] == {
            name: True for name in ("nn", "svm", "mlp", "forest", "ensemble")
        }
        assert health["gateway"]["admitted"] >= 1
        assert health["batching"]["window_ms"] == 2.0
        assert health["uptime_s"] >= 0.0

    def test_healthz_is_never_queued(self, store):
        # healthz answers inline even when the queue is saturated.
        with _run(store, queue_limit=1) as daemon:
            client = _Client(daemon.address)
            response = client.ask({"healthz": True})
            client.close()
        assert response["ok"] is True


class TestHotReload:
    def _tweaked(self, artifact, tag):
        return dataclasses.replace(
            artifact, provenance={**artifact.provenance, "reload": tag}
        )

    def test_reload_swaps_newer_artifact(self, store, artifact, dataset):
        with _run(store) as daemon:
            client = _Client(daemon.address)
            before = client.ask({"id": 0, "features": _features(dataset)})
            checksum_before = daemon.checksum
            time.sleep(0.02)  # newer mtime beyond fs granularity
            store.store("newer", self._tweaked(artifact, 1))
            assert daemon.maybe_reload() is True
            after = client.ask({"id": 1, "features": _features(dataset)})
            client.close()
        assert daemon.reloads == 1
        assert daemon.checksum != checksum_before
        assert daemon.loaded.path.name == "model_newer.rma"
        # Weight-identical retrain: answers must not change.
        assert before["factor"] == after["factor"]

    def test_reload_skips_when_nothing_newer(self, store):
        with _run(store) as daemon:
            assert daemon.maybe_reload() is False
            assert daemon.reloads == 0

    def test_reload_skips_identical_bytes(self, store, artifact):
        with _run(store) as daemon:
            time.sleep(0.02)
            store.store("copy", artifact)  # deterministic bytes: same checksum
            assert daemon.maybe_reload() is False
            assert daemon.reloads == 0

    def test_corrupt_newer_artifact_is_not_swapped_in(self, store, artifact, dataset):
        with _run(store) as daemon:
            time.sleep(0.02)
            bad = store.store("bad", self._tweaked(artifact, 2))
            bad.write_bytes(b"rotten bytes")
            assert daemon.maybe_reload() is False
            client = _Client(daemon.address)
            response = client.ask({"id": 0, "features": _features(dataset)})
            client.close()
        assert response["ok"] is True
        assert daemon.loaded.path.name == "model_base.rma"

    def test_watcher_reloads_without_being_asked(self, store, artifact):
        with _run(store, reload_poll_s=0.05) as daemon:
            time.sleep(0.02)
            store.store("watched", self._tweaked(artifact, 3))
            deadline = time.time() + 5.0
            while daemon.reloads == 0 and time.time() < deadline:
                time.sleep(0.02)
        assert daemon.reloads == 1

    def test_reload_under_live_traffic_drops_nothing(self, store, artifact, dataset):
        n = 120
        with _run(store, batch_window_ms=1.0) as daemon:
            client = _Client(daemon.address)
            received = []

            def reader():
                received.extend(client.recv() for _ in range(n))

            reading = threading.Thread(target=reader)
            reading.start()
            for i in range(n):
                client.send({"id": i, "features": _features(dataset, i % 40)})
                if i == n // 3:
                    time.sleep(0.02)
                    store.store("live", self._tweaked(artifact, 4))
                    assert daemon.maybe_reload() is True
            reading.join()
            client.close()
        assert len(received) == n
        assert all(r["ok"] for r in received)
        assert daemon.reloads == 1
        assert daemon.gateway.counters.balanced()


class TestLifecycle:
    def test_shutdown_answers_everything_admitted(self, store, dataset):
        # Close the daemon while responses may still be in flight: the
        # counters must balance — nothing admitted goes unanswered.
        with _run(store) as daemon:
            client = _Client(daemon.address)
            for i in range(30):
                client.send({"id": i, "features": _features(dataset)})
            responses = [client.recv() for _ in range(30)]
            client.close()
        counters = daemon.gateway.counters
        assert counters.balanced()
        assert len(responses) == 30

    def test_request_during_shutdown_gets_typed_rejection(self, store, dataset):
        # Once stop() has begun, the batch loop is gone: a request read
        # after that moment must be refused with a typed overloaded error
        # — admitting it would strand a token behind the sentinel with a
        # future nothing resolves, deadlocking stop() on its deliveries.
        with _run(store) as daemon:
            client = _Client(daemon.address)
            ok = client.ask({"id": 0, "features": _features(dataset)})
            daemon._closing = True  # stop() in progress, handler still alive
            rejected = client.ask({"id": 1, "features": _features(dataset)})
            client.close()
        assert ok["ok"] is True
        assert rejected["ok"] is False
        assert rejected["id"] == 1
        assert rejected["error"]["type"] == ERROR_OVERLOADED
        assert daemon.gateway.counters.overloaded >= 1
        assert daemon.gateway.counters.balanced()

    def test_shutdown_under_live_traffic_never_hangs(self, store, dataset):
        # Clients keep sending while stop() runs.  Every response that
        # arrives must be ok or a typed error, counters must balance, and
        # stop() must return — the shutdown race left tokens queued behind
        # the sentinel and hung forever on their deliveries.
        stop_flag = threading.Event()
        responses: list[dict] = []
        failures: list[Exception] = []

        def pump(address):
            try:
                client = _Client(address)
                try:
                    i = 0
                    while not stop_flag.is_set():
                        client.send({"id": i, "features": _features(dataset, i % 40)})
                        responses.append(client.recv())
                        i += 1
                finally:
                    client.close()
            except (OSError, ValueError):
                pass  # connection torn down mid-exchange by shutdown
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        start = time.time()
        with _run(store, batch_window_ms=1.0) as daemon:
            threads = [
                threading.Thread(target=pump, args=(daemon.address,))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # traffic flowing; exit triggers stop() under it
        stop_flag.set()
        for thread in threads:
            thread.join(timeout=30)
        assert time.time() - start < 30.0
        assert not failures
        for response in responses:
            assert response["ok"] or response["error"]["type"]
        assert daemon.gateway.counters.balanced()

    def test_idle_connection_does_not_block_shutdown(self, store):
        start = time.time()
        with _run(store) as daemon:
            idle = socket.create_connection(daemon.address, timeout=10)
        assert time.time() - start < 10.0
        idle.close()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_window_ms"):
            DaemonConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            DaemonConfig(max_batch=0)
        with pytest.raises(ValueError, match="replicas"):
            DaemonConfig(replicas=0)

    def test_replicas_share_one_artifact_object(self, store):
        daemon = ServeDaemon(store.path_for("base"), DaemonConfig(replicas=4), store=store)
        engines = daemon.gateway.replicas
        assert len(engines) == 4
        assert all(e.artifact is engines[0].artifact for e in engines)
        daemon.gateway.drain()
