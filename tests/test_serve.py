"""The batched prediction engine: correctness, error taxonomy, counters.

The contract under test: an engine wraps one loaded artifact, never
raises on malformed input (every failure is a *typed* response), answers
batches in request order regardless of concurrency, and accounts every
request in its rollup.
"""

import re

import numpy as np
import pytest

from repro.instrument import MeasurementRollup
from repro.registry import train_model_artifact
from repro.serve import (
    ERROR_BAD_FEATURE_VECTOR,
    ERROR_INVALID_JSON,
    ERROR_MALFORMED_REQUEST,
    ERROR_UNPARSEABLE_LOOP,
    GatewayConfig,
    PredictionEngine,
    ServeGateway,
    error_response,
)

from tests.strategies import MALFORMED_SOURCES
from tests.test_model_artifacts import synthetic_dataset

GOOD_SOURCE = (
    "loop serve_a trip=512 entries=8\n"
    "  %x = load a[i]\n"
    "  %y = fmul %x, 2.0\n"
    "  store %y -> b[i]\n"
    "end\n"
    "loop serve_b trip=64 entries=2\n"
    "  %x = load c[i]\n"
    "  store %x -> d[i]\n"
    "end\n"
)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset()


@pytest.fixture(scope="module")
def artifact(dataset):
    return train_model_artifact(dataset)


@pytest.fixture
def engine(artifact):
    return PredictionEngine(artifact)


def _features(dataset, row=0):
    return [float(v) for v in dataset.X[row]]


class TestPrediction:
    def test_feature_request_matches_artifact(self, engine, dataset, artifact):
        response = engine.handle({"id": 7, "features": _features(dataset)})
        assert response["ok"] is True
        assert response["id"] == 7
        assert response["classifier"] == "svm"
        expected = int(artifact.predict_features(dataset.X[:1], "svm")[0])
        assert response["factor"] == expected
        assert response["latency_ms"] >= 0.0

    def test_classifier_override(self, engine, dataset, artifact):
        response = engine.handle(
            {"id": 1, "features": _features(dataset), "classifier": "nn"}
        )
        assert response["ok"] is True
        expected = int(artifact.predict_features(dataset.X[:1], "nn")[0])
        assert response["factor"] == expected

    def test_source_request_predicts_every_loop(self, engine, artifact):
        response = engine.handle({"id": 2, "source": GOOD_SOURCE})
        assert response["ok"] is True
        assert [entry["loop"] for entry in response["loops"]] == ["serve_a", "serve_b"]
        assert all(1 <= entry["factor"] <= 8 for entry in response["loops"])
        # The scalar factor is the first loop's (single-loop clients need
        # no list handling).
        assert response["factor"] == response["loops"][0]["factor"]

    def test_default_classifier_configurable(self, artifact, dataset):
        nn_engine = PredictionEngine(artifact, classifier="nn")
        response = nn_engine.handle({"id": 0, "features": _features(dataset)})
        assert response["classifier"] == "nn"

    def test_unknown_default_classifier_rejected(self, artifact):
        with pytest.raises(ValueError, match="unknown classifier"):
            PredictionEngine(artifact, classifier="xgboost")


class TestErrorTaxonomy:
    def _error(self, engine, request):
        response = engine.handle(request)
        assert response["ok"] is False
        return response["error"]

    def test_non_dict_request(self, engine):
        error = self._error(engine, [1, 2, 3])
        assert error["type"] == ERROR_MALFORMED_REQUEST

    def test_missing_payload(self, engine):
        error = self._error(engine, {"id": 1})
        assert error["type"] == ERROR_MALFORMED_REQUEST
        assert "'features' or 'source'" in error["message"]

    def test_ambiguous_payload(self, engine, dataset):
        error = self._error(
            engine, {"features": _features(dataset), "source": GOOD_SOURCE}
        )
        assert error["type"] == ERROR_MALFORMED_REQUEST

    def test_unknown_classifier(self, engine, dataset):
        error = self._error(
            engine, {"features": _features(dataset), "classifier": "xgboost"}
        )
        assert error["type"] == ERROR_MALFORMED_REQUEST
        assert "xgboost" in error["message"]

    def test_feature_vector_wrong_shape(self, engine):
        error = self._error(engine, {"features": [1.0, 2.0]})
        assert error["type"] == ERROR_BAD_FEATURE_VECTOR
        assert "expected 38" in error["message"]

    def test_feature_vector_not_a_list(self, engine):
        error = self._error(engine, {"features": "1,2,3"})
        assert error["type"] == ERROR_BAD_FEATURE_VECTOR

    def test_feature_vector_non_numeric(self, engine):
        error = self._error(engine, {"features": ["x"] * 38})
        assert error["type"] == ERROR_BAD_FEATURE_VECTOR

    def test_feature_vector_non_finite(self, engine):
        vector = [0.0] * 38
        vector[5] = float("nan")
        error = self._error(engine, {"features": vector})
        assert error["type"] == ERROR_BAD_FEATURE_VECTOR
        assert "non-finite" in error["message"]

    def test_unparseable_source(self, engine):
        error = self._error(engine, {"source": "loop broken\n  %x = frobnicate\nend"})
        assert error["type"] == ERROR_UNPARSEABLE_LOOP

    @pytest.mark.parametrize("case", sorted(MALFORMED_SOURCES))
    def test_unparseable_source_is_typed(self, engine, case):
        # Sources that parse but fail validation, and header values out of
        # range, are the client's fault: never an internal error.
        source, message = MALFORMED_SOURCES[case]
        for classifier in ("nn", "ensemble"):
            error = self._error(engine, {"source": source, "classifier": classifier})
            assert error["type"] == ERROR_UNPARSEABLE_LOOP
            assert re.match(message, error["message"])

    def test_empty_source_has_no_loops(self, engine):
        error = self._error(engine, {"source": "   \n"})
        assert error["type"] == ERROR_UNPARSEABLE_LOOP

    def test_non_string_source(self, engine):
        error = self._error(engine, {"source": 42})
        assert error["type"] == ERROR_UNPARSEABLE_LOOP

    def test_error_response_shape(self):
        response = error_response("req-9", ERROR_INVALID_JSON, "boom", 0.002)
        assert response == {
            "id": "req-9",
            "ok": False,
            "error": {"type": ERROR_INVALID_JSON, "message": "boom"},
            "latency_ms": 2.0,
        }


class TestBatching:
    def _mixed_batch(self, dataset, n=12):
        batch = []
        for i in range(n):
            if i % 3 == 2:
                batch.append({"id": i, "features": [1.0]})  # wrong width
            else:
                batch.append({"id": i, "features": _features(dataset, i % len(dataset))})
        return batch

    def test_concurrent_matches_serial_in_order(self, engine, dataset):
        # The gateway's pooled batch and the engine's vectorized batch
        # both answer exactly what per-request handle() answers, in order.
        batch = self._mixed_batch(dataset)
        serial = [engine.handle(request) for request in batch]
        vectorized = engine.handle_batch(batch)
        with ServeGateway(engine, GatewayConfig(max_workers=4)) as gateway:
            concurrent = gateway.serve_batch(batch)
        for responses in (serial, vectorized, concurrent):
            assert [r["id"] for r in responses] == list(range(len(batch)))
        for a, b, c in zip(serial, vectorized, concurrent):
            assert a["ok"] == b["ok"] == c["ok"]
            assert a.get("factor") == b.get("factor") == c.get("factor")

    def test_one_poisoned_request_cannot_sink_the_batch(self, engine, dataset):
        batch = [
            {"id": 0, "features": _features(dataset)},
            {"id": 1, "source": "loop broken\nend"},
            {"id": 2, "features": _features(dataset, 1)},
        ]
        responses = engine.handle_batch(batch)
        assert [r["ok"] for r in responses] == [True, False, True]

    def test_rollup_accounts_every_request(self, artifact, dataset):
        rollup = MeasurementRollup()
        engine = PredictionEngine(artifact, rollup=rollup)
        batch = self._mixed_batch(dataset, n=9)
        engine.handle_batch(batch)
        assert rollup.n_units == 9
        pcts = rollup.latency_percentiles()
        assert set(pcts) == {50.0, 95.0, 99.0}
        assert all(v >= 0.0 for v in pcts.values())
        assert pcts[50.0] <= pcts[95.0] <= pcts[99.0]
        assert "request(s)" in rollup.latency_summary()
        assert rollup.throughput(1.0) == 9.0
        assert rollup.throughput(0.0) == 0.0

    def test_empty_rollup_summary(self):
        assert MeasurementRollup().latency_summary() == "no requests served"
        assert MeasurementRollup().latency_percentiles() == {}


class TestServeLines:
    def test_invalid_json_line_keeps_its_slot(self, engine, dataset):
        import json

        lines = [
            json.dumps({"id": 0, "features": _features(dataset)}),
            "{not json",
            "",  # blank lines are skipped, not errors
            json.dumps({"id": 2, "features": _features(dataset, 1)}),
        ]
        with ServeGateway(engine) as gateway:
            responses = gateway.serve_lines(lines)
        assert len(responses) == 3
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert responses[1]["error"]["type"] == ERROR_INVALID_JSON
        assert responses[2]["ok"] is True
        assert responses[2]["id"] == 2

    def test_scalar_json_is_malformed_not_invalid(self, engine):
        # "42" parses as JSON; it fails later, as a malformed *request*.
        with ServeGateway(engine) as gateway:
            [response] = gateway.serve_lines(["42"])
        assert response["error"]["type"] == ERROR_MALFORMED_REQUEST


class TestInputWidth:
    def test_subset_model_still_takes_full_catalog(self, dataset):
        indices = np.array([0, 3, 7], dtype=np.int64)
        artifact = train_model_artifact(dataset, feature_indices=indices)
        engine = PredictionEngine(artifact)
        assert engine.input_width == 38
        response = engine.handle({"id": 0, "features": _features(dataset)})
        assert response["ok"] is True


# ---------------------------------------------------------------------------
# Hardened serve path: injected internal faults, the gateway, the loader.
# ---------------------------------------------------------------------------

import os
import time

from repro.registry import ArtifactError, ArtifactStore
from repro.resilience import FaultPlan, FaultRule, fault_plan
from repro.serve import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    load_serving_artifact,
)


class TestInternalErrorPath:
    def test_injected_internal_fault_yields_typed_response(self, engine, dataset):
        plan = FaultPlan(rules=(FaultRule(op="serve.internal", match="13"),))
        with fault_plan(plan):
            response = engine.handle({"id": 13, "features": _features(dataset)})
        assert response["ok"] is False
        assert response["error"]["type"] == ERROR_INTERNAL
        assert "injected" in response["error"]["message"]

    def test_fault_only_hits_the_matching_request(self, engine, dataset):
        plan = FaultPlan(rules=(FaultRule(op="serve.internal", match="1"),))
        batch = [
            {"id": 0, "features": _features(dataset)},
            {"id": 1, "features": _features(dataset)},
            {"id": 2, "features": _features(dataset)},
        ]
        with fault_plan(plan):
            responses = engine.handle_batch(batch)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["type"] == ERROR_INTERNAL


class TestGateway:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            GatewayConfig(max_workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            GatewayConfig(queue_limit=0)
        with pytest.raises(ValueError, match="deadline_s"):
            GatewayConfig(deadline_s=0.0)

    def test_batch_in_order_with_counters(self, engine, dataset):
        batch = [{"id": i, "features": _features(dataset)} for i in range(6)]
        with ServeGateway(engine) as gateway:
            responses = gateway.serve_batch(batch)
        assert [r["id"] for r in responses] == list(range(6))
        assert all(r["ok"] for r in responses)
        assert gateway.counters.admitted == 6
        assert gateway.counters.served_ok == 6
        assert gateway.counters.summary().startswith("gateway: 6 admitted")

    def test_engine_errors_counted_separately(self, engine, dataset):
        batch = [
            {"id": 0, "features": _features(dataset)},
            {"id": 1, "features": [1.0]},  # wrong width
        ]
        with ServeGateway(engine) as gateway:
            responses = gateway.serve_batch(batch)
        assert responses[1]["error"]["type"] == ERROR_BAD_FEATURE_VECTOR
        assert gateway.counters.served_ok == 1
        assert gateway.counters.served_error == 1

    def test_full_queue_rejects_with_backpressure(self, engine, dataset):
        # One worker, queue bound 1: while the injected 0.5s request holds
        # the only slot, the next submit must be rejected *immediately*.
        plan = FaultPlan(rules=(FaultRule(op="serve.delay", match="0", delay_s=0.5),))
        config = GatewayConfig(max_workers=1, queue_limit=1)
        with fault_plan(plan):
            gateway = ServeGateway(engine, config)
            slow = gateway.submit({"id": 0, "features": _features(dataset)})
            rejected = gateway.submit({"id": 1, "features": _features(dataset)})
            response = rejected.result(timeout=0.1)  # resolved, no wait
            assert response["ok"] is False
            assert response["error"]["type"] == ERROR_OVERLOADED
            assert "back off" in response["error"]["message"]
            assert slow.result(timeout=5.0)["ok"] is True
            gateway.drain()
        assert gateway.counters.admitted == 1
        assert gateway.counters.overloaded == 1

    def test_batch_larger_than_queue_limit_is_fully_served(self, engine, dataset):
        # serve_batch throttles itself below the queue bound, so a batch
        # of any size never trips admission control against its own
        # requests — no slot may come back 'overloaded'.
        config = GatewayConfig(max_workers=2, queue_limit=2)
        batch = [{"id": i, "features": _features(dataset)} for i in range(9)]
        with ServeGateway(engine, config) as gateway:
            responses = gateway.serve_batch(batch)
        assert [r["id"] for r in responses] == list(range(9))
        assert all(r["ok"] for r in responses)
        assert gateway.counters.admitted == 9
        assert gateway.counters.overloaded == 0

    def test_submit_after_pool_shutdown_still_rejects_typed(self, engine, dataset):
        # White-box: the drain flag can be observed *after* the pool is
        # already shut down; submit must still return a typed rejection,
        # never raise, and must not leak a pending slot.
        gateway = ServeGateway(engine)
        gateway.drain()
        gateway._draining = False  # reopen the race window artificially
        response = gateway.submit({"id": 0, "features": _features(dataset)}).result()
        assert response["ok"] is False
        assert response["error"]["type"] == ERROR_OVERLOADED
        assert gateway.counters.admitted == 0
        assert gateway.counters.overloaded == 1
        assert gateway._pending == 0

    def test_deadline_enforced_in_queue_and_in_flight(self, engine, dataset):
        # Request 0 overruns its deadline *while computing*; request 1
        # exceeds it *waiting* behind 0 and must never reach the engine.
        plan = FaultPlan(rules=(FaultRule(op="serve.delay", match="0", delay_s=0.5),))
        config = GatewayConfig(max_workers=1, queue_limit=8, deadline_s=0.2)
        with fault_plan(plan):
            with ServeGateway(engine, config) as gateway:
                first = gateway.submit({"id": 0, "features": _features(dataset)})
                second = gateway.submit({"id": 1, "features": _features(dataset)})
                r0 = first.result(timeout=5.0)
                r1 = second.result(timeout=5.0)
        assert r0["error"]["type"] == ERROR_DEADLINE_EXCEEDED
        assert "completed in" in r0["error"]["message"]
        assert r1["error"]["type"] == ERROR_DEADLINE_EXCEEDED
        assert "waited" in r1["error"]["message"]
        assert gateway.counters.deadline_exceeded == 2

    def test_drained_gateway_refuses_new_work(self, engine, dataset):
        gateway = ServeGateway(engine)
        gateway.drain()
        response = gateway.submit({"id": 0, "features": _features(dataset)}).result()
        assert response["error"]["type"] == ERROR_OVERLOADED
        assert "draining" in response["error"]["message"]

    def test_injected_malformed_request_stays_typed(self, engine, dataset):
        plan = FaultPlan(rules=(FaultRule(op="serve.malformed", match="5"),))
        batch = [
            {"id": 5, "features": _features(dataset)},
            {"id": 6, "features": _features(dataset)},
        ]
        with fault_plan(plan):
            with ServeGateway(engine) as gateway:
                responses = gateway.serve_batch(batch)
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["type"] == ERROR_MALFORMED_REQUEST
        assert responses[1]["ok"] is True

    def test_serve_lines_through_the_gateway(self, engine, dataset):
        import json

        lines = [
            json.dumps({"id": 0, "features": _features(dataset)}),
            "{torn",
            json.dumps({"id": 2, "features": _features(dataset, 1)}),
        ]
        with ServeGateway(engine) as gateway:
            responses = gateway.serve_lines(lines)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["type"] == ERROR_INVALID_JSON


class TestLoader:
    def test_clean_load_is_not_a_fallback(self, tmp_path, artifact):
        path = artifact.save(tmp_path / "model.rma")
        loaded = load_serving_artifact(path)
        assert loaded.fallback is False
        assert loaded.path == path
        assert loaded.failures == ()

    def test_missing_requested_path_raises(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        store.store("good", artifact)  # a fallback exists — and must NOT be used
        with pytest.raises(FileNotFoundError):
            load_serving_artifact(tmp_path / "typo.rma", store=store)

    def test_corrupt_requested_falls_back_to_last_good(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        good = store.store("good", artifact)
        bad = store.store("bad", artifact)
        bad.write_bytes(b"this is not a model artifact")
        loaded = load_serving_artifact(bad, store=store)
        assert loaded.fallback is True
        assert loaded.path == good
        assert len(loaded.failures) == 1
        # The corrupt file was quarantined, not left live.
        assert not bad.exists()
        assert [p.name for p in store.quarantined()] == ["model_bad.rma.corrupt"]

    def test_corrupt_without_store_raises(self, tmp_path, artifact):
        path = artifact.save(tmp_path / "model.rma")
        path.write_bytes(b"garbage")
        with pytest.raises(ArtifactError, match="no servable model artifact"):
            load_serving_artifact(path)

    def test_every_candidate_corrupt_raises_with_the_trail(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        a = store.store("a", artifact)
        b = store.store("b", artifact)
        a.write_bytes(b"rot")
        b.write_bytes(b"rot")
        with pytest.raises(ArtifactError, match="no servable model artifact"):
            load_serving_artifact(a, store=store)

    def test_newest_untried_candidate_wins(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        older = store.store("older", artifact)
        newer = store.store("newer", artifact)
        past = time.time() - 3600.0
        os.utime(older, (past, past))
        bad = store.store("bad", artifact)
        bad.write_bytes(b"rot")
        loaded = load_serving_artifact(bad, store=store)
        assert loaded.path == newer

    def test_injected_bitflip_exercises_the_whole_chain(self, tmp_path, artifact):
        from tests.test_resilience import corrupting_seed

        store = ArtifactStore(tmp_path)
        good = store.store("good", artifact)
        victim = store.store("victim", artifact)
        plan = FaultPlan(
            seed=corrupting_seed(victim),
            rules=(FaultRule(op="artifact.bitflip", match=victim.name),),
        )
        with fault_plan(plan):
            loaded = load_serving_artifact(victim, store=store)
        assert loaded.fallback is True
        assert loaded.path == good
        assert len(loaded.failures) == 1


class TestEngineBatchPath:
    """The vectorized ``handle_batch`` fast path must be answer-identical
    to per-request ``handle`` — same factors, same error taxonomy, same
    ordering — because the daemon swaps freely between them."""

    def _mixed(self, dataset, n=10):
        batch = []
        for i in range(n):
            if i % 5 == 3:
                batch.append({"id": i, "features": [1.0]})  # wrong width
            elif i % 5 == 4:
                batch.append({"id": i, "source": GOOD_SOURCE})
            else:
                classifier = "nn" if i % 2 else "svm"
                batch.append(
                    {
                        "id": i,
                        "features": _features(dataset, i % len(dataset)),
                        "classifier": classifier,
                    }
                )
        return batch

    def test_vectorized_matches_per_request(self, engine, dataset):
        batch = self._mixed(dataset)
        serial = [engine.handle(r) for r in batch]
        batched = engine.handle_batch(batch)
        assert [r["id"] for r in batched] == [r["id"] for r in serial]
        for a, b in zip(serial, batched):
            assert a["ok"] == b["ok"]
            assert a.get("factor") == b.get("factor")
            assert a.get("classifier") == b.get("classifier")
            if not a["ok"]:
                assert a["error"]["type"] == b["error"]["type"]

    def test_single_request_batch_uses_scalar_path(self, engine, dataset):
        [response] = engine.handle_batch([{"id": 0, "features": _features(dataset)}])
        assert response["ok"] is True

    def test_batch_with_fault_plan_keeps_injection_semantics(self, engine, dataset):
        plan = FaultPlan(rules=(FaultRule(op="serve.internal", match="1"),))
        batch = [
            {"id": 0, "features": _features(dataset)},
            {"id": 1, "features": _features(dataset)},
            {"id": 2, "features": _features(dataset)},
        ]
        with fault_plan(plan):
            responses = engine.handle_batch(batch)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["type"] == ERROR_INTERNAL

    def test_batch_accounts_every_request_in_rollup(self, artifact, dataset):
        rollup = MeasurementRollup()
        engine = PredictionEngine(artifact, rollup=rollup)
        engine.handle_batch(self._mixed(dataset, n=10))
        assert rollup.n_units == 10

    def test_heuristics_cached_at_init(self, engine):
        # One resolved heuristic per classifier, reused across requests —
        # the per-call rebuild this replaced was pure overhead.
        assert set(engine._heuristics) == {"nn", "svm", "mlp", "forest", "ensemble"}
        assert engine._heuristics["svm"] is engine._heuristics["svm"]

    def test_batched_latency_clocks_own_group_only(self, engine, dataset, monkeypatch):
        # A vectorized member's latency_ms must reflect its group's own
        # stack+predict, not wall time spent scalar-handling unrelated
        # neighbours earlier in the batch — otherwise batched latencies
        # are inflated and non-comparable with the per-request path.
        slow_s = 0.25
        original = PredictionEngine.handle

        def slow_handle(self, request):
            import time

            time.sleep(slow_s)
            return original(self, request)

        monkeypatch.setattr(PredictionEngine, "handle", slow_handle)
        batch = [
            {"id": "scalar", "source": GOOD_SOURCE},  # non-vectorizable, slow
            {"id": 0, "features": _features(dataset, 0)},
            {"id": 1, "features": _features(dataset, 1)},
        ]
        responses = engine.handle_batch(batch)
        assert all(r["ok"] for r in responses)
        for response in responses[1:]:
            assert response["latency_ms"] < slow_s * 1e3 / 2


class TestGatewayBatchedExecution:
    def test_admit_then_execute_batch_resolves_all(self, engine, dataset):
        with ServeGateway(engine) as gateway:
            tokens = [
                gateway.admit({"id": i, "features": _features(dataset)})
                for i in range(5)
            ]
            assert all(t.admitted for t in tokens)
            gateway.execute_batch(tokens)
            responses = [t.future.result(timeout=5.0) for t in tokens]
        assert all(r["ok"] for r in responses)
        assert gateway.batch_stats.batches == 1
        assert gateway.batch_stats.batched_requests == 5
        assert gateway.batch_stats.max_batch == 5
        assert gateway.counters.balanced()

    def test_rejected_token_carries_resolved_future(self, engine, dataset):
        gateway = ServeGateway(engine)
        gateway.drain()
        token = gateway.admit({"id": 0, "features": _features(dataset)})
        assert token.admitted is False
        response = token.future.result(timeout=0.1)
        assert response["error"]["type"] == ERROR_OVERLOADED

    def test_execute_batch_after_shutdown_rolls_back(self, engine, dataset):
        # Same race as submit-after-shutdown, batch edition: tokens must
        # resolve typed and the admission bookkeeping must be undone.
        gateway = ServeGateway(engine)
        token = gateway.admit({"id": 0, "features": _features(dataset)}, client="c")
        gateway._pool.shutdown(wait=True)
        gateway.execute_batch([token])
        response = token.future.result(timeout=1.0)
        assert response["error"]["type"] == ERROR_OVERLOADED
        assert gateway.counters.admitted == 0
        assert gateway.counters.overloaded == 1
        assert gateway._pending == 0
        assert gateway._client_pending == {}

    def test_replicas_round_robin_and_swap(self, artifact, dataset):
        replicas = [PredictionEngine(artifact) for _ in range(2)]
        gateway = ServeGateway(replicas)
        assert gateway.engine is replicas[0]
        assert gateway.replicas == tuple(replicas)
        fresh = [PredictionEngine(artifact) for _ in range(3)]
        gateway.swap_replicas(fresh)
        assert gateway.replicas == tuple(fresh)
        with gateway:
            response = gateway.submit(
                {"id": 0, "features": _features(dataset)}
            ).result(timeout=5.0)
        assert response["ok"] is True

    def test_empty_replicas_rejected(self, engine):
        with pytest.raises(ValueError, match="replica"):
            ServeGateway([])
        gateway = ServeGateway(engine)
        with pytest.raises(ValueError, match="replica"):
            gateway.swap_replicas([])
        gateway.drain()


class TestHeadOfLineBlocking:
    def test_slow_request_does_not_idle_the_window(self, engine, dataset):
        # Regression: serve_batch used to wait on the *oldest* in-flight
        # future before submitting more.  With ids 0 and 2 slowed, the old
        # code serialized the two 0.4s sleeps (>= 0.8s wall); waiting on
        # *any* completion lets them overlap on the two workers (~0.4s).
        plan = FaultPlan(
            rules=(
                FaultRule(op="serve.delay", match="0", delay_s=0.4),
                FaultRule(op="serve.delay", match="2", delay_s=0.4),
            )
        )
        config = GatewayConfig(max_workers=2, queue_limit=2)
        batch = [{"id": i, "features": _features(dataset)} for i in range(4)]
        with fault_plan(plan):
            with ServeGateway(engine, config) as gateway:
                start = time.perf_counter()
                responses = gateway.serve_batch(batch)
                wall = time.perf_counter() - start
        assert all(r["ok"] for r in responses)
        assert [r["id"] for r in responses] == [0, 1, 2, 3]
        assert wall < 0.75, f"head-of-line blocking: batch took {wall:.3f}s"


class TestMultiClientFairness:
    def test_flooder_cannot_starve_a_second_client(self, engine, dataset):
        # Every request sleeps 0.3s, so admissions stay pending while both
        # clients burst 12 requests into a queue of 8.  Fair share caps
        # each client at queue_limit // 2 = 4 slots: the flooder's excess
        # is rejected while the second client's first 4 are admitted.
        plan = FaultPlan(
            rules=(FaultRule(op="serve.delay", match="*", times=0, delay_s=0.3),)
        )
        config = GatewayConfig(max_workers=2, queue_limit=8)
        with fault_plan(plan):
            gateway = ServeGateway(engine, config)
            futures = {"a": [], "b": []}
            for client in ("a", "b"):
                for i in range(12):
                    futures[client].append(
                        gateway.submit(
                            {"id": f"{client}-{i}", "features": _features(dataset)},
                            client=client,
                        )
                    )
            outcomes = {
                client: [f.result(timeout=10.0) for f in futures[client]]
                for client in futures
            }
            gateway.drain()

        served = {c: sum(1 for r in rs if r["ok"]) for c, rs in outcomes.items()}
        rejected = {c: sum(1 for r in rs if not r["ok"]) for c, rs in outcomes.items()}
        # Neither client observes all the rejections; both get served.
        assert served["a"] == 4 and served["b"] == 4
        assert rejected["a"] == 8 and rejected["b"] == 8
        for responses in outcomes.values():
            for response in responses:
                if not response["ok"]:
                    assert response["error"]["type"] == ERROR_OVERLOADED
        # The flooder's rejections are fair-share (the queue had room);
        # the second client's overflow hits the global bound.
        assert any(
            "fair share" in r["error"]["message"]
            for r in outcomes["a"]
            if not r["ok"]
        )
        # Counters sum correctly across clients.
        assert gateway.counters.admitted == served["a"] + served["b"]
        assert gateway.counters.overloaded == rejected["a"] + rejected["b"]
        assert gateway.counters.served_ok == gateway.counters.admitted
        assert gateway.counters.balanced()

    def test_untagged_requests_skip_fairness(self, engine, dataset):
        # No client identity -> only the global queue bound applies.
        config = GatewayConfig(max_workers=2, queue_limit=4)
        with ServeGateway(engine, config) as gateway:
            responses = gateway.serve_batch(
                [{"id": i, "features": _features(dataset)} for i in range(8)]
            )
        assert all(r["ok"] for r in responses)
        assert gateway.counters.overloaded == 0
