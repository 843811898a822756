"""Tests for the command-line interface.

The CLI drives the full-scale pipeline by default; to keep these tests
fast they run at a tiny suite scale and relaxed filters are unnecessary
because the generator's work-floor bias keeps enough loops above 50k
cycles even at small scales.
"""

import json
import re

import pytest

from repro.cli import main

SCALE = ["--scale", "0.05", "--seed", "99"]

VALID_LOOP = (
    "loop cli_test trip=512 entries=8\n"
    "  %x = load a[i]\n"
    "  %y = fmul %x, 2.0\n"
    "  store %y -> b[i]\n"
    "end\n"
)


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    """Build the tiny dataset once so individual commands are quick."""
    assert main(["build-data", *SCALE]) == 0


class TestCommands:
    def test_build_data_reports_counts(self, capsys):
        assert main(["build-data", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "loops measured" in out
        assert "dataset rows" in out

    def test_build_data_accepts_jobs_flag(self, capsys):
        assert main(["build-data", *SCALE, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "dataset rows" in out

    def test_cache_stats_on_active_cache(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_histogram(self, capsys):
        assert main(["histogram", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "u=1" in out and "u=8" in out

    def test_table2(self, capsys):
        assert main(["table2", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "Optimal unroll factor" in out
        assert "Worst unroll factor" in out

    def test_features(self, capsys):
        assert main(["features", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "mutual information" in out.lower()
        assert "Greedy forward selection for NN" in out

    def test_predict_known_kernel(self, capsys):
        assert main(["predict", "daxpy", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "predicts unroll factor" in out
        assert "simulator-optimal factor" in out

    def test_predict_unknown_kernel(self, capsys):
        assert main(["predict", "nonesuch", *SCALE]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_export_round_trips(self, tmp_path, capsys):
        target = tmp_path / "loops.jsonl"
        assert main(["export", str(target), *SCALE]) == 0
        from repro.instrument import read_records

        records = read_records(target)
        assert len(records) > 0
        assert all(1 <= r.best_factor <= 8 for r in records)

    def test_predict_file(self, tmp_path, capsys):
        source = tmp_path / "loops.rul"
        source.write_text(VALID_LOOP)
        assert main(["predict-file", str(source), *SCALE]) == 0
        out = capsys.readouterr().out
        assert "cli_test: predicted u=" in out

    def test_predict_file_reports_parse_errors(self, tmp_path, capsys):
        source = tmp_path / "bad.rul"
        source.write_text("loop broken trip=8\n  %x = frobnicate 1, 2\nend\n")
        assert main(["predict-file", str(source), *SCALE]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_predict_file_reports_invalid_loops(self, tmp_path, capsys):
        from tests.strategies import MALFORMED_SOURCES

        for case, (text, message) in sorted(MALFORMED_SOURCES.items()):
            source = tmp_path / "bad.rul"
            source.write_text(text)
            assert main(["predict-file", str(source), *SCALE]) == 2, case
            out = capsys.readouterr().out
            assert re.search(f"cannot read .*: {message}", out), (case, out)

    def test_suite_stats(self, capsys):
        assert main(["suite-stats", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "72 benchmarks" in out
        assert "loops per language" in out
        assert "scalar recurrences" in out

    def test_speedups_small(self, capsys):
        assert main(["speedups", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "mean svm" in out
        assert "164.gzip" in out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """One trained artifact for the whole module (training rides on the
    module's warm measurement cache)."""
    path = tmp_path_factory.mktemp("model") / "model.rma"
    assert main(["train", *SCALE, "--out", str(path)]) == 0
    return path


def _predicted_factor(out: str) -> int:
    match = re.search(r"predicts unroll factor (\d+)", out)
    assert match, out
    return int(match.group(1))


class TestModelCommands:
    def test_train_reports_what_it_wrote(self, model_path, tmp_path, capsys):
        target = tmp_path / "again.rma"
        assert main(["train", *SCALE, "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "selected features" in out
        assert "wrote model artifact" in out
        # Determinism end to end: retraining on the cached dataset writes
        # the same bytes.
        assert target.read_bytes() == model_path.read_bytes()

    def test_predict_from_model_matches_in_process_train(self, model_path, capsys):
        """Acceptance: serving from the artifact is bit-identical to the
        retrain-per-invocation path it replaces."""
        assert main(["predict", "daxpy", *SCALE, "--model", str(model_path)]) == 0
        from_model = _predicted_factor(capsys.readouterr().out)
        assert main(["predict", "daxpy", *SCALE]) == 0
        from_scratch = _predicted_factor(capsys.readouterr().out)
        assert from_model == from_scratch

    def test_predict_missing_model_file(self, tmp_path, capsys):
        assert (
            main(["predict", "daxpy", *SCALE, "--model", str(tmp_path / "no.rma")]) == 2
        )
        assert "no such file" in capsys.readouterr().out

    def test_predict_corrupt_model_quarantines(self, tmp_path, capsys):
        bad = tmp_path / "bad.rma"
        bad.write_bytes(b"rotten to the core")
        assert main(["predict", "daxpy", *SCALE, "--model", str(bad)]) == 2
        assert "corrupt model artifact" in capsys.readouterr().out
        assert not bad.exists()
        assert (tmp_path / "bad.rma.corrupt").exists()

    def test_predict_stale_model_schema(self, model_path, tmp_path, capsys):
        from repro.registry import ARTIFACT_SCHEMA_VERSION
        from tests.test_model_artifacts import _rewrite_with_manifest

        old = tmp_path / "old.rma"

        def bump(manifest):
            manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1

        _rewrite_with_manifest(model_path, old, bump)
        assert main(["predict", "daxpy", *SCALE, "--model", str(old)]) == 2
        assert "stale model artifact" in capsys.readouterr().out
        assert old.exists()  # stale files are never quarantined

    def test_predict_file_with_model(self, model_path, tmp_path, capsys):
        source = tmp_path / "loops.rul"
        source.write_text(VALID_LOOP)
        assert (
            main(["predict-file", str(source), *SCALE, "--model", str(model_path)]) == 0
        )
        assert "cli_test: predicted u=" in capsys.readouterr().out

    def test_predict_file_missing_file(self, tmp_path, capsys):
        assert main(["predict-file", str(tmp_path / "none.rul"), *SCALE]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_predict_file_no_unrollable_loop(self, model_path, tmp_path, capsys):
        # A while-style loop with no exit branch parses and validates but
        # cannot be unrolled; with nothing advisable the command fails.
        source = tmp_path / "stuck.rul"
        source.write_text(
            "loop stuck trip=8 while\n  %x = load a[i]\n  store %x -> b[i]\nend\n"
        )
        assert (
            main(["predict-file", str(source), *SCALE, "--model", str(model_path)]) == 2
        )
        out = capsys.readouterr().out
        assert "stuck: not unrollable" in out
        assert "no unrollable loop" in out


class TestServeCommand:
    def _serve(self, model_path, tmp_path, lines, extra=()):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        return main(
            ["serve", "--model", str(model_path), "--input", str(requests), *extra]
        )

    def test_serve_batch_from_file(self, model_path, tmp_path, capsys):
        lines = [
            json.dumps({"id": 0, "source": VALID_LOOP}),
            "{definitely not json",
            json.dumps({"id": 2}),
        ]
        assert self._serve(model_path, tmp_path, lines) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["ok"] for r in responses] == [True, False, False]
        assert responses[0]["id"] == 0
        assert 1 <= responses[0]["factor"] <= 8
        assert responses[1]["error"]["type"] == "invalid-json"
        assert responses[2]["error"]["type"] == "malformed-request"
        assert "latency p50" in captured.err
        assert "2/3 request(s) failed" in captured.err

    def test_serve_reads_stdin_by_default(self, model_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"id": 5, "source": VALID_LOOP}))
        )
        assert main(["serve", "--model", str(model_path), "--workers", "1"]) == 0
        [response] = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["id"] == 5 and response["ok"] is True

    def test_serve_missing_model(self, tmp_path, capsys):
        assert (
            self._serve(tmp_path / "ghost.rma", tmp_path, [json.dumps({"id": 0})]) == 2
        )
        assert "no such file" in capsys.readouterr().out

    def test_cluster_without_reuseport_exits_2(self, model_path, capsys, monkeypatch):
        import socket

        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        argv = ["serve", "--model", str(model_path), "--listen", "127.0.0.1:0"]
        assert main([*argv, "--workers", "2"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("cannot serve: ")
        assert "SO_REUSEPORT" in out


class TestServeGatewayFlags:
    def _serve(self, model_path, tmp_path, lines, extra=()):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        return main(
            ["serve", "--model", str(model_path), "--input", str(requests), *extra]
        )

    def test_gateway_knobs_and_counters_line(self, model_path, tmp_path, capsys):
        lines = [json.dumps({"id": 0, "source": VALID_LOOP})]
        extra = ["--queue-limit", "8", "--deadline-ms", "5000", "--workers", "2"]
        assert self._serve(model_path, tmp_path, lines, extra) == 0
        captured = capsys.readouterr()
        assert "gateway: 1 admitted, 1 ok" in captured.err

    def test_fault_plan_hook_reaches_the_engine(self, model_path, tmp_path, capsys):
        from repro.resilience import install_fault_plan

        plan = '{"rules": [{"op": "serve.internal", "match": "0"}]}'
        lines = [json.dumps({"id": 0, "source": VALID_LOOP})]
        try:
            rc = self._serve(model_path, tmp_path, lines, ["--fault-plan", plan])
        finally:
            install_fault_plan(None)
        assert rc == 0
        captured = capsys.readouterr()
        [response] = [json.loads(line) for line in captured.out.splitlines()]
        assert response["ok"] is False
        assert response["error"]["type"] == "internal-error"

    def test_corrupt_model_falls_back_to_registry(self, model_path, tmp_path, capsys):
        from repro.registry import ArtifactStore, load_artifact

        ArtifactStore().store("cli_fallback", load_artifact(model_path))
        rotten = tmp_path / "rotten.rma"
        rotten.write_bytes(b"this artifact has rotted on disk")
        lines = [json.dumps({"id": 0, "source": VALID_LOOP})]
        assert self._serve(rotten, tmp_path, lines) == 0
        captured = capsys.readouterr()
        assert "WARNING: serving last-good artifact" in captured.err
        [response] = [json.loads(line) for line in captured.out.splitlines()]
        assert response["ok"] is True


class TestMeasureCommand:
    MEASURE = ["measure", "--scale", "0.02", "--seed", "123"]

    def test_abort_resume_and_cache_journey(self, tmp_path, capsys):
        """One run through the whole operational story: a fault plan kills
        the run mid-measurement (rc 3), ``--resume`` finishes it from the
        journal, and a rerun is a pure cache hit."""
        from repro.resilience import install_fault_plan

        cache = ["--cache-dir", str(tmp_path)]
        plan = '{"rules": [{"op": "run.abort", "skip": 9}]}'
        try:
            assert main([*self.MEASURE, *cache, "--fault-plan", plan]) == 3
        finally:
            install_fault_plan(None)
        out = capsys.readouterr().out
        assert "run aborted" in out
        assert "--resume" in out
        assert (tmp_path / "journal_").parent.exists()  # journal lives in the store

        assert main([*self.MEASURE, *cache, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "10 unit(s) committed" in out
        assert "wrote table" in out
        assert not list(tmp_path.glob("journal_*"))  # discarded once durable

        assert main([*self.MEASURE, *cache]) == 0
        assert "already cached" in capsys.readouterr().out

    def test_a_class_unit_journal_is_refused_untouched(self, tmp_path, capsys):
        """Journals of the retired content-addressed fan-out carried the run
        key ``<key>-dedup`` and class-key units; resuming from one must fail
        as stale and leave its bytes alone."""
        from repro.pipeline import LabelingConfig, config_key
        from repro.resilience import CheckpointJournal

        key = config_key(123, 0.02, LabelingConfig(seed=123))
        path = tmp_path / "old.jsonl"
        journal = CheckpointJournal(path, run_key=f"{key}-dedup")
        journal.commit("class:0123abcd", {"class_key": "0123abcd", "per_entry": [1.0] * 8})
        journal.close()
        before = path.read_bytes()

        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main([*self.MEASURE, *cache, "--resume", "--journal", str(path)]) == 2
        assert "cannot resume" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_dedup_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.MEASURE, "--dedup"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dedup" in capsys.readouterr().err


class TestServeDaemonFlags:
    def test_parse_listen_forms(self):
        from repro.cli import _parse_listen

        assert _parse_listen("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _parse_listen(":0") == ("127.0.0.1", 0)
        assert _parse_listen("0.0.0.0:80") == ("0.0.0.0", 80)

    def test_parse_listen_ipv6(self):
        import pytest

        from repro.cli import _parse_listen

        # Bracketed literals parse to the bare address getaddrinfo wants.
        assert _parse_listen("[::1]:8080") == ("::1", 8080)
        assert _parse_listen("[fe80::1]:0") == ("fe80::1", 0)
        # Unbracketed/portless IPv6 is ambiguous on ':' — clear error, not
        # a mis-split host like ':' or an unresolvable '[::1]'.
        with pytest.raises(ValueError, match="bracketed"):
            _parse_listen("::1")
        with pytest.raises(ValueError, match="bracketed"):
            _parse_listen("[::1]")
        with pytest.raises(ValueError, match="empty"):
            _parse_listen("[]:8080")

    def test_parse_listen_rejects_garbage(self):
        import pytest

        from repro.cli import _parse_listen

        with pytest.raises(ValueError, match="HOST:PORT"):
            _parse_listen("9000")
        with pytest.raises(ValueError, match="integer"):
            _parse_listen("localhost:http")
        with pytest.raises(ValueError, match="out of range"):
            _parse_listen("localhost:70000")

    def test_listen_with_bad_address_fails_fast(self, model_path, capsys):
        rc = main(["serve", "--model", str(model_path), "--listen", "nonsense"])
        assert rc == 2
        assert "HOST:PORT" in capsys.readouterr().out

    def test_listen_with_missing_model_fails_fast(self, tmp_path, capsys):
        rc = main(
            ["serve", "--model", str(tmp_path / "ghost.rma"), "--listen", ":0"]
        )
        assert rc == 2
        assert "no such file" in capsys.readouterr().out
