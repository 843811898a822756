"""The self-healing cache and the parallel measurement pipeline.

Covers the failure modes that used to be fatal: corrupt or truncated
``.npz`` entries (previously ``zipfile.BadZipFile`` all the way up through
the CLI), torn writes, and cross-run cache state.  Also pins the pipeline's
central parallelism contract: ``measure_suite`` is bit-identical at every
``jobs`` value.
"""

import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cli import main
from repro.instrument import MeasurementRollup
from repro.pipeline import (
    CacheStore,
    CorruptTableError,
    LabelingConfig,
    MeasurementTable,
    build_artifacts,
    cached_measurements,
    config_key,
    measure_suite,
    resolve_jobs,
)
from repro.resilience import CheckpointJournal
from repro.simulate import NOISELESS
from tests.strategies import measurement_tables

SEED = 99
SCALE = 0.03


@pytest.fixture(scope="module")
def fast_config():
    return LabelingConfig(
        seed=7, swp=False, noise=NOISELESS, n_runs=1, min_cycles=0.0, min_benefit=1.0
    )


def _build(fast_config, cache_dir):
    return build_artifacts(
        suite_seed=SEED, loops_scale=SCALE, config=fast_config, cache_dir=cache_dir
    )


def _entry_path(fast_config, cache_dir) -> Path:
    return CacheStore(cache_dir).path_for(config_key(SEED, SCALE, fast_config))


class TestSelfHealingCache:
    def test_garbage_entry_is_a_miss_and_heals(self, fast_config, tmp_path):
        """Plant a garbage .npz where the cache expects an entry: the build
        must recover, rebuild, and leave a loadable file behind."""
        path = _entry_path(fast_config, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00garbage, definitely not a zip archive")

        artifacts = _build(fast_config, tmp_path)
        assert len(artifacts.table) > 0
        healed = MeasurementTable.load(path)  # must not raise
        np.testing.assert_array_equal(healed.measured, artifacts.table.measured)
        assert CacheStore(tmp_path).quarantined()  # the bad file was set aside

    def test_corruption_after_a_good_build_recovers_identically(
        self, fast_config, tmp_path
    ):
        first = _build(fast_config, tmp_path)
        path = _entry_path(fast_config, tmp_path)
        path.write_bytes(b"rotten")
        second = _build(fast_config, tmp_path)
        np.testing.assert_array_equal(first.table.measured, second.table.measured)
        np.testing.assert_array_equal(first.dataset.labels, second.dataset.labels)

    def test_truncated_entry_recovers(self, fast_config, tmp_path):
        _build(fast_config, tmp_path)
        path = _entry_path(fast_config, tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptTableError):
            MeasurementTable.load(path)
        artifacts = _build(fast_config, tmp_path)
        assert MeasurementTable.load(path).swp == artifacts.table.swp

    def test_missing_arrays_are_corruption(self, tmp_path):
        path = tmp_path / "half.npz"
        np.savez_compressed(path, X=np.zeros((1, 38)))
        with pytest.raises(CorruptTableError):
            MeasurementTable.load(path)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MeasurementTable.load(tmp_path / "nonesuch.npz")

    def test_save_is_atomic_and_leaves_no_temp_files(self, mini_table, tmp_path):
        path = tmp_path / "table.npz"
        mini_table.save(path)
        assert zipfile.is_zipfile(path)
        assert CacheStore(tmp_path).stale_tmp() == []

    def test_store_load_round_trip(self, mini_table, tmp_path):
        store = CacheStore(tmp_path)
        store.store("abc123", mini_table)
        loaded = store.load("abc123")
        np.testing.assert_array_equal(loaded.measured, mini_table.measured)
        assert store.load("missing") is None

    def test_gc_and_clear(self, mini_table, tmp_path):
        store = CacheStore(tmp_path)
        store.store("good", mini_table)
        store.path_for("bad").write_bytes(b"junk")
        (tmp_path / ".leftover.npz.123.tmp").write_bytes(b"torn write")

        removed = store.gc()
        assert store.path_for("bad") in removed
        assert store.load("good") is not None  # gc never touches live entries
        assert store.stale_tmp() == []

        assert store.clear() >= 1
        assert store.entries() == []

    def test_swp_mismatch_is_a_miss(self, fast_config, tmp_path, mini_suite):
        """A table whose contents don't match the key's config (hash
        collision, foreign file) is re-measured, not trusted."""
        from dataclasses import replace

        key = config_key(1, 1.0, fast_config)
        store = CacheStore(tmp_path)
        wrong = measure_suite(mini_suite, replace(fast_config, swp=True))
        store.store(key, wrong)
        table = cached_measurements(mini_suite, 1, 1.0, fast_config, tmp_path)
        assert table.swp is False


class TestParallelPipeline:
    @pytest.fixture(scope="class")
    def tiny_suite(self, mini_suite):
        """Two benchmarks is enough to exercise the fan-out and merge."""
        from repro.ir.program import Suite

        return Suite(name="tiny", benchmarks=mini_suite.benchmarks[:2])

    def test_parallel_matches_serial_bit_for_bit(self, tiny_suite, mini_config):
        serial = measure_suite(tiny_suite, mini_config, jobs=1)
        parallel = measure_suite(tiny_suite, mini_config, jobs=4)
        for name in (
            "X",
            "measured",
            "true_cycles",
            "loop_names",
            "benchmarks",
            "suites",
            "languages",
            "entry_counts",
        ):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name
        assert serial.swp == parallel.swp

    def test_rollup_accounts_for_every_unit(self, tiny_suite, mini_config):
        rollup = MeasurementRollup()
        measure_suite(tiny_suite, mini_config, jobs=2, rollup=rollup)
        assert rollup.n_units == len(tiny_suite.benchmarks) * 8
        assert rollup.total_seconds() > 0
        assert sum(rollup.per_worker().values()) == pytest.approx(
            rollup.total_seconds()
        )
        assert "units over" in rollup.summary()

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(2) == 2  # explicit beats the environment
        with pytest.raises(ValueError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)


class TestTableRoundTripProperties:
    @given(table=measurement_tables())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_save_load_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "roundtrip.npz"
            table.save(path)
            loaded = MeasurementTable.load(path)
        np.testing.assert_array_equal(loaded.X, table.X)
        np.testing.assert_array_equal(loaded.measured, table.measured)
        np.testing.assert_array_equal(loaded.true_cycles, table.true_cycles)
        np.testing.assert_array_equal(loaded.loop_names, table.loop_names)
        np.testing.assert_array_equal(loaded.benchmarks, table.benchmarks)
        np.testing.assert_array_equal(loaded.suites, table.suites)
        np.testing.assert_array_equal(loaded.languages, table.languages)
        np.testing.assert_array_equal(loaded.entry_counts, table.entry_counts)
        assert loaded.swp == table.swp

    @given(table=measurement_tables())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_overwrite_is_atomic(self, table):
        """Re-saving over an existing entry goes through the same
        temp-then-rename path and leaves a loadable file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "entry.npz"
            table.save(path)
            table.save(path)
            loaded = MeasurementTable.load(path)
            assert len(loaded) == len(table)
            assert not list(Path(tmp).glob(".*.tmp"))


class TestCacheCLI:
    def test_stats_gc_clear(self, mini_table, tmp_path, capsys):
        store = CacheStore(tmp_path)
        store.store("live", mini_table)
        store.path_for("dead").write_bytes(b"junk")

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "2 entries" in capsys.readouterr().out

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert store.load("live") is not None

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert store.entries() == []

    def test_checkpoint_journals_are_counted_collected_and_cleared(
        self, mini_table, tmp_path, capsys
    ):
        store = CacheStore(tmp_path)
        store.store("done", mini_table)
        store.store("broken", mini_table)

        def journal(name, run_key):
            path = tmp_path / f"journal_{name}.jsonl"
            with CheckpointJournal(path, run_key) as handle:
                handle.commit("b0:u1", {"measured": [1.0]})
            return path

        retired = journal("abc-dedup", "abc-dedup")
        finished = journal("done", "done")  # its table is already cached
        resumable = journal("open", "open")
        # Its table went bad after it was stored: gc prunes the table and
        # keeps the journal, the only record left to resume from.
        orphaned = journal("broken", "broken")
        store.path_for("broken").write_bytes(b"\x1f\x8b broken")
        foreign = tmp_path / "journal_foreign.jsonl"
        foreign.write_text('{"format": "something-else"}\n')

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "5 checkpoint journal(s)" in out
        stats = store.stats()
        assert stats.n_journals == 5
        assert stats.journal_bytes == sum(
            p.stat().st_size for p in (retired, finished, resumable, orphaned, foreign)
        )

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert sorted(store.journals()) == sorted([resumable, orphaned])
        assert not store.path_for("broken").exists()
        assert store.load("done") is not None
        assert CheckpointJournal(resumable, "open").load() == 1
        assert CheckpointJournal(orphaned, "broken").load() == 1

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert store.journals() == [] and store.entries() == []

    def test_cache_commands_survive_planted_garbage(self, tmp_path, capsys):
        """Acceptance: a corrupt cache file never crashes any CLI command."""
        CacheStore(tmp_path).path_for("junk").write_bytes(b"\x1f\x8b broken")
        for action in ("stats", "gc", "stats"):
            assert main(["cache", action, "--cache-dir", str(tmp_path)]) == 0
