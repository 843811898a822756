"""Versioned model artifacts: determinism, checksums, corruption healing.

Mirrors ``test_cache_selfheal.py`` for the model registry: the failure
modes that must never escape as raw ``zipfile.BadZipFile``/``KeyError``
(truncation, bit flips, torn writes, foreign files), the schema-version
contract, and the load-bearing guarantee of the whole subsystem — a
saved-then-loaded artifact reproduces the in-process trained model's
predictions bit-identically.
"""

import json
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.heuristics import (
    train_forest_heuristic,
    train_mlp_heuristic,
    train_nn_heuristic,
    train_svm_heuristic,
)
from repro.ml.dataset import LoopDataset
from repro.registry import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    ArtifactStore,
    CorruptArtifactError,
    StaleArtifactError,
    dataset_fingerprint,
    default_artifact_dir,
    load_artifact,
    load_or_quarantine,
    save_artifact,
    train_model_artifact,
)
from repro.workloads import kernels


def synthetic_dataset(n=40, seed=0, n_classes=4) -> LoopDataset:
    """A small labelled dataset with class-separable features, cheap
    enough to train both classifiers on in every test module."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % n_classes) + 1
    X = rng.normal(size=(n, 38)) + labels[:, None] * 0.8
    cycles = rng.uniform(1e4, 1e6, size=(n, 8))
    return LoopDataset(
        X=X,
        labels=labels.astype(np.int64),
        cycles=cycles,
        true_cycles=cycles * 1.01,
        loop_names=np.array([f"bench{i % 3}/loop{i}" for i in range(n)]),
        benchmarks=np.array([f"bench{i % 3}" for i in range(n)]),
        suites=np.array(["s"] * n),
        languages=np.array(["C"] * n),
        swp=False,
    )


@pytest.fixture(scope="module")
def dataset() -> LoopDataset:
    return synthetic_dataset()


@pytest.fixture(scope="module")
def artifact(dataset):
    return train_model_artifact(dataset, provenance={"origin": "test"})


@pytest.fixture(scope="module")
def saved(artifact, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("artifact") / "model.rma"
    artifact.save(path)
    return path


class TestRoundTrip:
    def test_loaded_predictions_bit_identical(self, dataset, artifact, saved):
        """The acceptance criterion: a loaded artifact answers exactly like
        the in-process trained model, for both classifiers."""
        loaded = load_artifact(saved)
        for classifier in loaded.families:
            np.testing.assert_array_equal(
                loaded.predict_features(dataset.X, classifier),
                artifact.predict_features(dataset.X, classifier),
                err_msg=classifier,
            )

    def test_loaded_matches_fresh_in_process_train(self, dataset, saved):
        """Training is deterministic, so save -> load must also equal a
        *fresh* train on the same dataset (not just the instance that was
        serialised)."""
        loaded = load_artifact(saved)
        fresh = {
            "nn": train_nn_heuristic(dataset),
            "svm": train_svm_heuristic(dataset),
            "mlp": train_mlp_heuristic(dataset),
            "forest": train_forest_heuristic(dataset),
        }
        for name, heuristic in fresh.items():
            np.testing.assert_array_equal(
                loaded.predict_features(dataset.X, name),
                heuristic.predict_features(dataset.X),
                err_msg=name,
            )

    def test_loop_prediction_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        loop = kernels.daxpy(trip=50, entries=1)
        for classifier in loaded.families:
            assert loaded.predict_loop(loop, classifier) == artifact.predict_loop(
                loop, classifier
            )

    def test_metadata_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        assert loaded.feature_names == artifact.feature_names
        assert loaded.feature_indices is None
        assert loaded.provenance["origin"] == "test"
        assert loaded.provenance["n_rows"] == 40
        assert loaded.provenance["dataset_fingerprint"] == artifact.provenance[
            "dataset_fingerprint"
        ]

    def test_feature_subset_round_trip(self, dataset, tmp_path):
        indices = np.array([0, 3, 7, 12], dtype=np.int64)
        subset = train_model_artifact(dataset, feature_indices=indices)
        path = subset.save(tmp_path / "subset.rma")
        loaded = load_artifact(path)
        np.testing.assert_array_equal(loaded.feature_indices, indices)
        assert len(loaded.feature_names) == 4
        np.testing.assert_array_equal(
            loaded.predict_features(dataset.X, "svm"),
            subset.predict_features(dataset.X, "svm"),
        )

    def test_save_is_byte_deterministic(self, artifact, tmp_path):
        a, b = tmp_path / "a.rma", tmp_path / "b.rma"
        artifact.save(a)
        artifact.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_is_atomic_and_leaves_no_temp_files(self, artifact, tmp_path):
        path = tmp_path / "model.rma"
        artifact.save(path)
        artifact.save(path)  # overwrite goes through the same rename path
        assert zipfile.is_zipfile(path)
        assert not list(tmp_path.glob(".*.tmp"))

    def test_dataset_fingerprint_tracks_content(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)
        other = synthetic_dataset(seed=1)
        assert dataset_fingerprint(dataset) != dataset_fingerprint(other)

    def test_restored_svm_refuses_loo(self, saved):
        """LU factors are deliberately not serialised; the restored model
        must fail loudly (not wrongly) if leave-one-out values are asked
        for."""
        loaded = load_artifact(saved)
        with pytest.raises(RuntimeError, match="restored from an artifact"):
            loaded.svm.classifier.loocv_predictions()


def _rewrite_with_manifest(source: Path, target: Path, mutate) -> None:
    """Copy an artifact, passing the manifest dict through ``mutate`` and
    re-stamping ``manifest.sha256`` so only the mutated field differs."""
    with zipfile.ZipFile(source) as archive:
        entries = {name: archive.read(name) for name in archive.namelist()}
    manifest = json.loads(entries["manifest.json"])
    mutate(manifest)
    entries["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=1).encode()
    import hashlib

    entries["manifest.sha256"] = hashlib.sha256(entries["manifest.json"]).hexdigest().encode()
    with zipfile.ZipFile(target, "w") as archive:
        for name, data in entries.items():
            archive.writestr(name, data)


class TestCorruption:
    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nonesuch.rma")

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.rma"
        path.write_bytes(b"\x00definitely not a zip archive")
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_truncation(self, saved, tmp_path):
        path = tmp_path / "truncated.rma"
        path.write_bytes(saved.read_bytes()[: saved.stat().st_size // 2])
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_bit_flip_fails_a_checksum(self, saved, tmp_path):
        data = bytearray(saved.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path = tmp_path / "flipped.rma"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_missing_array_entry(self, saved, tmp_path):
        with zipfile.ZipFile(saved) as archive:
            entries = {name: archive.read(name) for name in archive.namelist()}
        victim = next(name for name in entries if name.startswith("arrays/"))
        del entries[victim]
        path = tmp_path / "hollow.rma"
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in entries.items():
                archive.writestr(name, data)
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_foreign_zip_is_corrupt_not_keyerror(self, tmp_path):
        path = tmp_path / "foreign.rma"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("readme.txt", "not a model")
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_stale_schema_is_distinct_and_not_quarantined(self, saved, tmp_path):
        path = tmp_path / "old.rma"

        def bump(manifest):
            manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1

        _rewrite_with_manifest(saved, path, bump)
        with pytest.raises(StaleArtifactError, match="retrain"):
            load_or_quarantine(path)
        assert path.exists()  # valid file from another era: left in place
        assert not list(tmp_path.glob("*.corrupt"))

    def test_v1_era_artifact_is_stale_not_corrupt(self, saved, tmp_path):
        """The real migration case: a v1 artifact (NN + SVM only, before
        the multi-family schema) must surface as stale — intact, version
        named in the message, never quarantined."""
        path = tmp_path / "v1.rma"

        def downgrade(manifest):
            manifest["schema_version"] = 1

        _rewrite_with_manifest(saved, path, downgrade)
        with pytest.raises(StaleArtifactError, match="schema v1"):
            load_or_quarantine(path)
        assert path.exists()  # old era, still valid: left in place
        assert not list(tmp_path.glob("*.corrupt"))

    def test_wrong_format_tag_is_corrupt(self, saved, tmp_path):
        path = tmp_path / "other.rma"

        def retag(manifest):
            manifest["format"] = "something-else"

        _rewrite_with_manifest(saved, path, retag)
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_quarantine_renames_the_corrupt_file(self, saved, tmp_path):
        path = tmp_path / "doomed.rma"
        path.write_bytes(saved.read_bytes()[:100])
        with pytest.raises(CorruptArtifactError):
            load_or_quarantine(path)
        assert not path.exists()
        assert (tmp_path / "doomed.rma.corrupt").exists()

    @given(fraction=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_truncation_is_one_exception(self, saved, tmp_path_factory, fraction):
        """Property: cutting the file anywhere yields CorruptArtifactError —
        never BadZipFile, KeyError, or a silent bad load."""
        tmp = tmp_path_factory.mktemp("trunc")
        data = saved.read_bytes()
        path = tmp / "cut.rma"
        path.write_bytes(data[: max(1, int(len(data) * fraction))])
        with pytest.raises((CorruptArtifactError, FileNotFoundError)):
            load_artifact(path)

    @given(position=st.integers(min_value=0), bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_bit_flip_never_escapes_the_taxonomy(
        self, saved, tmp_path_factory, position, bit
    ):
        """Property: flipping any single bit either fails a checksum
        (CorruptArtifactError) or leaves the load's *answers* intact (a
        flip in zip padding can be semantically invisible)."""
        tmp = tmp_path_factory.mktemp("flip")
        data = bytearray(saved.read_bytes())
        data[position % len(data)] ^= 1 << bit
        path = tmp / "flip.rma"
        path.write_bytes(bytes(data))
        try:
            loaded = load_artifact(path)
        except ArtifactError:
            return  # the taxonomy caught it
        reference = load_artifact(saved)
        X = synthetic_dataset().X
        np.testing.assert_array_equal(
            loaded.predict_features(X, "svm"), reference.predict_features(X, "svm")
        )


class TestArtifactStore:
    def test_store_load_round_trip(self, dataset, artifact, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("default", artifact)
        loaded = store.load("default")
        np.testing.assert_array_equal(
            loaded.predict_features(dataset.X, "svm"),
            artifact.predict_features(dataset.X, "svm"),
        )
        assert store.load("missing") is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, artifact, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("bad", artifact)
        store.path_for("bad").write_bytes(b"rotten")
        assert store.load("bad") is None
        assert store.quarantined()
        assert store.path_for("bad") not in store.entries()

    def test_stale_entry_is_a_miss_but_kept(self, artifact, saved, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("live", artifact)

        def bump(manifest):
            manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1

        _rewrite_with_manifest(saved, store.path_for("old"), bump)
        assert store.load("old") is None
        assert store.path_for("old").exists()
        assert not store.quarantined()
        assert store.load("live") is not None

    def test_v1_stale_entry_keeps_store_counters_balanced(
        self, artifact, saved, tmp_path
    ):
        """A v1-era entry is a miss but not a casualty: nothing moves to
        quarantine, the file stays listed on disk, and live entries keep
        loading."""
        store = ArtifactStore(tmp_path)
        store.store("live", artifact)

        def downgrade(manifest):
            manifest["schema_version"] = 1

        _rewrite_with_manifest(saved, store.path_for("v1-era"), downgrade)
        assert store.load("v1-era") is None
        stats = store.stats()
        assert stats.n_quarantined == 0
        assert stats.n_entries == 2  # the stale file still counts on disk
        assert store.path_for("v1-era").exists()
        assert store.load("live") is not None

    def test_stats_gc_clear(self, artifact, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("good", artifact)
        store.path_for("junk").write_bytes(b"junk")
        (tmp_path / ".leftover.rma.123.tmp").write_bytes(b"torn write")

        stats = store.stats()
        assert stats.n_entries == 2  # junk still *looks* like an entry
        assert stats.n_stale_tmp == 1
        assert "artifact(s)" in stats.summary()

        removed = store.gc()
        assert store.path_for("junk") in removed
        assert store.load("good") is not None  # gc never touches live entries
        assert store.stale_tmp() == []

        assert store.clear() >= 1
        assert store.entries() == []

    def test_default_dir_honours_environment(self):
        # conftest points REPRO_ARTIFACT_DIR at a temp dir for the session.
        assert default_artifact_dir() == Path(os.environ["REPRO_ARTIFACT_DIR"])

    def test_artifact_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "elsewhere"))
        store = ArtifactStore()
        assert store.root == tmp_path / "elsewhere"


class TestSerialisationEdges:
    def test_unserialisable_state_is_a_type_error(self):
        from repro.registry.artifact import _flatten

        with pytest.raises(TypeError, match="cannot serialise"):
            _flatten({"bad": object()}, "state", {})

    def test_flatten_unflatten_inverse(self):
        from repro.registry.artifact import _flatten, _unflatten

        tree = {
            "a": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": {"c": [1, "x", None, np.array([2.5])], "d": True},
        }
        arrays: dict[str, np.ndarray] = {}
        flat = _flatten(tree, "state", arrays)
        assert json.dumps(flat)  # JSON-serialisable by construction
        rebuilt = _unflatten(flat, arrays)
        np.testing.assert_array_equal(rebuilt["a"], tree["a"])
        np.testing.assert_array_equal(rebuilt["b"]["c"][3], tree["b"]["c"][3])
        assert rebuilt["b"]["c"][1] == "x"
        assert rebuilt["b"]["d"] is True
