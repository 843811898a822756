"""Exactness of the single-row inference paths.

The serve tier answers one loop at a time, so each family's inference
routine is built for one row: the pairwise LS-SVM computes one kernel row
per query and shares it across every pair machine, and the random forest
walks all its trees at once over flattened node arrays.  These tests pin
those paths to the answers they replaced:

* a frozen SHA-256 of the calibrated ensemble's ``predict_detail`` output
  (labels, confidence bytes, per-family votes), single-row and batched,
  on the session mini-suite model;
* the shared-kernel SVM against the per-machine ``LSSVM.decision_values``
  and the pairwise vote, and against itself at every row count;
* the flattened forest walk against the per-tree ``_leaf_for`` walk.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ml.ensemble import FAMILY_NAMES, train_calibrated_ensemble
from repro.ml.pairwise import PairwiseLSSVM, make_tuned_pairwise_svm
from repro.ml.svm import LSSVM
from repro.ml.trees import DecisionTree, RandomForest
from tests.strategies import labelled_datasets

#: SHA-256 of the ensemble's answers over ``_pool`` (see ``_detail_digest``).
PREDICT_DETAIL_SHA256 = "1c66ad1256ad6a49f44ae4cbfc0c54c4ac09f5ffda25d0934c572a5829f1a19d"


def _pool(X: np.ndarray) -> np.ndarray:
    """The training rows plus seeded jittered copies (off-database queries)."""
    rng = np.random.default_rng(20050320)
    picks = rng.integers(0, len(X), size=130)
    jitter = 1.0 + 0.1 * rng.standard_normal((130, X.shape[1]))
    return np.vstack([X, X[picks] * jitter])


def _detail_bytes(detail, families) -> bytes:
    parts = [
        np.asarray(detail.labels, dtype=np.int64).tobytes(),
        np.asarray(detail.confidence, dtype=np.float64).tobytes(),
    ]
    parts += [np.asarray(detail.votes[f], dtype=np.int64).tobytes() for f in families]
    return b"".join(parts)


def _detail_digest(ensemble, pool: np.ndarray) -> str:
    digest = hashlib.sha256()
    for row in pool:
        digest.update(_detail_bytes(ensemble.predict_detail(row[None, :]), FAMILY_NAMES))
    digest.update(_detail_bytes(ensemble.predict_detail(pool), FAMILY_NAMES))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def mini_ensemble(mini_dataset):
    return train_calibrated_ensemble(mini_dataset.X, mini_dataset.labels, seed=0)


class TestFrozenEnsembleAnswers:
    def test_predict_detail_digest(self, mini_ensemble, mini_dataset):
        assert _detail_digest(mini_ensemble, _pool(mini_dataset.X)) == PREDICT_DETAIL_SHA256


# ---------------------------------------------------------------------------
# Pairwise LS-SVM: one shared kernel row per query.
# ---------------------------------------------------------------------------

_PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SVM_CONFIGS = {
    "tuned": make_tuned_pairwise_svm,
    "rbf": lambda: PairwiseLSSVM(),
    "weighted": lambda: PairwiseLSSVM(feature_weights=np.linspace(0.5, 1.5, 38)),
}


def _queries(X: np.ndarray, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    jitter = X[rng.integers(0, len(X), size=len(X))] + 0.3 * rng.standard_normal(X.shape)
    return np.vstack([X, jitter])


def _pair_machines(svm: PairwiseLSSVM) -> dict[tuple[int, int], LSSVM]:
    """One LS-SVM per pair, each scoring queries on its own: the machines
    a fit trained, or, for a restored model (which keeps none), machines
    rebuilt from the persisted pair rows and dual solutions."""
    if svm._machines:
        return svm._machines
    state = svm.get_state()
    Z, y = state["Z"], state["y"]
    machines = {}
    for pair in state["pairs"]:
        a, b, rows = pair["a"], pair["b"], pair["rows"]
        machines[(a, b)] = LSSVM.from_state(
            {
                "C": svm.C,
                "sigma": svm.sigma,
                "kernel": svm.kernel,
                "scale_ratio": svm.scale_ratio,
                "mix": svm.mix,
                "X": Z[rows],
                "alpha": pair["alpha"],
                "bias": pair["bias"],
                "targets": np.where(y[rows] == a, 1.0, -1.0),
            }
        )
    return machines


def _reference_vote(svm: PairwiseLSSVM, pairs, columns) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair voting loop: votes first, margin tie-break, over
    ``svm.classes``; vote shares over ``classes_``."""
    n = len(columns[0]) if columns else 0
    label_pos = {int(c): k for k, c in enumerate(svm.classes)}
    share_pos = {int(c): k for k, c in enumerate(svm.classes_)}
    votes = np.zeros((n, len(svm.classes)))
    margins = np.zeros((n, len(svm.classes)))
    shares = np.zeros((n, len(svm.classes_)))
    for (a, b), values in zip(pairs, columns):
        winner_a = values >= 0.0
        votes[winner_a, label_pos[a]] += 1.0
        votes[~winner_a, label_pos[b]] += 1.0
        shares[winner_a, share_pos[a]] += 1.0
        shares[~winner_a, share_pos[b]] += 1.0
        margins[:, label_pos[a]] += values
        margins[:, label_pos[b]] -= values
    labels = svm.classes[np.argmax(votes + 1e-6 * np.tanh(margins), axis=1)]
    return labels, shares / shares.sum(axis=1, keepdims=True)


def _check_svm(svm: PairwiseLSSVM, X: np.ndarray) -> None:
    Z = svm._prepare(X)
    machines = _pair_machines(svm)
    columns = [np.ravel(machine.decision_values(Z)) for machine in machines.values()]
    reference = np.column_stack(columns)
    shared = svm._decision_matrix(Z)
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(shared, reference, rtol=1e-9, atol=1e-9 * scale)

    labels, proba = svm.infer(X)
    ref_labels, ref_proba = _reference_vote(svm, machines, columns)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(proba, ref_proba)
    np.testing.assert_array_equal(svm.predict(X), labels)
    np.testing.assert_array_equal(svm.predict_proba(X), proba)

    # Row-count invariance: alone, in odd-sized chunks, or all at once.
    for rows in ([i] for i in range(len(X))):
        assert svm._decision_matrix(Z[rows]).tobytes() == shared[rows].tobytes()
    for start in range(0, len(X), 3):
        chunk_labels, chunk_proba = svm.infer(X[start : start + 3])
        assert chunk_labels.tobytes() == labels[start : start + 3].tobytes()
        assert chunk_proba.tobytes() == proba[start : start + 3].tobytes()


class TestSharedKernelSVM:
    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), config=st.sampled_from(sorted(_SVM_CONFIGS)))
    def test_matches_per_machine_vote_at_any_row_count(self, data, config):
        svm = _SVM_CONFIGS[config]().fit(data.X, data.labels)
        _check_svm(svm, _queries(data.X))

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets())
    def test_restored_and_loocv_match_reference(self, data):
        svm = make_tuned_pairwise_svm().fit(data.X, data.labels)
        rows = {(p["a"], p["b"]): p["rows"] for p in svm.get_state()["pairs"]}
        loo = []
        for pair, machine in svm._machines.items():
            column = np.asarray(machine.decision_values(svm._Z_cache), dtype=np.float64).ravel()
            column[rows[pair]] = np.ravel(machine.loo_decision_values())
            loo.append(column)
        expected = _reference_vote(svm, svm._machines, loo)[0]
        np.testing.assert_array_equal(svm.loocv_predictions(), expected)
        restored = PairwiseLSSVM.from_state(svm.get_state())
        _check_svm(restored, _queries(data.X, seed=1))
        X = _queries(data.X, seed=1)
        assert restored.infer(X)[1].tobytes() == svm.infer(X)[1].tobytes()
        if svm._machines:
            with pytest.raises(RuntimeError, match="restored from an artifact"):
                restored.loocv_predictions()

    def test_mini_suite_model(self, mini_dataset):
        svm = make_tuned_pairwise_svm().fit(mini_dataset.X, mini_dataset.labels)
        _check_svm(svm, _pool(mini_dataset.X))

    def test_single_class_fit(self):
        X = np.random.default_rng(0).normal(size=(6, 38))
        svm = PairwiseLSSVM().fit(X, np.full(6, 4))
        labels, proba = svm.infer(X)
        np.testing.assert_array_equal(labels, np.full(6, svm.classes[0]))
        np.testing.assert_array_equal(proba, np.ones((6, 1)))


# ---------------------------------------------------------------------------
# Random forest: every tree walked at once over flattened node arrays.
# ---------------------------------------------------------------------------


def _reference_leaves(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Each tree's ``_leaf_for`` walk, mapped onto the forest's classes."""
    trees = [DecisionTree.from_state(state) for state in forest.get_state()["trees"]]
    stacked = np.zeros((len(trees), len(X), len(forest.classes_)))
    for t, tree in enumerate(trees):
        columns = np.searchsorted(forest.classes_, tree._classes)
        stacked[t][:, columns] = np.vstack([tree._leaf_for(x).distribution for x in X])
    return stacked


def _check_forest(forest: RandomForest, X: np.ndarray) -> None:
    reference = _reference_leaves(forest, X)
    assert forest._leaf_distributions(X).tobytes() == reference.tobytes()
    proba = np.sort(reference, axis=0).sum(axis=0) / len(reference)
    labels, walked = forest.infer(X)
    assert walked.tobytes() == proba.tobytes()
    np.testing.assert_array_equal(labels, forest.classes_[np.argmax(proba, axis=1)])
    for i in range(len(X)):
        assert forest.predict_proba(X[i : i + 1]).tobytes() == walked[i : i + 1].tobytes()


class TestFlattenedForest:
    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 100), depth=st.integers(1, 6))
    def test_matches_per_tree_walk(self, data, seed, depth):
        forest = RandomForest(n_trees=7, max_depth=depth, seed=seed).fit(data.X, data.labels)
        X = _queries(data.X, seed=seed)
        _check_forest(forest, X)
        _check_forest(RandomForest.from_state(forest.get_state()), X)

    def test_single_leaf_trees(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 5))
        forest = RandomForest(n_trees=4, seed=0).fit(X, np.full(12, 2))
        assert forest._walk_depth == 0
        _check_forest(forest, _queries(X))
        np.testing.assert_array_equal(forest.predict(X), np.full(12, 2))

    def test_mixed_leaf_and_split_trees(self):
        # Bootstraps of a 4-row, 2-class set: some trees see one class
        # (a bare leaf), others split.
        X = np.array([[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1]])
        y = np.array([1, 1, 8, 8])
        forest = RandomForest(n_trees=25, min_leaf=1, seed=2).fit(X, y)
        sizes = {len(state["left"]) for state in forest.get_state()["trees"]}
        assert 1 in sizes and max(sizes) > 1
        _check_forest(forest, _queries(X))
        _check_forest(RandomForest.from_state(forest.get_state()), _queries(X))

    def test_mini_suite_model(self, mini_dataset):
        forest = RandomForest(seed=0).fit(mini_dataset.X, mini_dataset.labels)
        _check_forest(forest, _pool(mini_dataset.X))
