"""The CART tree and the random forest: seeded determinism, exact
permutation invariance of forest voting, per-split feature subsampling,
and bit-identical state round-trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ml.trees import DecisionTree, RandomForest
from tests.strategies import labelled_datasets

_PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _separable(n=48, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % n_classes) + 1
    X = rng.normal(size=(n, 8)) + labels[:, None] * 1.0
    return X, labels.astype(np.int64)


class TestDecisionTree:
    def test_learns_separable_data(self):
        X, y = _separable()
        tree = DecisionTree(max_depth=6, min_leaf=1).fit(X, y)
        assert float(np.mean(tree.predict(X) == y)) >= 0.9

    def test_state_round_trip_is_bit_identical(self):
        X, y = _separable()
        tree = DecisionTree(max_depth=5, min_leaf=2).fit(X, y)
        restored = DecisionTree.from_state(tree.get_state())
        np.testing.assert_array_equal(restored.predict(X), tree.predict(X))
        np.testing.assert_array_equal(
            restored.predict_proba(X), tree.predict_proba(X)
        )

    def test_feature_subsampling_is_seeded(self):
        X, y = _separable()
        grow = lambda seed: DecisionTree(
            max_depth=4, min_leaf=2, max_features=2, rng=np.random.default_rng(seed)
        ).fit(X, y)
        np.testing.assert_array_equal(grow(7).predict(X), grow(7).predict(X))

    def test_unfitted_predict_is_an_error(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTree().predict(np.zeros((1, 3)))

    def test_bad_hyperparameters_are_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTree(max_features=0)


def _permuted(forest: RandomForest, order) -> RandomForest:
    """The same fitted trees in another order (restored, never refit)."""
    state = forest.get_state()
    state["trees"] = [state["trees"][i] for i in order]
    return RandomForest.from_state(state)


class TestRandomForest:
    def test_same_seed_same_forest(self):
        X, y = _separable()
        a = RandomForest(n_trees=10, seed=5).fit(X, y)
        b = RandomForest(n_trees=10, seed=5).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_voting_is_exactly_permutation_invariant(self):
        """Reordering the fitted trees must not change a single bit of the
        aggregated probabilities — the sort-before-sum contract."""
        X, y = _separable()
        forest = RandomForest(n_trees=12, seed=0).fit(X, y)
        before = forest.predict_proba(X)
        rng = np.random.default_rng(42)
        for _ in range(3):
            after = _permuted(forest, rng.permutation(12)).predict_proba(X)
            assert before.tobytes() == after.tobytes()

    def test_proba_rows_are_distributions(self):
        X, y = _separable()
        forest = RandomForest(n_trees=8, seed=1).fit(X, y)
        proba = forest.predict_proba(X)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_is_argmax_of_proba(self):
        X, y = _separable()
        forest = RandomForest(n_trees=8, seed=1).fit(X, y)
        np.testing.assert_array_equal(
            forest.predict(X),
            forest.classes_[np.argmax(forest.predict_proba(X), axis=1)],
        )

    def test_learns_separable_data(self):
        X, y = _separable()
        forest = RandomForest(seed=0).fit(X, y)
        assert float(np.mean(forest.predict(X) == y)) >= 0.9

    def test_state_round_trip_is_bit_identical(self):
        X, y = _separable()
        forest = RandomForest(n_trees=9, seed=3).fit(X, y)
        restored = RandomForest.from_state(forest.get_state())
        np.testing.assert_array_equal(
            restored.predict_proba(X), forest.predict_proba(X)
        )
        np.testing.assert_array_equal(restored.predict(X), forest.predict(X))
        np.testing.assert_array_equal(restored.classes_, forest.classes_)

    def test_unfitted_forest_is_an_error(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForest().predict(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="n_trees"):
            RandomForest(n_trees=0)

    @_PROPERTY_SETTINGS
    @given(dataset=labelled_datasets(), seed=st.integers(0, 100))
    def test_determinism_and_round_trip_on_any_dataset(self, dataset, seed):
        a = RandomForest(n_trees=6, seed=seed).fit(dataset.X, dataset.labels)
        b = RandomForest(n_trees=6, seed=seed).fit(dataset.X, dataset.labels)
        np.testing.assert_array_equal(a.predict_proba(dataset.X), b.predict_proba(dataset.X))
        restored = RandomForest.from_state(a.get_state())
        np.testing.assert_array_equal(
            restored.predict_proba(dataset.X), a.predict_proba(dataset.X)
        )

    @_PROPERTY_SETTINGS
    @given(dataset=labelled_datasets())
    def test_permutation_invariance_on_any_dataset(self, dataset):
        forest = RandomForest(n_trees=7, seed=0).fit(dataset.X, dataset.labels)
        before = forest.predict_proba(dataset.X)
        reversed_forest = _permuted(forest, np.arange(7)[::-1])
        assert before.tobytes() == reversed_forest.predict_proba(dataset.X).tobytes()
