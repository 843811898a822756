"""Decision trees and boosting — the related-work baseline.

The paper's Section 9 contrasts its multi-class approach with Monsifrot,
Bodin, and Quiniou's *binary* "boosted decision tree" classifier, which
only decides unroll-or-not and leaves the factor to the compiler: "their
learned classifier correctly predicts 86% of the loops in their benchmark
suite. Judging by the histogram in Figure 3, simply unrolling all the time
will achieve 77% accuracy, and while unrolling may be better than not
unrolling for a given example, Table 2 shows that choosing the wrong unroll
factor can severely limit performance."

This module implements that baseline from scratch — CART-style trees with
Gini impurity and AdaBoost (discrete SAMME for the binary case) — so the
ablation bench can quantify the paper's argument on our data: high binary
accuracy, mediocre realized performance.

It also supplies :class:`RandomForest`, the bagged multi-class predictor
the calibrated ensemble (:mod:`repro.ml.ensemble`) uses: seeded bootstrap
resampling, per-split feature subsampling, and order-invariant averaging of
per-tree leaf class distributions.  Both the tree and the forest serialise
their fitted structure (:meth:`DecisionTree.get_state`) so the registry can
restore them bit-identically without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    distribution: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.distribution is not None


class DecisionTree:
    """CART classifier: axis-aligned splits minimising weighted Gini.

    Supports sample weights (required by boosting) and any integer label
    set; prediction returns the majority class of the reached leaf.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_leaf: int = 5,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if max_features is not None and max_features < 1:
            raise ValueError("max_features must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self._rng = rng
        self._root: _Node | None = None
        self._classes: np.ndarray | None = None

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight=None) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if sample_weight is None:
            sample_weight = np.full(len(y), 1.0 / len(y))
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        self._classes = np.unique(y)
        class_index = np.searchsorted(self._classes, y)
        self._root = self._grow(X, class_index, sample_weight, depth=0)
        return self

    def _distribution(self, class_index, weight) -> np.ndarray:
        dist = np.bincount(class_index, weights=weight, minlength=len(self._classes))
        total = dist.sum()
        return dist / total if total > 0 else np.full_like(dist, 1.0 / len(dist))

    def _grow(self, X, class_index, weight, depth) -> _Node:
        dist = self._distribution(class_index, weight)
        if (
            depth >= self.max_depth
            or len(class_index) < 2 * self.min_leaf
            or dist.max() >= 1.0 - 1e-12
        ):
            return _Node(distribution=dist)
        feature, threshold, gain = self._best_split(X, class_index, weight)
        if feature < 0 or gain <= 1e-12:
            return _Node(distribution=dist)
        goes_left = X[:, feature] <= threshold
        left = self._grow(X[goes_left], class_index[goes_left], weight[goes_left], depth + 1)
        right = self._grow(X[~goes_left], class_index[~goes_left], weight[~goes_left], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def _candidate_features(self, d: int):
        """Features to consider at one split: all of them, or a seeded
        random subset (the forest's per-split feature subsampling).  The
        subset is sorted so the first-feature-wins tie-break stays
        deterministic."""
        if self.max_features is None or self._rng is None or self.max_features >= d:
            return range(d)
        return np.sort(self._rng.choice(d, size=self.max_features, replace=False))

    def _best_split(self, X, class_index, weight):
        n, d = X.shape
        k = len(self._classes)
        parent = self._distribution(class_index, weight)
        total_weight = weight.sum()
        parent_gini = 1.0 - (parent**2).sum()
        best = (-1, 0.0, 0.0)
        lo, hi = self.min_leaf - 1, n - self.min_leaf
        if hi <= lo:
            return best
        positions = np.arange(lo, hi)
        for feature in self._candidate_features(d):
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            w = weight[order]
            onehot = np.zeros((n, k))
            onehot[np.arange(n), class_index[order]] = w
            left_counts = np.cumsum(onehot, axis=0)
            left_weight = np.cumsum(w)
            # Candidate split after position i (between distinct values);
            # all positions scored in one vectorized sweep.
            wl = left_weight[positions]
            wr = total_weight - wl
            valid = (values[positions] != values[positions + 1]) & (wl > 0) & (wr > 0)
            if not valid.any():
                continue
            idx = positions[valid]
            wlv, wrv = wl[valid], wr[valid]
            pl = left_counts[idx] / wlv[:, None]
            pr = (left_counts[-1] - left_counts[idx]) / wrv[:, None]
            gini = (
                wlv * (1 - (pl**2).sum(axis=1)) + wrv * (1 - (pr**2).sum(axis=1))
            ) / total_weight
            gain = parent_gini - gini
            pick = int(np.argmax(gain))  # first max: lowest threshold wins ties
            if gain[pick] > best[2]:
                best = (
                    int(feature),
                    0.5 * (values[idx[pick]] + values[idx[pick] + 1]),
                    float(gain[pick]),
                )
        return best

    # ------------------------------------------------------------------

    def _leaf_for(self, x) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        picks = [int(np.argmax(self._leaf_for(x).distribution)) for x in X]
        return self._classes[picks]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.vstack([self._leaf_for(x).distribution for x in X])

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """The fitted tree as flat node arrays (preorder): split feature,
        threshold, child indices (-1 for leaves), and per-leaf class
        distributions.  The growth rng is *not* stored — prediction never
        draws from it — so restore cannot drift."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        nodes: list[_Node] = []

        def visit(node: _Node) -> int:
            index = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                visit(node.left)
                visit(node.right)
            return index

        visit(self._root)
        index_of = {id(node): i for i, node in enumerate(nodes)}
        k = len(self._classes)
        feature = np.full(len(nodes), -1, dtype=np.int64)
        threshold = np.zeros(len(nodes))
        left = np.full(len(nodes), -1, dtype=np.int64)
        right = np.full(len(nodes), -1, dtype=np.int64)
        distribution = np.zeros((len(nodes), k))
        for i, node in enumerate(nodes):
            if node.is_leaf:
                distribution[i] = node.distribution
            else:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index_of[id(node.left)]
                right[i] = index_of[id(node.right)]
        return {
            "max_depth": int(self.max_depth),
            "min_leaf": int(self.min_leaf),
            "max_features": None if self.max_features is None else int(self.max_features),
            "classes": self._classes,
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "distribution": distribution,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        """Rebuild a fitted tree with bit-identical predictions."""
        max_features = state["max_features"]
        tree = cls(
            max_depth=int(state["max_depth"]),
            min_leaf=int(state["min_leaf"]),
            max_features=None if max_features is None else int(max_features),
        )
        tree._classes = np.asarray(state["classes"], dtype=np.int64)
        feature = np.asarray(state["feature"], dtype=np.int64)
        threshold = np.asarray(state["threshold"], dtype=np.float64)
        left = np.asarray(state["left"], dtype=np.int64)
        right = np.asarray(state["right"], dtype=np.int64)
        distribution = np.asarray(state["distribution"], dtype=np.float64)

        def build(index: int) -> _Node:
            if left[index] < 0:
                return _Node(distribution=distribution[index])
            return _Node(
                feature=int(feature[index]),
                threshold=float(threshold[index]),
                left=build(int(left[index])),
                right=build(int(right[index])),
            )

        tree._root = build(0)
        return tree


class RandomForest:
    """Bagged CART trees with per-split feature subsampling.

    Every tree trains on a seeded bootstrap resample and restricts each
    split to a random feature subset (default ``sqrt(d)``); prediction
    averages the per-tree leaf class distributions, mapped onto the
    forest's global class set.  The per-tree contributions are sorted
    before summation, so the aggregate is exactly invariant under any
    permutation of the trees — voting has no order dependence, not even in
    the last float ulp.
    """

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 6,
        min_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.seed = int(seed)
        # Per-tree flat node arrays (``DecisionTree.get_state``): what the
        # forest persists; _compile flattens them for prediction.
        self._tree_states: list[dict] = []
        self._classes: np.ndarray | None = None

    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._classes is not None

    @property
    def classes_(self) -> np.ndarray:
        self._require_fitted()
        return self._classes

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("classifier is not fitted")

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return max(1, min(int(self.max_features), d))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and aligned")
        self._classes = np.unique(y)
        n, d = X.shape
        max_features = self._resolve_max_features(d)
        # One SeedSequence child per tree: tree i's bootstrap and split
        # subsets are independent of every other tree, so the fit is
        # reproducible tree-by-tree regardless of n_trees.
        children = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self._tree_states = []
        for child in children:
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=max_features,
                rng=rng,
            )
            tree.fit(X[rows], y[rows])
            self._tree_states.append(tree.get_state())
        self._compile()
        return self

    def _compile(self) -> None:
        """Flatten the trees into padded ``(n_trees, n_nodes)`` arrays
        (split feature, threshold, children) plus per-node leaf
        distributions already mapped onto the forest's classes, so one
        walk steps every tree at once.  Leaves and padding point at
        themselves: once a tree reaches its leaf, further steps stay put.
        """
        tree_states = self._tree_states
        n_trees = len(tree_states)
        n_nodes = max(len(state["left"]) for state in tree_states)
        self._node_feature = np.zeros((n_trees, n_nodes), dtype=np.int64)
        self._node_threshold = np.zeros((n_trees, n_nodes))
        self._node_left = np.tile(np.arange(n_nodes), (n_trees, 1))
        self._node_right = self._node_left.copy()
        self._leaf_proba = np.zeros((n_trees, n_nodes, len(self._classes)))
        self._walk_depth = 0
        for t, state in enumerate(tree_states):
            left = np.asarray(state["left"], dtype=np.int64)
            right = np.asarray(state["right"], dtype=np.int64)
            split = np.flatnonzero(left >= 0)
            leaves = np.flatnonzero(left < 0)
            self._node_feature[t, split] = np.asarray(state["feature"])[split]
            self._node_threshold[t, split] = np.asarray(state["threshold"])[split]
            self._node_left[t, split] = left[split]
            self._node_right[t, split] = right[split]
            columns = np.searchsorted(self._classes, np.asarray(state["classes"]))
            self._leaf_proba[t][np.ix_(leaves, columns)] = np.asarray(
                state["distribution"], dtype=np.float64
            )[leaves]
            # Preorder: every parent precedes its children.
            depth = np.zeros(len(left), dtype=np.int64)
            for i in split:
                depth[left[i]] = depth[right[i]] = depth[i] + 1
            self._walk_depth = max(self._walk_depth, int(depth.max()))

    # ------------------------------------------------------------------

    def _leaf_distributions(self, X: np.ndarray) -> np.ndarray:
        """Every tree's reached-leaf distribution, ``(n_trees, n_rows, k)``:
        all trees (and rows) step down one level per iteration."""
        trees = np.arange(len(self._node_feature))[:, None]
        rows = np.arange(len(X))[None, :]
        node = np.zeros((len(trees), len(X)), dtype=np.int64)
        for _ in range(self._walk_depth):
            feature = self._node_feature[trees, node]
            goes_left = X[rows, feature] <= self._node_threshold[trees, node]
            node = np.where(
                goes_left, self._node_left[trees, node], self._node_right[trees, node]
            )
        return self._leaf_proba[trees, node]

    def infer(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels (majority-probability class, first class wins ties) and
        the average of the per-tree leaf distributions over the global
        classes, from one walk of all trees."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        stacked = self._leaf_distributions(X)
        # Sorting each (row, class) cell's per-tree contributions before
        # summing makes the total a function of the multiset of votes,
        # not the tree order: permutation invariance is exact.
        proba = np.sort(stacked, axis=0).sum(axis=0) / len(stacked)
        return self._classes[np.argmax(proba, axis=1)], proba

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average per-tree leaf distributions over the global classes."""
        return self.infer(X)[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-probability class per row (first class wins ties)."""
        return self.infer(X)[0]

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        self._require_fitted()
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "max_features": (
                self.max_features
                if self.max_features is None or isinstance(self.max_features, str)
                else int(self.max_features)
            ),
            "seed": self.seed,
            "classes": self._classes,
            "trees": self._tree_states,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomForest":
        """Rebuild a fitted forest with bit-identical predictions."""
        forest = cls(
            n_trees=int(state["n_trees"]),
            max_depth=int(state["max_depth"]),
            min_leaf=int(state["min_leaf"]),
            max_features=state["max_features"],
            seed=int(state["seed"]),
        )
        forest._classes = np.asarray(state["classes"], dtype=np.int64)
        forest._tree_states = list(state["trees"])
        forest._compile()
        return forest


class BoostedTrees:
    """AdaBoost (discrete SAMME) over shallow CART trees.

    With binary labels this is the classic boosted-decision-tree setup of
    the Monsifrot et al. baseline; it also handles the multi-class case via
    the SAMME correction term.
    """

    def __init__(self, n_rounds: int = 25, max_depth: int = 2, min_leaf: int = 5):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._stages: list[tuple[float, DecisionTree]] = []
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        k = len(self._classes)
        if k < 2:
            raise ValueError("boosting needs at least two classes")
        weight = np.full(len(y), 1.0 / len(y))
        self._stages = []
        for _ in range(self.n_rounds):
            tree = DecisionTree(max_depth=self.max_depth, min_leaf=self.min_leaf)
            tree.fit(X, y, sample_weight=weight)
            predictions = tree.predict(X)
            wrong = predictions != y
            error = float(weight[wrong].sum())
            if error >= 1.0 - 1.0 / k:
                break  # no better than chance: stop
            error = max(error, 1e-12)
            alpha = np.log((1.0 - error) / error) + np.log(k - 1.0)
            self._stages.append((alpha, tree))
            weight = weight * np.exp(alpha * wrong)
            weight /= weight.sum()
            if error <= 1e-12:
                break
        if not self._stages:
            tree = DecisionTree(max_depth=self.max_depth, min_leaf=self.min_leaf)
            tree.fit(X, y)
            self._stages.append((1.0, tree))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._classes is None:
            raise RuntimeError("ensemble is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scores = np.zeros((len(X), len(self._classes)))
        for alpha, tree in self._stages:
            votes = tree.predict(X)
            for col, cls in enumerate(self._classes):
                scores[:, col] += alpha * (votes == cls)
        return self._classes[np.argmax(scores, axis=1)]

    @property
    def n_stages(self) -> int:
        return len(self._stages)


def binary_unroll_labels(labels: np.ndarray) -> np.ndarray:
    """Collapse unroll factors to the Monsifrot-style binary question:
    1 = leave rolled, 2 = unroll (any factor)."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.where(labels == 1, 1, 2)
