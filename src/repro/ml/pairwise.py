"""Pairwise (one-vs-one) LS-SVM multi-class coupling.

The output-code construction in :mod:`repro.ml.multiclass` is the paper's
described scheme; LSSVMlab (the toolkit the paper used) also ships pairwise
coupling, which trains one binary machine per *pair* of classes on just
those two classes' examples and predicts by voting.  Pairwise coupling is
usually stronger on hard multi-class problems — each binary problem is
smaller and cleaner — at the cost of ``k(k-1)/2`` machines.

Leave-one-out stays exact and cheap: leaving out example ``i`` only
perturbs the machines whose training set contains ``i`` (the ``k-1`` pairs
involving ``i``'s class); for those, the closed-form LS-SVM LOO identity
applies within the pair's own solve, and every other machine's decision
value for ``i`` is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.features.normalize import Normalizer, fit_normalizer
from repro.ml.svm import LSSVM


class PairwiseLSSVM:
    """One-vs-one LS-SVM with margin-weighted voting."""

    def __init__(
        self,
        classes=tuple(range(1, 9)),
        C: float = 10.0,
        sigma: float = 0.65,
        feature_weights: np.ndarray | None = None,
        normalization: str = "minmax",
        kernel: str = "rbf",
        scale_ratio: float = 30.0,
        mix: float = 0.5,
    ):
        self.classes = np.asarray(classes, dtype=np.int64)
        self.C = C
        self.sigma = sigma
        self.feature_weights = (
            None if feature_weights is None else np.asarray(feature_weights, dtype=np.float64)
        )
        self.normalization = normalization
        self.kernel = kernel
        self.scale_ratio = scale_ratio
        self.mix = mix
        # Pair machines exist only after fit (leave-one-out needs their
        # factorisations); prediction and persistence read the tables
        # built by _compile.
        self._machines: dict[tuple[int, int], LSSVM] = {}
        self._pairs: list[tuple[int, int]] = []
        self._normalizer = None
        self._y: np.ndarray | None = None

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        """Normalise, then stretch axes by the (optional) feature weights —
        a diagonal-metric RBF, i.e. per-feature bandwidths."""
        Z = self._normalizer.transform(X)
        if self.feature_weights is not None:
            Z = Z * self.feature_weights
        return Z

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PairwiseLSSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._normalizer = fit_normalizer(X, self.normalization)
        Z = self._prepare(X)
        self._Z_cache = Z
        self._y = y
        self._machines = {}
        solutions = []
        present = [c for c in self.classes if np.any(y == c)]
        for ai in range(len(present)):
            for bi in range(ai + 1, len(present)):
                a, b = int(present[ai]), int(present[bi])
                rows = np.flatnonzero((y == a) | (y == b))
                targets = np.where(y[rows] == a, 1.0, -1.0)
                machine = LSSVM(
                    C=self.C,
                    sigma=self.sigma,
                    kernel=self.kernel,
                    scale_ratio=self.scale_ratio,
                    mix=self.mix,
                )
                machine.fit(Z[rows], targets)
                self._machines[(a, b)] = machine
                solutions.append((a, b, rows, machine._solution.alpha, machine._solution.bias))
        self._compile(solutions)
        return self

    def _require_fitted(self) -> None:
        if self._normalizer is None:
            raise RuntimeError("classifier is not fitted")

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """The fitted ensemble as plain arrays/scalars.

        The prepared (normalised, weighted) training matrix is stored once;
        each pair machine contributes only its row indices and dual
        solution (gathered back from the scattered inference tables), so
        the artifact stays compact and reconstruction is exact — no
        refitting, no drift.
        """
        self._require_fitted()
        pairs = []
        for p in sorted(range(len(self._pairs)), key=self._pairs.__getitem__):
            a, b = self._pairs[p]
            rows = self._rows[p]
            pairs.append(
                {
                    "a": int(a),
                    "b": int(b),
                    "rows": np.asarray(rows, dtype=np.int64),
                    "alpha": self._alpha[p, rows],
                    "bias": np.asarray(self._bias[p]),
                }
            )
        return {
            "classes": np.asarray(self.classes, dtype=np.int64),
            "C": float(self.C),
            "sigma": float(self.sigma),
            "feature_weights": (
                None
                if self.feature_weights is None
                else np.asarray(self.feature_weights, dtype=np.float64)
            ),
            "normalization": self.normalization,
            "kernel": self.kernel,
            "scale_ratio": float(self.scale_ratio),
            "mix": float(self.mix),
            "Z": self._Z_cache,
            "y": self._y,
            "normalizer": self._normalizer.get_state(),
            "pairs": pairs,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PairwiseLSSVM":
        """Rebuild a fitted ensemble with bit-identical predictions.

        Only the inference tables are rebuilt, no pair machines: a restored
        model predicts but cannot run leave-one-out, which needs the
        training factorisations that artifacts do not carry.
        """
        clf = cls(
            classes=tuple(int(c) for c in state["classes"]),
            C=float(state["C"]),
            sigma=float(state["sigma"]),
            feature_weights=state["feature_weights"],
            normalization=str(state["normalization"]),
            kernel=str(state["kernel"]),
            scale_ratio=float(state["scale_ratio"]),
            mix=float(state["mix"]),
        )
        clf._normalizer = Normalizer.from_state(state["normalizer"])
        Z = np.asarray(state["Z"], dtype=np.float64)
        y = np.asarray(state["y"], dtype=np.int64)
        clf._Z_cache = Z
        clf._y = y
        solutions = []
        for pair in state["pairs"]:
            rows = np.asarray(pair["rows"], dtype=np.int64)
            solutions.append((int(pair["a"]), int(pair["b"]), rows, pair["alpha"], pair["bias"]))
        clf._compile(solutions)
        return clf

    # ------------------------------------------------------------------

    def _compile(self, solutions) -> None:
        """Inference tables from the pair solutions ``(a, b, rows, alpha,
        bias)``, built once per fit or restore.

        Every pair machine's training rows are a subset of the cached
        training matrix, so one kernel row per query over that matrix
        serves all of them: each pair's dual coefficients are scattered
        onto the full row set (zero outside the pair) and the decision
        values for every pair come out of a single contraction.
        """
        Z, y = self._Z_cache, self._y
        self._classes = np.unique(y)
        self._Z_sq = (Z**2).sum(axis=1)
        self._pairs = [(a, b) for a, b, _, _, _ in solutions]
        self._rows = [rows for _, _, rows, _, _ in solutions]
        column = {int(c): k for k, c in enumerate(self._classes)}
        self._pair_a = np.array([column[a] for a, _ in self._pairs], dtype=np.int64)
        self._pair_b = np.array([column[b] for _, b in self._pairs], dtype=np.int64)
        # Signed pair/class incidence: a pair's decision value adds to its
        # first class's margin and subtracts from its second's.
        n_pairs = len(self._pairs)
        self._pair_sign = np.zeros((n_pairs, len(self._classes)))
        self._pair_sign[np.arange(n_pairs), self._pair_a] = 1.0
        self._pair_sign[np.arange(n_pairs), self._pair_b] = -1.0
        self._alpha = np.zeros((n_pairs, len(Z)))
        self._bias = np.zeros(n_pairs)
        for p, (_, _, rows, alpha, bias) in enumerate(solutions):
            self._alpha[p, rows] = alpha
            self._bias[p] = np.ravel(bias)[0]
        # Labels are chosen over ``self.classes`` (its order breaks exact
        # score ties); classes never seen in training score zero there.
        label_pos = {int(c): k for k, c in enumerate(self.classes)}
        seen = [k for k, c in enumerate(self._classes) if int(c) in label_pos]
        self._label_src = np.array(seen, dtype=np.int64)
        self._label_dst = np.array(
            [label_pos[int(self._classes[k])] for k in seen], dtype=np.int64
        )

    def _decision_matrix(self, Z: np.ndarray) -> np.ndarray:
        """Pair decision values ``(n_queries, n_pairs)`` for prepared rows.

        The contractions use ``einsum``, not ``@``: BLAS picks different
        accumulation kernels for different row counts, which would move
        the last ulp of a query's values with the batch it arrived in.
        ``einsum`` reduces each element in a fixed order, so a row scores
        the same alone or in any batch.  Training keeps BLAS.
        """
        cross = np.einsum("ij,kj->ik", Z, self._Z_cache)
        d2 = (Z**2).sum(axis=1)[:, None] + self._Z_sq[None, :] - 2.0 * cross
        np.maximum(d2, 0.0, out=d2)
        K = np.exp(-d2 / (2.0 * self.sigma * self.sigma))
        if self.kernel == "multiscale":
            wide = self.sigma * self.scale_ratio
            K = self.mix * K + (1.0 - self.mix) * np.exp(-d2 / (2.0 * wide * wide))
        return np.einsum("ij,pj->ip", K, self._alpha) + self._bias

    def _tally(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and vote-share distribution from pair decision values.

        Each machine casts one vote; the label maximises votes with the
        accumulated margin as tie-break.  Margins accumulate sequentially
        in pair order (``cumsum``), the order the per-pair loop used, so
        the tie-break is unchanged to the last bit.
        """
        n, k = len(values), len(self._classes)
        if not self._pairs:  # degenerate single-class fit
            return np.full(n, self.classes[0]), np.ones((n, k)) / k
        winner = np.where(values >= 0.0, self._pair_a, self._pair_b)
        votes = (winner[:, :, None] == np.arange(k)).sum(axis=1).astype(np.float64)
        margins = np.cumsum(values[:, :, None] * self._pair_sign, axis=1)[:, -1]
        # Lexicographic: votes first, accumulated margin as tie-break.
        score = np.zeros((n, len(self.classes)))
        score[:, self._label_dst] = (votes + 1e-6 * np.tanh(margins))[:, self._label_src]
        labels = self.classes[np.argmax(score, axis=1)]
        return labels, votes / votes.sum(axis=1, keepdims=True)

    def infer(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and class distribution (over :attr:`classes_`) in one
        pass: one kernel row per query, shared by every pair machine."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self._tally(self._decision_matrix(self._prepare(X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.infer(X)[0]

    @property
    def classes_(self) -> np.ndarray:
        """Distinct training labels, ascending (the proba column order)."""
        self._require_fitted()
        return self._classes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-query class distribution over :attr:`classes_`: each pair
        machine casts one vote, so the vote shares form a distribution
        (every row sums to the machine count, normalised to 1).  Vote ties
        that :meth:`predict` breaks by accumulated margin keep their tied
        shares here; consumers needing exact ``predict`` agreement use the
        label from :meth:`infer` and this distribution for confidence only.
        """
        return self.infer(X)[1]

    def loocv_predictions(self) -> np.ndarray:
        """Exact LOO labels over the training set."""
        self._require_fitted()
        if len(self._machines) != len(self._pairs):
            raise RuntimeError(
                "leave-one-out predictions are unavailable on a model restored "
                "from an artifact (no training factorisation)"
            )
        decisions = []
        for pair, rows in zip(self._pairs, self._rows):
            machine = self._machines[pair]
            # Decision values for everyone from the machine as trained...
            full = np.asarray(machine.decision_values(self._Z_cache), dtype=np.float64).ravel()
            # ...then patch the training rows with their exact LOO values.
            loo = np.asarray(machine.loo_decision_values(), dtype=np.float64).ravel()
            full[rows] = loo
            decisions.append(full)
        values = np.column_stack(decisions) if decisions else np.zeros((len(self._y), 0))
        return self._tally(values)[0]


def make_tuned_pairwise_svm() -> "PairwiseLSSVM":
    """The SVM configuration the reproduction experiments use (LOOCV-tuned;
    see ``TUNED_SVM_PARAMS`` and EXPERIMENTS.md)."""
    from repro.ml.svm import TUNED_SVM_PARAMS

    return PairwiseLSSVM(**TUNED_SVM_PARAMS)
