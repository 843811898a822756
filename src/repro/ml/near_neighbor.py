"""Near neighbor classification (the paper's Section 5.1).

"The idea of the algorithm is to construct a database of all (x_i, y_i)
pairs in the training set" — prediction inspects the labels of all training
examples within a fixed Euclidean radius of the (normalised) query and
returns the most common one.  When no neighbor falls inside the radius, or
when there is no clear winner, the paper "simply assign[s] the unroll factor
based on the label of the single nearest neighbor"; it also notes the
neighbor vote doubles as a *confidence*, enabling outlier-inspection tools.

The paper uses radius 0.3, "determined experimentally"; feature vectors are
normalised "to weigh all features equally" (we default to min-max scaling so
a 0.3 radius is meaningful).  Training is population of the database —
"trivial to train" — and lookup is a linear scan, fast at this dataset size
(their 2,500-example scan took under 5 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.normalize import Normalizer, fit_normalizer

#: The paper's experimentally chosen neighborhood radius.
DEFAULT_RADIUS = 0.3


@dataclass(frozen=True)
class NNPrediction:
    """A prediction with its neighbor evidence."""

    label: int
    confidence: float  # fraction of in-radius neighbors voting for label
    n_neighbors: int  # neighbors within the radius
    used_fallback: bool  # True when the 1-NN fallback decided


class NearNeighborClassifier:
    """Radius-vote near neighbor classifier with a 1-NN fallback."""

    def __init__(self, radius: float = DEFAULT_RADIUS, normalization: str = "minmax"):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius
        self.normalization = normalization
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._normalizer: Normalizer | None = None

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearNeighborClassifier":
        """Populate the database (this *is* the training)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and aligned")
        self._normalizer = fit_normalizer(X, self.normalization)
        self._X = self._normalizer.transform(X)
        self._y = y
        self._compile()
        return self

    def _compile(self) -> None:
        """Class tables, built once per fit or restore."""
        self._classes = np.unique(self._y)
        self._y_column = np.searchsorted(self._classes, self._y)

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("classifier is not fitted")

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Everything a fitted classifier needs to predict, as plain
        arrays/scalars.  The stored database is the *normalised* matrix, so
        restoring never refits (and cannot drift)."""
        self._require_fitted()
        return {
            "radius": float(self.radius),
            "normalization": self.normalization,
            "X": self._X,
            "y": self._y,
            "normalizer": self._normalizer.get_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "NearNeighborClassifier":
        """Rebuild a fitted classifier; predictions are bit-identical to
        the instance :meth:`get_state` was read from."""
        clf = cls(radius=float(state["radius"]), normalization=str(state["normalization"]))
        clf._X = np.asarray(state["X"], dtype=np.float64)
        clf._y = np.asarray(state["y"], dtype=np.int64)
        clf._normalizer = Normalizer.from_state(state["normalizer"])
        clf._compile()
        return clf

    # ------------------------------------------------------------------

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from one (raw) query to every database row."""
        q = self._normalizer.transform(np.asarray(x, dtype=np.float64))
        return np.sqrt(((self._X - q) ** 2).sum(axis=1))

    def _decide(self, distances: np.ndarray) -> tuple[int, np.ndarray | None, bool]:
        """One query's decision from its distances to every database row:
        the label, the in-radius vote counts over :attr:`classes_` (``None``
        when no row is in radius) and whether the single nearest neighbor
        decided the label."""
        in_radius = distances <= self.radius
        if not in_radius.any():
            return int(self._y[np.argmin(distances)]), None, True
        votes = np.bincount(self._y_column[in_radius], minlength=len(self._classes))
        winners = np.flatnonzero(votes == votes.max())
        if len(winners) > 1:
            # No clear winner: fall back to the single nearest neighbor.
            return int(self._y[np.argmin(distances)]), votes, True
        return int(self._classes[winners[0]]), votes, False

    def predict_one(self, x: np.ndarray) -> NNPrediction:
        """Classify a single loop, reporting neighbor evidence."""
        self._require_fitted()
        label, votes, used_fallback = self._decide(self._distances(x))
        if votes is None:
            return NNPrediction(label, 0.0, 0, True)
        n_in = int(votes.sum())
        return NNPrediction(label, votes.max() / n_in, n_in, used_fallback)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Classify a batch of loops (labels only)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.array([self.predict_one(x).label for x in X], dtype=np.int64)

    def confidences(self, X: np.ndarray) -> np.ndarray:
        """Per-query confidence — the outlier-detection signal."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.array([self.predict_one(x).confidence for x in X])

    @property
    def classes_(self) -> np.ndarray:
        """Distinct training labels, ascending (the proba column order)."""
        self._require_fitted()
        return self._classes

    def infer(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels (exactly :meth:`predict`'s, 1-NN tie fallback included)
        and the class distribution over :attr:`classes_`, in one scan per
        query.

        The distribution is the in-radius neighbor vote shares (the
        paper's confidence signal as a full distribution); a query with no
        in-radius neighbors gets a one-hot on its single nearest
        neighbor's label.  Its argmax can differ from the label on vote
        ties, where the label falls back to the nearest neighbor.
        """
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        labels = np.empty(len(X), dtype=np.int64)
        proba = np.zeros((len(X), len(self._classes)))
        for i, x in enumerate(X):
            labels[i], votes, _ = self._decide(self._distances(x))
            if votes is None:
                proba[i, self._classes == labels[i]] = 1.0
            else:
                proba[i] = votes / votes.sum()
        return labels, proba

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-query class distribution over :attr:`classes_` (see
        :meth:`infer`)."""
        return self.infer(X)[1]

    # ------------------------------------------------------------------

    def loocv_predictions(self) -> np.ndarray:
        """Exact leave-one-out predictions over the training database.

        Computed from one pairwise distance matrix rather than N refits —
        the database *is* the model, so removing a row just means masking
        it out of the vote.
        """
        self._require_fitted()
        X, y = self._X, self._y
        n = len(X)
        sq = (X**2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(d2, 0.0, out=d2)
        distances = np.sqrt(d2)
        np.fill_diagonal(distances, np.inf)
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = distances[i]
            in_radius = row <= self.radius
            if not in_radius.any():
                out[i] = y[int(np.argmin(row))]
                continue
            votes = np.bincount(y[in_radius])
            top = votes.max()
            winners = np.flatnonzero(votes == top)
            out[i] = y[int(np.argmin(row))] if len(winners) > 1 else winners[0]
        return out
