"""A from-scratch NumPy multi-layer perceptron classifier.

The paper's classifiers are 2005-era (near neighbor, LS-SVM); related work
(Balamane et al.'s DNN unroll-factor estimator, NeuroVectorizer) shows the
same 38-feature decision space supports stronger learned predictors.  This
module supplies the smallest credible deep model: a fully-connected network
with one or two tanh hidden layers and a softmax head, trained by
full-batch gradient descent with momentum.

Design constraints (shared with every classifier the registry serialises):

* **Deterministic** — all randomness (weight init, the held-out
  early-stopping fold) flows from one ``numpy`` seed, so the same data and
  seed always produce the same fitted network.
* **Early stopping on a held-out fold** — a seeded fraction of the
  training rows is carved off as a validation fold; training keeps the
  parameters from the epoch with the lowest validation loss and stops
  after ``patience`` epochs without improvement.  The recorded
  ``validation_curve_`` / ``best_epoch_`` make the stopping rule a testable
  property rather than a side effect.
* **Bit-identical restore** — :meth:`get_state` captures the fitted
  parameters (weights, normaliser, class list), never the optimiser; a
  restored network predicts bit-identically without refitting.
"""

from __future__ import annotations

import numpy as np

from repro.features.normalize import Normalizer, fit_normalizer


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable (max-shifted)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class MLPClassifier:
    """Small fully-connected softmax classifier with early stopping.

    Args:
        hidden: widths of the hidden layers (one or two entries).
        seed: drives weight init and the held-out validation split.
        learning_rate / momentum: full-batch gradient-descent step.
        max_epochs: hard cap on training epochs.
        patience: epochs without validation improvement before stopping.
        val_fraction: fraction of rows carved off as the held-out fold
            (skipped when the dataset is too small to split).
        l2: ridge penalty on the weight matrices.
        normalization: input scaling method (``"minmax"``/``"zscore"``).
    """

    def __init__(
        self,
        hidden: tuple[int, ...] = (32,),
        seed: int = 0,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        max_epochs: int = 400,
        patience: int = 25,
        val_fraction: float = 0.2,
        l2: float = 1e-4,
        normalization: str = "minmax",
    ):
        hidden = tuple(int(h) for h in hidden)
        if not 1 <= len(hidden) <= 2:
            raise ValueError("hidden must have one or two layers")
        if any(h < 1 for h in hidden):
            raise ValueError("hidden widths must be >= 1")
        if not 0.0 < val_fraction < 0.5:
            raise ValueError("val_fraction must be in (0, 0.5)")
        self.hidden = hidden
        self.seed = int(seed)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.max_epochs = int(max_epochs)
        self.patience = int(patience)
        self.val_fraction = float(val_fraction)
        self.l2 = float(l2)
        self.normalization = normalization
        self._weights: list[np.ndarray] | None = None
        self._biases: list[np.ndarray] | None = None
        self._classes: np.ndarray | None = None
        self._normalizer: Normalizer | None = None
        #: Validation loss per trained epoch (the early-stopping record).
        self.validation_curve_: np.ndarray | None = None
        #: Epoch whose parameters were kept (argmin of the curve).
        self.best_epoch_: int | None = None

    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    @property
    def classes_(self) -> np.ndarray:
        self._require_fitted()
        return self._classes

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("classifier is not fitted")

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and aligned")
        rng = np.random.default_rng(self.seed)
        self._normalizer = fit_normalizer(X, self.normalization)
        Z = self._normalizer.transform(X)
        self._classes = np.unique(y)
        k = len(self._classes)
        targets = np.zeros((len(y), k))
        targets[np.arange(len(y)), np.searchsorted(self._classes, y)] = 1.0

        # Held-out early-stopping fold (seeded).  Tiny datasets cannot
        # afford one; they validate on the training rows instead, which
        # degrades early stopping to plain loss monitoring.
        n = len(Z)
        n_val = int(round(self.val_fraction * n))
        if n_val >= 1 and n - n_val >= max(2, k):
            order = rng.permutation(n)
            val_rows, train_rows = order[:n_val], order[n_val:]
        else:
            val_rows = train_rows = np.arange(n)
        Z_train, T_train = Z[train_rows], targets[train_rows]
        Z_val, T_val = Z[val_rows], targets[val_rows]

        # Glorot-style init, one rng stream end to end.
        sizes = (Z.shape[1], *self.hidden, k)
        weights = [
            rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        biases = [np.zeros(fan_out) for fan_out in sizes[1:]]
        velocity_w = [np.zeros_like(w) for w in weights]
        velocity_b = [np.zeros_like(b) for b in biases]

        best_loss = np.inf
        best_epoch = -1
        best_weights = [w.copy() for w in weights]
        best_biases = [b.copy() for b in biases]
        curve: list[float] = []
        for epoch in range(self.max_epochs):
            # Forward with cached activations.
            activations = [Z_train]
            for w, b in zip(weights[:-1], biases[:-1]):
                activations.append(np.tanh(activations[-1] @ w + b))
            probs = softmax(activations[-1] @ weights[-1] + biases[-1])

            # Backward: softmax cross-entropy delta, then tanh chain.
            delta = (probs - T_train) / len(Z_train)
            grads_w, grads_b = [], []
            for layer in range(len(weights) - 1, -1, -1):
                grads_w.append(activations[layer].T @ delta + self.l2 * weights[layer])
                grads_b.append(delta.sum(axis=0))
                if layer > 0:
                    delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
            grads_w.reverse()
            grads_b.reverse()
            for layer in range(len(weights)):
                velocity_w[layer] = (
                    self.momentum * velocity_w[layer] - self.learning_rate * grads_w[layer]
                )
                velocity_b[layer] = (
                    self.momentum * velocity_b[layer] - self.learning_rate * grads_b[layer]
                )
                weights[layer] = weights[layer] + velocity_w[layer]
                biases[layer] = biases[layer] + velocity_b[layer]

            val_loss = self._loss(Z_val, T_val, weights, biases)
            curve.append(val_loss)
            if val_loss < best_loss - 1e-12:
                best_loss = val_loss
                best_epoch = epoch
                best_weights = [w.copy() for w in weights]
                best_biases = [b.copy() for b in biases]
            elif epoch - best_epoch >= self.patience:
                break

        self._weights = best_weights
        self._biases = best_biases
        self.validation_curve_ = np.asarray(curve, dtype=np.float64)
        self.best_epoch_ = int(best_epoch)
        return self

    def _loss(self, Z, targets, weights, biases) -> float:
        h = Z
        for w, b in zip(weights[:-1], biases[:-1]):
            h = np.tanh(h @ w + b)
        probs = softmax(h @ weights[-1] + biases[-1])
        nll = -np.log(np.clip((probs * targets).sum(axis=1), 1e-12, None)).mean()
        ridge = sum(float((w**2).sum()) for w in weights)
        return float(nll + 0.5 * self.l2 * ridge)

    # ------------------------------------------------------------------

    def infer(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and row-wise class distribution over :attr:`classes_`
        from one forward pass (the label is the most probable class;
        first class wins ties).

        Inference avoids ``@``: BLAS picks different accumulation kernels
        for different row counts (gemv vs gemm blocking), which moves the
        last ulp of a row's probabilities with the *batch size* it arrived
        in.  The serve tier's contract is that a batched prediction is
        bit-identical to the same row served alone, so the forward pass
        uses ``einsum`` (fixed-order per-element reduction, row-count
        invariant) instead.  Training keeps BLAS — only inference needs
        shape-stable bytes.
        """
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        h = self._normalizer.transform(X)
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            h = np.tanh(np.einsum("ij,jk->ik", h, w) + b)
        proba = softmax(np.einsum("ij,jk->ik", h, self._weights[-1]) + self._biases[-1])
        return self._classes[np.argmax(proba, axis=1)], proba

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Row-wise class distribution over :attr:`classes_`."""
        return self.infer(X)[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row (first class wins ties)."""
        return self.infer(X)[0]

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Fitted parameters as plain arrays/scalars — never the
        optimiser state, so restore cannot drift."""
        self._require_fitted()
        return {
            "hidden": list(self.hidden),
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "val_fraction": self.val_fraction,
            "l2": self.l2,
            "normalization": self.normalization,
            "classes": self._classes,
            "weights": list(self._weights),
            "biases": list(self._biases),
            "normalizer": self._normalizer.get_state(),
            "validation_curve": self.validation_curve_,
            "best_epoch": self.best_epoch_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MLPClassifier":
        """Rebuild a fitted network; predictions are bit-identical to the
        instance :meth:`get_state` was read from."""
        clf = cls(
            hidden=tuple(int(h) for h in state["hidden"]),
            seed=int(state["seed"]),
            learning_rate=float(state["learning_rate"]),
            momentum=float(state["momentum"]),
            max_epochs=int(state["max_epochs"]),
            patience=int(state["patience"]),
            val_fraction=float(state["val_fraction"]),
            l2=float(state["l2"]),
            normalization=str(state["normalization"]),
        )
        clf._classes = np.asarray(state["classes"], dtype=np.int64)
        clf._weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
        clf._biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
        clf._normalizer = Normalizer.from_state(state["normalizer"])
        clf.validation_curve_ = np.asarray(state["validation_curve"], dtype=np.float64)
        clf.best_epoch_ = int(state["best_epoch"])
        return clf
