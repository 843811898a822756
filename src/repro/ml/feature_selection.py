"""Feature selection (the paper's Section 7).

Two methods, exactly as the paper applies them:

* **Mutual information score (MIS)** — for each feature, the reduction in
  uncertainty about the best unroll factor from knowing the feature's
  (binned) value.  Continuous features are binned before estimating the
  probability mass functions.  (Table 3: the top-five features.)
* **Greedy forward selection** — iteratively add the feature that, jointly
  with those already chosen, minimises a classifier's training error.  The
  result depends on the classifier (Table 4 shows different lists for NN
  and the SVM).  Per the paper, the NN variant used here scores with the
  *single nearest neighbor* rather than the radius vote, and the reported
  errors are training errors (self-excluded for NN, refit for the SVM),
  hence the low values.

The paper then trains its Section 6 classifiers on the union of the MIS and
greedy winners; :func:`selected_feature_union` reproduces that recipe.

**Incremental subset scoring.**  Greedy selection evaluates hundreds of
feature subsets that differ by a single column.  Because min-max
normalisation is per-column, normalising the full matrix once and
restricting to a subset gives exactly the subset fit, and both scorers
consume the subset only through its pairwise squared distances — which are
a *sum over features* of per-feature squared differences.  The fast engine
therefore precomputes one ``(n, n)`` squared-difference matrix per feature
(for the SVM, its elementwise RBF factor ``exp(-d2 / (2 sigma^2))``) and
builds each candidate's distance/Gram matrix by a single elementwise
update of the running base.  The SVM refit solves the SPD Schur complement
of the bordered LS-SVM system with one Cholesky factorisation shared by
all output-code bits.  The ``engine="reference"`` path scores every subset
from scratch with the original formulas; it is the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from repro.features.catalog import FEATURE_NAMES
from repro.ml.multiclass import (
    OutputCodeClassifier,
    code_targets,
    decode_output_codes,
    identity_code,
)
from repro.ml.near_neighbor import NearNeighborClassifier

#: Per-feature distance matrices take ``n_features * n^2 * 8`` bytes; past
#: this budget the fast greedy engine falls back to from-scratch scoring.
WORKSPACE_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class ScoredFeature:
    """One feature with its selection score."""

    index: int
    name: str
    score: float


# ----------------------------------------------------------------------
# Mutual information.
# ----------------------------------------------------------------------


def _bin_feature(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile-bin a feature column; low-cardinality columns keep their
    raw values as categories."""
    unique = np.unique(values)
    if len(unique) <= n_bins:
        return np.searchsorted(unique, values)
    quantiles = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    return np.searchsorted(quantiles, values)


def mutual_information_score(
    feature_values: np.ndarray, labels: np.ndarray, n_bins: int = 10
) -> float:
    """MIS of one feature against the labels (bits).

    ``I(f; u) = sum_{phi, y} P(phi, y) log2( P(phi, y) / (P(phi) P(y)) )``

    The joint distribution is a contingency table built in one vectorised
    pass; the probabilities are integer counts over ``n``, matching
    :func:`mutual_information_score_reference` term by term.
    """
    binned = _bin_feature(np.asarray(feature_values, dtype=np.float64), n_bins)
    labels = np.asarray(labels)
    n = len(labels)
    phi_values, phi_index = np.unique(binned, return_inverse=True)
    y_values, y_index = np.unique(labels, return_inverse=True)
    counts = np.zeros((len(phi_values), len(y_values)), dtype=np.int64)
    np.add.at(counts, (phi_index, y_index), 1)
    joint = counts / n
    p_phi = counts.sum(axis=1) / n
    p_y = counts.sum(axis=0) / n
    occupied = counts > 0
    ratio = joint[occupied] / np.outer(p_phi, p_y)[occupied]
    return float(np.sum(joint[occupied] * np.log2(ratio)))


def mutual_information_score_reference(
    feature_values: np.ndarray, labels: np.ndarray, n_bins: int = 10
) -> float:
    """Per-cell loop over the joint distribution — the original scorer,
    kept as the oracle for :func:`mutual_information_score`."""
    binned = _bin_feature(np.asarray(feature_values, dtype=np.float64), n_bins)
    labels = np.asarray(labels)
    n = len(labels)
    score = 0.0
    for phi in np.unique(binned):
        mask_phi = binned == phi
        p_phi = mask_phi.sum() / n
        for y in np.unique(labels):
            joint = np.sum(mask_phi & (labels == y)) / n
            if joint == 0.0:
                continue
            p_y = np.sum(labels == y) / n
            score += joint * np.log2(joint / (p_phi * p_y))
    return float(score)


def rank_by_mutual_information(
    X: np.ndarray, labels: np.ndarray, n_bins: int = 10
) -> list[ScoredFeature]:
    """All features ranked by MIS, best first (Table 3 prints the top 5)."""
    X = np.asarray(X, dtype=np.float64)
    scored = [
        ScoredFeature(j, FEATURE_NAMES[j], mutual_information_score(X[:, j], labels, n_bins))
        for j in range(X.shape[1])
    ]
    return sorted(scored, key=lambda s: -s.score)


# ----------------------------------------------------------------------
# Greedy forward selection.
# ----------------------------------------------------------------------


def _nn_training_error(X: np.ndarray, y: np.ndarray, include_self: bool = False) -> float:
    """1-NN training error (the paper's modified NN scorer).

    With ``include_self`` (the paper's Table 4 convention) each example may
    match itself, so the error only counts *duplicate feature vectors with
    conflicting labels* — which is why the paper's training errors plunge
    toward zero as features make examples unique.  Without it (the default,
    used for the Section 6 feature-subset selection) the score is the
    leave-one-out error, a better generalisation proxy.
    """
    from repro.features.normalize import fit_minmax

    norm = fit_minmax(X)
    Z = norm.transform(X)
    # Accumulate squared distances one column at a time, in column order.
    # Unlike the expanded form ``sq_i + sq_j - 2 z_i.z_j``, this is exact
    # for duplicate rows (distance identically zero, never rounding noise),
    # so nearest-neighbor ties break by index deterministically — and it is
    # bit-identical to :class:`_GreedyWorkspace`'s per-feature accumulation.
    d2 = np.zeros((Z.shape[0], Z.shape[0]))
    for j in range(Z.shape[1]):
        diff = Z[:, j, None] - Z[None, :, j]
        d2 += diff * diff
    if not include_self:
        np.fill_diagonal(d2, np.inf)
    nearest = np.argmin(d2, axis=1)
    return float(np.mean(y[nearest] != y))


def _svm_training_error(X: np.ndarray, y: np.ndarray, C: float, sigma: float) -> float:
    """Refit training error of the output-code LS-SVM."""
    model = OutputCodeClassifier(C=C, sigma=sigma)
    model.fit(X, y)
    return float(np.mean(model.predict(X) != y))


class _GreedyWorkspace:
    """Incremental subset scorer shared by the NN and SVM greedy runs.

    Holds one per-feature ``(n, n)`` matrix — squared differences for the
    NN scorer, elementwise RBF kernel factors for the SVM — plus the
    running base for the chosen subset, so scoring a candidate is one
    elementwise update instead of a from-scratch distance/Gram build.
    """

    #: Past this unique-row fraction the Woodbury collapse stops paying
    #: for its gathers and the scorer solves the dense system directly.
    DEDUP_THRESHOLD = 0.9

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        classifier: str,
        C: float,
        sigma: float,
        include_self: bool,
    ):
        from repro.features.normalize import fit_minmax

        self.y = y
        self.classifier = classifier
        self.include_self = include_self
        Z = fit_minmax(X).transform(X)
        n, d = Z.shape
        self.n = n
        self.per_feature = np.empty((d, n, n))
        for j in range(d):
            column = Z[:, j]
            diff = column[:, None] - column[None, :]
            np.multiply(diff, diff, out=self.per_feature[j])
        if classifier == "svm":
            # exp(-d2_j / (2 sigma^2)); the subset kernel is the product.
            np.multiply(self.per_feature, -1.0 / (2.0 * sigma * sigma), out=self.per_feature)
            np.exp(self.per_feature, out=self.per_feature)
            self.base = np.ones((n, n))
            self.classes = np.arange(1, 9, dtype=np.int64)
            self.code = identity_code(len(self.classes))
            self._targets = code_targets(y, self.code, self.classes)
            self._rhs = np.column_stack([self._targets, np.ones(n)])
            self._c = C
            self._inv_c = 1.0 / C
            self._system = np.empty((n, n))
            # Row-pattern bookkeeping for the Woodbury collapse: per-feature
            # value ranks refine the chosen subset's pattern ids one
            # candidate at a time.
            self._value_rank = np.empty((d, n), dtype=np.int64)
            self._n_values = np.empty(d, dtype=np.int64)
            for j in range(d):
                values, self._value_rank[j] = np.unique(Z[:, j], return_inverse=True)
                self._n_values[j] = len(values)
            self._base_pattern = np.zeros(n, dtype=np.int64)
        else:
            self.base = np.zeros((n, n))
            self._distances = np.empty((n, n))

    def candidate_error(self, j: int) -> float:
        """Training error of the chosen subset plus feature ``j``."""
        if self.classifier == "nn":
            np.add(self.base, self.per_feature[j], out=self._distances)
            if not self.include_self:
                np.fill_diagonal(self._distances, np.inf)
            nearest = np.argmin(self._distances, axis=1)
            return float(np.mean(self.y[nearest] != self.y))
        return self._svm_error(self._candidate_solve(j))

    def commit(self, j: int) -> None:
        """Fold feature ``j`` into the chosen-subset base."""
        if self.classifier == "nn":
            self.base += self.per_feature[j]
        else:
            self.base *= self.per_feature[j]
            refined = self._base_pattern * self._n_values[j] + self._value_rank[j]
            self._base_pattern = np.unique(refined, return_inverse=True)[1]

    def _candidate_solve(self, j: int) -> np.ndarray:
        """``H^-1 [Y, 1]`` for candidate ``j``, where ``H = K + I/C``.

        Feature subsets of a few mostly small-integer loop features leave
        many duplicate rows, and the kernel only sees the ``u`` distinct
        patterns: ``H = I/C + P K_u P'`` with ``P`` the one-hot pattern
        map.  The Woodbury identity collapses the solve onto the patterns,

            ``H^-1 R = C R - C^2 P (K_u^-1 + C D)^-1 P' R``,

        with ``D = P'P = diag(counts)``; the inner inverse is applied via
        the SPD system ``(I + C W K_u W) G^ = W K_u P'R`` (``W = D^1/2``,
        ``G = W^-1 G^``), a ``u x u`` Cholesky instead of ``n x n``.  Past
        :data:`DEDUP_THRESHOLD` unique rows the dense solve wins.
        """
        pattern = self._base_pattern * self._n_values[j] + self._value_rank[j]
        _, first, inverse = np.unique(pattern, return_index=True, return_inverse=True)
        u = len(first)
        n = self.n
        if u > self.DEDUP_THRESHOLD * n:
            np.multiply(self.base, self.per_feature[j], out=self._system)
            self._system.flat[:: n + 1] += self._inv_c
            factor = cho_factor(
                self._system, lower=True, overwrite_a=True, check_finite=False
            )
            return cho_solve(factor, self._rhs, check_finite=False)
        gather = np.ix_(first, first)
        kernel_u = self.base[gather] * self.per_feature[j][gather]
        counts = np.bincount(inverse, minlength=u)
        n_rhs = self._rhs.shape[1]
        folded = np.empty((u, n_rhs))
        for column in range(n_rhs):
            folded[:, column] = np.bincount(
                inverse, weights=self._rhs[:, column], minlength=u
            )
        weights = np.sqrt(counts)
        system = (self._c * weights[:, None]) * kernel_u * weights[None, :]
        system.flat[:: u + 1] += 1.0
        factor = cho_factor(system, lower=True, overwrite_a=True, check_finite=False)
        scaled = cho_solve(
            factor, weights[:, None] * (kernel_u @ folded), check_finite=False
        )
        inner = scaled / weights[:, None]
        return self._c * self._rhs - (self._c * self._c) * inner[inverse]

    def _svm_error(self, solved: np.ndarray) -> float:
        """Refit training error from ``H^-1 [Y, 1]``.

        The bordered LS-SVM system reduces to its Schur complement: the
        bias is ``b = (1' H^-1 Y) / (1' H^-1 1)``, ``alpha = H^-1 (Y - 1 b)``,
        and the training decision values collapse to the residual identity
        ``f = K alpha + b = Y - alpha / C`` — no kernel product needed.
        """
        h_inv_ones = solved[:, -1]
        h_inv_targets = solved[:, :-1]
        bias = h_inv_targets.sum(axis=0) / h_inv_ones.sum()
        alpha = h_inv_targets - h_inv_ones[:, None] * bias[None, :]
        values = self._targets - alpha * self._inv_c
        predicted = decode_output_codes(values, self.code, self.classes)
        return float(np.mean(predicted != self.y))


def _greedy_loop(n_candidates, n_features, score, commit) -> list[ScoredFeature]:
    """The shared greedy driver: first strict improvement wins each round."""
    result: list[ScoredFeature] = []
    remaining = list(range(n_candidates))
    for _ in range(min(n_features, n_candidates)):
        best_feature = None
        best_error = np.inf
        for j in remaining:
            error = score(j)
            if error < best_error - 1e-12:
                best_error = error
                best_feature = j
        remaining.remove(best_feature)
        commit(best_feature)
        result.append(ScoredFeature(best_feature, FEATURE_NAMES[best_feature], best_error))
    return result


def greedy_forward_selection(
    X: np.ndarray,
    y: np.ndarray,
    classifier: str,
    n_features: int = 5,
    subsample: int | None = None,
    seed: int = 0,
    C: float = 10.0,
    sigma: float = 0.65,
    include_self: bool = False,
    engine: str = "fast",
) -> list[ScoredFeature]:
    """Greedy forward selection; returns the chosen features in pick order,
    each carrying the training error *after* adding it (Table 4's columns).

    ``classifier`` is ``"nn"`` or ``"svm"``.  ``subsample`` optionally
    bounds the rows scored per step (the SVM refits once per candidate per
    step, so the full dataset is expensive).  ``engine="fast"`` scores
    subsets incrementally through :class:`_GreedyWorkspace`;
    ``engine="reference"`` rebuilds every subset from scratch.  Both walk
    the identical candidate order with the identical improvement rule.
    """
    if classifier not in ("nn", "svm"):
        raise ValueError("classifier must be 'nn' or 'svm'")
    if engine not in ("fast", "reference"):
        raise ValueError("engine must be 'fast' or 'reference'")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if subsample is not None and subsample < len(y):
        rng = np.random.default_rng(seed)
        rows = rng.choice(len(y), size=subsample, replace=False)
        X, y = X[rows], y[rows]

    n, d = X.shape
    if engine == "fast" and d * n * n * 8 <= WORKSPACE_BUDGET_BYTES:
        workspace = _GreedyWorkspace(X, y, classifier, C, sigma, include_self)
        return _greedy_loop(d, n_features, workspace.candidate_error, workspace.commit)

    chosen: list[int] = []

    def score(j: int) -> float:
        sub = X[:, chosen + [j]]
        if classifier == "nn":
            return _nn_training_error(sub, y, include_self=include_self)
        return _svm_training_error(sub, y, C, sigma)

    return _greedy_loop(d, n_features, score, chosen.append)


def selected_feature_union(
    X: np.ndarray,
    y: np.ndarray,
    n_mis: int = 5,
    n_greedy: int = 5,
    subsample: int | None = 600,
    seed: int = 0,
) -> np.ndarray:
    """The paper's Section 6 feature set: the union of the MIS top-``n``
    and the greedy top-``n`` for both classifiers, as sorted indices."""
    mis = rank_by_mutual_information(X, y)[:n_mis]
    greedy_nn = greedy_forward_selection(X, y, "nn", n_greedy, subsample, seed)
    greedy_svm = greedy_forward_selection(X, y, "svm", n_greedy, subsample, seed)
    indices = sorted(
        {s.index for s in mis}
        | {s.index for s in greedy_nn}
        | {s.index for s in greedy_svm}
    )
    return np.array(indices, dtype=np.int64)
