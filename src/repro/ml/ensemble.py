"""Confidence-calibrated ensemble over the four predictor families.

The paper fields two classifiers (near neighbor and LS-SVM) and reports
65%/62% accuracy; the ROADMAP's "Beyond NN/SVM" item asks for modern
families on the same 38 features.  This module combines all four — NN,
pairwise LS-SVM, the NumPy MLP, and the bagged random forest — into one
calibrated predictor:

* every family exposes one inference routine, ``infer``, returning its
  labels and its per-class probability distribution (over its
  ``classes_``) from a single pass; the distribution is aligned here onto
  the global class set;
* each family's distribution is **temperature-calibrated**: a single
  scalar ``T`` per family, fit by minimising held-out negative
  log-likelihood on cross-validation folds (Platt-style post-hoc
  calibration, power form ``p ** (1/T)`` renormalised);
* calibrated distributions are combined by weights derived from each
  family's out-of-fold accuracy (a sharp softmax, so a clearly better
  family dominates while near-ties blend);
* the prediction reports a **confidence** (the combined probability of
  the chosen class) and a per-family **vote breakdown**.

Two exact contracts matter to the test tier:

* an ensemble restricted to a *single* family delegates the label to that
  family's own ``predict`` — agreement is exact by construction, including
  each family's private tie-breaking (NN's 1-NN fallback, the SVM's
  margin tie-break);
* fitted state splits into the members (serialised once each by the
  registry) and a small :meth:`CalibratedEnsemble.head_state` (classes,
  temperatures, weights), so restoring never duplicates arrays and never
  refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.mlp import MLPClassifier
from repro.ml.near_neighbor import NearNeighborClassifier
from repro.ml.pairwise import PairwiseLSSVM, make_tuned_pairwise_svm
from repro.ml.trees import RandomForest
from repro.ml.tuning import kfold_indices

#: The four predictor families, in canonical order.
FAMILY_NAMES = ("nn", "svm", "mlp", "forest")

#: Temperatures searched during calibration (geometric grid around 1).
_TEMPERATURE_GRID = np.geomspace(0.25, 4.0, 25)

#: Softmax sharpness for accuracy-derived combination weights.  Small
#: enough that a family 5 points better takes most of the mass; large
#: enough that near-tied families still blend.
_WEIGHT_SHARPNESS = 0.05

_PROBA_EPS = 1e-12


def family_factories(seed: int = 0) -> dict:
    """Fresh unfitted classifiers per family (fold refits + final fits)."""
    return {
        "nn": lambda: NearNeighborClassifier(),
        "svm": make_tuned_pairwise_svm,
        "mlp": lambda: MLPClassifier(seed=seed),
        "forest": lambda: RandomForest(seed=seed),
    }


def align_proba(
    proba: np.ndarray, member_classes: np.ndarray, classes: np.ndarray
) -> np.ndarray:
    """A member's distribution over its ``member_classes`` mapped onto the
    global class columns (zero probability for classes it never saw)."""
    proba = np.asarray(proba, dtype=np.float64)
    member_classes = np.asarray(member_classes)
    if len(member_classes) == len(classes) and np.array_equal(member_classes, classes):
        return proba
    out = np.zeros((len(proba), len(classes)))
    out[:, np.searchsorted(classes, member_classes)] = proba
    return out


def calibrate_proba(proba: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature calibration: ``p ** (1/T)`` renormalised row-wise.
    ``T = 1`` is the identity; ``T > 1`` softens over-confident
    distributions, ``T < 1`` sharpens under-confident ones."""
    scaled = np.clip(proba, _PROBA_EPS, None) ** (1.0 / float(temperature))
    return scaled / scaled.sum(axis=1, keepdims=True)


def fit_temperature(proba: np.ndarray, label_index: np.ndarray) -> float:
    """The grid temperature minimising held-out NLL (first minimum wins,
    so the fit is deterministic)."""
    best_t, best_nll = 1.0, np.inf
    rows = np.arange(len(proba))
    for t in _TEMPERATURE_GRID:
        calibrated = calibrate_proba(proba, float(t))
        nll = float(-np.log(np.clip(calibrated[rows, label_index], _PROBA_EPS, None)).mean())
        if nll < best_nll - 1e-12:
            best_t, best_nll = float(t), nll
    return best_t


@dataclass(frozen=True)
class EnsemblePrediction:
    """One batch of ensemble answers with their evidence."""

    labels: np.ndarray  # (n,) chosen unroll factors
    confidence: np.ndarray  # (n,) combined probability of the chosen label
    proba: np.ndarray  # (n, k) combined calibrated distribution
    votes: dict  # family -> (n,) that family's own labels


class CalibratedEnsemble:
    """Weighted combination of calibrated per-family distributions."""

    def __init__(
        self,
        members: dict,
        temperatures: dict,
        weights: dict,
        classes: np.ndarray,
        families: tuple[str, ...] = FAMILY_NAMES,
    ):
        families = tuple(families)
        if not families:
            raise ValueError("ensemble needs at least one family")
        missing = [f for f in families if f not in members]
        if missing:
            raise ValueError(f"members missing for families: {missing}")
        self.families = families
        self.members = dict(members)
        self.temperatures = {f: float(temperatures.get(f, 1.0)) for f in members}
        self.weights = {f: float(weights.get(f, 1.0)) for f in members}
        self.classes = np.asarray(classes, dtype=np.int64)

    # ------------------------------------------------------------------

    def restrict(self, families) -> "CalibratedEnsemble":
        """The same fitted ensemble with only ``families`` enabled —
        members and calibration are shared, nothing refits."""
        families = tuple(families)
        unknown = [f for f in families if f not in self.members]
        if unknown:
            raise ValueError(f"unknown families: {unknown}")
        return CalibratedEnsemble(
            members=self.members,
            temperatures=self.temperatures,
            weights=self.weights,
            classes=self.classes,
            families=families,
        )

    # ------------------------------------------------------------------

    def predict_detail(self, X: np.ndarray) -> EnsemblePrediction:
        """Labels, confidence, combined distribution, per-family votes.

        Each family runs its inference routine once, which yields both
        its labels (the votes) and its distribution.  With a single
        enabled family the label is exactly that family's ``predict``
        output (private tie-breaks included); with several, the combined
        distribution's argmax decides (first class wins ties).  Confidence
        is always the combined probability mass of the chosen label.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes = {}
        total = np.zeros((len(X), len(self.classes)))
        weight_sum = 0.0
        for family in self.families:
            member = self.members[family]
            labels, proba = member.infer(X)
            votes[family] = np.asarray(labels, dtype=np.int64)
            weight = self.weights[family]
            aligned = align_proba(proba, member.classes_, self.classes)
            total += weight * calibrate_proba(aligned, self.temperatures[family])
            weight_sum += weight
        proba = total / weight_sum
        if len(self.families) == 1:
            labels = votes[self.families[0]]
        else:
            labels = self.classes[np.argmax(proba, axis=1)]
        columns = np.searchsorted(self.classes, labels)
        confidence = proba[np.arange(len(labels)), columns]
        return EnsemblePrediction(
            labels=labels, confidence=confidence, proba=proba, votes=votes
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """The combined calibrated distribution over :attr:`classes`."""
        return self.predict_detail(X).proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_detail(X).labels

    # ------------------------------------------------------------------
    # Persistence (the registry stores members once; the head is small).
    # ------------------------------------------------------------------

    def head_state(self) -> dict:
        """Calibration head only — classes, per-family temperature and
        weight.  Member states are serialised separately (once) by the
        registry; see :meth:`from_members`."""
        return {
            "families": list(self.families),
            "classes": self.classes,
            "temperatures": {f: float(self.temperatures[f]) for f in self.members},
            "weights": {f: float(self.weights[f]) for f in self.members},
        }

    @classmethod
    def from_members(cls, members: dict, head: dict) -> "CalibratedEnsemble":
        """Rebuild from restored members plus :meth:`head_state` output;
        predictions are bit-identical to the serialised ensemble."""
        return cls(
            members=members,
            temperatures=dict(head["temperatures"]),
            weights=dict(head["weights"]),
            classes=np.asarray(head["classes"], dtype=np.int64),
            families=tuple(str(f) for f in head["families"]),
        )


def train_calibrated_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    members: dict | None = None,
    seed: int = 0,
    n_folds: int = 3,
    families: tuple[str, ...] = FAMILY_NAMES,
) -> CalibratedEnsemble:
    """Fit the calibrated ensemble on a labelled matrix.

    Calibration (one temperature per family, accuracy-derived weights) is
    fit on seeded k-fold *out-of-fold* predictions — fold models are
    trained fresh so the calibration never sees its own training rows.
    Final members are the provided pre-fitted ``members`` (so the registry
    path fits each family exactly once) or fresh fits on all rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
    factories = family_factories(seed=seed)
    unknown = [f for f in families if f not in factories]
    if unknown:
        raise ValueError(f"unknown families: {unknown}")

    temperatures = {f: 1.0 for f in families}
    weights = {f: 1.0 for f in families}
    n = len(y)
    k = min(n_folds, n // 2)
    if len(classes) > 1 and k >= 2:
        label_index = np.searchsorted(classes, y)
        folds = kfold_indices(n, k, seed=seed)
        oof_proba = {f: np.zeros((n, len(classes))) for f in families}
        oof_labels = {f: np.zeros(n, dtype=np.int64) for f in families}
        for test_rows in folds:
            mask = np.ones(n, dtype=bool)
            mask[test_rows] = False
            for family in families:
                model = factories[family]()
                model.fit(X[mask], y[mask])
                labels, proba = model.infer(X[test_rows])
                oof_proba[family][test_rows] = align_proba(proba, model.classes_, classes)
                oof_labels[family][test_rows] = np.asarray(labels, dtype=np.int64)
        accuracy = {
            f: float((oof_labels[f] == y).mean()) for f in families
        }
        temperatures = {
            f: fit_temperature(oof_proba[f], label_index) for f in families
        }
        # Sharp softmax over out-of-fold accuracy: the best family anchors
        # the combination, near-ties blend.
        accs = np.array([accuracy[f] for f in families])
        raw = np.exp((accs - accs.max()) / _WEIGHT_SHARPNESS)
        weights = {f: float(w / raw.sum()) for f, w in zip(families, raw)}

    if members is None:
        members = {}
        for family in families:
            model = factories[family]()
            model.fit(X, y)
            members[family] = model
    return CalibratedEnsemble(
        members=members,
        temperatures=temperatures,
        weights=weights,
        classes=classes,
        families=families,
    )
