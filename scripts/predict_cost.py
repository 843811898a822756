#!/usr/bin/env python
"""Per-row predict cost of a model artifact: single-row vs batched.

A compiler asks for one loop's factor at a time, so the served cost is a
single-row predict; a batch of rows shows what the same arithmetic costs
when call overhead is spread out.  For each predictor family's inference
routine and for the calibrated ensemble this prints the per-row cost both
ways (achieved vs achievable), then checks that answering the rows one at
a time gives exactly the batched answer: labels, confidence bytes and
per-family votes.  Exit status 1 on any mismatch.

    PYTHONPATH=src python scripts/predict_cost.py MODEL

The query rows are the features of the first ROWS generated loops
(``generate_suite`` with POOL_SEED at POOL_SCALE), so they are realistic
compiler queries rather than the model's own training rows.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.features.extract import extract_features
from repro.ml.ensemble import FAMILY_NAMES
from repro.registry import load_artifact
from repro.workloads.generator import generate_suite

ROWS = 200  # query rows, and the batch size
REPEAT = 5  # timing repeats; the median is printed
POOL_SEED = 1
POOL_SCALE = 0.1  # generate_suite loops_scale; yields well over ROWS loops


def _pool() -> np.ndarray:
    loops = generate_suite(seed=POOL_SEED, loops_scale=POOL_SCALE).all_loops()[:ROWS]
    return np.vstack([extract_features(loop) for loop in loops])


def _per_row_ms(call, X: np.ndarray) -> tuple[float, float]:
    """Median per-row milliseconds: one call per row, and one call for all."""
    single, batched = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for row in X:
            call(row[None, :])
        single.append((time.perf_counter() - start) / len(X))
        start = time.perf_counter()
        call(X)
        batched.append((time.perf_counter() - start) / len(X))
    return 1e3 * float(np.median(single)), 1e3 * float(np.median(batched))


def _mismatches(ensemble, X: np.ndarray) -> list[str]:
    rows = [ensemble.predict_detail(row[None, :]) for row in X]
    batch = ensemble.predict_detail(X)
    found = []
    if not np.array_equal(np.concatenate([r.labels for r in rows]), batch.labels):
        found.append("labels")
    single = np.concatenate([r.confidence for r in rows])
    if single.tobytes() != np.asarray(batch.confidence, dtype=np.float64).tobytes():
        found.append("confidence")
    for family in batch.votes:
        votes = np.concatenate([r.votes[family] for r in rows])
        if not np.array_equal(votes, batch.votes[family]):
            found.append(f"votes[{family}]")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", help="a .rma model artifact (repro train --out)")
    args = parser.parse_args(argv)

    artifact = load_artifact(args.model)
    X = _pool()
    ensemble = artifact.ensemble
    X_model = X if ensemble.feature_indices is None else X[:, ensemble.feature_indices]
    print(
        f"model {args.model}: {len(artifact.feature_names)} features, "
        f"{len(X)} query rows, median of {REPEAT}"
    )
    print(f"{'family':<10}{'single ms/row':>15}{'batched ms/row':>16}{'ratio':>8}")
    costs = {
        family: _per_row_ms(ensemble.classifier.members[family].infer, X_model)
        for family in FAMILY_NAMES
    }
    costs["ensemble"] = _per_row_ms(ensemble.predict_detail, X)
    for name, (single, batched) in costs.items():
        print(f"{name:<10}{single:>15.4f}{batched:>16.4f}{single / batched:>7.1f}x")

    found = _mismatches(ensemble, X)
    if found:
        print(f"FAIL: single-row answers differ from batched in {', '.join(found)}")
        return 1
    print(f"ok: single-row == batched (labels, confidence, votes) on {len(X)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
