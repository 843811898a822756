"""The program process of the ``offline`` workload.

Drives the paper's path from data to model through public functions:
``measure_suite_pair`` labels every loop at factors 1-8 in both SWP
regimes, then, per regime, ``selected_feature_union`` ->
``train_model_artifact`` -> ``save_artifact``.  Prints ``ready`` once its
imports are done (the end of set-up), then writes tables, artifacts,
predictions and a ``result.json`` into ``--out`` for the runner to check.

    python3 perfbench/offline_worker.py probe
    python3 perfbench/offline_worker.py run --out DIR --seed N --scale S \
        --suite-seed M [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.instrument import MeasurementRollup
from repro.ml import selected_feature_union
from repro.pipeline import LabelingConfig, measure_suite_pair
from repro.registry import save_artifact, train_model_artifact
from repro.registry.artifact import ARTIFACT_FAMILIES
from repro.workloads.generator import generate_suite

#: ``repro train`` selects features on at most this many rows.
SELECT_SUBSAMPLE = 500


def _train_regime(table, config, path, provenance, recorder, steps):
    """Select, train and save one regime; adds each step's seconds to
    ``steps`` and returns the artifact and its training dataset."""
    dataset = table.to_dataset(config.min_cycles, config.min_benefit)
    start = time.perf_counter()
    indices = selected_feature_union(dataset.X, dataset.labels, subsample=SELECT_SUBSAMPLE)
    select_end = time.perf_counter()
    artifact = train_model_artifact(dataset, feature_indices=indices, provenance=provenance)
    train_end = time.perf_counter()
    save_artifact(artifact, path)
    save_end = time.perf_counter()
    steps.append(select_end - start)
    steps.append(train_end - select_end)
    steps.append(save_end - train_end)
    if recorder is not None:
        recorder.count("ml.select.s", select_end - start)
        recorder.count("registry.save.s", save_end - train_end)
        recorder.count("registry.artifact_bytes", Path(path).stat().st_size)
    return artifact, dataset


def run(args) -> None:
    recorder = None
    if args.trace:
        from tracing import Recorder, install_labelling, install_training

        recorder = Recorder()
        install_labelling(recorder)
        install_training(recorder)
    rollups = (MeasurementRollup(), MeasurementRollup())
    print("ready", flush=True)

    out = Path(args.out)
    suite = generate_suite(seed=args.suite_seed, loops_scale=args.scale)
    config = LabelingConfig(seed=args.seed)

    start = time.perf_counter()
    off, on = measure_suite_pair(suite, config, jobs=1, rollup_off=rollups[0], rollup_on=rollups[1])
    label_s = time.perf_counter() - start
    tables = {"off": off, "on": on}
    for regime, table in tables.items():
        table.save(out / f"table_{regime}.npz")
    snapshot_after_labelling = recorder.snapshot() if recorder is not None else None

    provenance = {
        "suite_seed": args.suite_seed,
        "loops_scale": args.scale,
        "labelling_seed": args.seed,
    }
    train_steps = []
    artifacts = {
        regime: _train_regime(
            table, config, out / f"model_{regime}.rma", provenance, recorder, train_steps
        )
        for regime, table in tables.items()
    }

    for regime, (artifact, dataset) in artifacts.items():
        predictions = {
            family: artifact.predict_features(dataset.X, family)
            for family in ARTIFACT_FAMILIES
        }
        detail = artifact.ensemble.predict_detail(dataset.X)
        np.savez(
            out / f"predictions_{regime}.npz",
            confidence=detail.confidence,
            **predictions,
        )

    # Imported here, after ``ready``, so that set-up time does not include it.
    from run import peak_rss_mb

    # Seconds per (benchmark, factor) unit, both regimes together.
    unit_s: dict[str, float] = {}
    for rollup in rollups:
        for timing in rollup.timings:
            key = f"{timing.benchmark}:{timing.factor}"
            unit_s[key] = unit_s.get(key, 0.0) + timing.seconds

    result = {
        "n_loops": suite.n_loops,
        "label_s": label_s,
        "train_steps": train_steps,
        "unit_s": unit_s,
        "rows": {regime: len(dataset) for regime, (_, dataset) in artifacts.items()},
        "peak_rss_mb": peak_rss_mb("self"),
    }
    if recorder is not None:
        result["spans_labelling"] = snapshot_after_labelling
        result["spans"] = recorder.snapshot()
        result["analysis_hits"] = sum(r.analysis_hits() for r in rollups)
        result["analysis_misses"] = sum(r.analysis_misses() for r in rollups)
    (out / "result.json").write_text(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe", help="import the program, print ready, exit")
    run_parser = sub.add_parser("run", help="label, train and save")
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--seed", type=int, required=True)
    run_parser.add_argument("--scale", type=float, required=True)
    run_parser.add_argument("--suite-seed", type=int, required=True)
    run_parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        print("ready", flush=True)
        return 0
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
