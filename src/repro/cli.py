"""Command-line interface: ``repro-unroll`` / ``python -m repro``.

Subcommands map one-to-one onto the paper's artefacts:

* ``build-data`` — run the measurement + labelling pipeline (cached).
* ``histogram`` — Figure 3 (optimal-unroll-factor histogram).
* ``table2`` — prediction-rank table for NN, SVM, and ORC.
* ``speedups`` — Figures 4/5 (per-benchmark improvement over ORC).
* ``features`` — Tables 3/4 (mutual information + greedy selection).
* ``predict`` — predict a factor for a named library kernel (the
  compile-time deployment path).  With ``--model`` it loads a trained
  artifact instead of retraining.
* ``train`` — train both classifiers once and write a versioned model
  artifact (the train-once half of train-once/serve-many).
* ``serve`` — load an artifact (falling back to the registry's last good
  model if it is corrupt) and answer JSON-lines prediction requests from
  stdin through a bounded, deadline-aware gateway (the serve-many half).
* ``measure`` — fault-tolerant measurement run: per-unit retries and
  timeouts, quarantine instead of abort, and a checkpoint journal so
  ``--resume`` continues a killed run bit-identically.
* ``lifecycle`` — the closed loop over a serving fleet: replay the
  request log for drift (confidence, vote entropy, feature shift vs the
  training fingerprint), measure flagged loops through the resilient
  queue, retrain, canary-gate against the incumbent, atomically promote
  (two-phase, journal-backed — a crash leaves old or new bytes, never
  torn), and shadow-check with automatic rollback.  ``status`` inspects
  the registry slots and any in-progress journal; the serve daemon's
  ``--lifecycle-poll-s`` runs the same loop in-process.
* ``export`` — dump the raw loop data in the release format.
* ``cache`` — inspect or prune the measurement cache (stats/gc/clear).

Measurement fans out over ``--jobs`` worker processes (or ``$REPRO_JOBS``);
results are bit-identical to a serial run at any parallelism.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=20050320, help="suite root seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of the full per-benchmark loop counts to generate",
    )
    parser.add_argument("--swp", action="store_true", help="enable software pipelining")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="measurement worker processes (default: $REPRO_JOBS, else serial)",
    )


def _artifacts(args, rollup=None):
    from repro.pipeline import build_artifacts

    return build_artifacts(
        suite_seed=args.seed,
        loops_scale=args.scale,
        swp=args.swp,
        jobs=args.jobs,
        rollup=rollup,
    )


def cmd_build_data(args) -> int:
    """Measure + label the suite (cache-aware) and report the filters."""
    from repro.instrument import MeasurementRollup
    from repro.pipeline import stats_from_table

    rollup = MeasurementRollup()
    artifacts = _artifacts(args, rollup=rollup)
    stats = stats_from_table(artifacts.table, artifacts.config)
    print(stats.summary())
    print(f"dataset rows: {len(artifacts.dataset)} (swp={artifacts.dataset.swp})")
    if rollup.n_units:
        print(rollup.summary())
    return 0


def cmd_cache(args) -> int:
    """Inspect or prune the measurement cache (stats / gc / clear)."""
    from repro.pipeline import CacheStore

    store = CacheStore(args.cache_dir)
    if args.action == "stats":
        print(store.stats().summary())
    elif args.action == "gc":
        removed = store.gc()
        print(f"removed {len(removed)} unreadable file(s) from {store.root}")
    else:  # clear
        count = store.clear()
        print(f"removed {count} file(s) from {store.root}")
    return 0


def cmd_histogram(args) -> int:
    """Print the Figure 3 optimal-unroll-factor histogram."""
    artifacts = _artifacts(args)
    histogram = artifacts.dataset.label_histogram()
    print("Optimal unroll factor histogram"
          f" ({'SWP' if args.swp else 'no SWP'}, {len(artifacts.dataset)} loops):")
    for factor, fraction in enumerate(histogram, start=1):
        bar = "#" * int(round(fraction * 60))
        print(f"  u={factor}  {fraction:6.1%}  {bar}")
    return 0


def cmd_table2(args) -> int:
    """Print the Table 2 prediction-rank table for NN, SVM, and ORC."""
    from repro.heuristics import ORCHeuristic
    from repro.ml import loocv_nn, loocv_svm, rank_distribution, selected_feature_union

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    loops = {l.name: l for b in artifacts.suite.benchmarks for l in b.loops}
    orc = ORCHeuristic(swp=args.swp)
    indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)

    predictions = {
        "NN": loocv_nn(dataset, indices),
        "SVM": loocv_svm(dataset, indices),
        "ORC": np.array([orc.predict_loop(loops[n]) for n in dataset.loop_names]),
    }
    distributions = {
        name: rank_distribution(dataset, preds) for name, preds in predictions.items()
    }
    print(f"{'Prediction Correctness':28s} {'NN':>6s} {'SVM':>6s} {'ORC':>6s} {'Cost':>7s}")
    row_names = [
        "Optimal unroll factor", "Second-best unroll factor",
        "Third-best unroll factor", "Fourth-best unroll factor",
        "Fifth-best unroll factor", "Sixth-best unroll factor",
        "Seventh-best unroll factor", "Worst unroll factor",
    ]
    for rank, row_name in enumerate(row_names, start=1):
        nn_f, cost = distributions["NN"].row(rank)
        svm_f, _ = distributions["SVM"].row(rank)
        orc_f, _ = distributions["ORC"].row(rank)
        print(f"{row_name:28s} {nn_f:6.2f} {svm_f:6.2f} {orc_f:6.2f} {cost:6.2f}x")
    return 0


def cmd_speedups(args) -> int:
    """Print the Figure 4/5 per-benchmark improvements over ORC."""
    from repro.ml import selected_feature_union
    from repro.pipeline import EvaluationConfig, evaluate_speedups

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)
    config = EvaluationConfig(swp=args.swp, feature_indices=indices)
    report = evaluate_speedups(artifacts.suite, artifacts.table, dataset, config)
    print(f"{'Benchmark':16s} {'NN':>8s} {'SVM':>8s} {'Oracle':>8s}")
    for result in report.results:
        print(
            f"{result.benchmark:16s}"
            f" {result.improvements['nn']:8.2%}"
            f" {result.improvements['svm']:8.2%}"
            f" {result.improvements['oracle']:8.2%}"
        )
    for name in ("nn", "svm", "oracle"):
        print(
            f"mean {name:7s}: {report.mean_improvement(name):6.2%} overall,"
            f" {report.mean_improvement(name, fp_only=True):6.2%} SPECfp,"
            f" beats ORC on {report.wins(name)}/{len(report.results)}"
        )
    return 0


def cmd_features(args) -> int:
    """Print the Table 3 (MIS) and Table 4 (greedy) feature rankings."""
    from repro.ml import greedy_forward_selection, rank_by_mutual_information

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    print("Top features by mutual information score (Table 3):")
    for rank, scored in enumerate(rank_by_mutual_information(dataset.X, dataset.labels)[:5], 1):
        print(f"  {rank}. {scored.name:28s} MIS={scored.score:.3f}")
    for classifier in ("nn", "svm"):
        print(f"Greedy forward selection for {classifier.upper()} (Table 4):")
        chosen = greedy_forward_selection(
            dataset.X, dataset.labels, classifier, n_features=5, subsample=500
        )
        for rank, scored in enumerate(chosen, 1):
            print(f"  {rank}. {scored.name:28s} error={scored.score:.2f}")
    return 0


def _trained_heuristic(args):
    """The prediction heuristic: loaded from ``--model`` when given, else
    trained in-process on the (cached) dataset.  Returns ``None`` after
    printing a diagnostic when the artifact cannot be served."""
    if getattr(args, "model", None):
        artifact = _load_model(args.model)
        return None if artifact is None else artifact.heuristic(args.classifier)
    from repro.heuristics import (
        train_ensemble_heuristic,
        train_forest_heuristic,
        train_mlp_heuristic,
        train_nn_heuristic,
        train_svm_heuristic,
    )
    from repro.ml import selected_feature_union

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)
    trainers = {
        "nn": train_nn_heuristic,
        "svm": train_svm_heuristic,
        "mlp": train_mlp_heuristic,
        "forest": train_forest_heuristic,
    }
    if args.classifier == "ensemble":
        members = {
            name: trainer(dataset, feature_indices=indices)
            for name, trainer in trainers.items()
        }
        return train_ensemble_heuristic(dataset, members, feature_indices=indices)
    return trainers[args.classifier](dataset, feature_indices=indices)


def _load_model(path):
    """Load a model artifact, quarantining corrupt files; prints the
    failure and returns ``None`` when the artifact cannot be served."""
    from repro.registry import (
        CorruptArtifactError,
        StaleArtifactError,
        load_or_quarantine,
    )

    try:
        return load_or_quarantine(path)
    except FileNotFoundError:
        print(f"cannot load model {path}: no such file")
    except StaleArtifactError as error:
        print(f"stale model artifact: {error}")
    except CorruptArtifactError as error:
        print(f"corrupt model artifact (quarantined): {error}")
    return None


def cmd_train(args) -> int:
    """Train both classifiers on the (cached) dataset and write a
    versioned model artifact."""
    from repro.ml import selected_feature_union
    from repro.registry import train_model_artifact

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)
    artifact = train_model_artifact(
        dataset,
        feature_indices=indices,
        provenance={
            "suite_seed": args.seed,
            "loops_scale": args.scale,
            "swp": args.swp,
        },
    )
    path = artifact.save(args.out)
    print(
        f"trained NN + SVM + MLP + forest + calibrated ensemble on "
        f"{len(dataset)} loops "
        f"({len(artifact.feature_names)} selected features: "
        f"{', '.join(artifact.feature_names)})"
    )
    print(f"wrote model artifact {path} ({path.stat().st_size / 1024:.0f} KiB)")
    return 0


def cmd_predict(args) -> int:
    """Advise a factor for a library kernel, from a trained artifact
    (``--model``) or an in-process train on the cached dataset."""
    from repro.simulate import CostModel
    from repro.workloads.kernels import KERNELS

    if args.kernel not in KERNELS:
        print(f"unknown kernel {args.kernel!r}; choose from: {', '.join(sorted(KERNELS))}")
        return 2
    loop = KERNELS[args.kernel]()
    heuristic = _trained_heuristic(args)
    if heuristic is None:
        return 2
    if args.classifier == "ensemble":
        factor, confidence = heuristic.predict_loop_detail(loop)
        print(
            f"ENSEMBLE predicts unroll factor {factor} for kernel "
            f"{args.kernel!r} (confidence {confidence:.1%})"
        )
    else:
        factor = heuristic.predict_loop(loop)
        print(
            f"{args.classifier.upper()} predicts unroll factor {factor} "
            f"for kernel {args.kernel!r}"
        )
    sweep = CostModel(swp=args.swp).sweep(loop)
    best = min(sweep, key=lambda u: sweep[u].total_cycles)
    print(f"simulator-optimal factor: {best}")
    for factor_i in range(1, 9):
        marker = " <- predicted" if factor_i == factor else ""
        print(f"  u={factor_i}: {sweep[factor_i].total_cycles:12.0f} cycles{marker}")
    return 0


def cmd_predict_file(args) -> int:
    """Parse loops from a loop-language file and advise factors for them."""
    from repro.frontend import LexError, ParseError, parse_program
    from repro.simulate import CostModel

    try:
        with open(args.file) as handle:
            parsed = parse_program(handle.read())
    except (OSError, LexError, ParseError) as error:
        print(f"cannot read {args.file}: {error}")
        return 2

    heuristic = _trained_heuristic(args)
    if heuristic is None:
        return 2
    model = CostModel(swp=args.swp)
    advised = 0
    for entry in parsed:
        loop = entry.loop
        try:
            factor = heuristic.predict_loop(loop)
            sweep = model.sweep(loop)
        except ValueError as error:
            print(f"{loop.name}: not unrollable ({error})")
            continue
        advised += 1
        best = min(sweep, key=lambda u: sweep[u].total_cycles)
        penalty = sweep[factor].total_cycles / sweep[best].total_cycles - 1.0
        print(
            f"{loop.name}: predicted u={factor}, simulator-optimal u={best} "
            f"(prediction within {penalty:.1%})"
        )
    if not advised:
        print(f"no unrollable loop in {args.file}")
        return 2
    return 0


def _parse_listen(listen: str) -> tuple[str, int]:
    """``HOST:PORT`` for ``serve --listen`` (``:0`` binds an ephemeral
    port; a bare ``:PORT`` listens on localhost; IPv6 hosts are bracketed,
    ``[::1]:PORT``)."""
    host, sep, port_text = listen.rpartition(":")
    if not sep:
        raise ValueError(f"--listen expects HOST:PORT, got {listen!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"--listen bracketed host is empty, got {listen!r}")
    elif ":" in host or "]" in host or "]" in port_text:
        # An unbracketed IPv6 literal splits ambiguously on ':' (is the
        # last group a port?); require the standard bracketed form.
        raise ValueError(
            f"--listen IPv6 hosts must be bracketed with a port, "
            f"e.g. [::1]:8080; got {listen!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port out of range: {port}")
    return host or "127.0.0.1", port


def cmd_serve(args) -> int:
    """Answer JSON-lines prediction requests from stdin in one batch,
    behind the bounded, deadline-aware gateway — or, with ``--listen``,
    run the micro-batching TCP daemon until interrupted."""
    import json
    import time

    from repro.registry import ArtifactError, ArtifactStore
    from repro.serve import (
        DaemonConfig,
        GatewayConfig,
        PredictionEngine,
        ServeDaemon,
        ServeGateway,
        load_serving_artifact,
    )

    _install_fault_plan_arg(args)
    if args.listen:
        try:
            host, port = _parse_listen(args.listen)
        except ValueError as error:
            print(str(error))
            return 2
        config = DaemonConfig(
            host=host,
            port=port,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            replicas=args.replicas,
            queue_limit=args.queue_limit,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
            reload_poll_s=args.reload_poll_s,
            classifier=args.classifier,
            request_log=args.request_log,
            request_log_max_bytes=args.request_log_max_bytes,
        )
        workers = args.workers if args.workers is not None else 1
        if workers > 1:
            return _serve_cluster(args, host, port, workers, config)
        try:
            daemon = ServeDaemon(args.model, config, store=ArtifactStore())
        except FileNotFoundError:
            print(f"cannot load model {args.model}: no such file")
            return 2
        except ArtifactError as error:
            print(f"cannot serve: {error}")
            return 2
        if daemon.loaded.fallback:
            print(
                f"WARNING: serving last-good artifact {daemon.loaded.path.name} "
                f"instead of {args.model} ({'; '.join(daemon.loaded.failures)})",
                file=sys.stderr,
            )
        poller = None
        if args.lifecycle_poll_s:
            poller = _make_lifecycle_poller(args, daemon.loaded.artifact)
            if poller is None:
                return 2
            poller.start()
        try:
            daemon.run()
        finally:
            if poller is not None:
                poller.stop()
        print(daemon.gateway.counters.summary(), file=sys.stderr)
        return 0
    try:
        loaded = load_serving_artifact(args.model, store=ArtifactStore())
    except FileNotFoundError:
        print(f"cannot load model {args.model}: no such file")
        return 2
    except ArtifactError as error:
        print(f"cannot serve: {error}")
        return 2
    if loaded.fallback:
        print(
            f"WARNING: serving last-good artifact {loaded.path.name} instead of "
            f"{args.model} ({'; '.join(loaded.failures)})",
            file=sys.stderr,
        )
    from repro.instrument import MeasurementRollup

    engine = PredictionEngine(
        loaded.artifact, classifier=args.classifier, rollup=MeasurementRollup()
    )
    source = open(args.input) if args.input else sys.stdin
    try:
        lines = source.readlines()
    finally:
        if args.input:
            source.close()
    config = GatewayConfig(
        max_workers=args.workers if args.workers is not None else 4,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
    )
    start = time.perf_counter()
    with ServeGateway(engine, config) as gateway:
        responses = gateway.serve_lines(lines)
    wall = time.perf_counter() - start

    for response in responses:
        print(json.dumps(response, sort_keys=True))
    print(engine.rollup.latency_summary(wall), file=sys.stderr)
    print(gateway.counters.summary(), file=sys.stderr)
    errors = sum(1 for r in responses if not r["ok"])
    if errors:
        print(f"{errors}/{len(responses)} request(s) failed", file=sys.stderr)
    return 0


def _serve_cluster(args, host, port, workers, config) -> int:
    """The ``--listen --workers N`` path: supervise N shared-nothing
    daemon processes on one port; the kernel shards connections across
    them with ``SO_REUSEPORT``, and a platform without it exits 2."""
    from repro.registry import ArtifactError, ArtifactStore
    from repro.serve import (
        ClusterConfig,
        ServeCluster,
        WorkerStartupError,
        load_serving_artifact,
    )

    # Validate the artifact parent-side so a bad --model fails fast with
    # one diagnostic instead of N synchronized worker crash loops.
    try:
        loaded = load_serving_artifact(args.model, store=ArtifactStore())
    except FileNotFoundError:
        print(f"cannot load model {args.model}: no such file")
        return 2
    except ArtifactError as error:
        print(f"cannot serve: {error}")
        return 2
    if loaded.fallback:
        print(
            f"WARNING: serving last-good artifact {loaded.path.name} "
            f"instead of {args.model} ({'; '.join(loaded.failures)})",
            file=sys.stderr,
        )
    cluster = ServeCluster(
        args.model,
        ClusterConfig(workers=workers, host=host, port=port, daemon=config),
    )
    cluster.on_event = print
    poller = None
    if args.lifecycle_poll_s:
        poller = _make_lifecycle_poller(args, loaded.artifact)
        if poller is None:
            return 2
        poller.start()
    try:
        cluster.run()
    except WorkerStartupError as error:
        print(f"cannot serve: {error}")
        return 2
    finally:
        if poller is not None:
            poller.stop()
    print(f"cluster stopped: {cluster.restarts} worker restart(s)", file=sys.stderr)
    return 0


def _make_lifecycle_poller(args, artifact):
    """Build the daemon-adjacent lifecycle poller for ``--lifecycle-poll-s``.

    Retrain knobs come from the incumbent's provenance so the loop
    regenerates the same base dataset the served model was trained on.
    Returns ``None`` (with a diagnostic printed) when the serve flags
    cannot support a lifecycle."""
    from pathlib import Path

    from repro.lifecycle import LifecycleConfig, LifecyclePoller
    from repro.registry import ArtifactStore

    if not args.request_log:
        print(
            "--lifecycle-poll-s requires --request-log "
            "(the drift scanner replays it)"
        )
        return None
    model_path = Path(args.model)
    name = model_path.name
    prefix, suffix = ArtifactStore.PREFIX, ArtifactStore.SUFFIX
    if not (name.startswith(prefix) and name.endswith(suffix)):
        print(
            f"--lifecycle-poll-s requires a registry artifact path "
            f"({prefix}<name>{suffix}) so promotions land where the "
            f"hot-reload watcher looks; got {name}"
        )
        return None
    model = name[len(prefix) : -len(suffix)]
    provenance = getattr(artifact, "provenance", None) or {}
    seed = int(provenance.get("suite_seed", 20050320))
    scale = float(provenance.get("loops_scale", 1.0))
    swp = bool(provenance.get("swp", False))
    config = LifecycleConfig(
        log_path=args.request_log, model=model, swp=swp, seed=seed
    )
    return LifecyclePoller(
        config,
        ArtifactStore(model_path.parent),
        _lifecycle_train_fn(seed, scale, swp, None),
        interval_s=args.lifecycle_poll_s,
    )


def _install_fault_plan_arg(args) -> None:
    """Activate ``--fault-plan`` (a chaos-testing hook; no-op without it)."""
    if getattr(args, "fault_plan", None):
        from repro.resilience import install_fault_plan

        install_fault_plan(args.fault_plan)


def cmd_measure(args) -> int:
    """Fault-tolerant measurement run: retries, quarantine, checkpoint
    journal, and ``--resume`` to continue a killed run bit-identically."""
    from repro.instrument import MeasurementRollup
    from repro.pipeline import CacheStore, LabelingConfig, config_key, measure_suite
    from repro.resilience import (
        AbortRun,
        CheckpointJournal,
        JournalError,
        ResilienceConfig,
        RetryPolicy,
    )
    from repro.workloads.generator import generate_suite

    _install_fault_plan_arg(args)
    config = LabelingConfig(seed=args.seed, swp=args.swp)
    suite = generate_suite(seed=args.seed, loops_scale=args.scale)
    key = config_key(args.seed, args.scale, config)
    store = CacheStore(args.cache_dir)

    cached = store.load(key)
    if cached is not None and cached.swp == config.swp and len(cached) == suite.n_loops:
        print(f"measurement table {key} already cached at {store.path_for(key)}")
        return 0

    journal_path = args.journal or store.root / f"journal_{key}.jsonl"
    journal = CheckpointJournal(journal_path, run_key=key)
    if args.resume:
        try:
            replayed = journal.load()
        except JournalError as error:
            print(f"cannot resume: {error}")
            return 2
        if replayed:
            print(f"resuming from {journal_path} ({replayed} unit(s) committed)")
    else:
        journal.discard()  # a stale journal must not leak into a fresh run

    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=args.max_attempts),
        unit_timeout_s=args.unit_timeout,
    )
    rollup = MeasurementRollup()
    try:
        table = measure_suite(
            suite,
            config,
            jobs=args.jobs,
            rollup=rollup,
            resilience=resilience,
            journal=journal,
        )
    except AbortRun as error:
        print(f"run aborted: {error}; continue with 'repro-unroll measure --resume'")
        return 3
    finally:
        journal.close()

    print(rollup.summary())
    quarantined = rollup.quarantined_units()
    if quarantined:
        print(
            f"NOT cached: {len(quarantined)} unit(s) quarantined "
            f"({', '.join(quarantined)}); table would have holes"
        )
        return 1
    path = store.store(key, table)
    journal.discard()  # the run is durable in the cache now
    print(f"measured {len(table)} loops; wrote table {key} to {path}")
    return 0


def _lifecycle_train_fn(seed, scale, swp, jobs):
    """The default retrain stage: rebuild the (cached) pipeline dataset,
    augment it with the lifecycle's measured loops, and train a full
    artifact.  Deterministic for fixed inputs — resume relies on it."""

    def train_fn(measured_rows):
        from repro.lifecycle import augment_dataset
        from repro.ml import selected_feature_union
        from repro.pipeline import build_artifacts
        from repro.registry import train_model_artifact

        artifacts = build_artifacts(
            suite_seed=seed, loops_scale=scale, swp=swp, jobs=jobs
        )
        dataset = augment_dataset(artifacts.dataset, measured_rows)
        indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)
        return train_model_artifact(
            dataset,
            feature_indices=indices,
            provenance={
                "suite_seed": seed,
                "loops_scale": scale,
                "swp": swp,
                "lifecycle": True,
                "n_measured": len(measured_rows),
            },
        )

    return train_fn


def cmd_lifecycle(args) -> int:
    """The closed loop: drift scan over the request log, resilient
    measurement of flagged loops, retrain, canary gate, atomic promotion,
    and the post-promotion shadow check — all checkpointed so ``--resume``
    continues a killed run bit-identically."""
    import json
    from pathlib import Path

    from repro.lifecycle import (
        CanaryConfig,
        DriftConfig,
        LifecycleConfig,
        default_journal_path,
        lifecycle_status,
        run_lifecycle,
    )
    from repro.registry import ArtifactError, ArtifactStore
    from repro.resilience import (
        AbortRun,
        JournalError,
        ResilienceConfig,
        RetryPolicy,
    )

    store = ArtifactStore(args.artifact_dir)
    if args.action == "status":
        print(
            json.dumps(
                lifecycle_status(store, args.model, args.journal),
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    if not args.log:
        print("lifecycle run requires --log (the served-request log to replay)")
        return 2
    _install_fault_plan_arg(args)
    config = LifecycleConfig(
        log_path=args.log,
        model=args.model,
        journal_path=args.journal,
        drift=DriftConfig(window=args.window),
        canary=CanaryConfig(min_family_agreement=args.min_family_agreement),
        force=args.force,
        skip_canary=args.skip_canary,
        jobs=args.jobs or 1,
        swp=args.swp,
        seed=args.seed,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=args.max_attempts)
        ),
    )
    journal_path = Path(
        args.journal or default_journal_path(store, args.model)
    )
    if args.resume and journal_path.exists():
        print(f"resuming from {journal_path}")
    train_fn = _lifecycle_train_fn(args.seed, args.scale, args.swp, args.jobs)
    try:
        result = run_lifecycle(config, store, train_fn, resume=args.resume)
    except JournalError as error:
        print(f"cannot resume: {error}")
        return 2
    except ArtifactError as error:
        print(f"lifecycle failed: {error}")
        return 2
    except AbortRun as error:
        print(
            f"run aborted: {error}; continue with "
            f"'repro-unroll lifecycle run --resume'"
        )
        return 3

    drift = result.drift
    drifted = sum(1 for window in drift.windows if window.drifted)
    print(
        f"drift: {drifted}/{len(drift.windows)} window(s) drifted "
        f"({drift.n_replayable} replayable record(s), "
        f"{len(drift.flagged)} flagged)"
    )
    if result.measured:
        print(f"measured {len(result.measured)} flagged loop(s)")
    if result.canary is not None:
        verdict = "accepted" if result.canary.accepted else "rejected"
        detail = (
            f"candidate {result.canary.candidate_accuracy:.3f} vs "
            f"incumbent {result.canary.incumbent_accuracy:.3f}"
            if result.canary.candidate_accuracy is not None
            else f"min family agreement {min(result.canary.family_agreement.values()):.3f}"
            if result.canary.family_agreement
            else "empty replay"
        )
        print(f"canary: {verdict} ({detail})")
    if result.promotion is not None:
        print(
            f"promoted {result.promotion.candidate_checksum[:12]} "
            f"over {str(result.promotion.previous_checksum)[:12]} "
            f"at {result.promotion.live_path}"
        )
    if result.rollback is not None:
        print(
            f"rolled back to last-good {result.rollback['restored_checksum'][:12]} "
            f"({result.rollback['reason']}); rejected bytes kept at "
            f"{result.rollback['rejected']}"
        )
    print(f"lifecycle outcome: {result.outcome}")
    return 0


def cmd_suite_stats(args) -> int:
    """Describe the workload population: suites, languages, loop shapes."""
    import numpy as np

    from repro.features import feature_index
    from repro.workloads.generator import generate_suite

    suite = generate_suite(seed=args.seed, loops_scale=args.scale)
    print(f"{suite.name}: {len(suite.benchmarks)} benchmarks, {suite.n_loops} loops")

    by_suite: dict[str, int] = {}
    by_lang: dict[str, int] = {}
    for bench in suite.benchmarks:
        by_suite[bench.suite] = by_suite.get(bench.suite, 0) + bench.n_loops
        by_lang[bench.language.name] = by_lang.get(bench.language.name, 0) + bench.n_loops
    print("loops per suite:    " + ", ".join(f"{k}={v}" for k, v in sorted(by_suite.items())))
    print("loops per language: " + ", ".join(f"{k}={v}" for k, v in sorted(by_lang.items())))

    loops = suite.all_loops()
    sizes = np.array([l.size for l in loops])
    trips = np.array([l.trip.runtime for l in loops])
    print(f"body size:  median {np.median(sizes):.0f} ops, p90 {np.percentile(sizes, 90):.0f}, max {sizes.max()}")
    print(f"trip count: median {np.median(trips):.0f}, p90 {np.percentile(trips, 90):.0f}, max {trips.max()}")
    print(f"known trip counts:  {sum(l.trip.known for l in loops) / len(loops):.0%}")
    print(f"while-style loops:  {sum(not l.trip.counted for l in loops) / len(loops):.0%}")
    print(f"early exits:        {sum(l.has_early_exit for l in loops) / len(loops):.0%}")
    indirect = sum(
        any(i.mem is not None and i.mem.indirect for i in l.body) for l in loops
    )
    print(f"indirect references: {indirect / len(loops):.0%}")
    recurrences = sum(bool(l.carried_regs()) for l in loops)
    print(f"scalar recurrences:  {recurrences / len(loops):.0%}")
    return 0


def cmd_export(args) -> int:
    """Dump the labelled dataset in the raw-loop-data release format."""
    from repro.instrument import LoopRecord, write_records

    artifacts = _artifacts(args)
    dataset = artifacts.dataset
    records = (
        LoopRecord(
            loop_name=str(dataset.loop_names[i]),
            benchmark=str(dataset.benchmarks[i]),
            suite=str(dataset.suites[i]),
            language=str(dataset.languages[i]),
            features=tuple(float(v) for v in dataset.X[i]),
            median_cycles=tuple(float(v) for v in dataset.cycles[i]),
        )
        for i in range(len(dataset))
    )
    count = write_records(records, args.output)
    print(f"wrote {count} loop records to {args.output}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-unroll",
        description="Reproduction of 'Predicting Unroll Factors Using Supervised Classification'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, extra in (
        ("build-data", cmd_build_data, None),
        ("histogram", cmd_histogram, None),
        ("table2", cmd_table2, None),
        ("speedups", cmd_speedups, None),
        ("features", cmd_features, None),
        ("train", cmd_train, "train"),
        ("predict", cmd_predict, "predict"),
        ("predict-file", cmd_predict_file, "predict-file"),
        ("suite-stats", cmd_suite_stats, None),
        ("export", cmd_export, "export"),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
        if extra == "train":
            p.add_argument(
                "--out",
                required=True,
                help="output path for the model artifact (e.g. model.rma)",
            )
        elif extra == "predict":
            p.add_argument("kernel", help="library kernel name (e.g. daxpy)")
            p.add_argument("--classifier", choices=("nn", "svm", "mlp", "forest", "ensemble"), default="svm")
            p.add_argument(
                "--model",
                default=None,
                help="serve from a trained model artifact instead of retraining",
            )
        elif extra == "predict-file":
            p.add_argument("file", help="loop-language source file")
            p.add_argument("--classifier", choices=("nn", "svm", "mlp", "forest", "ensemble"), default="svm")
            p.add_argument(
                "--model",
                default=None,
                help="serve from a trained model artifact instead of retraining",
            )
        elif extra == "export":
            p.add_argument("output", help="output path for the raw loop data")

    serve_parser = sub.add_parser(
        "serve", help="answer JSON-lines prediction requests from stdin"
    )
    serve_parser.add_argument("--model", required=True, help="trained model artifact")
    serve_parser.add_argument("--classifier", choices=("nn", "svm", "mlp", "forest", "ensemble"), default="svm")
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="stdin mode: prediction threads for the batch (default: 4); "
        "--listen mode: independent daemon processes sharing the port via "
        "SO_REUSEPORT; more than 1 needs a platform with SO_REUSEPORT "
        "(default: 1)",
    )
    serve_parser.add_argument(
        "--request-log",
        default=None,
        metavar="PATH",
        help="daemon mode: append served-request JSON-lines records "
        "(timestamp, features checksum, prediction, latency, worker id) "
        "to PATH, written off the hot path (default: no log)",
    )
    serve_parser.add_argument(
        "--request-log-max-bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="rotate the request log to PATH.1, PATH.2, ... once the live "
        "file exceeds N bytes; rotation never tears a record "
        "(default: no rotation)",
    )
    serve_parser.add_argument(
        "--lifecycle-poll-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="daemon mode: run the closed lifecycle loop (drift scan over "
        "--request-log, retrain, canary, atomic promote) every SECONDS; "
        "requires --request-log and a registry-shaped --model path "
        "(default: off)",
    )
    serve_parser.add_argument(
        "--input",
        default=None,
        help="read requests from a file instead of stdin",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=64,
        help="max pending requests before 'overloaded' rejections (default: 64)",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (default: none)",
    )
    serve_parser.add_argument(
        "--fault-plan",
        default=None,
        help="chaos-testing hook: inline JSON or a fault-plan file (never on by default)",
    )
    serve_parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run as a TCP daemon with adaptive micro-batching instead of "
        "reading stdin (:0 binds an ephemeral port)",
    )
    serve_parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="daemon coalescing window: requests arriving within this many "
        "milliseconds are merged into one vectorized engine batch (default: 2)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=_positive_int,
        default=32,
        help="daemon cap on requests per coalesced batch (default: 32)",
    )
    serve_parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="daemon engine replicas sharing the loaded artifact (default: 2)",
    )
    serve_parser.add_argument(
        "--reload-poll-s",
        type=float,
        default=None,
        help="daemon registry poll interval for hot artifact reload "
        "(default: no watcher; reload only via restart)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    measure_parser = sub.add_parser(
        "measure",
        help="fault-tolerant measurement run with checkpoint/resume",
    )
    _add_common(measure_parser)
    measure_parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint journal and execute only missing units",
    )
    measure_parser.add_argument(
        "--journal",
        default=None,
        help="checkpoint journal path (default: journal_<key>.jsonl in the cache dir)",
    )
    measure_parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        help="per-unit timeout in seconds (default: none)",
    )
    measure_parser.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="attempts per unit before quarantine (default: 3)",
    )
    measure_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else the repo-local .cache/)",
    )
    measure_parser.add_argument(
        "--fault-plan",
        default=None,
        help="chaos-testing hook: inline JSON or a fault-plan file (never on by default)",
    )
    measure_parser.set_defaults(handler=cmd_measure)

    lifecycle_parser = sub.add_parser(
        "lifecycle",
        help="closed-loop model maintenance: drift scan, retrain, canary "
        "gate, atomic promotion, shadow check with rollback",
    )
    lifecycle_parser.add_argument("action", choices=("run", "status"))
    _add_common(lifecycle_parser)
    lifecycle_parser.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="served-request log to replay (rotated .N segments are "
        "walked oldest-first); required for 'run'",
    )
    lifecycle_parser.add_argument(
        "--model",
        default="base",
        help="registry artifact name to maintain (default: base)",
    )
    lifecycle_parser.add_argument(
        "--artifact-dir",
        default=None,
        help="registry root (default: $REPRO_ARTIFACT_DIR, else the "
        "repo-local .artifacts/)",
    )
    lifecycle_parser.add_argument(
        "--journal",
        default=None,
        help="lifecycle checkpoint journal path "
        "(default: lifecycle_<model>.journal.jsonl in the registry root)",
    )
    lifecycle_parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the lifecycle journal and continue a killed run "
        "bit-identically",
    )
    lifecycle_parser.add_argument(
        "--force",
        action="store_true",
        help="run the retrain/canary/promote stages even when the drift "
        "scan is clean",
    )
    lifecycle_parser.add_argument(
        "--skip-canary",
        action="store_true",
        help="promote without the canary gate (shadow check still runs; "
        "for break-glass operations only)",
    )
    lifecycle_parser.add_argument(
        "--window",
        type=_positive_int,
        default=64,
        help="drift-scan window size in replayed records (default: 64)",
    )
    lifecycle_parser.add_argument(
        "--min-family-agreement",
        type=float,
        default=0.75,
        help="canary: minimum per-family agreement with the incumbent "
        "across the replay (default: 0.75)",
    )
    lifecycle_parser.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="measurement attempts per flagged loop before quarantine "
        "(default: 3)",
    )
    lifecycle_parser.add_argument(
        "--fault-plan",
        default=None,
        help="chaos-testing hook: inline JSON or a fault-plan file (never on by default)",
    )
    lifecycle_parser.set_defaults(handler=cmd_lifecycle)

    cache_parser = sub.add_parser("cache", help="inspect or prune the measurement cache")
    cache_parser.add_argument("action", choices=("stats", "gc", "clear"))
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else the repo-local .cache/)",
    )
    cache_parser.set_defaults(handler=cmd_cache)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
