"""The repository's benchmark: three workloads over the program's public
functions and its ``repro`` CLI.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
workload once untraced and once with the wrappers of ``tracing.py``
installed, and reports the per-layer metrics and the tracing overhead.
Every run checks the program's outputs and counts attempted and failed
operations.  The last line of standard output is the JSON result; the
lines before it are a readable report and the machine diagnostics.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import select
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

#: The program's default suite seed; the offline suite is always this one,
#: so costing work is identical across runs and ``--seed`` drives the
#: measurement-noise streams (and through them the labels and training
#: sets).  See README.md, "Why the offline suite is fixed".
SUITE_SEED = 20050320
#: Offline suite size: 256 loops, 4,096 costings, 12-23 s per labelling
#: pass on a 2-vCPU box.  ``pinned.json`` holds its digests.
OFFLINE_SCALE = 0.08
#: Cold labelling passes per run, each in its own process.
OFFLINE_PASSES = 2
#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: The served model: ``repro train`` on this suite, cached per source tree.
SERVED_MODEL_SEED = SUITE_SEED
SERVED_MODEL_SCALE = 0.1
#: Request pools are the loops of a suite generated from ``--seed``
#: (~900 loops, so a pool's slowest few loops do not set a run's p99).
POOL_SCALE = 0.3
#: Serve statistics are medians over blocks of this many completions.
BLOCK_REQUESTS = 1000
#: Closed loop: one load-generator thread holding this many connections.
CONNECTIONS = 2
#: Warm-up slices until the daemon's adaptive batch window has settled.
WARMUP_SLICE_S = 0.5
WARMUP_MIN_SLICES = 2
WARMUP_MAX_SLICES = 10
#: Traced serve runs alternate this many slices of each daemon.
TRACE_SLICES = 10
#: Units spot-checked against the reference cost-model engine.
REFERENCE_UNITS = 6
#: Every run ends well inside a 180 s limit per run.
RUN_BUDGET_S = 170.0

WORKLOADS = ("offline", "serve-features", "serve-source")
SERVE_CLASSIFIER = {"serve-features": "nn", "serve-source": "ensemble"}

PROGRAM_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: Program settings a caller's environment must not leak into a run.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_FAULT_PLAN", "REPRO_NO_REUSEPORT")


class BenchError(RuntimeError):
    """The run could not produce a result (no JSON line is printed)."""


# ---------------------------------------------------------------------------
# Processes and the run directory
# ---------------------------------------------------------------------------


class Run:
    """One run's scratch directory, program environment and processes.

    Every process started through :meth:`spawn` is stopped and reaped by
    :meth:`close`, and the scratch directory is removed."""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = STATE_DIR / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("cache", "artifacts", "tmp", "out"):
            (self.dir / sub).mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env.update(PROGRAM_ENV)
        self.env["REPRO_CACHE_DIR"] = str(self.dir / "cache")
        self.env["REPRO_ARTIFACT_DIR"] = str(self.dir / "artifacts")
        self.env["TMPDIR"] = str(self.dir / "tmp")
        self.procs: list[subprocess.Popen] = []

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def spawn(self, argv: list[str], stderr_name: str) -> subprocess.Popen:
        stderr = open(self.dir / stderr_name, "wb")
        try:
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                bufsize=0,
            )
        finally:
            stderr.close()
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=min(30.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        return code

    def wait(self, proc: subprocess.Popen, what: str) -> None:
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish within the run budget") from None
        proc.stdout.close()
        if code != 0:
            raise BenchError(f"{what} exited with {code}: {self.stderr_tail(what)}")

    def stderr_tail(self, name: str) -> str:
        path = self.dir / f"{name}.err"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def read_line(proc: subprocess.Popen, run: Run, prefix: bytes) -> bytes:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        while b"\n" in buffer:
            line, _, buffer = buffer.partition(b"\n")
            if line.startswith(prefix):
                return line
        ready, _, _ = select.select([fd], [], [], min(60.0, run.remaining()))
        if not ready:
            raise BenchError(f"no {prefix!r} line within 60 s")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise BenchError(f"process exited before printing {prefix!r}")
        buffer += chunk


def peak_rss_mb(pid: int | str) -> float:
    """VmHWM of process ``pid`` (or ``"self"``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Machine diagnostics (recorded, never gated)
# ---------------------------------------------------------------------------


def cpu_probe_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast this box is now."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


# ---------------------------------------------------------------------------
# Offline: label, train, save
# ---------------------------------------------------------------------------


def start_offline_worker(run: Run, argv_tail: list[str], name: str):
    """Launch the offline worker; returns it and the seconds until ready."""
    start = time.perf_counter()
    proc = run.spawn(
        [sys.executable, str(BENCH_DIR / "offline_worker.py"), *argv_tail], f"{name}.err"
    )
    read_line(proc, run, b"ready")
    return proc, time.perf_counter() - start


def start_offline_pass(run: Run, scale: float, trace: bool, name: str, setup: list):
    """Start one labelling-and-training process; returns it and its output
    directory once it is ready (its set-up time is appended to ``setup``)."""
    out = run.dir / "out" / name
    out.mkdir(parents=True)
    argv = [
        "run",
        "--out", str(out),
        "--seed", str(run.seed),
        "--scale", str(scale),
        "--suite-seed", str(SUITE_SEED),
    ]
    if trace:
        argv.append("--trace")
    proc, ready_s = start_offline_worker(run, argv, name)
    setup.append(ready_s)
    return proc, out


def finish_offline_pass(run: Run, proc: subprocess.Popen, out: Path, name: str):
    run.wait(proc, name)
    return out, json.loads((out / "result.json").read_text())


def offline_pass(run: Run, scale: float, trace: bool, name: str, setup: list):
    proc, out = start_offline_pass(run, scale, trace, name, setup)
    return finish_offline_pass(run, proc, out, name)


def table_digest(array) -> str:
    import numpy as np

    data = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()


class Tally:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def check_offline(out: Path, result: dict, seed: int, scale: float, tally: Tally) -> dict:
    """Bit-identity, reference spot checks, labels and artifact round trips."""
    import numpy as np

    from repro.ir.types import MAX_UNROLL
    from repro.pipeline import LabelingConfig, MeasurementTable, measure_benchmark_factor
    from repro.registry import load_artifact
    from repro.registry.artifact import ARTIFACT_FAMILIES
    from repro.simulate.executor import CostModel
    from repro.workloads.generator import generate_suite

    pins = json.loads((BENCH_DIR / "pinned.json").read_text())
    pinned = pins.get(f"{SUITE_SEED}/{scale}")
    if pinned is None:
        raise BenchError(f"pinned.json has no digests for suite {SUITE_SEED} at scale {scale}")
    config = LabelingConfig(seed=seed)
    suite = generate_suite(seed=SUITE_SEED, loops_scale=scale)
    tables = {r: MeasurementTable.load(out / f"table_{r}.npz") for r in ("off", "on")}
    digests = {"seed": seed, "scale": scale, "pinned": []}
    for regime, table in tables.items():
        finite = np.isfinite(table.measured) & np.isfinite(table.true_cycles)
        tally.attempted += finite.size
        tally.failed += int((~finite).sum())
        for column in ("measured", "true_cycles"):
            digest = table_digest(getattr(table, column))
            digests[f"{column}_{regime}"] = digest
            expected = (
                pinned.get("true_cycles", {}).get(regime)
                if column == "true_cycles"
                else pinned.get("measured", {}).get(str(seed), {}).get(regime)
            )
            if expected is not None:
                digests["pinned"].append(f"{column}_{regime}")
                tally.check(digest == expected, f"{column} {regime} digest differs from pin")

    # Units recomputed with the reference engine, seeded the way
    # measure_suite_pair seeds each (benchmark, factor) unit.
    chooser = np.random.default_rng(seed)
    n_benchmarks = len(suite.benchmarks)
    starts = np.cumsum([0] + [b.n_loops for b in suite.benchmarks])
    for _ in range(REFERENCE_UNITS):
        bi = int(chooser.integers(n_benchmarks))
        factor = int(chooser.integers(1, MAX_UNROLL + 1))
        unit_seed = np.random.SeedSequence(seed).spawn(n_benchmarks)[bi].spawn(MAX_UNROLL)[
            factor - 1
        ]
        for regime, swp in (("off", False), ("on", True)):
            unit = measure_benchmark_factor(
                suite.benchmarks[bi],
                bi,
                factor,
                LabelingConfig(seed=seed, swp=swp),
                unit_seed,
                CostModel(swp=swp, engine="reference"),
            )
            rows = slice(starts[bi], starts[bi + 1])
            table = tables[regime]
            same = np.array_equal(
                unit.measured, table.measured[rows, factor - 1]
            ) and np.array_equal(unit.true_cycles, table.true_cycles[rows, factor - 1])
            tally.check(same, f"unit {bi}:u{factor} {regime} differs from the reference engine")

    for regime, table in tables.items():
        dataset = table.to_dataset(config.min_cycles, config.min_benefit)
        tally.check(
            len(dataset) == result["rows"][regime]
            and bool(((dataset.labels >= 1) & (dataset.labels <= MAX_UNROLL)).all()),
            f"{regime} labels outside 1..{MAX_UNROLL}",
        )
        artifact = load_artifact(out / f"model_{regime}.rma")
        saved = np.load(out / f"predictions_{regime}.npz")
        for family in ARTIFACT_FAMILIES:
            tally.check(
                np.array_equal(artifact.predict_features(dataset.X, family), saved[family]),
                f"{regime} {family}: loaded artifact predicts differently",
            )
        tally.check(
            np.array_equal(artifact.ensemble.predict_detail(dataset.X).confidence, saved["confidence"]),
            f"{regime} ensemble confidence differs after load",
        )
    return digests


def check_passes(outs: list[Path], tally: Tally) -> None:
    """Labelling passes in separate processes must write byte-identical
    tables, and the training passes byte-identical artifacts."""
    for name in ("table_off.npz", "table_on.npz", "model_off.rma", "model_on.rma"):
        first = (outs[0] / name).read_bytes()
        tally.check(
            all((out / name).read_bytes() == first for out in outs[1:]),
            f"{name} differs between passes",
        )


def offline_start_samples(run: Run, count: int) -> list[float]:
    samples = []
    for index in range(count):
        proc, ready_s = start_offline_worker(run, ["probe"], f"probe{index}")
        run.wait(proc, f"probe{index}")
        samples.append(ready_s)
    return samples


def workload_offline(run: Run, trace: bool, tally: Tally, report: dict) -> dict:
    import numpy as np

    scale = OFFLINE_SCALE
    setup: list[float] = []
    if trace:
        # The untraced and the traced pass run at the same time, one per
        # CPU, so that a change of machine speed falls on both alike.
        started = {
            name: start_offline_pass(run, scale, name == "traced", name, setup)
            for name in ("untraced", "traced")
        }
        (plain_out, plain), (out, traced) = (
            finish_offline_pass(run, proc, path, name) for name, (proc, path) in started.items()
        )
        report["digests"] = check_offline(out, traced, run.seed, scale, tally)
        check_passes([plain_out, out], tally)
        return offline_layers(traced, plain)

    probes = offline_start_samples(run, SETUP_STARTS - OFFLINE_PASSES)
    passes = []
    for index in range(OFFLINE_PASSES):
        out, result = offline_pass(run, scale, False, f"pass{index}", setup)
        passes.append((out, result))
    out, result = passes[-1]
    report["digests"] = check_offline(out, result, run.seed, scale, tally)
    check_passes([path for path, _ in passes], tally)
    report["setup_samples_s"] = probes + setup
    report["rows"] = result["rows"]
    report["label_s"] = [r["label_s"] for _, r in passes]
    report["unit_sum_s"] = [sum(r["unit_s"].values()) for _, r in passes]
    report["train_steps_s"] = [r["train_steps"] for _, r in passes]
    report["train_s"] = fastest_sum(dict(enumerate(r["train_steps"])) for _, r in passes)
    label_s = fastest_sum(labelling_parts(r) for _, r in passes)
    report["label_s_fastest_parts"] = label_s
    report["costings_per_s"] = result["n_loops"] * 8 * 2 / label_s
    # One operation is one (benchmark, factor) unit costed in both regimes.
    # Its latency samples are every unit's time in every pass: 1,152, so
    # that p99 (reported, not gated) has 11 samples beyond it.
    units = len(result["unit_s"])
    unit_ms = [1e3 * seconds for _, r in passes for seconds in r["unit_s"].values()]
    report["p99_ms"] = float(np.percentile(unit_ms, 99))
    return {
        "setup_s": (statistics.median(probes + setup), "s"),
        "ops_per_s": (units / label_s, "1/s"),
        "p50_ms": (float(np.percentile(unit_ms, 50)), "ms"),
        "p95_ms": (float(np.percentile(unit_ms, 95)), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for _, r in passes), "MB"),
    }


def fastest_sum(samples) -> float:
    """Sum over keys of the fastest time each key took across ``samples``
    (dicts of key -> seconds over the same keys)."""
    best: dict = {}
    for sample in samples:
        for key, seconds in sample.items():
            best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


def labelling_parts(result: dict) -> dict:
    """A labelling pass split into its (benchmark, factor) units and the
    pipeline time outside them."""
    parts = dict(result["unit_s"])
    parts["outside units"] = result["label_s"] - sum(parts.values())
    return parts


def offline_layers(traced: dict, plain: dict) -> dict:
    from tracing import LABELLING_LAYERS

    metrics = {}
    layers = traced["spans_labelling"]["layers"]
    counters = traced["spans_labelling"]["counters"]
    covered = 0.0
    for name in LABELLING_LAYERS:
        layer = layers.get(name, {"calls": 0, "self_s": 0.0})
        covered += layer["self_s"]
        metrics[f"{name}.s"] = (layer["self_s"], "s")
        if name not in ("sched.regpressure", "simulate.noise", "features.extract"):
            metrics[f"{name}.calls"] = (layer["calls"], "count")
    modulo_calls = layers.get("sched.modulo_schedule", {"calls": 0})["calls"]
    failed = counters.get("sched.modulo_schedule.failed", 0)
    succeeded = modulo_calls - failed
    metrics["sched.modulo_schedule.failed"] = (failed, "count")
    metrics["sched.modulo_schedule.ii_over_mii"] = (
        counters.get("sched.modulo_schedule.ii_minus_mii", 0.0) / max(1, succeeded),
        "cycles",
    )
    hits, misses = traced["analysis_hits"], traced["analysis_misses"]
    metrics["simulate.analysis_cache.hits"] = (hits, "count")
    metrics["simulate.analysis_cache.misses"] = (misses, "count")
    metrics["simulate.analysis_cache.hit_rate"] = (hits / max(1, hits + misses), "ratio")
    metrics["pipeline.self_s"] = (traced["label_s"] - covered, "s")
    metrics["trace.coverage"] = (covered / traced["label_s"], "ratio")
    metrics["trace.overhead"] = (100.0 * (traced["label_s"] / plain["label_s"] - 1.0), "%")

    spans = traced["spans"]
    metrics["ml.select.s"] = (spans["counters"].get("ml.select.s", 0.0), "s")
    for family in ("nn", "svm", "mlp", "forest", "ensemble"):
        layer = spans["layers"].get(f"ml.fit.{family}", {"total_s": 0.0})
        metrics[f"ml.fit.{family}.s"] = (layer["total_s"], "s")
    metrics["registry.save.s"] = (spans["counters"].get("registry.save.s", 0.0), "s")
    metrics["registry.artifact_bytes"] = (
        spans["counters"].get("registry.artifact_bytes", 0.0),
        "bytes",
    )
    return metrics


# ---------------------------------------------------------------------------
# Serving: the served model, the request pools, the closed-loop client
# ---------------------------------------------------------------------------


def source_tree_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def served_model(run: Run) -> Path:
    """The served artifact, trained by ``repro train`` once per source tree
    (outside every timed window and outside ``setup_s``)."""
    cached = STATE_DIR / "models" / (
        f"model-{SERVED_MODEL_SEED}-{SERVED_MODEL_SCALE}-{source_tree_hash()}.rma"
    )
    if not cached.exists():
        cached.parent.mkdir(parents=True, exist_ok=True)
        proc = run.spawn(
            [
                sys.executable, "-m", "repro", "train",
                "--scale", str(SERVED_MODEL_SCALE),
                "--seed", str(SERVED_MODEL_SEED),
                "--out", str(cached),
            ],
            "train.err",
        )
        run.wait(proc, "train")
    model = run.dir / "artifacts" / "model_bench.rma"
    shutil.copyfile(cached, model)
    return model


class Pool:
    """Request lines generated from the seed, with the in-process answers."""

    def __init__(self, workload: str, seed: int, model: Path):
        import numpy as np

        from repro.features.extract import extract_features
        from repro.frontend import to_source
        from repro.registry import load_artifact
        from repro.workloads.generator import generate_suite

        classifier = SERVE_CLASSIFIER[workload]
        loops = generate_suite(seed=seed, loops_scale=POOL_SCALE).all_loops()
        artifact = load_artifact(model)
        self.bodies: list[bytes] = []
        self.expected: list[dict] = []
        if workload == "serve-features":
            vectors = [[float(v) for v in extract_features(loop)] for loop in loops]
            factors = artifact.predict_features(np.array(vectors), classifier)
            for vector, factor in zip(vectors, factors):
                self.bodies.append(
                    json.dumps({"features": vector, "classifier": classifier})[1:].encode()
                )
                self.expected.append({"factor": int(factor), "classifier": classifier})
        else:
            for loop in loops:
                factor, confidence = artifact.ensemble.predict_loop_detail(loop)
                self.bodies.append(
                    json.dumps({"source": to_source(loop), "classifier": classifier})[1:].encode()
                )
                self.expected.append(
                    {
                        "factor": factor,
                        "classifier": classifier,
                        "loops": [{"loop": loop.name, "factor": factor, "confidence": confidence}],
                    }
                )

    def line(self, seq: int) -> bytes:
        return b'{"id": %d, ' % seq + self.bodies[seq % len(self.bodies)] + b"\n"


class Window:
    """What one closed-loop window observed."""

    def __init__(self):
        self.records: list[tuple[int, int, int, bytes]] = []  # seq, sent, done, line
        self.transport_errors = 0
        self.start_ns = 0
        self.cpu_s = 0.0


def closed_loop(port: int, pool: Pool, first_seq: int, seconds: float) -> Window:
    """``CONNECTIONS`` connections, one thread; each connection sends its
    next request only after the previous reply arrived."""
    window = Window()
    selector = selectors.DefaultSelector()
    conns = []
    state = {}
    seq = first_seq
    cpu0 = time.process_time()
    window.start_ns = time.perf_counter_ns()
    end_ns = window.start_ns + int(seconds * 1e9)

    def send(conn) -> None:
        nonlocal seq
        state[conn] = [seq, time.perf_counter_ns(), b""]
        seq += 1
        conn.sendall(pool.line(state[conn][0]))

    # The records hold no reference cycles; a collector pause here would be
    # charged to the daemon as latency.
    gc.disable()
    try:
        for _ in range(CONNECTIONS):
            conn = socket.create_connection(("127.0.0.1", port), timeout=30)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conns.append(conn)
            selector.register(conn, selectors.EVENT_READ)
            send(conn)
        active = len(conns)
        while active:
            events = selector.select(timeout=30)
            if not events:
                raise BenchError("daemon stopped answering for 30 s")
            for key, _ in events:
                conn = key.fileobj
                entry = state[conn]
                try:
                    chunk = conn.recv(1 << 16)
                except OSError:
                    chunk = b""
                if not chunk:
                    window.transport_errors += 1
                    selector.unregister(conn)
                    active -= 1
                    continue
                entry[2] += chunk
                if not entry[2].endswith(b"\n"):
                    continue
                done = time.perf_counter_ns()
                window.records.append((entry[0], entry[1], done, entry[2]))
                if done < end_ns:
                    send(conn)
                else:
                    selector.unregister(conn)
                    active -= 1
    finally:
        gc.enable()
        window.cpu_s = time.process_time() - cpu0
        selector.close()
        for conn in conns:
            conn.close()
    return window


def healthz(port: int) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(b'{"healthz": true}\n')
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(1 << 16)
            if not chunk:
                raise BenchError("healthz connection closed")
            buffer += chunk
    return json.loads(buffer)["healthz"]


class Daemon:
    """One ``repro serve --listen`` process, ready once healthz answers."""

    def __init__(self, run: Run, workload: str, model: Path, name: str, spans: Path | None):
        argv = ["serve", "--model", str(model), "--listen", "127.0.0.1:0"]
        self.log = None
        if workload == "serve-source":
            self.log = run.dir / f"{name}.requests.jsonl"
            argv += ["--request-log", str(self.log)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), str(spans), *argv]
        self.run = run
        start = time.perf_counter()
        self.proc = run.spawn(argv, f"{name}.err")
        line = read_line(self.proc, run, b"daemon listening on ")
        self.port = int(line.rsplit(b":", 1)[1].split()[0])
        healthz(self.port)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        code = self.run.stop(self.proc)
        if code != 0:
            raise BenchError(f"daemon exited with {code}")


def warm_up(daemon: Daemon, pool: Pool, seq: int) -> tuple[list[Window], int]:
    """Closed-loop slices until the adaptive window stops moving."""
    windows = []
    previous = None
    for index in range(WARMUP_MAX_SLICES):
        window = closed_loop(daemon.port, pool, seq, WARMUP_SLICE_S)
        seq += len(window.records)
        windows.append(window)
        adaptive = healthz(daemon.port)["batching"]["adaptive"]
        current = (adaptive["current_window_ms"], adaptive["shrinks"], adaptive["grows"])
        if index + 1 >= WARMUP_MIN_SLICES and current == previous:
            break
        previous = current
    return windows, seq


def validate(windows: list[Window], pool: Pool, tally: Tally) -> list[float]:
    """Every response ok, for its request, equal to the in-process answer.
    Returns the engine's own ``latency_ms`` of each response."""
    engine_ms = []
    for window in windows:
        if window.transport_errors:
            tally.attempted += window.transport_errors
            tally.failed += window.transport_errors
            tally.notes.append(f"{window.transport_errors} connection(s) lost")
        for seq, _, _, line in window.records:
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                tally.check(False, f"request {seq}: unparseable response")
                continue
            ok = response.pop("ok", False) is True and response.pop("id", None) == seq
            latency = response.pop("latency_ms", None)
            if isinstance(latency, (int, float)):
                engine_ms.append(float(latency))
            tally.check(
                ok and response == pool.expected[seq % len(pool.expected)],
                f"request {seq}: {line[:200]!r}",
            )
    return engine_ms


def window_stats(window: Window) -> dict:
    """Throughput, p50, p95 and p99, each the median over consecutive blocks
    of ``BLOCK_REQUESTS`` completions, so that a few seconds of interference
    from other tenants move the median of blocks instead of the whole
    window.  Each block's p99 has at least 10 samples beyond it."""
    import numpy as np

    records = sorted(window.records, key=lambda record: record[2])
    if len(records) < BLOCK_REQUESTS:
        raise BenchError(f"only {len(records)} requests in the timed window; p99 needs 1000")
    blocks = [
        records[start : start + BLOCK_REQUESTS]
        for start in range(0, len(records) - BLOCK_REQUESTS + 1, BLOCK_REQUESTS)
    ]
    rates, p50s, p95s, p99s = [], [], [], []
    previous_done = window.start_ns
    for block in blocks:
        latencies = np.array([(done - sent) / 1e6 for _, sent, done, _ in block])
        rates.append(len(block) / ((block[-1][2] - previous_done) / 1e9))
        previous_done = block[-1][2]
        p50s.append(float(np.percentile(latencies, 50)))
        p95s.append(float(np.percentile(latencies, 95)))
        p99s.append(float(np.percentile(latencies, 99)))
    return {
        "requests": len(records),
        "blocks": len(blocks),
        "throughput_rps": statistics.median(rates),
        "p50_ms": statistics.median(p50s),
        "p95_ms": statistics.median(p95s),
        "p99_ms": statistics.median(p99s),
    }


def finish_session(
    daemon: Daemon, pool: Pool, warm: list[Window], timed: list[Window], tally: Tally
) -> dict:
    """Read healthz and peak RSS, stop the daemon, then check every response
    of the warm-up and timed windows, the gateway counters and the request
    log.  Returns the daemon-side observations; ``engine_ms`` holds the
    engine's own latencies of the timed responses."""
    final = healthz(daemon.port)
    rss = peak_rss_mb(daemon.proc.pid)
    daemon.stop()

    validate(warm, pool, tally)
    engine_ms = validate(timed, pool, tally)
    sent = sum(len(w.records) for w in (*warm, *timed))
    gateway = final["gateway"]
    tally.check(
        gateway["admitted"]
        == gateway["served_ok"] + gateway["served_error"] + gateway["deadline_exceeded"],
        f"gateway counters do not balance: {gateway}",
    )
    tally.check(gateway["served_ok"] == sent, f"gateway served {gateway['served_ok']} of {sent}")
    logged = None
    if daemon.log is not None:
        with open(daemon.log, "rb") as handle:
            logged = sum(1 for _ in handle)
        tally.check(logged == sent, f"request log holds {logged} lines for {sent} requests")
    return {
        "peak_rss_mb": rss,
        "engine_ms": engine_ms,
        "healthz": final,
        "logged": logged,
        "sent": sent,
    }


def serve_session(run: Run, pool: Pool, daemon: Daemon, tally: Tally) -> dict:
    """Warm up, measure one timed window and check it; stops the daemon."""
    warm, seq = warm_up(daemon, pool, 0)
    timed = closed_loop(daemon.port, pool, seq, run.seconds)
    stats = finish_session(daemon, pool, warm, [timed], tally)
    stats.update(window_stats(timed))
    return stats


def latencies_ms(windows: list[Window]):
    import numpy as np

    return np.array([(done - sent) / 1e6 for w in windows for _, sent, done, _ in w.records])


def traced_sessions(run: Run, workload: str, pool: Pool, model: Path, tally: Tally) -> dict:
    """An untraced and a traced daemon, measured in alternating slices so
    that a change of machine speed falls on both alike."""
    import numpy as np

    spans_path = run.dir / "spans.json"
    daemons = {
        "plain": Daemon(run, workload, model, "plain", None),
        "traced": Daemon(run, workload, model, "traced", spans_path),
    }
    warm: dict[str, list[Window]] = {}
    seqs = {}
    for name, daemon in daemons.items():
        warm[name], seqs[name] = warm_up(daemon, pool, 0)
    timed: dict[str, list[Window]] = {name: [] for name in daemons}
    for _ in range(TRACE_SLICES):
        for name, daemon in daemons.items():
            window = closed_loop(daemon.port, pool, seqs[name], run.seconds / TRACE_SLICES)
            seqs[name] += len(window.records)
            timed[name].append(window)
    sessions = {
        name: finish_session(daemon, pool, warm[name], timed[name], tally)
        for name, daemon in daemons.items()
    }
    plain = sessions["plain"]
    ratios = [
        float(np.median(latencies_ms([t])) / np.median(latencies_ms([p])))
        for p, t in zip(timed["plain"], timed["traced"])
    ]
    plain.update(
        requests=sum(len(w.records) for w in timed["plain"]),
        p50_ms=float(np.median(latencies_ms(timed["plain"]))),
        loadgen_cpu_s=sum(w.cpu_s for w in timed["plain"]),
        overhead=100.0 * (statistics.median(ratios) - 1.0),
        spans=json.loads(spans_path.read_text()),
    )
    return plain


def workload_serve(run: Run, workload: str, trace: bool, tally: Tally, report: dict) -> dict:
    model = served_model(run)
    pool = Pool(workload, run.seed, model)
    if not trace:
        setup = []
        for index in range(SETUP_STARTS):
            daemon = Daemon(run, workload, model, f"daemon{index}", None)
            setup.append(daemon.setup_s)
            if index < SETUP_STARTS - 1:
                daemon.stop()
        stats = serve_session(run, pool, daemon, tally)
        report["setup_samples_s"] = setup
        report["timed_requests"] = stats["requests"]
        report["p99_ms"] = stats["p99_ms"]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (stats["throughput_rps"], "1/s"),
            "p50_ms": (stats["p50_ms"], "ms"),
            "p95_ms": (stats["p95_ms"], "ms"),
            "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
        }

    plain = traced_sessions(run, workload, pool, model, tally)
    report["timed_requests"] = plain["requests"]
    return serve_layers(workload, plain, model)


def serve_layers(workload: str, plain: dict, model: Path) -> dict:
    layers = plain["spans"]["layers"]

    def mean_ms(name: str) -> float:
        layer = layers.get(name, {"calls": 0, "self_s": 0.0})
        return 1e3 * layer["self_s"] / max(1, layer["calls"])

    engine_ms = statistics.median(plain["engine_ms"]) if plain["engine_ms"] else 0.0
    health = plain["healthz"]
    batching = health["batching"]
    gateway = health["gateway"]
    metrics = {
        "registry.load.s": (layers["registry.load"]["total_s"], "s"),
        "registry.artifact_bytes": (model.stat().st_size, "bytes"),
        "serve.engine.ms": (engine_ms, "ms"),
        "serve.outside_engine_ms": (plain["p50_ms"] - engine_ms, "ms"),
        "serve.batching.mean_batch": (batching["mean_batch"], "count"),
        "serve.batching.window_ms": (batching["adaptive"]["current_window_ms"], "ms"),
        "serve.batching.shrinks": (batching["adaptive"]["shrinks"], "count"),
        "serve.batching.grows": (batching["adaptive"]["grows"], "count"),
        "serve.gateway.served_error": (gateway["served_error"], "count"),
        "serve.gateway.overloaded": (gateway["overloaded"], "count"),
        "serve.gateway.deadline_exceeded": (gateway["deadline_exceeded"], "count"),
        "loadgen.cpu_s": (plain["loadgen_cpu_s"], "s"),
        "trace.overhead": (plain["overhead"], "%"),
    }
    if workload == "serve-features":
        metrics["ml.predict.nn.ms"] = (mean_ms("ml.predict.nn"), "ms")
    else:
        metrics["frontend.parse_program.ms"] = (mean_ms("frontend.parse_program"), "ms")
        metrics["features.extract.ms"] = (mean_ms("features.extract"), "ms")
        metrics["ml.predict.ensemble.ms"] = (mean_ms("ml.predict.ensemble"), "ms")
        metrics["serve.requestlog.record_us"] = (1e3 * mean_ms("serve.requestlog.record"), "us")
        log = health["request_log"]
        metrics["request_log.bytes_written"] = (log["bytes_written"], "bytes")
        metrics["request_log.dropped"] = (plain["sent"] - plain["logged"], "count")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated runner still stops its program processes (Run.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(PROGRAM_ENV)
    declared = declared_metrics(bool(args.trace))

    diagnostics = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_probe_before_s": cpu_probe_s(),
        "steal_ticks_before": steal_ticks(),
    }
    started = time.perf_counter()
    run = Run(args.seed, args.seconds)
    tally = Tally()
    report: dict = {}
    try:
        if args.workload == "offline":
            metrics = workload_offline(run, bool(args.trace), tally, report)
        else:
            metrics = workload_serve(run, args.workload, bool(args.trace), tally, report)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()
    import numpy

    diagnostics.update(
        numpy=numpy.__version__,
        cpu_probe_after_s=cpu_probe_s(),
        steal_ticks_delta=steal_ticks() - diagnostics.pop("steal_ticks_before"),
        run_wall_s=time.perf_counter() - started,
    )
    if args.trace:
        # Every workload reports every layer; one it bypasses was never called.
        report["bypassed"] = sorted(declared.keys() - metrics.keys())
        metrics.update({name: (0, declared[name]) for name in report["bypassed"]})
    for name, (_, unit) in metrics.items():
        if declared.get(name) != unit:
            print(f"error: metric {name} [{unit}] is not declared in BENCHMARK.json", file=sys.stderr)
            return 1
    missing = declared.keys() - metrics.keys()
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in declared}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}")
    for note in tally.notes:
        print(f"  failure: {note}")
    print("report " + json.dumps(report, sort_keys=True))
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
