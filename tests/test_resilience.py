"""Fault tolerance, driven by deterministic fault injection.

Every recovery path is exercised by a real induced failure, not a mock:
retries with deterministic backoff, per-unit timeouts, quarantine instead
of abort, serial fallback after a worker death, checkpoint/resume, and
cache corruption self-healing.  The
recurring invariant: however badly a run is abused, the table that comes
out is bit-identical to an untroubled run (or has NaN holes exactly where
units were quarantined).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import MeasurementRollup
from repro.ir.program import Suite
from repro.pipeline import (
    CacheStore,
    LabelingConfig,
    config_key,
    cached_measurements,
    measure_suite,
    measure_suite_pair,
)
from repro.resilience import (
    FAULT_PLAN_ENV,
    AbortRun,
    CheckpointJournal,
    FaultPlan,
    FaultRule,
    JournalError,
    ResilienceConfig,
    RetryPolicy,
    UnitFailedError,
    UnitTask,
    fault_plan,
    get_injector,
    install_fault_plan,
    run_units,
)
from repro.simulate.noise import NoiseModel
from repro.workloads.generator import generate_benchmark
from repro.workloads.spec_names import ROSTER

#: Fast retries so failure-path tests never sleep for real.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.005)
FAST = ResilienceConfig(retry=FAST_RETRY)


@pytest.fixture(scope="module")
def micro_suite() -> Suite:
    """Two tiny benchmarks — 16 work units — so resilience tests can
    re-measure the whole suite many times over."""
    picks = [ROSTER[1], ROSTER[0]]
    seeds = np.random.SeedSequence(4321).spawn(len(picks))
    benchmarks = tuple(
        generate_benchmark(info, np.random.default_rng(seed), loops_scale=0.05)
        for info, seed in zip(picks, seeds)
    )
    return Suite(name="micro", benchmarks=benchmarks)


@pytest.fixture(scope="module")
def micro_config() -> LabelingConfig:
    return LabelingConfig(
        seed=11,
        noise=NoiseModel(sigma=0.01, outlier_rate=0.0, counter_overhead=5),
        n_runs=3,
    )


@pytest.fixture(scope="module")
def baseline(micro_suite, micro_config):
    """The untroubled run every abused run must reproduce bit-for-bit."""
    return measure_suite(micro_suite, micro_config)


def _tables_identical(a, b) -> bool:
    return (
        a.measured.tobytes() == b.measured.tobytes()
        and a.true_cycles.tobytes() == b.true_cycles.tobytes()
    )


def corrupting_seed(path: Path) -> int:
    """A fault-plan seed whose deterministic byte-flip offset lands near the
    middle of ``path`` — inside array data, where corruption is guaranteed
    to be detected — rather than in tolerated zip-header slack."""
    size = path.stat().st_size
    target = size // 2
    return next(
        s
        for s in range(200_000)
        if abs((s * 2654435761 + size) % size - target) < max(1, size // 8)
    )


# ---------------------------------------------------------------------------
# Fault plans and the injector.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_inline_json(self):
        plan = FaultPlan.parse(
            '{"seed": 3, "rules": [{"op": "unit.error", "match": "*#a0", "times": 2}]}'
        )
        assert plan.seed == 3
        assert plan.rules == (FaultRule(op="unit.error", match="*#a0", times=2),)

    def test_parse_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"rules": [{"op": "worker.kill"}]}')
        plan = FaultPlan.parse(str(path))
        assert plan.rules[0].op == "worker.kill"

    def test_round_trip_through_json(self):
        plan = FaultPlan(
            seed=9, rules=(FaultRule(op="unit.delay", match="x*", delay_s=0.5),)
        )
        assert FaultPlan.parse(plan.to_json()) == plan

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule field"):
            FaultPlan.parse('{"rules": [{"op": "unit.error", "bogus": 1}]}')

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FaultRule(op="unit.error", times=-1)
        with pytest.raises(ValueError, match="op name"):
            FaultRule(op="")

    def test_non_object_plan_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('["not", "a", "plan"]')
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.parse(str(path))


class TestInjector:
    def test_inactive_without_rules(self):
        with fault_plan(None) as injector:
            assert injector.active is False
            assert injector.fire("unit.error", "anything") is None

    def test_glob_matching_and_budget(self):
        from repro.resilience.faults import FaultInjector

        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="gzip:*#a0", times=2),))
        injector = FaultInjector(plan)
        assert injector.fire("unit.error", "gzip:u1#a0") is not None
        assert injector.fire("unit.error", "swim:u1#a0") is None  # no match
        assert injector.fire("unit.error", "gzip:u2#a0") is not None
        assert injector.fire("unit.error", "gzip:u3#a0") is None  # budget spent
        assert injector.events == [
            ("unit.error", "gzip:u1#a0"),
            ("unit.error", "gzip:u2#a0"),
        ]

    def test_skip_selects_the_nth_match(self):
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(op="run.abort", match="*", skip=2),))
        )
        assert injector.fire("run.abort", "a") is None
        assert injector.fire("run.abort", "b") is None
        assert injector.fire("run.abort", "c") is not None

    def test_env_activation_and_restore(self):
        plan = FaultPlan(rules=(FaultRule(op="unit.error"),))
        before = os.environ.get(FAULT_PLAN_ENV)
        with fault_plan(plan):
            assert get_injector().active is True
        assert os.environ.get(FAULT_PLAN_ENV) == before
        install_fault_plan(None)
        assert get_injector().active is False

    def test_kill_is_inert_outside_pool_workers(self):
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(FaultPlan(rules=(FaultRule(op="worker.kill"),)))
        injector.kill("worker.kill", "x")  # must NOT take down this process
        assert injector.events == []

    def test_corrupt_file_flips_one_byte(self, tmp_path):
        from repro.resilience.faults import FaultInjector

        path = tmp_path / "victim.bin"
        original = bytes(range(64))
        path.write_bytes(original)
        injector = FaultInjector(
            FaultPlan(seed=7, rules=(FaultRule(op="cache.corrupt", match="k"),))
        )
        assert injector.corrupt_file("cache.corrupt", "k", path) is True
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        assert sum(a != b for a, b in zip(damaged, original)) == 1

    def test_mangle_only_when_fired(self):
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(op="serve.malformed", match="2"),))
        )
        request = {"id": 1, "features": []}
        assert injector.mangle("serve.malformed", "1", request) is request
        mangled = injector.mangle("serve.malformed", "2", {"id": 2})
        assert mangled != {"id": 2}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.0)
        assert policy.backoff_s(1, None) == pytest.approx(0.1)
        assert policy.backoff_s(2, None) == pytest.approx(0.2)
        assert policy.backoff_s(5, None) == pytest.approx(0.3)  # capped

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        seed = np.random.SeedSequence(42)
        again = np.random.SeedSequence(42)
        other = np.random.SeedSequence(43)
        assert policy.backoff_s(1, seed) == policy.backoff_s(1, again)
        assert policy.backoff_s(1, seed) != policy.backoff_s(1, other)

    def test_jitter_never_consumes_the_measurement_stream(self):
        # The jitter draws from a spawn-key sibling, so the unit's own RNG
        # stream is untouched by however many retries happened.
        seed = np.random.SeedSequence(7)
        before = np.random.default_rng(seed).random(4)
        RetryPolicy().backoff_s(1, seed)
        RetryPolicy().backoff_s(2, seed)
        after = np.random.default_rng(seed).random(4)
        np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# The executor on toy units.
# ---------------------------------------------------------------------------


def _double(x):
    return x * 2


def _raise_timeout(x):
    raise TimeoutError("socket timed out inside the unit")


def _sleep_long(x):
    time.sleep(60)
    return x


class TestRunUnits:
    def _tasks(self, n=4):
        return [UnitTask(key=i, label=f"t{i}", fn=_double, args=(i,)) for i in range(n)]

    def test_serial_results_keyed(self):
        report = run_units(self._tasks(), config=FAST)
        assert report.results == {0: 0, 1: 2, 2: 4, 3: 6}
        assert report.events == []

    def test_retry_then_success(self):
        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="t1#a0"),))
        with fault_plan(plan):
            report = run_units(self._tasks(), config=FAST)
        assert report.results == {0: 0, 1: 2, 2: 4, 3: 6}
        assert report.count("retry") == 1

    def test_quarantine_after_exhausted_retries(self):
        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="t2#*", times=0),))
        with fault_plan(plan):
            report = run_units(self._tasks(), config=FAST)
        assert 2 not in report.results
        assert report.count("quarantine") == 1
        assert report.count("retry") == FAST_RETRY.max_attempts - 1
        assert report.quarantined[0].key == "t2"

    def test_quarantine_disabled_raises(self):
        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="t2#*", times=0),))
        config = ResilienceConfig(retry=FAST_RETRY, quarantine=False)
        with fault_plan(plan):
            with pytest.raises(UnitFailedError, match="t2"):
                run_units(self._tasks(), config=config)

    def test_unit_raised_timeouterror_is_an_ordinary_failure(self):
        # On 3.11+ concurrent.futures.TimeoutError aliases builtins.
        # TimeoutError, so a unit raising it (e.g. a socket timeout) must
        # not be mistaken for a pool-level deadline — especially with no
        # deadline configured at all.
        tasks = [UnitTask(key=i, label=f"t{i}", fn=_raise_timeout, args=(i,))
                 for i in range(2)]
        report = run_units(tasks, jobs=2, config=FAST)
        assert report.count("timeout") == 0
        assert report.count("quarantine") == 2
        assert all("TimeoutError" in e.detail for e in report.quarantined)

    def test_hung_worker_does_not_block_pool_exit(self):
        # The whole point of unit_timeout_s: a permanently wedged worker
        # must not stall run_units at shutdown until its sleep finishes.
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1), unit_timeout_s=0.2
        )
        tasks = [UnitTask(key=0, label="t0", fn=_sleep_long, args=(0,))]
        start = time.monotonic()
        report = run_units(tasks, jobs=2, config=config)
        elapsed = time.monotonic() - start
        assert elapsed < 20  # the unit sleeps 60s; we must not wait for it
        assert report.count("timeout") == 1
        assert report.count("quarantine") == 1
        assert 0 not in report.results

    def test_hung_worker_does_not_block_interpreter_exit(self):
        # run_units returning promptly is not enough: concurrent.futures
        # joins the pool's management thread at interpreter exit, which
        # waits on live workers.  The hung worker must be terminated, or
        # the *process* hangs after the run finished.  Only observable
        # from outside, hence the subprocess.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.resilience import (ResilienceConfig, RetryPolicy,\n"
            "                              UnitTask, run_units)\n"
            "import time\n"
            "def sleep_long(x):\n"
            "    time.sleep(60)\n"
            "    return x\n"
            "config = ResilienceConfig(retry=RetryPolicy(max_attempts=1),\n"
            "                          unit_timeout_s=0.2)\n"
            "tasks = [UnitTask(key=0, label='t0', fn=sleep_long, args=(0,))]\n"
            "report = run_units(tasks, jobs=2, config=config)\n"
            "print('timeouts', report.count('timeout'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True,
            text=True,
            timeout=30,  # the wedged unit sleeps 60s; exit must not wait
        )
        assert done.returncode == 0, done.stderr
        assert "timeouts 1" in done.stdout

    def test_journal_commits_and_replays(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", run_key="toy")
        encode = lambda v: {"v": v}
        decode = lambda p: p["v"]
        report = run_units(
            self._tasks(), config=FAST, journal=journal, encode=encode, decode=decode
        )
        journal.close()
        assert report.results == {0: 0, 1: 2, 2: 4, 3: 6}

        replay = CheckpointJournal(tmp_path / "j.jsonl", run_key="toy")
        assert replay.load() == 4
        report = run_units(
            self._tasks(), config=FAST, journal=replay, encode=encode, decode=decode
        )
        replay.close()
        assert report.results == {0: 0, 1: 2, 2: 4, 3: 6}
        assert report.count("resume") == 4


# ---------------------------------------------------------------------------
# The journal file format.
# ---------------------------------------------------------------------------


class TestJournal:
    def test_load_missing_file_is_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "none.jsonl", run_key="k").load() == 0

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, run_key="k")
        journal.commit("a", {"v": 1})
        journal.commit("b", {"v": 2})
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"key": "c", "payl')  # the kill landed mid-write
        recovered = CheckpointJournal(path, run_key="k")
        assert recovered.load() == 2
        assert set(recovered.completed) == {"a", "b"}

    def test_foreign_run_key_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, run_key="mine")
        journal.commit("a", {})
        journal.close()
        with pytest.raises(JournalError, match="belongs to run 'mine'"):
            CheckpointJournal(path, run_key="theirs").load()

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(JournalError, match="unreadable journal header"):
            CheckpointJournal(path, run_key="k").load()

    def test_discard_removes_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, run_key="k")
        journal.commit("a", {})
        journal.discard()
        assert not path.exists()


# ---------------------------------------------------------------------------
# The measurement pipeline under induced failures.
# ---------------------------------------------------------------------------


class TestPipelineFaults:
    def test_retried_run_is_bit_identical(self, micro_suite, micro_config, baseline):
        # Every unit's FIRST attempt fails; the run succeeds on retries and
        # must not perturb a single bit (jitter never touches the
        # measurement RNG).
        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="*#a0", times=0),))
        rollup = MeasurementRollup()
        with fault_plan(plan):
            table = measure_suite(
                micro_suite, micro_config, rollup=rollup, resilience=FAST
            )
        assert _tables_identical(table, baseline)
        assert rollup.count("retry") == 16
        assert "retried" in rollup.summary()

    def test_quarantined_unit_leaves_nan_holes(self, micro_suite, micro_config, baseline):
        bench = micro_suite.benchmarks[0]
        plan = FaultPlan(
            rules=(FaultRule(op="unit.error", match=f"{bench.name}:u3#*", times=0),)
        )
        rollup = MeasurementRollup()
        with fault_plan(plan):
            table = measure_suite(
                micro_suite, micro_config, rollup=rollup, resilience=FAST
            )
        assert rollup.quarantined_units() == [f"{bench.name}:u3"]
        # The quarantined (benchmark, factor) cells are NaN...
        assert np.isnan(table.measured[: bench.n_loops, 2]).all()
        # ...and every other cell is untouched.
        mask = ~np.isnan(table.measured)
        assert np.array_equal(table.measured[mask], baseline.measured[mask])
        assert "quarantined" in rollup.resilience_summary()

    def test_worker_kill_falls_back_to_serial(self, micro_suite, micro_config, baseline):
        plan = FaultPlan(rules=(FaultRule(op="worker.kill", match="*:u2#a0"),))
        rollup = MeasurementRollup()
        with fault_plan(plan):
            table = measure_suite(micro_suite, micro_config, jobs=2, rollup=rollup)
        assert _tables_identical(table, baseline)
        assert rollup.count("broken-pool") == 1

    def test_timeout_retries_the_unit(self, micro_suite, micro_config, baseline):
        bench = micro_suite.benchmarks[1]
        plan = FaultPlan(
            rules=(
                FaultRule(op="unit.delay", match=f"{bench.name}:u1#a0", delay_s=1.5),
            )
        )
        config = ResilienceConfig(retry=FAST_RETRY, unit_timeout_s=0.5)
        rollup = MeasurementRollup()
        with fault_plan(plan):
            table = measure_suite(
                micro_suite, micro_config, jobs=2, rollup=rollup, resilience=config
            )
        assert _tables_identical(table, baseline)
        assert rollup.count("timeout") >= 1
        assert rollup.count("retry") >= 1

    def test_pair_fanout_shares_the_machinery(self, micro_suite, micro_config):
        off_base, on_base = measure_suite_pair(micro_suite, micro_config)
        plan = FaultPlan(rules=(FaultRule(op="unit.error", match="*#a0", times=0),))
        rollup_off = MeasurementRollup()
        rollup_on = MeasurementRollup()
        with fault_plan(plan):
            off, on = measure_suite_pair(
                micro_suite,
                micro_config,
                rollup_off=rollup_off,
                rollup_on=rollup_on,
                resilience=FAST,
            )
        assert _tables_identical(off, off_base)
        assert _tables_identical(on, on_base)
        # The fan-out is shared between regimes, so its events land on
        # exactly one rollup — aggregating both must not double-count.
        assert rollup_off.count("retry") == 16
        assert rollup_on.count("retry") == 0
        assert rollup_off.count("retry") + rollup_on.count("retry") == 16


class TestResume:
    @given(kill_after=st.integers(min_value=0, max_value=14))
    @settings(max_examples=8, deadline=None)
    def test_killed_and_resumed_run_is_bit_identical(
        self, micro_suite, micro_config, baseline, kill_after
    ):
        """THE resume property: kill the run at *any* unit boundary,
        resume it, and the final table is byte-identical to a run that was
        never interrupted."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "journal.jsonl"
            plan = FaultPlan(
                rules=(FaultRule(op="run.abort", match="*", skip=kill_after),)
            )
            with fault_plan(plan):
                journal = CheckpointJournal(path, run_key="prop")
                with pytest.raises(AbortRun):
                    measure_suite(micro_suite, micro_config, journal=journal)
                journal.close()

            resumed_journal = CheckpointJournal(path, run_key="prop")
            assert resumed_journal.load() == kill_after + 1
            rollup = MeasurementRollup()
            table = measure_suite(
                micro_suite, micro_config, rollup=rollup, journal=resumed_journal
            )
            resumed_journal.close()
            assert _tables_identical(table, baseline)
            assert rollup.count("resume") == kill_after + 1
            assert "resumed from journal" in rollup.resilience_summary()

    def test_parallel_resume_matches(self, micro_suite, micro_config, baseline, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan(rules=(FaultRule(op="run.abort", match="*", skip=5),))
        with fault_plan(plan):
            journal = CheckpointJournal(path, run_key="par")
            with pytest.raises(AbortRun):
                measure_suite(micro_suite, micro_config, jobs=2, journal=journal)
            journal.close()
        resumed = CheckpointJournal(path, run_key="par")
        assert resumed.load() == 6
        table = measure_suite(micro_suite, micro_config, jobs=2, journal=resumed)
        resumed.close()
        assert _tables_identical(table, baseline)


# ---------------------------------------------------------------------------
# Cache corruption, quarantine caps, analysis poisoning.
# ---------------------------------------------------------------------------


class TestCacheFaults:
    def test_injected_corruption_self_heals(self, tmp_path, baseline):
        store = CacheStore(tmp_path)
        path = store.store("k1", baseline)
        plan = FaultPlan(
            seed=corrupting_seed(path),
            rules=(FaultRule(op="cache.corrupt", match="k1"),),
        )
        with fault_plan(plan):
            assert store.load("k1") is None  # corrupt -> quarantined miss
        assert len(store.quarantined()) == 1
        store.store("k1", baseline)  # the re-measure path heals the store
        healed = store.load("k1")
        assert healed is not None
        assert healed.measured.tobytes() == baseline.measured.tobytes()

    def test_end_to_end_reload_despite_corruption(
        self, tmp_path, micro_suite, micro_config, baseline
    ):
        key = config_key(11, 1.0, micro_config)
        store = CacheStore(tmp_path)
        path = store.store(key, baseline)
        plan = FaultPlan(
            seed=corrupting_seed(path),
            rules=(FaultRule(op="cache.corrupt", match=key),),
        )
        with fault_plan(plan):
            table = cached_measurements(
                micro_suite, 11, 1.0, micro_config, cache_dir=tmp_path
            )
        assert table.measured.tobytes() == baseline.measured.tobytes()
        assert store.load(key) is not None  # re-written after the heal


class TestQuarantineCap:
    def _tombstone(self, root: Path, name: str, age_s: float = 0.0) -> Path:
        path = root / f"measurements_{name}.npz.corrupt"
        path.write_bytes(b"tombstone")
        if age_s:
            past = time.time() - age_s
            os.utime(path, (past, past))
        return path

    def test_count_cap_keeps_newest(self, tmp_path, baseline):
        store = CacheStore(tmp_path, quarantine_cap=2)
        for i in range(5):
            self._tombstone(tmp_path, f"q{i}", age_s=(5 - i) * 60.0)
        store.store("live", baseline)  # prune rides on the write
        survivors = {p.name for p in store.quarantined()}
        assert survivors == {
            "measurements_q3.npz.corrupt",
            "measurements_q4.npz.corrupt",
        }

    def test_age_cap_applies_below_count_cap(self, tmp_path, baseline):
        store = CacheStore(tmp_path, quarantine_cap=16, quarantine_max_age_s=3600.0)
        old = self._tombstone(tmp_path, "old", age_s=7200.0)
        fresh = self._tombstone(tmp_path, "fresh")
        store.store("live", baseline)
        assert not old.exists()
        assert fresh.exists()

    def test_prune_is_directly_callable(self, tmp_path):
        store = CacheStore(tmp_path, quarantine_cap=1)
        self._tombstone(tmp_path, "a", age_s=120.0)
        self._tombstone(tmp_path, "b")
        removed = store.prune_quarantined()
        assert [p.name for p in removed] == ["measurements_a.npz.corrupt"]

    def test_stats_surface_the_cap(self, tmp_path):
        store = CacheStore(tmp_path, quarantine_cap=4)
        stats = store.stats()
        assert stats.quarantine_cap == 4
        assert "(cap 4)" in stats.summary()
