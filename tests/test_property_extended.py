"""Extended property-based tests: pipeliner legality, pass idempotence,
frontend round-trips, and noise statistics on randomised inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.dependence import analyze_dependences, edge_latency
from repro.ir.interp import initial_state, run_loop
from repro.ir.validate import validate_loop
from repro.machine import ITANIUM2, NARROW
from repro.sched.modulo import ModuloScheduleError, modulo_schedule, recurrence_mii, resource_mii
from repro.transforms.coalesce import coalesce_loads
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.scalar_replacement import scalar_replace
from repro.transforms.unroll import unroll

# Reuse the random loop strategy shared via conftest.
from tests.strategies import random_loops


class TestModuloScheduleProperties:
    @given(loop=random_loops(), factor=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_kernel_respects_modulo_constraints(self, loop, factor):
        part = unroll(loop, factor).main
        if part is None or not part.swp_eligible:
            return
        deps = analyze_dependences(part)
        try:
            kernel = modulo_schedule(deps, ITANIUM2)
        except ModuloScheduleError:
            return  # budget exhausted is acceptable; wrongness is not
        for edge in deps.edges:
            lat = edge_latency(edge, deps.body, ITANIUM2)
            assert (
                kernel.start[edge.dst] + kernel.ii * edge.distance
                >= kernel.start[edge.src] + lat
            )

    @given(loop=random_loops())
    @settings(max_examples=30, deadline=None)
    def test_ii_at_least_both_lower_bounds(self, loop):
        if not loop.swp_eligible:
            return
        deps = analyze_dependences(loop)
        try:
            kernel = modulo_schedule(deps, ITANIUM2)
        except ModuloScheduleError:
            return
        assert kernel.ii >= recurrence_mii(deps, ITANIUM2)
        assert kernel.ii + 1e-9 >= resource_mii(deps, ITANIUM2)

    @given(loop=random_loops())
    @settings(max_examples=20, deadline=None)
    def test_narrow_machine_never_beats_wide_on_bounds(self, loop):
        deps = analyze_dependences(loop)
        assert resource_mii(deps, NARROW) >= resource_mii(deps, ITANIUM2) - 1e-9


class TestPassProperties:
    @given(loop=random_loops(), factor=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_scalar_replacement_is_idempotent(self, loop, factor):
        main = unroll(loop, factor).main
        if main is None:
            return
        once = scalar_replace(main)
        twice = scalar_replace(once)
        assert [i.op for i in twice.body] == [i.op for i in once.body]

    @given(loop=random_loops(), factor=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_coalescing_is_idempotent_and_valid(self, loop, factor):
        main = unroll(loop, factor).main
        if main is None:
            return
        once = coalesce_loads(main)
        validate_loop(once)
        twice = coalesce_loads(once)
        assert [i.op for i in twice.body] == [i.op for i in once.body]

    @given(loop=random_loops())
    @settings(max_examples=30, deadline=None)
    def test_dce_is_idempotent_and_semantics_preserving(self, loop):
        cleaned = eliminate_dead_code(loop)
        assert eliminate_dead_code(cleaned).size == cleaned.size
        a = initial_state(loop, seed=4)
        b = a.copy()
        run_loop(loop, a)
        run_loop(cleaned, b)
        for key, value in a.observable(loop).items():
            if key.startswith("%"):
                continue  # dead carried scalars may legitimately differ? no:
            np.testing.assert_allclose(b.observable(loop)[key], value)

    @given(loop=random_loops(), factor=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_passes_never_add_memory_traffic(self, loop, factor):
        main = unroll(loop, factor).main
        if main is None:
            return
        def mem_elements(body):
            total = 0
            for inst in body:
                if inst.op.is_memory and inst.mem is not None:
                    total += inst.mem.width
            return total

        replaced = scalar_replace(main)
        merged = coalesce_loads(replaced)
        assert mem_elements(replaced.body) <= mem_elements(main.body)
        assert mem_elements(merged.body) <= mem_elements(replaced.body) + 0


class TestFrontendRoundTripProperty:
    @given(loop=random_loops())
    @settings(max_examples=30, deadline=None)
    def test_parse_unparse_round_trip(self, loop):
        from repro.frontend import parse_loop, to_source

        rebuilt = parse_loop(to_source(loop))
        assert rebuilt.size == loop.size
        assert rebuilt.trip == loop.trip
        for a, b in zip(loop.body, rebuilt.body):
            assert a.op is b.op
            if a.mem is not None and not a.mem.indirect:
                assert a.mem.index == b.mem.index

    @given(loop=random_loops(), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_preserves_execution(self, loop, seed):
        from repro.frontend import parse_loop, to_source

        rebuilt = parse_loop(to_source(loop))
        a = initial_state(loop, seed=seed)
        b = a.copy()
        run_loop(loop, a)
        run_loop(rebuilt, b)
        for name in loop.arrays:
            np.testing.assert_allclose(b.arrays[name], a.arrays[name])


class TestNoiseStatistics:
    @given(
        sigma=st.floats(0.001, 0.1),
        cycles=st.floats(1e4, 1e8),
        entries=st.integers(1, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_median_within_noise_envelope(self, sigma, cycles, entries):
        from repro.simulate import NoiseModel

        noise = NoiseModel(sigma=sigma, outlier_rate=0.0, counter_overhead=9)
        rng = np.random.default_rng(0)
        median = noise.batch_medians(np.array([cycles]), np.array([entries]), rng, n=31)[0]
        base = cycles + entries * 9
        assert base * np.exp(-4 * sigma) <= median <= base * np.exp(4 * sigma)

    @given(sigma=st.floats(0.0, 0.05))
    @settings(max_examples=20, deadline=None)
    def test_samples_always_positive(self, sigma):
        from repro.simulate import NoiseModel

        noise = NoiseModel(sigma=sigma, outlier_rate=0.1)
        rng = np.random.default_rng(1)
        samples = noise.batch_samples(np.array([1000.0]), np.array([3]), rng, n=50)
        assert (samples > 0).all()
