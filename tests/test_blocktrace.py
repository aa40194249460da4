"""Batched trace engine and vectorized cache path: equivalence tests.

The batched engine exists purely for speed; every test here pins the
invariant that makes it safe to use by default — bit-identical behaviour
with the event-by-event reference path at every layer (raw cache state,
hierarchy cascades, trace streams, experiment hit rates, and the sharded
experiment runner).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CACHE2, CacheConfig, Hierarchy, SetAssocCache
from repro.exec import (
    Interpreter,
    block_events,
    compile_block_trace,
    run_program,
    simulate,
)
from repro.exec.blocktrace import AccessBlock
from repro.experiments import table3_perf, table4_hitrates
from repro.experiments.common import changed_sids, dual_hit_rates, resolve_jobs
from repro.frontend import parse_program
from repro.model import CostModel
from repro.suite import suite_entries
from repro.transforms import compound


def geometry(assoc: int, sets: int, line: int = 16) -> CacheConfig:
    return CacheConfig(
        f"g{assoc}x{sets}", size=line * assoc * sets, assoc=assoc, line=line
    )


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.cold_misses, stats.conflict_misses)


# ----------------------------------------------------------------------
# SetAssocCache.access_block == repeated access(), bit for bit
# ----------------------------------------------------------------------
class TestAccessBlockEquivalence:
    @given(
        assoc=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 4, 7]),
        addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=200),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_random_streams(self, assoc, sets, addresses, data):
        config = geometry(assoc, sets)
        sizes = data.draw(
            st.lists(
                st.integers(1, 40),
                min_size=len(addresses),
                max_size=len(addresses),
            )
        )
        scalar = SetAssocCache(config)
        batched = SetAssocCache(config)
        for address, size in zip(addresses, sizes):
            scalar.access(address, size)
        # Feed the batched cache in irregular chunks to exercise block
        # boundaries and interleaving with pre-existing state.
        arr = np.array(addresses, dtype=np.int64)
        size_arr = np.array(sizes, dtype=np.int64)
        hits = []
        for start in range(0, len(addresses), 37):
            result = batched.access_block(
                arr[start : start + 37], size_arr[start : start + 37]
            )
            hits.extend(result.hits.tolist())
        assert stats_tuple(batched.stats) == stats_tuple(scalar.stats)
        # Per-access hit flags must match a scalar replay as well.
        replay = SetAssocCache(config)
        expected = [
            replay.access(address, size)
            for address, size in zip(addresses, sizes)
        ]
        assert hits == expected

    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=150))
    @settings(deadline=None, max_examples=40)
    def test_cold_miss_classification(self, addresses):
        # Cold misses depend on global first-touch history; run the same
        # stream twice so the second pass has no cold misses at all.
        config = geometry(2, 4)
        scalar = SetAssocCache(config)
        batched = SetAssocCache(config)
        arr = np.array(addresses, dtype=np.int64)
        for _ in range(2):
            for address in addresses:
                scalar.access(address, 1)
            batched.access_block(arr, 1)
            assert stats_tuple(batched.stats) == stats_tuple(scalar.stats)

    def test_empty_block(self):
        cache = SetAssocCache(geometry(2, 4))
        result = cache.access_block(np.empty(0, dtype=np.int64))
        assert len(result) == 0
        assert cache.stats.accesses == 0


class TestHierarchyBlockEquivalence:
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=200))
    @settings(deadline=None, max_examples=40)
    def test_levels_and_tlb(self, addresses):
        def build():
            return Hierarchy(
                [geometry(1, 4, line=32), geometry(2, 8, line=32)],
                tlb=CacheConfig("t", size=4 * 4096, assoc=4, line=4096),
            )

        scalar = build()
        batched = build()
        expected = [scalar.access(address, 8) for address in addresses]
        levels = batched.access_block(
            np.array(addresses, dtype=np.int64), 8
        )
        assert levels.tolist() == expected
        a, b = scalar.result, batched.result
        assert a.tlb is not None and b.tlb is not None
        assert stats_tuple(a.tlb) == stats_tuple(b.tlb)
        for name in a.levels:
            assert stats_tuple(a.levels[name]) == stats_tuple(b.levels[name])


# ----------------------------------------------------------------------
# Block trace stream == interpreter event stream, on every suite kernel
# ----------------------------------------------------------------------
class TestBlockTraceStream:
    def test_every_suite_kernel_matches_interpreter(self):
        for entry in suite_entries():
            program = entry.program(8)
            recorded = []
            run_program(
                program,
                on_access=lambda e: recorded.append(
                    (e.address, e.size, e.write, e.sid)
                ),
                init=entry.init,
            )
            assert block_events(program) == recorded, entry.name

    def test_every_suite_kernel_compiles_batched(self):
        # The default engine must never silently fall back on the suite.
        for entry in suite_entries():
            compile_block_trace(entry.program(8))

    def test_block_coalescing_respects_block_size(self):
        program = parse_program(
            """
            PROGRAM p
            REAL A(64,64)
            DO J = 1, 64
              DO I = 1, 64
                A(I,J) = A(I,J) + 1.0
              ENDDO
            ENDDO
            END
            """
        )
        blocks: list[AccessBlock] = []
        trace = compile_block_trace(program, block_size=256)
        trace.run(blocks.append)
        assert sum(len(b) for b in blocks) == 2 * 64 * 64
        assert all(len(b) >= 256 for b in blocks[:-1])

    def test_counters_match_event_engine(self):
        from repro.exec.codegen import compile_trace

        for entry in list(suite_entries())[:5]:
            program = entry.program(8)
            count_b, ops_b = compile_block_trace(program).run(lambda b: None)
            count_e, ops_e = compile_trace(program).run(lambda a, w, s: None)
            assert (count_b, ops_b) == (count_e, ops_e), entry.name


# ----------------------------------------------------------------------
# Engine selection and end-to-end equality
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_simulate_rejects_unknown_engine(self):
        program = next(iter(suite_entries())).program(4)
        with pytest.raises(ValueError, match="turbo"):
            simulate(program, engine="turbo")

    def test_simulate_engines_identical(self):
        for entry in list(suite_entries())[:6]:
            program = entry.program(12)
            a = simulate(program, engine="block")
            b = simulate(program, engine="event")
            assert stats_tuple(a.cache) == stats_tuple(b.cache), entry.name
            assert (a.cycles, a.operations) == (b.cycles, b.operations)

    def test_dual_hit_rates_engines_identical(self):
        # Reference: the interpreter's events through a scalar cache, the
        # focus statements tallied per access.
        def reference(program, focus, init):
            cache = SetAssocCache(CACHE2)
            total = hits = cold = 0

            def on_access(event):
                nonlocal total, hits, cold
                before = cache.stats.cold_misses
                hit = cache.access(event.address, event.size, event.write)
                if event.sid in focus:
                    total += 1
                    hits += hit
                    cold += cache.stats.cold_misses - before

            Interpreter(program, on_access=on_access, init=init).run()
            focus_rate = hits / (total - cold) if total > cold else 1.0
            return cache.stats.hit_rate(), focus_rate

        for entry in list(suite_entries())[:4]:
            program = entry.program(12)
            final = compound(program, CostModel(cls=4)).program
            focus = changed_sids(program, final)
            for version in (program, final):
                assert dual_hit_rates(version, CACHE2, focus) == reference(
                    version, focus, entry.init
                ), entry.name


# ----------------------------------------------------------------------
# Sharded experiment runner
# ----------------------------------------------------------------------
class TestParallelRunner:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_table3_sharded_identical(self):
        names = tuple(e.name for e in list(suite_entries())[:4])
        serial = table3_perf.run(scale=0.3, names=names)
        sharded = table3_perf.run(scale=0.3, names=names, jobs=2)
        assert [
            (r.name, r.original_cycles, r.transformed_cycles)
            for r in serial.rows
        ] == [
            (r.name, r.original_cycles, r.transformed_cycles)
            for r in sharded.rows
        ]

    def test_table4_sharded_identical(self):
        names = tuple(e.name for e in list(suite_entries())[:4])
        serial = table4_hitrates.run(scale=0.3, names=names)
        sharded = table4_hitrates.run(scale=0.3, names=names, jobs=2)
        assert [
            (r.name, r.whole, r.opt, r.optimized_statements)
            for r in serial.rows
        ] == [
            (r.name, r.whole, r.opt, r.optimized_statements)
            for r in sharded.rows
        ]

    def test_sharded_merges_worker_observability(self):
        from repro.obs import Obs, use_obs

        names = tuple(e.name for e in list(suite_entries())[:3])
        with use_obs(Obs()) as obs:
            table4_hitrates.run(scale=0.3, names=names, jobs=2)
            counters = obs.metrics.snapshot()["counters"]
        assert counters.get("experiment.shards") == len(names)
        assert counters.get("trace.engine.block", 0) > 0


# ----------------------------------------------------------------------
# Memoization caches
# ----------------------------------------------------------------------
class TestMemoCaches:
    def test_pair_cache_identical_results_and_counters(self):
        from repro.dependence import tests as dep_tests
        from repro.obs import Obs, use_obs
        from repro.suite import cholesky

        program = cholesky(10, "KIJ")

        def run_once():
            from repro.dependence.pairs import region_dependences

            with use_obs(Obs()) as obs:
                deps = region_dependences(program.top_loops[0], include_inputs=True)
                counters = obs.metrics.snapshot()["counters"]
            return deps, counters

        dep_tests._PAIR_CACHE.clear()
        cold_deps, cold_counters = run_once()
        warm_deps, warm_counters = run_once()
        assert warm_deps == cold_deps
        # Kind counters replay exactly on cache hits.
        for key in ("dep.pairs", "dep.test.ziv", "dep.test.siv", "dep.test.miv"):
            assert warm_counters.get(key, 0) == cold_counters.get(key, 0), key
        # Warm run: every pair is cached (duplicate pairs hit even cold).
        assert warm_counters.get("dep.cache.misses", 0) == 0
        assert warm_counters["dep.cache.hits"] == (
            cold_counters["dep.cache.hits"] + cold_counters["dep.cache.misses"]
        )

    def test_nest_info_structural_reuse_keeps_caller_loops(self):
        from repro.suite import matmul

        model = CostModel()
        first = matmul(12, "IJK").top_loops[0]
        second = matmul(12, "IJK").top_loops[0]
        assert first == second and first is not second
        info1 = model.nest_info(first)
        info2 = model.nest_info(second)
        # The expensive dependence set is shared...
        assert info2.deps is info1.deps
        # ...but loops/chains belong to the tree that was asked about,
        # because several consumers compare them by identity.
        assert all(a is b for a, b in zip(info2.loops, second.perfect_nest_loops()))
        sid = second.statements[0].sid
        assert all(l1 is l2 for l1, l2 in zip(info2.chains[sid], info2.loops))

    def test_loop_cost_cache_consistent(self):
        from repro.suite import matmul

        nest = matmul(12, "IJK").top_loops[0]
        fresh = CostModel()
        cached = CostModel()
        for var in ("I", "J", "K"):
            cold = cached.loop_cost(nest, var)
            warm = cached.loop_cost(nest, var)
            assert cold is warm  # memoized value
            assert warm.magnitude() == fresh.loop_cost(nest, var).magnitude()

    def test_compound_unaffected_by_warm_caches(self):
        for entry in list(suite_entries())[:6]:
            program = entry.program(10)
            first = compound(program, CostModel(cls=4)).program
            second = compound(program, CostModel(cls=4)).program
            assert first == second, entry.name
