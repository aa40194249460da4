"""Tests for trace consumers and reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CACHE2, CacheConfig, SetAssocCache
from repro.cache.reuse import COLD, ReuseDistanceAnalyzer, reuse_profile
from repro.errors import ExecutionError
from repro.exec.blocktrace import AccessBlock
from repro.exec.trace import (
    AccessCounter,
    CacheFeed,
    StrideHistogram,
    record_trace,
    replay,
)
from repro.suite import get_entry, matmul


def feed(analyzer, addresses):
    """Hand ``addresses`` to the analyzer as one block."""
    n = len(addresses)
    analyzer.on_block(
        AccessBlock(
            np.asarray(addresses, dtype=np.int64),
            np.full(n, 8, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64),
        )
    )
    return analyzer.profile


class TestConsumers:
    def test_access_counter(self):
        counter = AccessCounter()
        trace = record_trace(matmul(4, "IJK"))
        for event in trace.events:
            counter(*event)
        assert counter.total == 4 ** 3 * 4
        assert counter.writes == 4 ** 3
        assert counter.reads == 4 ** 3 * 3

    def test_record_and_replay_matches_direct(self):
        program = matmul(8, "JKI")
        trace = record_trace(program)
        replayed = replay(trace, CACHE2)
        feed = CacheFeed(CACHE2)
        for event in trace.events:
            feed(*event)
        assert replayed.hits == feed.stats.hits
        assert replayed.misses == feed.stats.misses

    def test_stride_histogram_distinguishes_orders(self):
        good = StrideHistogram()
        for event in record_trace(matmul(8, "JKI")).events:
            good(*event)
        bad = StrideHistogram()
        for event in record_trace(matmul(8, "IKJ")).events:
            bad(*event)
        assert good.unit_fraction() > bad.unit_fraction()

    def test_stride_top(self):
        h = StrideHistogram()
        for addr in (0, 8, 16, 24, 1024):
            h(addr, False, 0)
        assert h.top(1)[0] == (8, 3)


class TestReuseDistance:
    def test_simple_sequence(self):
        # lines: A B A -> A cold, B cold, A reuse distance 1 (only B between)
        hist = feed(ReuseDistanceAnalyzer(line=8), [0, 8, 0]).histogram
        assert hist[COLD] == 2
        assert hist[1] == 1

    def test_immediate_reuse_distance_zero(self):
        assert feed(ReuseDistanceAnalyzer(line=8), [0, 0]).histogram[0] == 1

    def test_line_granularity(self):
        # 0 and 8 share a 16-byte line: distance 0
        assert feed(ReuseDistanceAnalyzer(line=16), [0, 8]).histogram[0] == 1

    def test_hits_for_capacity_monotone(self):
        profile = reuse_profile(matmul(8, "IJK"), line=32)
        hits = [profile.hits_for_capacity(c) for c in (1, 4, 16, 64, 256)]
        assert hits == sorted(hits)

    def test_memory_order_shifts_profile_left(self):
        good = reuse_profile(matmul(12, "JKI"), line=32)
        bad = reuse_profile(matmul(12, "IKJ"), line=32)
        # At a small capacity, the memory-order trace hits more.
        assert good.hit_rate_for_capacity(64) > bad.hit_rate_for_capacity(64)

    def test_percentile(self):
        profile = feed(ReuseDistanceAnalyzer(line=8), [0, 8, 0, 8, 0, 8])
        # All warm reuses have distance 1.
        assert profile.percentile(0.9) == 1

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            ReuseDistanceAnalyzer(line=24)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=300), st.sampled_from([1, 2, 4, 8]))
    def test_mattson_equivalence(self, lines, capacity):
        """hits(fully-assoc LRU, capacity C) == reuses with distance < C."""
        cache = SetAssocCache(
            CacheConfig("fa", size=16 * capacity, assoc=capacity, line=16)
        )
        for line in lines:
            cache.access(line * 16)
        profile = feed(ReuseDistanceAnalyzer(line=16), [line * 16 for line in lines])
        assert cache.stats.hits == profile.hits_for_capacity(capacity)

    def test_program_level_mattson(self):
        profile = reuse_profile(matmul(10, "JKI"), line=32)
        capacity = 32  # lines
        cache = SetAssocCache(
            CacheConfig("fa", size=32 * capacity, assoc=capacity, line=32)
        )
        trace = record_trace(matmul(10, "JKI"))
        for address, write, _ in trace.events:
            cache.access(address, 8, write)
        # elem accesses can straddle? 8 <= 32 and aligned: no straddling.
        assert cache.stats.hits == profile.hits_for_capacity(capacity)

    def test_blocks_share_state(self):
        # A run of one line and a reuse that span a block boundary.
        analyzer = ReuseDistanceAnalyzer(line=8)
        feed(analyzer, [0, 8])
        profile = feed(analyzer, [8, 16, 0])
        assert dict(profile.histogram) == {COLD: 3, 0: 1, 2: 1}
        assert profile.accesses == 5

    def test_trace_outgrows_initial_tree(self):
        # 20000 distinct lines, then the same lines in reverse: the k-th
        # reuse has k lines between it and its previous touch. Far more
        # timestamps than the tree's initial size.
        lines = list(range(20000))
        profile = feed(ReuseDistanceAnalyzer(line=8), [8 * x for x in lines + lines[::-1]])
        assert dict(profile.histogram) == {COLD: 20000} | {k: 1 for k in range(20000)}

    def test_trace_past_max_accesses_raises(self):
        # matmul(32) issues 4 * 32**3 = 131072 accesses.
        with pytest.raises(ExecutionError, match="max_accesses=40000"):
            reuse_profile(get_entry("matmul").program(32), line=8, max_accesses=40000)
        assert reuse_profile(
            get_entry("matmul").program(32), line=8, max_accesses=4 * 32**3
        ).accesses == 4 * 32**3
