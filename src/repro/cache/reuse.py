"""Exact reuse-distance (LRU stack distance) analysis.

The reuse distance of an access is the number of *distinct* cache lines
touched since the previous access to the same line (infinite for cold
accesses). It characterizes locality independently of any particular
cache size: a fully associative LRU cache of capacity C hits exactly the
accesses with reuse distance < C. That equivalence is the classic Mattson
stack-distance result, and the test suite checks it against the cache
simulator directly.

The analyzer consumes the batched block trace
(:mod:`repro.exec.blocktrace`). A run of adjacent accesses to one line is
a run of distance-0 reuses, collapsed with NumPy; every other access
queries an order-statistics structure (a Fenwick tree over the timestamp
of each line's latest access) in O(log n). The tree starts small and
doubles as the clock passes its size, so memory follows the trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.ir.nodes import Program

__all__ = ["ReuseProfile", "ReuseDistanceAnalyzer", "reuse_profile"]

#: Distance bucket used for cold (first-touch) accesses.
COLD = -1

#: Default limit on the accesses one analyzer takes.
MAX_ACCESSES = 1 << 25

#: Initial Fenwick tree size (a power of two; doubled on demand).
_INITIAL_TREE = 1 << 12


@dataclass
class ReuseProfile:
    """Histogram of reuse distances (line granularity)."""

    histogram: Counter = field(default_factory=Counter)
    accesses: int = 0

    @property
    def cold(self) -> int:
        return self.histogram.get(COLD, 0)

    def hits_for_capacity(self, lines: int) -> int:
        """Accesses a fully-associative LRU cache of that many lines hits."""
        return sum(
            count
            for distance, count in self.histogram.items()
            if distance != COLD and distance < lines
        )

    def hit_rate_for_capacity(self, lines: int, include_cold: bool = False) -> float:
        denom = self.accesses if include_cold else self.accesses - self.cold
        if denom <= 0:
            return 1.0
        return self.hits_for_capacity(lines) / denom

    def percentile(self, fraction: float) -> int:
        """Smallest distance d such that >= fraction of (warm) reuses have
        distance <= d; the 'working set knee'."""
        warm = self.accesses - self.cold
        if warm <= 0:
            return 0
        target = warm * fraction
        running = 0
        for distance in sorted(d for d in self.histogram if d != COLD):
            running += self.histogram[distance]
            if running >= target:
                return distance
        return max((d for d in self.histogram if d != COLD), default=0)


class ReuseDistanceAnalyzer:
    """Streaming exact reuse distances over :class:`AccessBlock`\\ s.

    ``max_accesses`` bounds the trace length: a block that would take the
    total past it raises :class:`~repro.errors.ExecutionError`.
    """

    def __init__(self, line: int = 128, max_accesses: int = MAX_ACCESSES):
        if line & (line - 1):
            raise ValueError("line size must be a power of two")
        self._shift = line.bit_length() - 1
        self.max_accesses = max_accesses
        self.profile = ReuseProfile()
        self._last_line: int | None = None
        self._last_time: dict[int, int] = {}
        self._clock = 0
        # 1-based Fenwick tree over timestamps 0..size-1; a timestamp is
        # live while it is its line's latest access.
        self._tree = [0] * (_INITIAL_TREE + 1)

    def on_block(self, block) -> None:
        lines = block.addresses >> self._shift
        n = int(lines.shape[0])
        if n == 0:
            return
        if self.profile.accesses + n > self.max_accesses:
            raise ExecutionError(
                f"trace exceeds max_accesses={self.max_accesses}; "
                "raise the limit to profile it"
            )
        self.profile.accesses += n
        # Runs of one line: every repeat is a distance-0 reuse.
        starts = np.empty(n, dtype=bool)
        starts[0] = int(lines[0]) != self._last_line
        np.not_equal(lines[1:], lines[:-1], out=starts[1:])
        runs = lines[starts].tolist()
        if n > len(runs):
            self.profile.histogram[0] += n - len(runs)
        self._last_line = int(lines[-1])
        self._consume(runs)

    def _consume(self, lines: list[int]) -> None:
        last_time = self._last_time
        tree = self._tree
        size = len(tree) - 1
        clock = self._clock
        distances = []
        for line in lines:
            if clock == size:
                # tree[2n] covers all of 1..2n; n+1..2n-1 hold no stamps yet.
                tree.extend([0] * size)
                tree[2 * size] = tree[size]
                size *= 2
            previous = last_time.get(line)
            if previous is None:
                distances.append(COLD)
            else:
                # Every live stamp is below the clock, so the lines touched
                # since ``previous`` are the live stamps above it.
                i = previous + 1
                below = 0
                while i:
                    below += tree[i]
                    i &= i - 1
                distances.append(len(last_time) - below)
                i = previous + 1
                while i <= size:
                    tree[i] -= 1
                    i += i & -i
            i = clock + 1
            while i <= size:
                tree[i] += 1
                i += i & -i
            last_time[line] = clock
            clock += 1
        self._clock = clock
        self.profile.histogram.update(distances)


def reuse_profile(
    program: Program, line: int = 128, params=None, max_accesses: int = MAX_ACCESSES
) -> ReuseProfile:
    """Reuse-distance profile of a program's block trace.

    Raises :class:`~repro.errors.ExecutionError` when the trace is longer
    than ``max_accesses``.
    """
    from repro.exec.blocktrace import compile_block_trace

    analyzer = ReuseDistanceAnalyzer(line=line, max_accesses=max_accesses)
    compile_block_trace(program, params).run(analyzer)
    return analyzer.profile
