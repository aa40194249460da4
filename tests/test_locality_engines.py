"""The exact reuse-distance analyzer against independent references.

The main reference is independent of every trace compiler: the validating
interpreter's own access events, pushed through a list-based LRU stack
(depth of a line = number of distinct lines touched since its last use).

The class names follow the analyzers these checks were first written for
(per-reference and block-fed engines); both are now the one
``ReuseDistanceAnalyzer`` behind ``reuse_profile``.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.cache.reuse import COLD, ReuseDistanceAnalyzer, reuse_profile
from repro.errors import ExecutionError
from repro.exec import Interpreter
from repro.exec.blocktrace import AccessBlock
from repro.frontend import parse_program
from repro.seeds import seed_sequence
from repro.suite import get_entry
from repro.verify.gennest import generate_program

KERNELS = [("matmul", 16), ("jacobi", 25), ("transpose", 24), ("cholesky", 17)]

LINES = (8, 32, 64)


def interpreter_addresses(program, init=None) -> list[int]:
    addresses: list[int] = []
    Interpreter(
        program, on_access=lambda event: addresses.append(event.address), init=init
    ).run()
    return addresses


def lru_stack_histogram(addresses: list[int], line: int) -> Counter:
    stack: list[int] = []  # most recent first
    histogram: Counter = Counter()
    for address in addresses:
        key = address // line
        try:
            depth = stack.index(key)
        except ValueError:
            histogram[COLD] += 1
        else:
            histogram[depth] += 1
            del stack[depth]
        stack.insert(0, key)
    return histogram


def assert_matches_lru_stack(program, init=None) -> None:
    addresses = interpreter_addresses(program, init)
    for line in LINES:
        profile = reuse_profile(program, line=line)
        assert profile.accesses == len(addresses), line
        assert dict(profile.histogram) == dict(lru_stack_histogram(addresses, line)), line


def one_access_blocks(addresses: list[int]):
    """Each address as its own one-access block."""
    for address in addresses:
        yield AccessBlock(
            np.array([address], dtype=np.int64),
            np.array([8], dtype=np.int64),
            np.zeros(1, dtype=bool),
            np.zeros(1, dtype=np.int64),
        )


class TestPerRefEngine:
    @pytest.mark.parametrize("name,n", KERNELS)
    def test_aggregate_matches_reference_analyzer(self, name, n):
        entry = get_entry(name)
        assert_matches_lru_stack(entry.program(n), entry.init)

    @pytest.mark.parametrize("name,n", KERNELS)
    def test_per_slot_mass_sums_to_accesses(self, name, n):
        entry = get_entry(name)
        program = entry.program(n)
        profile = reuse_profile(program, line=32)
        assert profile.accesses == len(interpreter_addresses(program, entry.init))
        assert sum(profile.histogram.values()) == profile.accesses


class TestBlockEngine:
    @pytest.mark.parametrize("name,n", KERNELS)
    def test_unsampled_is_bit_identical(self, name, n):
        # The compiled block trace, with its runs collapsed per block, gives
        # the same histogram as the interpreter's accesses one block apiece.
        entry = get_entry(name)
        program = entry.program(n)
        batched = reuse_profile(program, line=64)
        analyzer = ReuseDistanceAnalyzer(line=64)
        for block in one_access_blocks(interpreter_addresses(program, entry.init)):
            analyzer.on_block(block)
        assert dict(batched.histogram) == dict(analyzer.profile.histogram)
        assert batched.accesses == analyzer.profile.accesses

    def test_rejects_bad_parameters(self):
        source = parse_program(
            "PROGRAM p\nREAL A(8)\nDO I = 1, 8\nA(I) = 0.0\nENDDO\nEND"
        )
        with pytest.raises(ValueError):
            reuse_profile(source, line=48)  # not a power of two
        with pytest.raises(ExecutionError, match="max_accesses=4"):
            reuse_profile(source, line=64, max_accesses=4)  # 8 accesses


class TestExactAnalyzer:
    @pytest.mark.parametrize("seed", seed_sequence(4, "locality-engines"))
    def test_random_nests_match_lru_stack(self, seed):
        assert_matches_lru_stack(
            generate_program(random.Random(seed), name=f"LE{seed}")
        )
