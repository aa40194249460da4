"""Cycle-level performance model over the interpreter's trace.

The paper reports wall-clock seconds on 1990s hardware; we substitute a
simple timing model over the exact address trace:

    cycles = operations + load/store cycles + miss_penalty * misses

Relative comparisons between loop orders — the paper's actual claims —
are dominated by the miss term, which the cache simulator computes
exactly for the configured geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cache.cache import CacheConfig, CacheStats, SetAssocCache
from repro.cache.configs import CACHE1
from repro.ir.nodes import Program
from repro.exec.interp import Interpreter
from repro.obs import get_obs

__all__ = ["Machine", "PerfResult", "simulate"]


@dataclass(frozen=True)
class Machine:
    """A simulated machine: one data cache plus scalar cost parameters."""

    cache: CacheConfig = CACHE1
    miss_penalty: int = 16  # cycles per cache-line miss
    access_cycles: int = 1  # cycles per load/store that hits
    op_cycles: int = 1  # cycles per arithmetic operation

    @property
    def name(self) -> str:
        return self.cache.name


@dataclass
class PerfResult:
    """Outcome of one simulated run."""

    program: str
    machine: Machine
    cycles: int
    accesses: int
    operations: int
    cache: CacheStats

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate()

    def speedup_over(self, other: "PerfResult") -> float:
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles


def simulate(
    program: Program,
    machine: Machine | None = None,
    params: Mapping[str, int] | None = None,
    init=None,
    compiled: bool = True,
    engine: str = "block",
) -> PerfResult:
    """Run ``program`` against a machine model; returns timing + stats.

    With ``compiled=True`` (default) a trace compiler drives the cache —
    identical address stream, no value computation. ``engine`` selects the
    batched NumPy engine (``"block"``, the default) or the per-event one
    (``"event"``); both produce bit-identical statistics. Pass
    ``compiled=False`` (or an ``init``) to execute real arithmetic via
    the validating interpreter.
    """
    if engine not in ("block", "event"):
        raise ValueError(f"unknown trace engine {engine!r}")
    machine = machine or Machine()
    obs = get_obs()
    cache = SetAssocCache(machine.cache)

    with obs.span(
        "exec.simulate", program=program.name, machine=machine.name
    ):
        if compiled and init is None:
            if engine == "block":
                from repro.exec.blocktrace import compile_block_trace

                def on_block(block) -> None:
                    cache.access_block(block.addresses, block.sizes)

                _, operations = compile_block_trace(program, params).run(on_block)
            else:
                from repro.exec.codegen import compile_trace

                event_trace = compile_trace(program, params)
                elem = 8

                def access(address: int, write: bool, sid: int) -> None:
                    cache.access(address, elem, write)

                _, operations = event_trace.run(access)
            if obs.enabled:
                obs.metrics.counter(f"trace.engine.{engine}").inc()
        else:
            def on_access(event) -> None:
                cache.access(event.address, event.size, event.write)

            interp = Interpreter(program, params, on_access=on_access, init=init)
            interp.run()
            operations = interp.operations_executed

    stats = cache.stats
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("cache.accesses").inc(stats.accesses)
        metrics.counter("cache.misses").inc(stats.misses)
        metrics.counter("exec.simulations").inc()
    cycles = (
        operations * machine.op_cycles
        + stats.accesses * machine.access_cycles
        + stats.misses * machine.miss_penalty
    )
    return PerfResult(
        program=program.name,
        machine=machine,
        cycles=cycles,
        accesses=stats.accesses,
        operations=operations,
        cache=stats,
    )
