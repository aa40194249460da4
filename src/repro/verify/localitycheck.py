"""Differential oracle: analytic locality prediction vs the exact trace.

Fourth stage of the verify hierarchy (after dependence coverage,
execution equivalence, and cache-engine equivalence): for every fuzzed
nest, the trace-derived reuse-distance histogram is compared against
:func:`repro.locality.analytic.predict_locality` at element granularity
(``line=8``):

* the exact analyzer must agree with an independent algorithm, a fully
  associative LRU cache replaying the same block trace: by Mattson's
  inclusion property, accesses, cold misses and hits must be equal at
  every probed capacity (``ENGINE_CAPACITIES``);
* predicted access counts must equal traced counts, and the predicted
  histogram's mass must equal the access count (both hold by
  construction — a violation is a bug, not model error);
* when the predictor claims the **exact** path, the predicted histogram
  must equal the traced histogram exactly;
* on the model path, the traced hit rate at each probed capacity must
  lie inside a predicted envelope: between the predicted rate at half
  the capacity and at twice the capacity, widened by an additive bound.
  The factor-two slack absorbs boundary quantization (the model's
  footprint distances are full-window estimates; real reuses land
  spread just below them), while still catching structural blunders —
  a predictor that calls everything a hit, or everything cold, fails
  at both ends of the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import CacheConfig, SetAssocCache
from repro.cache.reuse import reuse_profile
from repro.exec.blocktrace import compile_block_trace
from repro.ir.nodes import Program
from repro.locality.analytic import predict_locality

__all__ = [
    "ENGINE_CAPACITIES",
    "LocalityMismatch",
    "MODEL_RATE_BOUND",
    "check_locality",
]

#: Element-granularity line size used by the oracle.
ORACLE_LINE = 8

#: FA-LRU capacities (in lines) the analyzer is replayed against.
ENGINE_CAPACITIES = (1, 16, 256)

#: FA-LRU capacities (in lines) probed on the model path.
MODEL_CAPACITIES = (16, 256)

#: Additive widening of the model-path hit-rate envelope.
MODEL_RATE_BOUND = 0.25


@dataclass(frozen=True)
class LocalityMismatch:
    """First divergence between prediction and trace for one program."""

    where: str  # "engines" | "accesses" | "mass" | "exact" | "model"
    path: str  # "exact" | "model"
    detail: str


def _first_histogram_diff(a, b) -> str:
    keys = sorted(set(a) | set(b), key=lambda k: (k != -1, k))
    for key in keys:
        if a.get(key, 0) != b.get(key, 0):
            label = "cold" if key == -1 else f"d={key}"
            return f"{label}: predicted {a.get(key, 0)} != traced {b.get(key, 0)}"
    return "histograms identical"


def _replay_counts(program: Program, line: int) -> list[tuple[int, int, int]]:
    """(accesses, cold misses, hits) of FA-LRU caches over the block trace."""
    caches = [
        SetAssocCache(CacheConfig(f"fa{lines}", size=line * lines, assoc=lines, line=line))
        for lines in ENGINE_CAPACITIES
    ]

    def on_block(block) -> None:
        for cache in caches:
            cache.access_block(block.addresses)

    compile_block_trace(program).run(on_block)
    return [(c.stats.accesses, c.stats.cold_misses, c.stats.hits) for c in caches]


def check_locality(
    program: Program, line: int = ORACLE_LINE
) -> LocalityMismatch | None:
    """Run the full locality oracle on one program; None when clean."""
    trace = reuse_profile(program, line=line)

    replays = _replay_counts(program, line)
    for lines, replay in zip(ENGINE_CAPACITIES, replays):
        counts = (trace.accesses, trace.cold, trace.hits_for_capacity(lines))
        if counts != replay:
            return LocalityMismatch(
                "engines",
                "-",
                f"{lines}-line FA-LRU replay (accesses, cold, hits) {replay} "
                f"!= reuse profile {counts}",
            )

    prediction = predict_locality(program, line=line)
    path = "exact" if prediction.exact else "model"
    if prediction.accesses != trace.accesses:
        return LocalityMismatch(
            "accesses",
            path,
            f"predicted {prediction.accesses} accesses, traced {trace.accesses}",
        )
    predicted = prediction.predicted_histogram()
    mass = sum(predicted.values())
    if mass != prediction.accesses:
        return LocalityMismatch(
            "mass",
            path,
            f"histogram mass {mass} != access count {prediction.accesses}",
        )

    if prediction.exact:
        if predicted != trace.histogram:
            return LocalityMismatch(
                "exact",
                path,
                _first_histogram_diff(predicted, trace.histogram),
            )
        return None

    if trace.accesses == 0:
        return None
    for capacity in MODEL_CAPACITIES:
        lo = prediction.hit_rate_for_capacity(capacity // 2, include_cold=True)
        hi = prediction.hit_rate_for_capacity(capacity * 2, include_cold=True)
        want = trace.hit_rate_for_capacity(capacity, include_cold=True)
        if not (lo - MODEL_RATE_BOUND <= want <= hi + MODEL_RATE_BOUND):
            return LocalityMismatch(
                "model",
                path,
                f"hit rate at {capacity} lines: traced {want:.3f} outside "
                f"predicted envelope [{lo:.3f}, {hi:.3f}] "
                f"(+-{MODEL_RATE_BOUND})",
            )
    return None
