"""The in-process workloads: ``compile``, ``simulate`` and ``validate``.

Each workload turns the seed into a list of op keys and runs one op per
key through the public API. Every call into the program goes through a
module attribute (``transforms.compound(...)``), so the traced run's
wrappers see the benchmark's calls as well as the program's own.

The reference used by each output check is independent of the path it
checks: the interpreter for compiled code, an interpreter-driven cache
for the block engine, and a fully associative cache replay for the
reuse-distance profile.
"""

from __future__ import annotations

import math

import repro.cache.cache as cache
import repro.cache.reuse as reuse
import repro.exec.blocktrace as blocktrace
import repro.exec.interp as interp
import repro.exec.timing as timing
import repro.frontend as frontend
import repro.ir as ir
import repro.locality as locality
import repro.transforms as transforms
from repro.errors import ExecutionError
from repro.experiments.common import MACHINE1, MACHINE2
from repro.experiments.table3_perf import problem_size
from repro.experiments.table4_analytic import FA_CONFIGS
from repro.model import CostModel
from repro.model.memo import registered_caches
from repro.suite import get_set

#: Cost-model line size in elements and the predictor's geometry
#: (128-byte lines, 512 of them), as the CLI and the suite runner use.
CLS = 4
LINE = 128
CAPACITY = 512
MACHINES = {"m1": MACHINE1, "m2": MACHINE2}
#: Ops checked against a reference per run (simulate uses a budget).
CHECKS = 4


def clear_memo_caches() -> None:
    for memo in registered_caches().values():
        memo.clear()


def original_sources(programs: dict) -> dict[str, str]:
    """Source text of each ``(name, "orig")`` program, for the CLI sample."""
    return {
        name: ir.pretty_program(program)
        for (name, version), program in programs.items()
        if version == "orig"
    }


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class CompileWorkload:
    """All programs of the ``all`` set at ``medium``, compiled one-shot."""

    name = "compile"
    strata = 1  # a pass is short; a round is one whole pass

    def prepare(self) -> None:
        self.entries = {e.name: e for e in get_set("all").entries()}
        self.sources = {
            name: ir.pretty_program(entry.program(instance="medium"))
            for name, entry in self.entries.items()
        }
        self.keys = sorted(self.sources)
        self.cost = {}

    def cli_sources(self) -> dict[str, str]:
        return self.sources

    def before(self, key) -> None:
        # A one-shot ``python -m repro FILE`` starts with empty memo caches.
        clear_memo_caches()

    def run(self, key):
        program = frontend.parse_program(self.sources[key])
        outcome = transforms.compound(program, CostModel(cls=CLS))
        before = locality.predict_locality(program, line=LINE)
        after = locality.predict_locality(outcome.program, line=LINE)
        text = ir.pretty_program(outcome.program)
        return (
            text,
            before.miss_ratio_for_capacity(CAPACITY),
            after.miss_ratio_for_capacity(CAPACITY),
        )

    def check_sample(self, rng, results: dict) -> list:
        return rng.sample(sorted(results), min(CHECKS, len(results)))

    def check(self, key, result, wrong: bool) -> str | None:
        entry = self.entries[key]
        reference = _final_state(entry.program(instance="medium"), entry.init)
        if wrong:
            reference = _perturbed(reference)
        state = _final_state(frontend.parse_program(result[0]), entry.init)
        if state != reference:
            return f"compile {key}: transformed program's arrays differ"
        return None

    def quality(self, results: dict) -> dict[str, float]:
        return {"miss_after_geomean": geomean(results[k][2] for k in sorted(results))}


def _final_state(program, init):
    """Array bytes after interpretation, or the error it stops with."""
    try:
        arrays = interp.Interpreter(program, init=init, check_values=False).run()
    except ExecutionError as exc:
        return ("error", str(exc))
    return {name: array.tobytes() for name, array in arrays.items()}


def _perturbed(state):
    if isinstance(state, tuple):
        return ("error", state[1] + " (perturbed)")
    name = min(state)
    return {**state, name: bytes([state[name][0] ^ 1]) + state[name][1:]}


class SimulateWorkload:
    """The ``paper`` set at Table 3 sizes, one simulation per op."""

    name = "simulate"
    strata = 1
    #: Interpreter-driven reference replays cost about 10 us per access;
    #: the check sample stops growing at this many accesses.
    CHECK_ACCESSES = 250_000

    def prepare(self) -> None:
        self.entries = {e.name: e for e in get_set("paper").entries()}
        self.programs = {}
        for name, entry in self.entries.items():
            program = entry.program(problem_size(name))
            final = transforms.compound(program, CostModel(cls=CLS)).program
            self.programs[name, "orig"] = program
            self.programs[name, "final"] = final
        self.keys = [
            (name, version, machine)
            for (name, version) in sorted(self.programs)
            for machine in MACHINES
        ]
        self.cost = {}

    def cli_sources(self) -> dict[str, str]:
        return original_sources(self.programs)

    def before(self, key) -> None:
        pass

    def run(self, key):
        name, version, machine = key
        perf = timing.simulate(self.programs[name, version], MACHINES[machine])
        stats = perf.cache
        return (perf.cycles, stats.accesses, stats.hits, stats.cold_misses,
                stats.conflict_misses)

    def check_sample(self, rng, results: dict) -> list:
        """Seeded keys whose reference replays fit the access budget."""
        sample, budget = [], self.CHECK_ACCESSES
        for key in rng.sample(sorted(results), len(results)):
            accesses = results[key][1]
            if sample and accesses > budget:
                continue
            sample.append(key)
            budget -= accesses
            if budget <= 0:
                break
        return sample

    def check(self, key, result, wrong: bool) -> str | None:
        name, version, machine = key
        replay = cache.SetAssocCache(MACHINES[machine].cache)

        def on_access(event) -> None:
            replay.access(event.address, event.size, event.write)

        interp.Interpreter(
            self.programs[name, version], on_access=on_access,
            init=self.entries[name].init, check_values=False,
        ).run()
        stats = replay.stats
        reference = (stats.accesses, stats.hits + wrong, stats.cold_misses,
                     stats.conflict_misses)
        if tuple(result[1:]) != reference:
            return (f"simulate {'/'.join(key)}: block engine {result[1:]} != "
                    f"interpreter-driven cache {reference}")
        return None

    def quality(self, results: dict) -> dict[str, float]:
        ratios = [
            results[name, "orig", machine][0] / results[name, "final", machine][0]
            for (name, version, machine) in sorted(results)
            if version == "orig" and (name, "final", machine) in results
        ]
        return {"sim_speedup_geomean": geomean(ratios)}


class ValidateWorkload:
    """Table 4-analytic over the ``paper`` set at ``medium``.

    One op is one (program, version, FA geometry): the exact reuse
    profile with the experiment's own arguments, plus the analytic
    prediction it is compared with.
    """

    name = "validate"
    #: Ops cost 0.2-1.2 s, so a run sees only part of a pass. Rounds take
    #: one op from each of these cost strata, so every run's op mix is
    #: the same whatever the seed.
    strata = 56

    def prepare(self) -> None:
        self.programs = {}
        for entry in get_set("paper").entries():
            program = entry.program(instance="medium")
            final = transforms.compound(program, CostModel(cls=CLS)).program
            self.programs[entry.name, "orig"] = program
            self.programs[entry.name, "final"] = final
        self.keys = [
            (name, version, geometry)
            for (name, version) in sorted(self.programs)
            for geometry in FA_CONFIGS
        ]
        # Trace length sets an op's cost beyond the fixed analyzer set-up.
        lengths = {
            key: locality.predict_locality(program, line=LINE).accesses
            for key, program in self.programs.items()
        }
        self.cost = {key: lengths[key[:2]] for key in self.keys}
        clear_memo_caches()

    def cli_sources(self) -> dict[str, str]:
        return original_sources(self.programs)

    def before(self, key) -> None:
        pass

    def run(self, key):
        name, version, geometry = key
        line, lines = FA_CONFIGS[geometry]
        program = self.programs[name, version]
        profile = reuse.reuse_profile(program, line=line, max_accesses=1 << 25)
        prediction = locality.predict_locality(program, line=line)
        return (
            profile.accesses,
            profile.cold,
            profile.hits_for_capacity(lines),
            profile.hit_rate_for_capacity(lines),
            prediction.hit_rate_for_capacity(lines),
        )

    def check_sample(self, rng, results: dict) -> list:
        return rng.sample(sorted(results), min(CHECKS, len(results)))

    def check(self, key, result, wrong: bool) -> str | None:
        name, version, geometry = key
        line, lines = FA_CONFIGS[geometry]
        config = cache.CacheConfig(
            f"{geometry}-fa", size=line * lines, assoc=lines, line=line
        )
        replay = cache.SetAssocCache(config)
        trace = blocktrace.compile_block_trace(self.programs[name, version])
        trace.run(lambda block: replay.access_block(block.addresses, block.sizes))
        stats = replay.stats
        reference = (stats.accesses, stats.cold_misses, stats.hits + wrong)
        if tuple(result[:3]) != reference:
            return (f"validate {'/'.join(key)}: reuse profile {result[:3]} != "
                    f"fully associative replay {reference}")
        return None

    def quality(self, results: dict) -> dict[str, float]:
        return {
            "predict_error_pp_max": max(
                (abs(r[4] - r[3]) * 100.0 for r in results.values()), default=0.0
            )
        }


WORKLOADS = {w.name: w for w in (CompileWorkload, SimulateWorkload, ValidateWorkload)}
