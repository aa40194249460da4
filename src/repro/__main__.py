"""Command-line source-to-source translator (a small Memoria).

Usage::

    python -m repro FILE.f [options]

Reads a mini-Fortran program, applies the paper's compound locality
transformations, and prints the transformed program. Options add a
transformation report, simulated before/after measurements, the
post-pass scalar replacement, and observability output (optimization
remarks, metrics, a hierarchical profile, and JSONL / Chrome traces).

Options:
    --cls N           cache line size in elements for the cost model (4)
    --report          print the per-nest transformation report
    --simulate        simulate cycles/hit-rate before and after
    --scalar-replace  run scalar replacement after Compound
    --cache NAME      cache geometry for --simulate: cache1|cache2 (cache2)
    --explain         print optimization remarks (why each transformation
                      was applied or rejected) to stderr
    --metrics         print pipeline metrics (dependence tests by kind,
                      RefGroup sizes, cache counters, ...) to stderr
    --profile         print the hierarchical phase profile (wall + CPU
                      time, tracemalloc peak memory, counter attribution)
                      to stderr
    --trace FILE      write spans + remarks + metrics as JSONL to FILE
    --chrome-trace F  write a Chrome trace-event / Perfetto JSON to F
                      (load it at https://ui.perfetto.dev)
    --no-ledger       skip the run-ledger append for this invocation
                      (equivalent to REPRO_LEDGER=0)
    --version         print the package version and exit
    -o FILE           write the transformed program to FILE

All observability flags share ONE context and one sink each: combining
--trace/--metrics/--profile/--chrome-trace records every span, remark,
and counter exactly once.

Every invocation also appends one structured record (run id, seed, git
sha, config digest, phase timings, metrics) to ``.repro/ledger.jsonl``
— see ``python -m repro report``.

Subcommands:
    verify            differential fuzzing of the whole pipeline:
                      ``python -m repro verify --fuzz N --seed S [--shrink]``
                      (see ``python -m repro verify --help``)
    locality          analytic reuse-distance / miss-ratio prediction:
                      ``python -m repro locality FILE.f [--compare]``
                      (see ``python -m repro locality --help``)
    lint              static locality diagnostics with verified fix-its:
                      ``python -m repro lint FILE.f [--fix] [--sarif F]``
                      (see ``python -m repro lint --help``)
    report            render the run ledger as markdown/HTML:
                      ``python -m repro report [--format html] [-o FILE]``
                      (see ``python -m repro report --help``)
    autotune          model-driven search over permutation x tiling x
                      fusion: ``python -m repro autotune FILE.f
                      [--budget N] [--topk K] [--compare-sim]``
                      (see ``python -m repro autotune --help``)
    serve             long-lived HTTP compile service (optimize / lint /
                      locality / autotune over the wire, content-addressed
                      result cache, batched workers):
                      ``python -m repro serve [--port P] [--jobs N]``
                      (see ``python -m repro serve --help`` and
                      ``docs/server.md``)
"""

from __future__ import annotations

import os
import sys

from repro import __version__
from repro.cache import CACHE1, CACHE2
from repro.errors import ReproError
from repro.exec import Machine, simulate
from repro.frontend import parse_program
from repro.ir import pretty_program
from repro.model import CostModel
from repro.obs import NULL_OBS, Obs, use_obs, write_jsonl
from repro.stats.report import render_metrics, render_remarks
from repro.transforms import compound, scalar_replace_program

_CACHES = {"cache1": CACHE1, "cache2": CACHE2}


def _append_ledger(
    kind: str,
    argv: list[str],
    obs,
    *,
    config: dict | None = None,
    bench: dict | None = None,
) -> str | None:
    """Append this invocation to the run ledger.

    Raises :class:`repro.obs.LedgerError` when the ledger directory is
    unwritable — callers turn that into a clean non-zero exit.
    """
    from repro.obs import ledger

    record = ledger.make_record(
        kind,
        argv,
        config=config,
        phases=ledger.phases_from_obs(obs) if obs.enabled else {},
        metrics=ledger.counters_from_obs(obs) if obs.enabled else {},
        bench=bench,
    )
    return ledger.append_record(record)


_VERIFY_HELP = """\
Usage: python -m repro verify [options]

Differential verification: generate random loop nests and check

  * analytic dependences cover the brute-force oracle,
  * every legality-admitted transform preserves program output
    bit-for-bit (rejected transforms are re-checked to measure
    over-conservatism),
  * batched and scalar cache engines agree on random streams.

Options:
    --fuzz N      number of fuzz cases to run (default 50)
    --seed S      base seed; (seed, case) pins every program
                  (default $REPRO_SEED, else 0)
    --shrink      minimize failing programs before printing the repro
    --explain     print verify remarks to stderr
    --metrics     print verify counters to stderr

Environment:
    REPRO_FUZZ_BUDGET   when set, raises the case count to at least this
                        value (used by the nightly CI profile)
    REPRO_SEED          run-wide base seed shared with the test and
                        bench harnesses (printed in every failure repro)
"""


def _verify_main(args: list[str]) -> int:
    from repro.seeds import base_seed
    from repro.verify.runner import run_fuzz

    if "-h" in args or "--help" in args:
        print(_VERIFY_HELP)
        return 0

    def flag(name: str) -> bool:
        if name in args:
            args.remove(name)
            return True
        return False

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    want_shrink = flag("--shrink")
    want_explain = flag("--explain")
    want_metrics = flag("--metrics")
    try:
        fuzz = int(option("--fuzz", "50"))
        seed = int(option("--seed", str(base_seed())))
    except ValueError as exc:
        print(f"verify: expected an integer: {exc}", file=sys.stderr)
        return 2
    if args:
        print(f"verify: unknown arguments {args}", file=sys.stderr)
        return 2
    budget = os.environ.get("REPRO_FUZZ_BUDGET", "")
    if budget:
        try:
            fuzz = max(fuzz, int(budget))
        except ValueError:
            print(
                f"REPRO_FUZZ_BUDGET must be an integer, got {budget!r}",
                file=sys.stderr,
            )
            return 2

    obs = Obs() if (want_explain or want_metrics) else NULL_OBS
    with use_obs(obs if obs is not NULL_OBS else None):
        report = run_fuzz(fuzz, seed=seed, shrink=want_shrink)
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.repro_script())
    if want_explain:
        print("\n--- verify remarks ---", file=sys.stderr)
        print(render_remarks(obs.remarks, title=""), file=sys.stderr)
    if want_metrics:
        print("\n--- verify metrics ---", file=sys.stderr)
        print(render_metrics(obs.metrics, title=""), file=sys.stderr)
    return 0 if report.ok else 1


_LOCALITY_HELP = """\
Usage: python -m repro locality FILE.f [options]

Analytic reuse-distance prediction: derives the reuse-distance histogram
and miss ratios of the program straight from its affine subscripts and
loop bounds -- no trace, no simulation. Optionally cross-checks the
prediction against the exact trace-driven histogram.

Options:
    --line N      cache line size in bytes, power of two (default 128)
    --capacities  comma-separated FA-LRU capacities in lines to report
                  (default 64,512)
    --sets N      also predict an N-set LRU cache (with --assoc)
    --assoc N     associativity for --sets (default 2)
    --compare     run the exact trace analyzer and print predicted vs
                  traced hit rates side by side
    --explain     print locality remarks to stderr
"""


def _locality_main(args: list[str]) -> int:
    from repro.locality import predict_locality

    if "-h" in args or "--help" in args:
        print(_LOCALITY_HELP)
        return 0

    def flag(name: str) -> bool:
        if name in args:
            args.remove(name)
            return True
        return False

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    want_compare = flag("--compare")
    want_explain = flag("--explain")
    try:
        line = int(option("--line", "128"))
        capacities = [int(c) for c in option("--capacities", "64,512").split(",")]
        sets = int(option("--sets", "0"))
        assoc = int(option("--assoc", "2"))
    except ValueError as exc:
        print(f"locality: expected an integer: {exc}", file=sys.stderr)
        return 2
    if len(args) != 1:
        print("locality: exactly one input file expected; see --help",
              file=sys.stderr)
        return 2
    try:
        with open(args[0]) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 1

    obs = Obs() if want_explain else NULL_OBS
    try:
        with use_obs(obs if obs is not NULL_OBS else None):
            program = parse_program(source)
            prediction = predict_locality(program, line=line)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path = "exact" if prediction.exact else "model"
    print(
        f"{program.name}: {prediction.accesses} accesses, "
        f"{prediction.cold} cold, line {line}B ({path} path)"
    )
    kinds = prediction.by_kind()
    breakdown = ", ".join(
        f"{kind} {count}" for kind, count in kinds.items() if count
    )
    if breakdown:
        print(f"  reuse classes: {breakdown}")
    trace = None
    if want_compare:
        from repro.cache.reuse import reuse_profile

        try:
            trace = reuse_profile(program, line=line)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for capacity in capacities:
        predicted = prediction.hit_rate_for_capacity(capacity)
        row = (
            f"  {capacity:>6} lines ({capacity * line // 1024:>4} KB): "
            f"predicted hit rate {predicted:.2%}, "
            f"miss ratio {prediction.miss_ratio_for_capacity(capacity):.2%}"
        )
        if trace is not None:
            traced = trace.hit_rate_for_capacity(capacity)
            row += f"; traced {traced:.2%} (err {abs(predicted - traced):.2%})"
        print(row)
    if sets:
        rate = prediction.hit_rate_set_assoc(sets, assoc)
        print(
            f"  {sets} sets x {assoc}-way "
            f"({sets * assoc * line // 1024} KB): predicted hit rate {rate:.2%}"
        )
    if want_explain:
        print("\n--- locality remarks ---", file=sys.stderr)
        print(render_remarks(obs.remarks, title=""), file=sys.stderr)
    return 0


_LINT_HELP = """\
Usage: python -m repro lint FILE.f [FILE2.f ...] [options]

Static locality diagnostics over the parsed loop nests: non-unit-stride
accesses, memory-order-violating loop permutations, fusion candidates,
parallelization-blocking loop-carried dependences, scalar-replaceable
redundant reads, and alias hazards. Where a repair is mechanically
expressible the diagnostic carries a fix-it bound to one of the existing
transforms; every fix-it is verified against the brute-force
dependence/execution oracles and scored with the analytic miss-ratio
predictor before it is surfaced. See docs/lint.md for the check catalog.

Options:
    --fix           apply the verified fix-its (one input file only) and
                    print the fixed program to stdout (or -o FILE); the
                    diagnostic report moves to stderr
    --sarif FILE    also write a SARIF 2.1.0 log aggregating every input
    --format FMT    report format: text (default) or json
    --checks LIST   comma-separated check ids or names (default: all);
                    e.g. --checks LOC002,scalar-replace
    --line N        cache line size in bytes for scoring (default 128)
    --capacity N    FA-LRU capacity in lines for scoring (default 512)
    --no-verify     skip fix-it verification (fix-its stay candidates;
                    --fix refuses to apply them)
    --explain       print lint remarks to stderr
    --metrics       print lint counters to stderr
    --no-ledger     skip the run-ledger append for this invocation
    -o FILE         write the report (or, with --fix, the fixed program)
                    to FILE instead of stdout

Exit status: 0 clean; 1 on parse errors or any error-severity
diagnostic (a fix-it that fails verification escalates its diagnostic
to error); 2 on usage errors.
"""


def _lint_main(args: list[str]) -> int:
    import json as _json

    from repro.lint import apply_fixes, lint_program, render_text, to_sarif

    if "-h" in args or "--help" in args:
        print(_LINT_HELP)
        return 0

    def flag(name: str) -> bool:
        if name in args:
            args.remove(name)
            return True
        return False

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    want_fix = flag("--fix")
    no_verify = flag("--no-verify")
    want_explain = flag("--explain")
    want_metrics = flag("--metrics")
    no_ledger = flag("--no-ledger")
    fmt = option("--format", "text")
    sarif_path = option("--sarif", "")
    checks_text = option("--checks", "")
    out_path = option("-o", "")
    try:
        line = int(option("--line", "128"))
        capacity = int(option("--capacity", "512"))
    except ValueError as exc:
        print(f"lint: expected an integer: {exc}", file=sys.stderr)
        return 2
    if fmt not in ("text", "json"):
        print(f"lint: unknown format {fmt!r}; choose text or json",
              file=sys.stderr)
        return 2
    bad = [a for a in args if a.startswith("-")]
    if bad:
        print(f"lint: unknown arguments {bad}", file=sys.stderr)
        return 2
    if not args:
        print("lint: at least one input file expected; see --help",
              file=sys.stderr)
        return 2
    if want_fix and len(args) != 1:
        print("lint: --fix expects exactly one input file", file=sys.stderr)
        return 2
    if want_fix and no_verify:
        print("lint: --fix requires verification; drop --no-verify",
              file=sys.stderr)
        return 2
    checks = tuple(c for c in checks_text.split(",") if c) or None

    obs = Obs() if (want_explain or want_metrics) else NULL_OBS
    results: list[tuple] = []  # (LintResult, path)
    payloads: list[dict] = []
    report_lines: list[str] = []
    fixed_text = ""
    parse_failed = False
    with use_obs(obs if obs is not NULL_OBS else None):
        for path in args:
            try:
                with open(path) as handle:
                    source = handle.read()
            except OSError as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return 1
            try:
                program = parse_program(source)
            except ReproError as exc:
                print(f"{path}:{exc}", file=sys.stderr)
                parse_failed = True
                continue
            try:
                if want_fix:
                    outcome = apply_fixes(
                        program, checks=checks, line=line, capacity=capacity
                    )
                    result = outcome.result
                    fixed_text = pretty_program(outcome.program)
                    for applied in outcome.applied:
                        print(
                            f"{path}: applied {applied.transform} "
                            f"({applied.check_id}): {applied.description}; "
                            f"predicted miss ratio {applied.miss_before:.4f}"
                            f" -> {applied.miss_after:.4f}",
                            file=sys.stderr,
                        )
                    if not outcome.applied:
                        print(f"{path}: no verified fix-its to apply",
                              file=sys.stderr)
                else:
                    result = lint_program(
                        program,
                        checks=checks,
                        verify=not no_verify,
                        line=line,
                        capacity=capacity,
                    )
            except (ReproError, ValueError) as exc:
                print(f"lint: {exc}", file=sys.stderr)
                return 1
            results.append((result, path))
            if fmt == "json":
                payload = result.to_dict()
                payload["path"] = path
                payloads.append(payload)
            else:
                report_lines.append(render_text(result, path))

    if fmt == "json":
        report = _json.dumps(
            payloads[0] if len(payloads) == 1 else payloads,
            indent=2,
            sort_keys=True,
        )
    else:
        report = "\n".join(report_lines)
    if want_fix:
        # The fixed program is the primary output; the report narrates.
        if report:
            print(report, file=sys.stderr)
        if out_path:
            try:
                with open(out_path, "w") as handle:
                    handle.write(fixed_text + "\n")
            except OSError as exc:
                print(f"cannot write {out_path}: {exc}", file=sys.stderr)
                return 1
        elif fixed_text:
            print(fixed_text)
    elif out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(report + "\n")
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            return 1
    elif report:
        print(report)

    if sarif_path:
        try:
            with open(sarif_path, "w") as handle:
                handle.write(to_sarif(results) + "\n")
        except OSError as exc:
            print(f"cannot write {sarif_path}: {exc}", file=sys.stderr)
            return 1
        total = sum(len(result.diagnostics) for result, _ in results)
        print(
            f"wrote SARIF log with {total} result(s) over "
            f"{len(results)} program(s) to {sarif_path}",
            file=sys.stderr,
        )

    if want_explain:
        print("\n--- lint remarks ---", file=sys.stderr)
        print(render_remarks(obs.remarks, title=""), file=sys.stderr)
    if want_metrics:
        print("\n--- lint metrics ---", file=sys.stderr)
        print(render_metrics(obs.metrics, title=""), file=sys.stderr)
    if not no_ledger:
        from repro.obs import LedgerError

        try:
            _append_ledger(
                "lint",
                args,
                obs,
                config={
                    "line": line,
                    "capacity": capacity,
                    "fix": want_fix,
                    "verify": not no_verify,
                    "checks": list(checks) if checks else "all",
                },
            )
        except LedgerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    errors = sum(result.errors for result, _ in results)
    return 1 if (parse_failed or errors) else 0


_AUTOTUNE_HELP = """\
Usage: python -m repro autotune FILE.f [options]

Model-driven autotuning: beam-search loop permutation x tile sizes x
fusion/distribution for the program, scoring every candidate with the
analytic miss-ratio predictor (no simulation during the search). The
chosen configuration is checked by the execution-equivalence and
dependence oracles before it is printed; candidates that fail fall back
to the next-best verified one, ending at the original program, so the
output never has a worse predicted miss ratio than the input.

Options:
    --budget N      max distinct oracle evaluations (default 128)
    --beam N        beam width per nest step (default 4)
    --topk K        candidates kept for --compare-sim (default 5)
    --compare-sim   rerank the top-k candidates with the exact cache
                    simulation oracle and print both rankings
    --line N        cache line size in bytes (default 128)
    --capacity N    FA-LRU capacity in lines for scoring (default 512)
    --cls N         cost-model line size in elements (default line/8)
    --jobs N        worker processes for the simulation rerank
                    (default $REPRO_JOBS, else 1)
    --no-verify     print the best *predicted* candidate without the
                    equivalence/dependence verification pass
    --explain       print search remarks to stderr
    --metrics       print search counters (oracle evals, memo cache
                    hits/misses, ...) to stderr
    --no-ledger     skip the run-ledger append for this invocation
    -o FILE         write the tuned program to FILE instead of stdout
"""


def _autotune_main(args: list[str]) -> int:
    from repro.autotune import autotune
    from repro.model import CostModel

    if "-h" in args or "--help" in args:
        print(_AUTOTUNE_HELP)
        return 0

    def flag(name: str) -> bool:
        if name in args:
            args.remove(name)
            return True
        return False

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    want_compare = flag("--compare-sim")
    no_verify = flag("--no-verify")
    want_explain = flag("--explain")
    want_metrics = flag("--metrics")
    no_ledger = flag("--no-ledger")
    out_path = option("-o", "")
    try:
        budget = int(option("--budget", "128"))
        beam = int(option("--beam", "4"))
        topk = int(option("--topk", "5"))
        line = int(option("--line", "128"))
        capacity = int(option("--capacity", "512"))
        cls = int(option("--cls", str(max(1, line // 8))))
        jobs_text = option("--jobs", "")
        jobs = int(jobs_text) if jobs_text else None
    except ValueError as exc:
        print(f"autotune: expected an integer: {exc}", file=sys.stderr)
        return 2
    if len(args) != 1:
        print("autotune: exactly one input file expected; see --help",
              file=sys.stderr)
        return 2
    try:
        with open(args[0]) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 1

    obs = Obs() if (want_explain or want_metrics) else NULL_OBS
    try:
        with use_obs(obs if obs is not NULL_OBS else None):
            program = parse_program(source)
            result = autotune(
                program,
                model=CostModel(cls=cls),
                line=line,
                capacity=capacity,
                budget=budget,
                beam=beam,
                topk=topk,
                compare_sim=want_compare,
                jobs=jobs,
                verify=not no_verify,
            )
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = pretty_program(result.best.program)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)

    best = result.best
    assert best.cost is not None and result.original.cost is not None
    print(
        f"\n--- autotune: {program.name} ---\n"
        f"searched {len(result.ranked)} configs "
        f"({result.evaluated} oracle evals of budget {result.budget}"
        f"{', exhausted' if result.budget_exhausted else ''}) "
        f"in {result.elapsed_s:.2f}s\n"
        f"best: {best.describe()} [{best.source}"
        f"{', verified' if result.verified else ', UNVERIFIED'}]\n"
        f"predicted miss ratio {result.original.cost.miss_ratio:.4f} -> "
        f"{best.cost.miss_ratio:.4f} "
        f"({result.improvement_pp:+.2f}pp) at {capacity} lines x {line}B",
        file=sys.stderr,
    )
    for describe, slug in result.rejected:
        print(f"rejected by verifier: {describe}: {slug}", file=sys.stderr)
    if want_compare and result.sim_ranked:
        print(
            f"simulation rerank of top {len(result.sim_ranked)} "
            f"({result.sim_s:.2f}s):",
            file=sys.stderr,
        )
        for candidate in result.sim_ranked:
            assert candidate.sim is not None and candidate.cost is not None
            print(
                f"  sim {candidate.sim.miss_ratio:.4f} "
                f"(model {candidate.cost.miss_ratio:.4f}): "
                f"{candidate.describe()}",
                file=sys.stderr,
            )

    if want_explain:
        print("\n--- autotune remarks ---", file=sys.stderr)
        print(render_remarks(obs.remarks, title=""), file=sys.stderr)
    if want_metrics:
        print("\n--- autotune metrics ---", file=sys.stderr)
        print(render_metrics(obs.metrics, title=""), file=sys.stderr)
    if not no_ledger:
        from repro.obs import LedgerError

        try:
            _append_ledger(
                "autotune",
                args,
                obs,
                config={
                    "line": line,
                    "capacity": capacity,
                    "cls": cls,
                    "budget": budget,
                    "beam": beam,
                    "topk": topk,
                    "compare_sim": want_compare,
                    "verify": not no_verify,
                },
                bench={
                    "program": program.name,
                    "candidates": len(result.ranked),
                    "evals": result.evaluated,
                    "miss_ratio_before": result.original.cost.miss_ratio,
                    "miss_ratio_after": best.cost.miss_ratio,
                    "elapsed_s": result.elapsed_s,
                    "verified": result.verified,
                },
            )
        except LedgerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


_REPORT_HELP = """\
Usage: python -m repro report [options]

Render the persistent run ledger (.repro/ledger.jsonl) as a markdown or
HTML artifact: a run overview, latest-vs-history phase timings and
counter drift for every (kind, run id) stream, and per-kernel benchmark
trajectories for ledgered bench runs.

Options:
    --format FMT    md (default) or html
    --ledger DIR    ledger directory (default $REPRO_LEDGER_DIR or .repro)
    --last N        cap the run-overview table at the last N runs (20)
    -o FILE         write the artifact to FILE instead of stdout

Environment:
    REPRO_LEDGER_DIR   default ledger directory
    REPRO_LEDGER=0     disables ledger appends repo-wide (report still
                       reads whatever history exists)
"""


def _report_main(args: list[str]) -> int:
    from repro.obs.ledger import LedgerError, read_ledger
    from repro.obs.report import render_report

    if "-h" in args or "--help" in args:
        print(_REPORT_HELP)
        return 0

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    fmt = option("--format", "md")
    directory = option("--ledger", "") or None
    out_path = option("-o", "")
    try:
        last = int(option("--last", "20"))
    except ValueError as exc:
        print(f"report: expected an integer: {exc}", file=sys.stderr)
        return 2
    if args:
        print(f"report: unknown arguments {args}", file=sys.stderr)
        return 2
    try:
        records = read_ledger(directory)
        text = render_report(records, fmt=fmt, history=last)
    except (LedgerError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            return 1
        print(
            f"wrote {fmt} report over {len(records)} ledgered runs to {out_path}",
            file=sys.stderr,
        )
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # Reader (e.g. `| head`) closed stdout early — not an error.
            # Point stdout at /dev/null so the interpreter-exit flush
            # doesn't raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    return 0


_SERVE_HELP = """\
Usage: python -m repro serve [options]

Boot the optimization service: an asyncio HTTP server exposing the
pipeline as POST /v1/optimize, /v1/lint, /v1/locality, /v1/autotune
plus GET /healthz and /metrics. Requests carry mini-Fortran 'source'
text or a structured 'ir' JSON object; identical requests (up to loop
variable naming and declaration order) are answered from a
content-addressed result cache. See docs/server.md for the API.

Options:
    --host HOST   bind address (default 127.0.0.1)
    --port P      bind port; 0 picks an ephemeral port (default 8642)
    --jobs N      worker processes per batch (default 1)

Every other knob is environment-driven (REPRO_SERVER_QUEUE_DEPTH,
REPRO_SERVER_BATCH_MAX, REPRO_SERVER_REQUEST_TIMEOUT_S,
REPRO_SERVER_MAX_BODY_BYTES, REPRO_SERVER_CACHE_CAP, ...); the full
table is in docs/server.md. SIGINT/SIGTERM drains in-flight work
before exiting.
"""


def _serve_main(args: list[str]) -> int:
    if "-h" in args or "--help" in args:
        try:
            print(_SERVE_HELP)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    host = option("--host", "")
    port_text = option("--port", "")
    jobs_text = option("--jobs", "")
    if args:
        print(f"serve: unknown arguments {args}", file=sys.stderr)
        return 2
    overrides: dict = {}
    if host:
        overrides["host"] = host
    try:
        if port_text:
            overrides["port"] = int(port_text)
        if jobs_text:
            overrides["jobs"] = int(jobs_text)
    except ValueError as exc:
        print(f"serve: expected an integer: {exc}", file=sys.stderr)
        return 2
    from repro.server import ServerConfig, serve

    try:
        config = ServerConfig.from_env(**overrides)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return serve(config)


def main(argv: list[str]) -> int:
    args = list(argv)
    if args and args[0] == "verify":
        return _verify_main(args[1:])
    if args and args[0] == "locality":
        return _locality_main(args[1:])
    if args and args[0] == "lint":
        return _lint_main(args[1:])
    if args and args[0] == "report":
        return _report_main(args[1:])
    if args and args[0] == "autotune":
        return _autotune_main(args[1:])
    if args and args[0] == "serve":
        return _serve_main(args[1:])
    if "--version" in args:
        print(f"repro {__version__}")
        return 0
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0 if args else 2

    def flag(name: str) -> bool:
        if name in args:
            args.remove(name)
            return True
        return False

    def option(name: str, default: str) -> str:
        if name in args:
            index = args.index(name)
            args.pop(index)
            if index >= len(args):
                print(f"missing value for {name}", file=sys.stderr)
                raise SystemExit(2)
            return args.pop(index)
        return default

    want_report = flag("--report")
    want_simulate = flag("--simulate")
    want_scalar = flag("--scalar-replace")
    want_explain = flag("--explain")
    want_metrics = flag("--metrics")
    want_profile = flag("--profile")
    no_ledger = flag("--no-ledger")
    cls_text = option("--cls", "4")
    try:
        cls = int(cls_text)
    except ValueError:
        print(f"--cls expects an integer, got {cls_text!r}", file=sys.stderr)
        return 2
    cache_name = option("--cache", "cache2")
    trace_path = option("--trace", "")
    chrome_path = option("--chrome-trace", "")
    out_path = option("-o", "")
    if cache_name not in _CACHES:
        print(f"unknown cache {cache_name!r}; choose from {sorted(_CACHES)}",
              file=sys.stderr)
        return 2
    if len(args) != 1:
        print("exactly one input file expected; see --help", file=sys.stderr)
        return 2

    try:
        with open(args[0]) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 1

    # One observability context for every flag: --explain/--metrics/
    # --profile/--trace/--chrome-trace compose over a single span/metric
    # sink, so combining them never duplicates records.
    want_obs = (
        want_explain or want_metrics or want_profile or trace_path or chrome_path
    )
    obs = Obs(profile=want_profile) if want_obs else NULL_OBS
    tracing_memory = False
    if want_profile:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            tracing_memory = True
    try:
        with use_obs(obs if obs is not NULL_OBS else None):
            program = parse_program(source)
            model = CostModel(cls=cls)
            outcome = compound(program, model)
            final = outcome.program
            replaced = 0
            if want_scalar:
                result = scalar_replace_program(final)
                final = result.program
                replaced = result.replaced
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = pretty_program(final)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)

    if want_report:
        print("\n--- transformation report ---", file=sys.stderr)
        for report in outcome.nests:
            line = (
                f"nest {report.nest_index}: depth {report.depth}, "
                f"memory order {report.status}, inner loop {report.inner_status}"
            )
            if report.fusion_enabled_permutation:
                line += ", fusion enabled permutation"
            if report.distributed:
                line += f", distributed into {report.nests_created} nests"
            if report.reversal_used:
                line += ", reversal used"
            print(line, file=sys.stderr)
        print(
            f"fusion: {outcome.nests_fused}/{outcome.fusion_candidates} "
            f"candidate nests fused; distribution applied "
            f"{outcome.distribution_applied} time(s)",
            file=sys.stderr,
        )
        if want_scalar:
            print(f"scalar replacement: {replaced} refs promoted", file=sys.stderr)

    if want_simulate:
        machine = Machine(cache=_CACHES[cache_name], miss_penalty=20)
        with use_obs(obs if obs is not NULL_OBS else None):
            before = simulate(program, machine)
            after = simulate(final, machine)
        print(
            f"\nsimulated on {cache_name}: cycles {before.cycles} -> "
            f"{after.cycles} (speedup {before.cycles / max(after.cycles, 1):.2f}x), "
            f"hit rate {before.hit_rate:.1%} -> {after.hit_rate:.1%}",
            file=sys.stderr,
        )

    if want_explain:
        print("\n--- optimization remarks ---", file=sys.stderr)
        print(render_remarks(obs.remarks, title=""), file=sys.stderr)
    if want_metrics:
        print("\n--- metrics ---", file=sys.stderr)
        print(render_metrics(obs.metrics, title=""), file=sys.stderr)
    if want_profile:
        from repro.obs import render_profile

        if tracing_memory:
            import tracemalloc

            tracemalloc.stop()
        print("\n--- phase profile ---", file=sys.stderr)
        print(
            render_profile(obs.tracer.spans, obs.metrics, title=""),
            file=sys.stderr,
        )
    if trace_path:
        try:
            records = write_jsonl(obs, trace_path)
        except OSError as exc:
            print(f"cannot write {trace_path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {records} trace records to {trace_path}", file=sys.stderr)
    if chrome_path:
        from repro.obs import write_chrome_trace

        try:
            events = write_chrome_trace(obs, chrome_path)
        except OSError as exc:
            print(f"cannot write {chrome_path}: {exc}", file=sys.stderr)
            return 1
        print(
            f"wrote {events} trace events to {chrome_path} "
            f"(load at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    if not no_ledger:
        from repro.obs import LedgerError

        try:
            _append_ledger(
                "cli",
                list(argv),
                obs,
                config={"cls": cls, "cache": cache_name,
                        "scalar_replace": want_scalar},
            )
        except LedgerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
