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

from repro import __version__, cli
from repro.cache import CACHE1, CACHE2
from repro.errors import ReproError
from repro.exec import Machine, simulate
from repro.frontend import parse_program
from repro.ir import pretty_program
from repro.model import CostModel
from repro.transforms import compound, scalar_replace_program

_CACHES = {"cache1": CACHE1, "cache2": CACHE2}


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


def _verify_main(args: cli.Args) -> int:
    from repro.seeds import base_seed
    from repro.verify.runner import run_fuzz

    if args.help(_VERIFY_HELP):
        return 0
    want_shrink = args.flag("--shrink")
    session = cli.Session(args, ("--explain", "--metrics"))
    fuzz = args.int_option("--fuzz", 50)
    seed = args.int_option("--seed", base_seed())
    args.positional(0)
    budget = os.environ.get("REPRO_FUZZ_BUDGET", "")
    if budget:
        fuzz = max(fuzz, cli.parse_int("REPRO_FUZZ_BUDGET", budget))

    with session:
        report = run_fuzz(fuzz, seed=seed, shrink=want_shrink)
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.repro_script())
    return session.finish() or (0 if report.ok else 1)


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


def _locality_main(args: cli.Args) -> int:
    from repro.locality import predict_locality

    if args.help(_LOCALITY_HELP):
        return 0
    want_compare = args.flag("--compare")
    session = cli.Session(args, ("--explain",))
    line = args.int_option("--line", 128)
    capacities = [
        cli.parse_int("--capacities", c)
        for c in args.option("--capacities", "64,512").split(",")
    ]
    sets = args.int_option("--sets", 0)
    assoc = args.int_option("--assoc", 2)
    (source_path,) = args.positional(
        1, "locality: exactly one input file expected; see --help"
    )
    source = cli.read_source(source_path)
    if source is None:
        return 1

    try:
        with session:
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
    return session.finish()


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


def _lint_main(args: cli.Args) -> int:
    import json as _json

    from repro.lint import apply_fixes, lint_program, render_text, to_sarif

    if args.help(_LINT_HELP):
        return 0
    want_fix = args.flag("--fix")
    no_verify = args.flag("--no-verify")
    session = cli.Session(args, ("--explain", "--metrics", "--no-ledger"), kind="lint")
    fmt = args.option("--format", "text")
    sarif_path = args.option("--sarif")
    checks_text = args.option("--checks")
    out_path = args.option("-o")
    line = args.int_option("--line", 128)
    capacity = args.int_option("--capacity", 512)
    if fmt not in ("text", "json"):
        raise cli.UsageError(f"lint: unknown format {fmt!r}; choose text or json")
    paths = args.positional()
    if not paths:
        raise cli.UsageError("lint: at least one input file expected; see --help")
    if want_fix and len(paths) != 1:
        raise cli.UsageError("lint: --fix expects exactly one input file")
    if want_fix and no_verify:
        raise cli.UsageError("lint: --fix requires verification; drop --no-verify")
    checks = tuple(c for c in checks_text.split(",") if c) or None

    results: list[tuple] = []  # (LintResult, path)
    payloads: list[dict] = []
    report_lines: list[str] = []
    fixed_text = ""
    parse_failed = False
    with session:
        for path in paths:
            source = cli.read_source(path)
            if source is None:
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
    # With --fix the fixed program is the primary output; the report narrates.
    text = fixed_text if want_fix else report
    if want_fix and report:
        print(report, file=sys.stderr)
    if (out_path or text) and not cli.output(out_path, text):
        return 1

    if sarif_path:
        if not cli.write_text(sarif_path, to_sarif(results) + "\n"):
            return 1
        total = sum(len(result.diagnostics) for result, _ in results)
        print(
            f"wrote SARIF log with {total} result(s) over "
            f"{len(results)} program(s) to {sarif_path}",
            file=sys.stderr,
        )

    errors = sum(result.errors for result, _ in results)
    return session.finish(
        argv=paths,
        config={
            "line": line,
            "capacity": capacity,
            "fix": want_fix,
            "verify": not no_verify,
            "checks": list(checks) if checks else "all",
        },
    ) or (1 if (parse_failed or errors) else 0)


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


def _autotune_main(args: cli.Args) -> int:
    from repro.autotune import autotune

    if args.help(_AUTOTUNE_HELP):
        return 0
    want_compare = args.flag("--compare-sim")
    no_verify = args.flag("--no-verify")
    session = cli.Session(args, ("--explain", "--metrics", "--no-ledger"), kind="autotune")
    out_path = args.option("-o")
    budget = args.int_option("--budget", 128)
    beam = args.int_option("--beam", 4)
    topk = args.int_option("--topk", 5)
    line = args.int_option("--line", 128)
    capacity = args.int_option("--capacity", 512)
    cls = args.int_option("--cls", max(1, line // 8))
    jobs = args.int_option("--jobs", None)
    files = args.positional(1, "autotune: exactly one input file expected; see --help")
    source = cli.read_source(files[0])
    if source is None:
        return 1

    try:
        with session:
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

    if not cli.output(out_path, pretty_program(result.best.program)):
        return 1
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

    return session.finish(
        argv=files,
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


def _report_main(args: cli.Args) -> int:
    from repro.obs.ledger import LedgerError, read_ledger
    from repro.obs.report import render_report

    if args.help(_REPORT_HELP):
        return 0
    fmt = args.option("--format", "md")
    directory = args.option("--ledger") or None
    out_path = args.option("-o")
    last = args.int_option("--last", 20)
    args.positional(0)
    try:
        records = read_ledger(directory)
        text = render_report(records, fmt=fmt, history=last)
    except (LedgerError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    if not out_path:
        cli.emit(text)
        return 0
    if not cli.write_text(out_path, text):
        return 1
    print(
        f"wrote {fmt} report over {len(records)} ledgered runs to {out_path}",
        file=sys.stderr,
    )
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


def _serve_main(args: cli.Args) -> int:
    if args.help(_SERVE_HELP):
        return 0
    host = args.option("--host") or None
    port = args.int_option("--port", None)
    jobs = args.int_option("--jobs", None)
    args.positional(0)
    overrides = {
        key: value
        for key, value in (("host", host), ("port", port), ("jobs", jobs))
        if value is not None
    }
    from repro.server import ServerConfig, serve

    try:
        config = ServerConfig.from_env(**overrides)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return serve(config)


def _translate_main(args: cli.Args) -> int:
    if "--version" in args.rest:
        print(f"repro {__version__}")
        return 0
    if not args.rest:
        print(__doc__)
        return 2
    if args.help(__doc__):
        return 0
    want_report = args.flag("--report")
    want_simulate = args.flag("--simulate")
    want_scalar = args.flag("--scalar-replace")
    # One observability context for every flag: --explain/--metrics/
    # --profile/--trace/--chrome-trace compose over a single span/metric
    # sink, so combining them never duplicates records.
    session = cli.Session(
        args,
        ("--explain", "--metrics", "--profile", "--no-ledger", "--trace", "--chrome-trace"),
        kind="cli",
        headings=("optimization remarks", "metrics"),
    )
    cls = args.int_option("--cls", 4)
    cache_name = args.option("--cache", "cache2")
    out_path = args.option("-o")
    if cache_name not in _CACHES:
        raise cli.UsageError(
            f"unknown cache {cache_name!r}; choose from {sorted(_CACHES)}"
        )
    (path,) = args.positional(1, "exactly one input file expected; see --help")
    source = cli.read_source(path)
    if source is None:
        return 1

    with session:
        try:
            program = parse_program(source)
            outcome = compound(program, CostModel(cls=cls))
            final = outcome.program
            replaced = 0
            if want_scalar:
                result = scalar_replace_program(final)
                final = result.program
                replaced = result.replaced
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not cli.output(out_path, pretty_program(final)):
            return 1

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
            before = simulate(program, machine)
            after = simulate(final, machine)
            print(
                f"\nsimulated on {cache_name}: cycles {before.cycles} -> "
                f"{after.cycles} (speedup {before.cycles / max(after.cycles, 1):.2f}x), "
                f"hit rate {before.hit_rate:.1%} -> {after.hit_rate:.1%}",
                file=sys.stderr,
            )

    return session.finish(
        config={"cls": cls, "cache": cache_name, "scalar_replace": want_scalar},
    )


_SUBCOMMANDS = {
    "verify": _verify_main,
    "locality": _locality_main,
    "lint": _lint_main,
    "report": _report_main,
    "autotune": _autotune_main,
    "serve": _serve_main,
}


def main(argv: list[str]) -> int:
    return cli.dispatch(argv, _SUBCOMMANDS, _translate_main)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
