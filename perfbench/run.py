"""Pipeline benchmark: compile, simulate, validate and serve workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 7 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it repeats the untraced
measurement as a reference, then runs one whole pass of the workload
with a span around every call into a layer (see ``spans.py``) and
reports the per-layer metrics, the tracing overhead, and the share of
op time no layer span covers. The last line of standard output is one
JSON object; the lines before it are the same numbers for people, with
every failed op listed. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import sys
import tempfile
import time

from common import (
    CLI_SAMPLES, EXTRA_UNITS, LAYER_UNITS, SETUPS, SRC, UNITS, WORK,
    cli_latency, import_seconds, p50, p90, peak_rss_mb, save_spans,
)


# ----------------------------------------------------------------------
# In-process workloads


def rounds(keys: list, cost: dict, strata: int, rng):
    """Endless seeded rounds of op keys.

    With one stratum a round is a whole pass in a fresh seeded order.
    Otherwise keys are sorted by cost into ``strata`` groups and each
    round takes one key from every group, so any whole number of rounds
    has the same cost mix.
    """
    if strata == 1:
        while True:
            yield rng.sample(keys, len(keys))
    ordered = sorted(keys, key=lambda key: (cost[key], key))
    size = math.ceil(len(ordered) / strata)
    groups = [ordered[i:i + size] for i in range(0, len(ordered), size)]
    while True:
        shuffled = [rng.sample(group, len(group)) for group in groups]
        for picks in itertools.zip_longest(*shuffled):
            yield rng.sample([p for p in picks if p is not None],
                             sum(p is not None for p in picks))


def rounds_per_pass(workload) -> int:
    return 1 if workload.strata == 1 else math.ceil(len(workload.keys) / workload.strata)


def run_ops(workload, seed: int, seconds: float | None, recorder=None) -> dict:
    """Run whole rounds until ``seconds`` pass, or one pass if ``None``."""
    import spans
    from pipeline import clear_memo_caches

    clear_memo_caches()
    stream = rounds(workload.keys, workload.cost, workload.strata, random.Random(seed))
    limit = None if seconds is not None else rounds_per_pass(workload)
    latencies, results, failures = [], {}, []
    start = time.perf_counter()
    for count, round_keys in enumerate(stream):
        if limit is not None and count >= limit:
            break
        if limit is None and latencies and time.perf_counter() - start >= seconds:
            break
        for key in round_keys:
            workload.before(key)
            began = time.perf_counter()
            try:
                if recorder is None:
                    result = workload.run(key)
                else:
                    with recorder.span("op", op=len(latencies), key=repr(key)) as record:
                        before = spans.memo_counts()
                        result = workload.run(key)
                        record.update(spans.memo_delta(before))
            except Exception as exc:  # one failing op is reported, not fatal
                failures.append(f"{workload.name} {key}: {type(exc).__name__}: {exc}")
                result = None
            latencies.append(time.perf_counter() - began)
            if result is None:
                continue
            if key in results and results[key] != result:
                failures.append(f"{workload.name} {key}: result differs between passes")
            results.setdefault(key, result)
    return {
        "wall": time.perf_counter() - start,
        "latencies": latencies,
        "results": results,
        "failures": failures,
    }


def run_checks(workload, results: dict, rng, wrong: bool) -> list[str]:
    failures = []
    for key in workload.check_sample(rng, results):
        try:
            problem = workload.check(key, results[key], wrong)
        except Exception as exc:  # a crashing reference is a failed check
            problem = f"{workload.name} {key}: check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    return failures


def inprocess(args, scratch: str, import_s: float) -> dict:
    import pipeline

    rng = random.Random(args.seed)
    factory = pipeline.WORKLOADS[args.workload]
    if args.trace:
        workload = factory()
        workload.prepare()
        return inprocess_traced(args, workload, scratch, rng)

    prep_times = []
    for _ in range(SETUPS):
        workload = factory()
        began = time.perf_counter()
        workload.prepare()
        prep_times.append(time.perf_counter() - began)
    run = run_ops(workload, args.seed, args.seconds)
    rss = peak_rss_mb()
    failures = run["failures"]
    failures += run_checks(workload, run["results"], rng, args.wrong_reference)
    cli_ms = cli_latency(workload.cli_sources(), rng, scratch, failures)
    latencies = run["latencies"]
    metrics = {
        "setup_s": import_s + p50(prep_times),
        "ops_per_s": len(latencies) / run["wall"],
        "op_ms_p50": p50(latencies) * 1000.0,
        "op_ms_p90": p90(latencies) * 1000.0,
        "peak_rss_mb": rss,
        "cli_ms_p50": cli_ms,
    }
    extra = dict.fromkeys(EXTRA_UNITS, 0.0)
    extra.update(workload.quality(run["results"]))
    return {"metrics": metrics, "extra": extra, "attempted": len(latencies) + CLI_SAMPLES,
            "failures": failures, "samples": len(latencies)}


def inprocess_traced(args, workload, scratch: str, rng) -> dict:
    import spans

    reference = run_ops(workload, args.seed, args.seconds)
    recorder = spans.Recorder()
    spans.install(recorder)
    traced = run_ops(workload, args.seed, None, recorder)
    # The checks below call traced layers too; they are not the workload's.
    index = spans.SpanIndex(list(recorder.spans))
    failures = reference["failures"] + traced["failures"]
    failures += run_checks(workload, traced["results"], rng, args.wrong_reference)

    ops = index.named("op")
    shared = min(len(reference["latencies"]), len(traced["latencies"]))
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(spans.layer_metrics(index))
    metrics.update(workload.quality(traced["results"]))
    metrics.update({
        "repro.import_s": import_seconds(scratch),
        "trace.overhead_share": (
            sum(traced["latencies"][:shared]) / sum(reference["latencies"][:shared]) - 1.0
        ),
        "trace.uncovered_share": spans.uncovered_share(index, ops),
        "trace.ops": len(ops),
    })
    save_spans(args, index.spans)
    return {"metrics": metrics, "extra": {}, "attempted": len(traced["latencies"]),
            "failures": failures, "samples": len(traced["latencies"])}


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "simulate", "validate", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="check outputs against a deliberately wrong "
                             "reference (the self-test uses this)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  (timed: import is part of set-up)
    import pipeline  # noqa: F401
    import_s = time.perf_counter() - began
    if not os.path.abspath(repro.__file__).startswith(SRC):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["REPRO_LEDGER_DIR"] = os.path.join(scratch, "ledger")
    try:
        if args.workload == "serve":
            import service

            outcome = service.run(args, scratch, import_s)
        else:
            outcome = inprocess(args, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = outcome["failures"]
    attempted = max(1, outcome["attempted"])
    outcome["extra"]["failed_share"] = len(failures) / attempted
    if args.trace:
        outcome["metrics"]["failed_share"] = len(failures) / attempted
    units = LAYER_UNITS if args.trace else UNITS
    for failure in failures:
        print(f"FAILED {failure}")
    for note in outcome.get("notes", []):
        print(f"NOTE {note}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={outcome['samples']} attempted={attempted} failed={len(failures)}")
    for name, value in {**outcome["metrics"], **outcome["extra"]}.items():
        unit = units.get(name) or EXTRA_UNITS.get(name, "")
        print(f"  {name:28s} {value:14.6g} {unit}")
    values = {}
    for name, unit in units.items():
        value = float(outcome["metrics"][name])
        if not math.isfinite(value):
            print(f"perfbench: metric {name} is not finite", file=sys.stderr)
            return 1
        values[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
