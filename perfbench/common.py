"""Constants and helpers shared by the benchmark's workloads."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Output of traced runs and per-run scratch files (ignored by git).
WORK = os.path.join(ROOT, ".perfbench")
#: Repeats behind ``setup_s``, ``cli_ms_p50`` and ``repro.import_s``.
SETUPS = 3
CLI_SAMPLES = 7
IMPORT_SAMPLES = 3

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "cli_ms_p50": "ms",
}
#: Printed for people beside the gated metrics; each is 0 on the
#: workloads that do not run its path.
EXTRA_UNITS = {
    "failed_share": "ratio",
    "hit_ms_p50": "ms",
    "miss_after_geomean": "ratio",
    "sim_speedup_geomean": "ratio",
    "predict_error_pp_max": "pp",
    "tune_gain_pp_mean": "pp",
}
LAYER_UNITS = {
    "repro.import_s": "s",
    "frontend.busy_s": "s",
    "frontend.chars_per_s": "chars/s",
    "dependence.busy_s": "s",
    "dependence.edges": "count",
    "model.busy_s": "s",
    "model.cache_hit_ratio": "ratio",
    "transforms.busy_s": "s",
    "transforms.nests_changed": "count",
    "locality.busy_s": "s",
    "locality.exact_share": "ratio",
    "ir.busy_s": "s",
    "exec.compile_s": "s",
    "exec.tracegen_s": "s",
    "exec.accesses": "count",
    "exec.fallbacks": "count",
    "cache.replay_s": "s",
    "cache.miss_ratio": "ratio",
    "cache.reuse_init_s": "s",
    "exec.event_compile_s": "s",
    "cache.reuse_stream_s": "s",
    "cache.reuse_accesses": "count",
    "lint.busy_s": "s",
    "autotune.search_s": "s",
    "verify.busy_s": "s",
    "verify.calls": "count",
    "server.hit_ratio": "ratio",
    "server.coalesced": "count",
    "server.non200": "count",
    "server.elapsed_ms_p50": "ms",
    "server.transport_ms_p50": "ms",
    "server.dispatch_ms_p50": "ms",
    "trace.overhead_share": "ratio",
    "trace.uncovered_share": "ratio",
    "trace.ops": "count",
    **EXTRA_UNITS,
}


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subprocess_env(scratch: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_LEDGER_DIR"] = os.path.join(scratch, "ledger")
    return env


def timed_subprocess(argv: list[str], env: dict) -> tuple[float, int]:
    """Wall ms and exit code of one child process, output discarded."""
    start = time.perf_counter()
    done = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=120,
    )
    return (time.perf_counter() - start) * 1000.0, done.returncode


def cli_latency(sources: dict[str, str], rng, scratch: str, failures: list) -> float:
    """Median ms of a one-shot ``python -m repro FILE`` on sampled programs."""
    env = subprocess_env(scratch)
    # One program from each of CLI_SAMPLES source-length strata, so the
    # median program is a middle-sized one whatever the seed.
    ordered = sorted(sources, key=lambda name: (len(sources[name]), name))
    size = len(ordered) // CLI_SAMPLES
    picks = [rng.choice(ordered[i * size:(i + 1) * size]) for i in range(CLI_SAMPLES)]
    times = []
    for name in picks:
        path = os.path.join(scratch, f"{name}.f")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(sources[name])
        ms, code = timed_subprocess([sys.executable, "-m", "repro", path], env)
        if code != 0:
            failures.append(f"cli {name}: exit code {code}")
        times.append(ms)
    return p50(times)


def import_seconds(scratch: str) -> float:
    """Median wall seconds of ``python -c "import repro"``."""
    env = subprocess_env(scratch)
    argv = [sys.executable, "-c", "import repro"]
    return p50([timed_subprocess(argv, env)[0] / 1000.0 for _ in range(IMPORT_SAMPLES)])


def save_spans(args, records: list[dict]) -> None:
    path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
