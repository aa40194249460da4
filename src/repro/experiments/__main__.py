"""CLI: ``python -m repro.experiments [names...] [--full] [--save DIR]
[--trace FILE] [--chrome-trace FILE] [--profile] [--jobs N] [--no-ledger]``.

Runs the requested experiments (default: all) and prints the paper-style
tables; ``--save DIR`` additionally writes each rendered table to
``DIR/<name>.txt`` so EXPERIMENTS.md can be refreshed from artifacts.
``--trace FILE`` records per-experiment (and per-kernel) spans plus
pipeline metrics to a JSONL file, making benchmark regressions
diagnosable from the trace alone. ``--chrome-trace FILE`` writes the
same span forest as a Chrome trace-event / Perfetto JSON — with
``--jobs N`` the worker shards render as their own lanes. ``--profile``
prints the hierarchical phase profile (wall + CPU + peak memory) to
stderr after the tables. ``--jobs N`` shards the per-kernel simulations
of the table experiments across N worker processes (equivalent to
setting ``REPRO_JOBS=N``); results are identical to a serial run, and
worker metrics/spans merge back shard-deduplicated.

Every invocation appends a run record to ``.repro/ledger.jsonl``
(``--no-ledger`` or ``REPRO_LEDGER=0`` skips it); render the history
with ``python -m repro report``.
"""

from __future__ import annotations

import os
import sys
import time

from repro import cli
from repro.experiments import EXPERIMENTS, run_all


def _run(args: cli.Args) -> int:
    full = args.flag("--full")
    # One context for every observability sink (see docs/observability.md).
    session = cli.Session(
        args, ("--profile", "--no-ledger", "--trace", "--chrome-trace"),
        kind="experiments", observe="ledger",
    )
    save_dir = args.option("--save")
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
    jobs = args.option("--jobs", None)
    if jobs is not None:
        cli.parse_int("--jobs", jobs)
        os.environ["REPRO_JOBS"] = jobs
    names = args.positional()

    def deliver(name: str, text: str) -> None:
        print(text)
        print()
        if save_dir:
            with open(os.path.join(save_dir, f"{name}.txt"), "w") as handle:
                handle.write(text + "\n")

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}")
        print(f"available: {', '.join(EXPERIMENTS)}")
        return 2
    ran: list[str] = []
    with session:
        if names:
            for name in names:
                module = EXPERIMENTS[name]
                start = time.time()
                with session.obs.span(f"experiment.{name}"):
                    deliver(name, module.render(module.run()))
                ran.append(name)
                print(f"[{name}: {time.time() - start:.1f}s]\n")
        else:
            for name, text in run_all(quick=not full).items():
                deliver(name, text)
                ran.append(name)
    return session.finish(
        config={"experiments": ran, "full": full,
                "jobs": os.environ.get("REPRO_JOBS", "1")},
    )


def main(argv: list[str]) -> int:
    return cli.dispatch(argv, {}, _run, prog="experiments", doc=__doc__)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
