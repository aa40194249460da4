"""The harness shared by every ``python -m repro`` entry point.

* :class:`Args` — the argv reader: flags, string and integer options,
  and the leftover (positional) arguments. Usage errors raise
  :class:`UsageError`, which :func:`dispatch` turns into exit 2.
* :class:`Session` — one observability and ledger session per run. It
  reads the obs flags a command accepts, builds the single :class:`Obs`
  (tracemalloc runs for ``--profile``), and :meth:`Session.finish`
  prints the remarks / metrics / phase-profile sections, writes the
  ``--trace`` / ``--chrome-trace`` files and appends the ledger record.
* :func:`read_source` / :func:`write_text` — file I/O that reports an
  unreadable or unwritable path in one line instead of a traceback.

The table of entry points, the obs flags each accepts and its ledger
kind is in ``docs/observability.md``.
"""

from __future__ import annotations

import os
import sys

from repro.obs import NULL_OBS, Obs, use_obs


class UsageError(Exception):
    """A malformed command line; the message is printed and the exit is 2."""


def parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} expects an integer, got {text!r}") from None


class Args:
    """The arguments of one command, consumed as the command reads them."""

    def __init__(self, argv: list[str], prog: str):
        self.argv = list(argv)
        self.rest = list(argv)
        self.prog = prog

    def help(self, text: str) -> bool:
        """Print ``text`` and return True when -h/--help was given."""
        if "-h" not in self.rest and "--help" not in self.rest:
            return False
        emit(text)
        return True

    def flag(self, name: str) -> bool:
        if name in self.rest:
            self.rest.remove(name)
            return True
        return False

    def option(self, name: str, default: str | None = "") -> str | None:
        if name not in self.rest:
            return default
        index = self.rest.index(name)
        self.rest.pop(index)
        if index >= len(self.rest):
            raise UsageError(f"missing value for {name}")
        return self.rest.pop(index)

    def int_option(self, name: str, default: int | None) -> int | None:
        text = self.option(name, None)
        return default if text is None else parse_int(name, text)

    def positional(self, count: int | None = None, expected: str = "") -> list[str]:
        """The leftover arguments once every option is read.

        A leftover flag is an error; with ``count=0`` so is any leftover,
        and any other ``count`` must match (``expected`` says what is
        wrong otherwise).
        """
        unknown = self.rest if count == 0 else [a for a in self.rest if a.startswith("-")]
        if unknown:
            raise UsageError(f"{self.prog}: unknown arguments {unknown}")
        if count is not None and len(self.rest) != count:
            raise UsageError(expected)
        return self.rest


def dispatch(argv, commands: dict, default, prog: str = "", doc: str | None = None) -> int:
    """Run ``commands[argv[0]]`` on the rest of argv, else ``default`` on
    all of it; ``doc`` is printed for -h/--help anywhere in argv. A usage
    error prints its message and exits 2."""
    argv = list(argv)
    try:
        if doc is not None and Args(argv, prog).help(doc):
            return 0
        if argv and argv[0] in commands:
            return commands[argv[0]](Args(argv[1:], f"{prog} {argv[0]}".strip()))
        return default(Args(argv, prog or "repro"))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


def emit(text: str) -> None:
    """Print to stdout; a reader that closes the pipe early (``| head``)
    is not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter-exit flush does
        # not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def read_source(path: str) -> str | None:
    """The file's text, or None after printing ``cannot read``."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def _guarded(path: str, write, *args):
    """``write(*args)``, or None after printing ``cannot write``."""
    try:
        return write(*args)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return None


def _put(path: str, text: str) -> bool:
    with open(path, "w") as handle:
        handle.write(text)
    return True


def write_text(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; False after printing ``cannot write``."""
    return bool(_guarded(path, _put, path, text))


def output(path: str, text: str) -> bool:
    """The command's main text: a line to ``path`` if given, else stdout."""
    if path:
        return write_text(path, text + "\n")
    print(text)
    return True


class Session:
    """The observability and ledger session of one command run.

    ``flags`` names the obs flags the command accepts, out of
    ``--explain``, ``--metrics``, ``--profile``, ``--trace``,
    ``--chrome-trace`` and ``--no-ledger``. An :class:`Obs` is built
    when one of them asks for it; ``observe="ledger"`` also builds it
    whenever the run is ledgered and ``"always"`` builds it always.
    ``kind`` is the ledger kind (None: the run is not ledgered).
    ``with session:`` installs the Obs around the work;
    :meth:`finish` reports it.
    """

    def __init__(
        self,
        args: Args,
        flags: tuple[str, ...],
        *,
        kind: str | None = None,
        headings: tuple[str, str] | None = None,
        observe: str = "flags",
    ):
        accepts = set(flags)
        self.args = args
        self.explain = "--explain" in accepts and args.flag("--explain")
        self.metrics = "--metrics" in accepts and args.flag("--metrics")
        self.profile = "--profile" in accepts and args.flag("--profile")
        no_ledger = "--no-ledger" in accepts and args.flag("--no-ledger")
        self.kind = kind if not no_ledger else None
        self.trace = args.option("--trace") if "--trace" in accepts else ""
        self.chrome = args.option("--chrome-trace") if "--chrome-trace" in accepts else ""
        self.headings = headings or (f"{args.prog} remarks", f"{args.prog} metrics")
        wanted = (
            self.explain or self.metrics or self.profile or self.trace or self.chrome
            or observe == "always" or (observe == "ledger" and self.kind is not None)
        )
        self.obs = Obs(profile=self.profile) if wanted else NULL_OBS
        self._tracing_memory = False

    def __enter__(self) -> Session:
        if self.profile:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracing_memory = True
        self._installed = use_obs(self.obs)
        self._installed.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._installed.__exit__(*exc_info)
        if self._tracing_memory:
            import tracemalloc

            tracemalloc.stop()
            self._tracing_memory = False

    def finish(
        self,
        *,
        argv: list[str] | None = None,
        config: dict | None = None,
        bench: dict | None = None,
        phases: dict | None = None,
    ) -> int:
        """Print the obs sections, write the traces and append the ledger
        record (``argv`` defaults to the command's full argv); 0, or 1
        when a trace file or the ledger cannot be written."""
        from repro.obs import LedgerError, ledger, render_profile, write_chrome_trace, write_jsonl
        from repro.stats.report import render_metrics, render_remarks

        obs = self.obs
        remarks_heading, metrics_heading = self.headings
        if self.explain:
            print(f"\n--- {remarks_heading} ---", file=sys.stderr)
            print(render_remarks(obs.remarks, title=""), file=sys.stderr)
        if self.metrics:
            print(f"\n--- {metrics_heading} ---", file=sys.stderr)
            print(render_metrics(obs.metrics, title=""), file=sys.stderr)
        if self.profile:
            print("\n--- phase profile ---", file=sys.stderr)
            print(render_profile(obs.tracer.spans, obs.metrics, title=""), file=sys.stderr)
        if self.trace:
            records = _guarded(self.trace, write_jsonl, obs, self.trace)
            if records is None:
                return 1
            print(f"wrote {records} trace records to {self.trace}", file=sys.stderr)
        if self.chrome:
            events = _guarded(self.chrome, write_chrome_trace, obs, self.chrome)
            if events is None:
                return 1
            print(
                f"wrote {events} trace events to {self.chrome} "
                f"(load at https://ui.perfetto.dev)",
                file=sys.stderr,
            )
        if self.kind is None:
            return 0
        if phases is None:
            phases = ledger.phases_from_obs(obs) if obs.enabled else {}
        try:
            ledger.append_record(
                ledger.make_record(
                    self.kind,
                    self.args.argv if argv is None else argv,
                    config=config,
                    phases=phases,
                    metrics=ledger.counters_from_obs(obs) if obs.enabled else {},
                    bench=bench,
                )
            )
        except (LedgerError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
