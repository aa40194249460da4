"""Spans for the traced run, recorded around calls into each layer.

The program's source is never edited. :func:`install` replaces each
layer entry point listed in :data:`TARGETS` with a wrapper, wherever a
``repro`` module or class holds a reference to it, so calls made inside
the program (``compound`` calling ``region_dependences``, lint calling
``verify_fixit``) are timed as well as the benchmark's own calls.

A span records its name, start and end (``time.monotonic``, which is the
same clock in every process on one machine), the span that caused it,
and the op it belongs to. Spans stay in memory and are written out as
JSON lines when the run ends; a forked pool worker writes its spans when
its top-level call returns, because the pool ends the worker with
``os._exit``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

clock = time.monotonic


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, out_path: str | None = None):
        self.out_path = out_path
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._forked = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        """Record one span around the ``with`` body; yields its attrs."""
        stack = self._stack()
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "op": op if op is not None or not stack else stack[-1]["op"],
                  "start": clock(), **attrs}
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = clock()
            self.spans.append(record)
            if self._forked and not stack:
                self.flush()

    def after_fork(self) -> None:
        """In a forked child: drop the parent's spans, flush per call."""
        self.spans = []
        self._local = threading.local()
        self._forked = True

    def flush(self) -> None:
        """Append the recorded spans to ``out_path`` and forget them."""
        if not self.out_path or not self.spans:
            return
        pid = os.getpid()
        path = f"{self.out_path}.{pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({**record, "pid": pid}) + "\n")
        self.spans = []


def read_spans(prefix: str) -> list[dict]:
    """Every span written under ``prefix`` by :meth:`Recorder.flush`."""
    directory, base = os.path.split(prefix)
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(base + ".") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle)
    return spans


# ----------------------------------------------------------------------
# What each wrapper measures besides time.


def _chars(args, kwargs, result):
    return {"chars": len(args[0])}


def _edges(args, kwargs, result):
    return {"edges": len(result)}


def _nests_changed(args, kwargs, result):
    changed = sum(
        1 for report in result.nests
        if report.status == "perm" or report.inner_status == "perm"
        or report.distributed
    )
    return {"changed": changed + result.nests_fused}


def _exact(args, kwargs, result):
    return {"exact": bool(result.exact)}


def _block(args, kwargs, result):
    return {"accesses": len(result),
            "misses": len(result) - int(result.hits.sum())}


def _reuse(args, kwargs, result):
    return {"accesses": result.accesses}


def _server_key(args, kwargs, result):
    # execute(endpoint, canonical_text, digest, params, fault)
    return {"key": f"{args[0]}:{args[2]}"}


def _request_key(args, kwargs, result):
    # parse_request(endpoint, body, debug_faults)
    return {"key": f"{args[0]}:{result.digest}"}


#: span name -> (module, attribute path, measure). The span name's
#: first component is the layer (a ``src/repro/`` package).
TARGETS = {
    "frontend.parse_program": ("repro.frontend.parser", "parse_program", _chars),
    "ir.pretty_program": ("repro.ir.pretty", "pretty_program", None),
    "dependence.region_dependences": (
        "repro.dependence.pairs", "region_dependences", _edges),
    "model.memory_order": ("repro.model.loopcost", "CostModel.memory_order", None),
    "transforms.compound": ("repro.transforms.compound", "compound", _nests_changed),
    "locality.predict_locality": (
        "repro.locality.analytic", "predict_locality", _exact),
    "exec.compile_block_trace": (
        "repro.exec.blocktrace", "compile_block_trace", None),
    "exec.block_run": ("repro.exec.blocktrace", "CompiledBlockTrace.run", None),
    "exec.compile_trace": ("repro.exec.codegen", "compile_trace", None),
    "exec.event_run": ("repro.exec.codegen", "CompiledTrace.run", None),
    "exec.simulate": ("repro.exec.timing", "simulate", None),
    "cache.access_block": ("repro.cache.cache", "SetAssocCache.access_block", _block),
    "cache.reuse_init": ("repro.cache.reuse", "ReuseDistanceAnalyzer.__init__", None),
    "cache.reuse_profile": ("repro.cache.reuse", "reuse_profile", _reuse),
    "lint.lint_program": ("repro.lint.engine", "lint_program", None),
    "verify.verify_fixit": ("repro.lint.verifyfix", "verify_fixit", None),
    "autotune.autotune": ("repro.autotune.search", "autotune", None),
    "server.execute": ("repro.server.handlers", "execute", _server_key),
    "server.parse_request": ("repro.server.protocol", "parse_request", _request_key),
}


def memo_counts() -> tuple[int, int]:
    from repro.model.memo import cache_stats

    stats = cache_stats()
    return (sum(s["hits"] for s in stats), sum(s["misses"] for s in stats))


def memo_delta(before: tuple[int, int]) -> dict:
    hits, misses = memo_counts()
    return {"memo_hits": hits - before[0], "memo_misses": misses - before[1]}


def _wrap(recorder: Recorder, name: str, fn, measure):
    memo = name == "server.execute"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            if memo:
                before = memo_counts()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["error"] = type(exc).__name__
                raise
            if measure is not None:
                record.update(measure(args, kwargs, result))
            if memo:
                record.update(memo_delta(before))
            return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target wherever a ``repro`` module or class refers to it."""
    for name, (module_name, path, measure) in TARGETS.items():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _wrap(recorder, name, original, measure)
        setattr(owner, attr, wrapper)
        if outer:
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    os.register_at_fork(after_in_child=recorder.after_fork)


# ----------------------------------------------------------------------
# Per-layer metrics derived from the span records.


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class SpanIndex:
    """Spans of one process tree, keyed for parent/child queries."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {(s.get("pid"), s["id"]): s for s in spans}
        self.children: dict = {}
        for span in spans:
            if span["parent"] is not None:
                key = (span.get("pid"), span["parent"])
                self.children.setdefault(key, []).append(span)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def ancestors(self, span: dict):
        parent = span["parent"]
        while parent is not None:
            span = self.by_id[(span.get("pid"), parent)]
            yield span
            parent = span["parent"]

    def busy(self, name: str, exclude: str | None = None) -> float:
        """Time inside ``name`` spans, nested repeats counted once.

        With ``exclude``, time inside ``exclude`` spans nested within is
        taken out (``lint`` busy time without its verification).
        """
        total = 0.0
        for span in self.named(name):
            if any(a["name"] == name for a in self.ancestors(span)):
                continue
            total += _duration(span)
            if exclude:
                total -= sum(
                    _duration(d) for d in self._outermost(span, exclude)
                )
        return total

    def _outermost(self, span: dict, name: str):
        for child in self.children.get((span.get("pid"), span["id"]), ()):
            if child["name"] == name:
                yield child
            else:
                yield from self._outermost(child, name)

    def self_time(self, name: str) -> float:
        """Time in ``name`` spans not covered by their child spans."""
        total = 0.0
        for span in self.named(name):
            children = self.children.get((span.get("pid"), span["id"]), ())
            total += _duration(span) - sum(_duration(c) for c in children)
        return total

    def total(self, name: str, field: str) -> float:
        return sum(s.get(field, 0) for s in self.named(name))


def layer_metrics(index: SpanIndex) -> dict[str, float]:
    """The per-layer metrics every workload reports (0 where unused)."""
    parse = index.busy("frontend.parse_program")
    compound_spans = index.named("transforms.compound")
    predictions = index.named("locality.predict_locality")
    blocks = index.named("cache.access_block")
    block_accesses = sum(s["accesses"] for s in blocks)
    stream = sum(
        _duration(s) for s in index.named("exec.event_run")
        if any(a["name"] == "cache.reuse_profile" for a in index.ancestors(s))
    )
    memo = [s for s in index.spans if "memo_hits" in s]
    memo_hits = sum(s["memo_hits"] for s in memo)
    memo_lookups = memo_hits + sum(s["memo_misses"] for s in memo)
    return {
        "frontend.busy_s": parse,
        "frontend.chars_per_s": (
            index.total("frontend.parse_program", "chars") / parse if parse else 0.0
        ),
        "dependence.busy_s": index.busy("dependence.region_dependences"),
        "dependence.edges": index.total("dependence.region_dependences", "edges"),
        "model.busy_s": index.busy("model.memory_order"),
        "model.cache_hit_ratio": memo_hits / memo_lookups if memo_lookups else 0.0,
        "transforms.busy_s": index.busy("transforms.compound"),
        "transforms.nests_changed": sum(s.get("changed", 0) for s in compound_spans),
        "locality.busy_s": index.busy("locality.predict_locality"),
        "locality.exact_share": (
            sum(1 for s in predictions if s.get("exact")) / len(predictions)
            if predictions else 0.0
        ),
        "ir.busy_s": index.busy("ir.pretty_program"),
        "exec.compile_s": index.busy("exec.compile_block_trace"),
        "exec.tracegen_s": index.self_time("exec.block_run"),
        "exec.accesses": block_accesses,
        "exec.fallbacks": sum(
            1 for s in index.named("exec.compile_block_trace")
            if s.get("error") == "BlockTraceError"
        ),
        "cache.replay_s": index.busy("cache.access_block"),
        "cache.miss_ratio": (
            sum(s["misses"] for s in blocks) / block_accesses
            if block_accesses else 0.0
        ),
        "cache.reuse_init_s": index.busy("cache.reuse_init"),
        "exec.event_compile_s": index.busy("exec.compile_trace"),
        "cache.reuse_stream_s": stream,
        "cache.reuse_accesses": index.total("cache.reuse_profile", "accesses"),
        "lint.busy_s": index.busy("lint.lint_program", exclude="verify.verify_fixit"),
        "autotune.search_s": index.busy(
            "autotune.autotune", exclude="verify.verify_fixit"),
        "verify.busy_s": index.busy("verify.verify_fixit"),
        "verify.calls": len(index.named("verify.verify_fixit")),
    }


def uncovered_share(index: SpanIndex, ops: list[dict], key_spans=None) -> float:
    """Share of op time that no layer span covers.

    In-process ops own their layer spans as children. A served op is
    covered by the server-side root spans that carry its content key
    (``key_spans``: key -> spans), clipped to the op's interval.
    """
    op_time = covered = 0.0
    for op in ops:
        start, end = op["start"], op["end"]
        op_time += end - start
        if key_spans is None:
            pieces = index.children.get((op.get("pid"), op["id"]), ())
        else:
            pieces = key_spans.get(op.get("key"), ())
        intervals = sorted(
            (max(start, s["start"]), min(end, s["end"])) for s in pieces
        )
        reach = start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
    return 1.0 - covered / op_time if op_time else 0.0
