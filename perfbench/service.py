"""The ``serve`` workload: ``python -m repro serve`` under a closed loop.

The server runs in its own process (``--port 0 --jobs 2``). One
generator process keeps two connections busy, each sending its next
request only when the previous reply has arrived, as build tools do.
Every program of the ``all`` set at ``mini`` is requested on each
endpoint with protocol defaults (verification on) and sent twice:

* three keys in four are sent again a few requests later, either
  identical or alpha-renamed, so the repeat is a content-addressed hit;
* one key in four is sent as two concurrent requests, so the repeat
  joins the first in single flight.

A run sends the whole stream once. One request (lint of ``doitgen``
with unbounded verification) holds the batch dispatcher for about
16 s, so a window shorter than a pass would report a throughput that
depends on whether that request fell inside it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
import uuid

from common import (
    CLI_SAMPLES, EXTRA_UNITS, LAYER_UNITS, ROOT, SETUPS, cli_latency,
    import_seconds, p50, p90, save_spans, subprocess_env,
)

ENDPOINTS = ("optimize", "locality", "lint", "autotune")
CONNECTIONS = 2
#: One key in TWIN_EVERY is sent as two concurrent requests.
TWIN_EVERY = 4
#: Stream positions between a key's first send and its repeat.
LAG = 8
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
CHECKS = 4
MARKER = "PERFBENCH_SERVER_RUN"


# ----------------------------------------------------------------------
# Inputs


def _renamed(program, rng):
    """An alpha-renamed spelling: new loop names, declarations reversed."""
    from repro.ir.nodes import Program
    from repro.ir.visit import iter_loops, rename_loops

    loops = sorted({loop.var for loop in iter_loops(program)})
    used = set(loops) | {d.name for d in program.arrays}
    used |= {name for name, _ in program.params}
    mapping = {}
    for var in loops:
        candidate = f"{var}{rng.choice('QWZ')}{rng.randrange(10)}"
        while candidate in used:
            candidate += "X"
        used.add(candidate)
        mapping[var] = candidate
    body = tuple(rename_loops(node, mapping) for node in program.body)
    return Program(program.name + "R", program.params,
                   tuple(reversed(program.arrays)), body)


def make_stream(seed: int) -> list[dict]:
    """The seeded request stream: one dict per request, in send order."""
    from repro.ir import pretty_program
    from repro.suite import get_set

    rng = random.Random(seed)
    programs = {e.name: e.program(instance="mini") for e in get_set("all").entries()}
    keys = [(endpoint, name) for name in sorted(programs) for endpoint in ENDPOINTS]
    # Each program has one twin endpoint, rotating, so every seed sends
    # the same keys as twins and only their order changes.
    twins = {key for position, key in enumerate(keys)
             if (position + position // len(ENDPOINTS)) % TWIN_EVERY == 0}
    # Endpoints take turns in a fixed pattern and the seed orders the
    # programs of each, so a slow lint or autotune is always followed by
    # the same kind of request and runs differ only in which programs
    # meet.
    orders = {endpoint: rng.sample(sorted(programs), len(programs))
              for endpoint in ENDPOINTS}
    keys = [(endpoint, orders[endpoint][turn])
            for turn in range(len(programs)) for endpoint in ENDPOINTS]

    def request(endpoint, name, spelling, twin=None, second=False):
        source = pretty_program(
            programs[name] if spelling == "same" else _renamed(programs[name], rng)
        )
        return {"endpoint": endpoint, "program": name, "spelling": spelling,
                "body": json.dumps({"source": source}).encode(), "twin": twin,
                "second": second}

    stream, later = [], []
    for endpoint, name in keys:
        repeat = rng.choice(("same", "renamed"))
        if (endpoint, name) in twins:
            barrier = threading.Barrier(2)
            stream.append(request(endpoint, name, "same", barrier))
            stream.append(request(endpoint, name, repeat, barrier, second=True))
        else:
            stream.append(request(endpoint, name, "same"))
            later.append((len(stream) + LAG, request(endpoint, name, repeat)))
        while later and later[0][0] <= len(stream):
            stream.append(later.pop(0)[1])
    stream.extend(item for _, item in later)
    for index, item in enumerate(stream):
        item["index"] = index
    return stream


# ----------------------------------------------------------------------
# The server process


class Server:
    """One ``repro serve`` child process, booted and stopped cleanly."""

    def __init__(self, argv: list[str], scratch: str):
        self.tag = uuid.uuid4().hex
        env = subprocess_env(scratch)
        env[MARKER] = self.tag
        self.log_path = os.path.join(scratch, f"server-{self.tag}.log")
        began = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        lines: queue.Queue = queue.Queue()

        def read_stdout() -> None:
            # Drains stdout for the server's whole life; "" marks its end.
            for line in self.proc.stdout:
                lines.put(line)
            lines.put("")

        self._reader = threading.Thread(target=read_stdout, daemon=True)
        self._reader.start()
        self.port = None
        while self.port is None:
            try:
                line = lines.get(timeout=BOOT_TIMEOUT_S)
            except queue.Empty:
                line = ""
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
            elif not line:
                self.stop()
                raise RuntimeError(f"server did not boot; see {self.log_path}")
        status, _, _ = self.request("GET", "/healthz")
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")
        self.boot_s = time.perf_counter() - began

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, {k.lower(): v for k, v in response.getheaders()}, data
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list[str]:
        """SIGTERM, wait for the drain, and report processes left behind."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("server ignored SIGTERM and was killed")
        self._reader.join(timeout=STOP_TIMEOUT_S)
        if self.proc.returncode not in (0, -signal.SIGTERM, None):
            problems.append(f"server exited with code {self.proc.returncode}")
        for pid in _tagged_processes(self.tag):
            problems.append(f"process {pid} outlived the server")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return problems


def _tagged_processes(tag: str) -> list[int]:
    """Live processes whose environment carries this server's marker."""
    needle = f"{MARKER}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def serve_argv(traced_prefix: str | None) -> list[str]:
    options = ["serve", "--port", "0", "--jobs", "2"]
    if traced_prefix is None:
        return [sys.executable, "-m", "repro", *options]
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracedserve.py")
    return [sys.executable, script, traced_prefix, *options]


# ----------------------------------------------------------------------
# The closed loop


def drive(server: Server, stream: list[dict], seconds: float | None,
          recorder=None) -> dict:
    """Send the stream over CONNECTIONS closed loops; ``seconds`` cuts it."""
    replies: list = [None] * len(stream)
    cursor = iter(stream)
    lock = threading.Lock()
    errors = []
    stopped = threading.Event()
    for item in stream:
        if item["twin"] is not None:
            item["twin"].reset()
    start = time.perf_counter()

    def loop() -> None:
        while True:
            with lock:
                item = next(cursor, None)
                late = seconds is not None and time.perf_counter() - start >= seconds
                # The second half of a twin pair is cut off only with its
                # first half: the pair is adjacent in the stream, so a
                # second taken before the cut has its first in flight.
                if item is None or stopped.is_set() or (late and not item["second"]):
                    stopped.set()
                    return
            try:
                if item["twin"] is not None:
                    item["twin"].wait(timeout=REQUEST_TIMEOUT_S)
                replies[item["index"]] = send(server, item, recorder)
            except Exception as exc:  # recorded per request, never fatal
                errors.append(f"request {item['index']}: {type(exc).__name__}: {exc}")
                if item["twin"] is not None:
                    item["twin"].abort()

    threads = [threading.Thread(target=loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall": time.perf_counter() - start, "replies": replies, "errors": errors}


def send(server: Server, item: dict, recorder) -> dict:
    path = f"/v1/{item['endpoint']}"
    if recorder is None:
        began = time.perf_counter()
        status, headers, body = server.request("POST", path, item["body"])
        latency = time.perf_counter() - began
    else:
        with recorder.span("op", op=item["index"]) as record:
            status, headers, body = server.request("POST", path, item["body"])
            record["key"] = f"{item['endpoint']}:{headers.get('x-repro-digest', '')}"
        latency = record["end"] - record["start"]
    return {"status": status, "latency": latency, "body": body,
            "cache": headers.get("x-repro-cache", ""),
            "digest": headers.get("x-repro-digest", ""),
            "elapsed_ms": float(headers.get("x-repro-elapsed-ms", 0.0))}


# ----------------------------------------------------------------------
# Checks


def check_replies(stream, replies, rng, wrong: bool) -> tuple[list[str], list[str]]:
    """Non-200s, hits equal to misses, sampled bodies equal in-process.

    Returns ``(failures, notes)``. A note is a sampled body that equals
    the cold in-process one except for analysis remarks the server left
    out (see :func:`compare_body`); it is printed, not failed.
    """
    failures, notes = [], []
    by_key: dict = {}
    for item, reply in zip(stream, replies):
        if reply is None:
            continue
        if reply["status"] != 200:
            failures.append(f"serve {item['endpoint']} {item['program']}: "
                            f"HTTP {reply['status']} {reply['body'][:200]!r}")
            continue
        by_key.setdefault((item["endpoint"], reply["digest"]), []).append((item, reply))
    for (endpoint, digest), sends in by_key.items():
        first = sends[0][1]["body"]
        if any(reply["body"] != first for _, reply in sends[1:]):
            failures.append(f"serve {endpoint} {sends[0][0]['program']}: "
                            "repeat reply differs from the first")
    for key in rng.sample(sorted(by_key), min(CHECKS, len(by_key))):
        item, reply = by_key[key][0]
        expected = in_process_payload(item)
        if wrong:
            expected["wrong_reference"] = True
        label = f"serve {item['endpoint']} {item['program']}"
        problem, dropped = compare_body(reply["body"], expected)
        if problem:
            failures.append(f"{label}: {problem}")
        elif dropped:
            notes.append(f"{label}: reply omits {dropped} analysis remark(s) "
                         "a cold process emits")
    return failures, notes


def compare_body(body: bytes, expected: dict) -> tuple[str, int]:
    """Compare a reply with the cold in-process payload.

    Returns ``(problem, dropped)``; ``problem`` is empty when the reply
    is correct. Analysis remarks are emitted only on memo-cache misses,
    and a batch of one request runs in the server process, whose memo
    caches earlier requests have warmed, so a correct reply may leave
    out analysis remarks a cold process emits. Everything else must
    match: the reply must be the cold payload, rendered byte for byte,
    with its remark list replaced by an in-order sub-list that drops
    only remarks of kind ``analysis``; ``dropped`` counts them.
    """
    from repro.server.protocol import render_body

    if body == render_body(expected):
        return "", 0
    try:
        got = json.loads(body)
    except ValueError:
        return "body is not JSON", 0
    if not isinstance(got, dict) or "remarks" not in expected:
        return "body differs from the in-process handler", 0
    served = got.get("remarks")
    if not isinstance(served, list) or body != render_body({**expected, "remarks": served}):
        return "body differs from the in-process handler", 0
    rest = iter(served)
    kept = next(rest, None)
    dropped = 0
    for remark in expected["remarks"]:
        if remark == kept:
            kept = next(rest, None)
        elif remark.get("kind") == "analysis":
            dropped += 1
        else:
            return "remarks differ from the in-process handler", 0
    if kept is not None:
        return "remarks differ from the in-process handler", 0
    return "", dropped


def in_process_payload(item: dict) -> dict:
    """The server's reply payload computed in-process by the same handler.

    Memo caches are cleared first, as in a freshly started process, so
    every analysis remark is emitted.
    """
    from repro.ir import pretty_program
    from repro.model.memo import registered_caches
    from repro.server.handlers import execute
    from repro.server.protocol import parse_request

    for memo in registered_caches().values():
        memo.clear()
    request = parse_request(item["endpoint"], item["body"], False)
    return execute(item["endpoint"], pretty_program(request.program),
                   request.digest, request.params, "")[0]


# ----------------------------------------------------------------------


def _summary(stream, replies) -> dict:
    done = [r for r in replies if r is not None]
    latencies = [r["latency"] for r in done]
    hits = [r["latency"] for r in done if r["cache"] == "hit"]
    gains = {}
    for item, reply in zip(stream, replies):
        if reply and reply["status"] == 200 and item["endpoint"] == "autotune":
            payload = json.loads(reply["body"])
            gains[reply["digest"]] = payload["locality"]["improvement_pp"]
    return {
        "latencies": latencies,
        "extra": {
            "hit_ms_p50": p50(hits) * 1000.0,
            "tune_gain_pp_mean": (
                sum(gains[k] for k in sorted(gains)) / len(gains) if gains else 0.0
            ),
        },
    }


def _server_counters(server: Server) -> dict:
    status, _, body = server.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    payload = json.loads(body)
    cache = payload["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "server.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "server.coalesced": payload["singleflight"]["coalesced"],
        "server.non200": sum(
            count for code, count in payload["requests"]["by_status"].items()
            if code != "200"
        ),
    }


def run(args, scratch: str, import_s: float) -> dict:
    rng = random.Random(args.seed)
    gen_times = []
    for _ in range(SETUPS):
        began = time.perf_counter()
        stream = make_stream(args.seed)
        gen_times.append(time.perf_counter() - began)
    if args.trace:
        return _run_traced(args, stream, scratch, rng)

    boots, failures = [], []
    for _ in range(SETUPS - 1):
        spare = Server(serve_argv(None), scratch)
        boots.append(spare.boot_s)
        failures += spare.stop()
    server = Server(serve_argv(None), scratch)
    boots.append(server.boot_s)
    try:
        outcome = drive(server, stream, None)
        rss = server.peak_rss_mb()
    finally:
        failures += server.stop()
    replies = outcome["replies"]
    failures += outcome["errors"]
    checked, notes = check_replies(stream, replies, rng, args.wrong_reference)
    failures += checked
    sources = {item["program"]: json.loads(item["body"])["source"] for item in stream
               if item["spelling"] == "same"}
    cli_ms = cli_latency(sources, rng, scratch, failures)
    summary = _summary(stream, replies)
    latencies = summary["latencies"]
    metrics = {
        "setup_s": import_s + p50(gen_times) + p50(boots),
        "ops_per_s": len(latencies) / outcome["wall"],
        "op_ms_p50": p50(latencies) * 1000.0,
        "op_ms_p90": p90(latencies) * 1000.0,
        "peak_rss_mb": rss,
        "cli_ms_p50": cli_ms,
    }
    extra = dict.fromkeys(EXTRA_UNITS, 0.0)
    extra.update(summary["extra"])
    return {"metrics": metrics, "extra": extra,
            "attempted": len(stream) + CLI_SAMPLES, "failures": failures,
            "notes": notes, "samples": len(latencies)}


def _run_traced(args, stream, scratch: str, rng) -> dict:
    import spans

    failures = []
    server = Server(serve_argv(None), scratch)
    try:
        reference = drive(server, stream, args.seconds)
    finally:
        failures += server.stop()
    prefix = os.path.join(scratch, "spans")
    recorder = spans.Recorder()
    server = Server(serve_argv(prefix), scratch)
    try:
        traced = drive(server, stream, None, recorder)
        counters = _server_counters(server)
    finally:
        failures += server.stop()
    replies = traced["replies"]
    failures += reference["errors"] + traced["errors"]
    checked, notes = check_replies(stream, replies, rng, args.wrong_reference)
    failures += checked

    server_spans = spans.read_spans(prefix)
    index = spans.SpanIndex(server_spans)
    key_spans: dict = {}
    for span in server_spans:
        if span["parent"] is None and "key" in span:
            key_spans.setdefault(span["key"], []).append(span)
    ops = [s for s in recorder.spans if s["name"] == "op"]
    done = [r for r in replies if r is not None]
    answered = [r for r in done if r["status"] == 200]
    executed = {
        s["key"]: s["end"] - s["start"] for s in index.named("server.execute")
    }
    dispatch = [
        r["elapsed_ms"] - executed[key] * 1000.0
        for item, r in zip(stream, replies)
        if r and r["cache"] == "miss"
        and (key := f"{item['endpoint']}:{r['digest']}") in executed
    ]
    shared = [
        i for i, r in enumerate(reference["replies"]) if r is not None and replies[i]
    ]
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(spans.layer_metrics(index))
    metrics.update(counters)
    metrics.update(_summary(stream, replies)["extra"])
    metrics.update({
        "repro.import_s": import_seconds(scratch),
        "server.elapsed_ms_p50": p50([r["elapsed_ms"] for r in answered]),
        "server.transport_ms_p50": p50(
            [r["latency"] * 1000.0 - r["elapsed_ms"] for r in answered]
        ),
        "server.dispatch_ms_p50": p50(dispatch),
        "trace.overhead_share": (
            sum(replies[i]["latency"] for i in shared)
            / sum(reference["replies"][i]["latency"] for i in shared) - 1.0
            if shared else 0.0
        ),
        "trace.uncovered_share": spans.uncovered_share(index, ops, key_spans),
        "trace.ops": len(ops),
    })
    save_spans(args, recorder.spans + server_spans)
    return {"metrics": metrics, "extra": {}, "attempted": len(stream),
            "failures": failures, "notes": notes, "samples": len(done)}
