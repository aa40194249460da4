"""Run ``python -m repro serve`` with layer spans, for the traced run.

Usage: ``python tracedserve.py SPANS_PREFIX serve [serve options]``
with the program's ``src`` directory on ``PYTHONPATH``. The server
process writes its spans when it exits; each forked pool worker writes
its own when its compile job returns (see ``spans.py``).
"""

import atexit
import runpy
import sys

import spans


def main() -> None:
    prefix = sys.argv[1]
    import repro.server.app  # noqa: F401  (holds references to wrap)

    recorder = spans.Recorder(prefix)
    spans.install(recorder)
    atexit.register(recorder.flush)
    sys.argv = ["repro", *sys.argv[2:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
