"""Self-test of the benchmark itself.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
(about five minutes on two cores; the serve pass dominates).

For every workload in ``BENCHMARK.json`` it makes one untraced run and
one traced run at the shortest length the benchmark accepts
(``--seconds 1``) and checks that:

* the last line of output is the result object, with every declared
  metric present, finite and carrying its declared unit;
* every failed op of the untraced run is printed (the program's own
  defects are reported, not asserted away);
* the traced run, made with ``--wrong-reference``, reports failures:
  a deliberately wrong reference must not pass the output checks.

Last, it runs the benchmark in a directory holding only
``BENCHMARK.json`` and the benchmark's files, where it must exit with a
non-zero code and print no result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout.strip().splitlines()


def check_result(lines: list[str], declared: list[dict], label: str) -> dict:
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json")
    for metric in declared:
        value = result["metrics"][metric["name"]]
        if value["unit"] != metric["unit"] or not math.isfinite(value["value"]):
            raise AssertionError(f"{label}: {metric['name']} = {value}")
    if result["attempted"] < 1:
        raise AssertionError(f"{label}: nothing attempted")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            base = ["--workload", workload, "--seed", "7", "--seconds", "1"]
            code, lines = run([*base, "--trace", "0"])
            if code:
                raise AssertionError(f"{workload}: exit {code}")
            check_result(lines, spec["end_to_end"], f"{workload} untraced")
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"{workload}: {line}")
            code, lines = run([*base, "--trace", "1", "--wrong-reference"])
            if code:
                raise AssertionError(f"{workload} traced: exit {code}")
            result = check_result(lines, spec["per_layer"], f"{workload} traced")
            if result["correct"] or not result["failed"]:
                raise AssertionError(f"{workload}: a wrong reference passed the checks")
            if result["metrics"]["failed_share"]["value"] <= 0:
                raise AssertionError(f"{workload}: failed_share stayed 0")
            print(f"ok {workload}")

        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(["--workload", "compile", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        if code == 0 or any(line.startswith("{") for line in lines):
            raise AssertionError("run without the program did not fail cleanly")
        print("ok no-program run fails")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
