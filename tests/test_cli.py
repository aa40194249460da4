"""Tests for the command-line translator (python -m repro)."""

import subprocess
import sys

import pytest

MATMUL = """
PROGRAM demo
PARAMETER N = 16
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.f"
    path.write_text(MATMUL)
    return str(path)


class TestCLI:
    def test_transforms_to_memory_order(self, source_file):
        proc = run_cli(source_file)
        assert proc.returncode == 0
        lines = [l.strip() for l in proc.stdout.splitlines()]
        do_lines = [l for l in lines if l.startswith("DO")]
        assert do_lines[0].startswith("DO J")
        assert do_lines[-1].startswith("DO I")

    def test_report(self, source_file):
        proc = run_cli(source_file, "--report")
        assert proc.returncode == 0
        assert "memory order perm" in proc.stderr

    def test_simulate(self, source_file):
        proc = run_cli(source_file, "--simulate")
        assert proc.returncode == 0
        assert "speedup" in proc.stderr

    def test_scalar_replace(self, source_file):
        proc = run_cli(source_file, "--scalar-replace", "--report")
        assert proc.returncode == 0
        assert "T_B = B(K, J)" in proc.stdout
        assert "1 refs promoted" in proc.stderr

    def test_output_file(self, source_file, tmp_path):
        out = tmp_path / "out.f"
        proc = run_cli(source_file, "-o", str(out))
        assert proc.returncode == 0
        assert "DO J" in out.read_text()

    def test_output_reparses(self, source_file, tmp_path):
        from repro.frontend import parse_program

        out = tmp_path / "out.f"
        run_cli(source_file, "-o", str(out))
        program = parse_program(out.read_text())
        assert program.name == "demo"

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.f"
        bad.write_text("PROGRAM x\nDO I = 1, 4\nEND")
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("/nonexistent/file.f")
        assert proc.returncode == 1

    def test_bad_cache_name(self, source_file):
        proc = run_cli(source_file, "--cache", "bogus")
        assert proc.returncode == 2

    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "Usage" in proc.stdout


class TestObservabilityCLI:
    def test_version(self):
        from repro import __version__

        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"repro {__version__}"

    def test_bad_cls_exits_cleanly(self, source_file):
        proc = run_cli(source_file, "--cls", "abc")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--cls expects an integer" in proc.stderr

    def test_explain_emits_remarks(self, source_file):
        proc = run_cli(source_file, "--explain")
        assert proc.returncode == 0
        assert "--- optimization remarks ---" in proc.stderr
        assert "permute:applied" in proc.stderr
        assert "compound:" in proc.stderr

    def test_explain_output_stable(self, source_file):
        first = run_cli(source_file, "--explain")
        second = run_cli(source_file, "--explain")
        assert first.returncode == second.returncode == 0
        assert first.stderr == second.stderr
        assert first.stdout == second.stdout

    def test_metrics_section(self, source_file):
        proc = run_cli(source_file, "--metrics")
        assert proc.returncode == 0
        assert "--- metrics ---" in proc.stderr
        assert "dep.pairs" in proc.stderr
        assert "permute.applied" in proc.stderr

    def test_metrics_with_simulate_reports_cache(self, source_file):
        proc = run_cli(source_file, "--simulate", "--metrics")
        assert proc.returncode == 0
        assert "cache.accesses" in proc.stderr
        assert "cache.misses" in proc.stderr

    def test_trace_writes_valid_jsonl(self, source_file, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        proc = run_cli(source_file, "--trace", str(trace))
        assert proc.returncode == 0
        assert "trace records" in proc.stderr
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert records[0]["type"] == "meta"
        kinds = {record["type"] for record in records}
        assert {"meta", "span", "remark", "counter"} <= kinds

    def test_trace_round_trips_through_reader(self, source_file, tmp_path):
        from repro.obs import read_jsonl

        trace = tmp_path / "trace.jsonl"
        run_cli(source_file, "--trace", str(trace))
        data = read_jsonl(str(trace))
        assert any(remark.pass_name == "permute" for remark in data.remarks)
        assert data.spans_by_name("compound")

    def test_no_obs_flags_no_obs_output(self, source_file):
        proc = run_cli(source_file)
        assert proc.returncode == 0
        assert "remarks" not in proc.stderr
        assert "metrics" not in proc.stderr


class TestVerifySubcommand:
    def test_small_fuzz_run_passes(self):
        proc = run_cli("verify", "--fuzz", "3", "--seed", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "3 cases (seed 0)" in proc.stdout
        assert "0 failures" in proc.stdout
        assert "cache cross-check" in proc.stdout

    def test_help(self):
        proc = run_cli("verify", "--help")
        assert proc.returncode == 0
        assert "--fuzz" in proc.stdout and "--shrink" in proc.stdout

    def test_unknown_argument_exits_2(self):
        proc = run_cli("verify", "--bogus")
        assert proc.returncode == 2

    def test_non_integer_fuzz_exits_2(self):
        proc = run_cli("verify", "--fuzz", "many")
        assert proc.returncode == 2

    def test_budget_env_raises_case_count(self):
        import os

        env = dict(os.environ, REPRO_FUZZ_BUDGET="5")
        proc = run_cli("verify", "--fuzz", "2", "--seed", "0", env=env)
        assert proc.returncode == 0
        assert "5 cases" in proc.stdout

    def test_metrics_flag_prints_counters(self):
        proc = run_cli("verify", "--fuzz", "2", "--seed", "0", "--metrics")
        assert proc.returncode == 0
        assert "verify.cases" in proc.stderr


class TestLocalitySubcommand:
    def test_prediction_summary(self, source_file):
        proc = run_cli("locality", source_file)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "accesses" in proc.stdout
        assert "predicted hit rate" in proc.stdout
        assert "reuse classes:" in proc.stdout

    def test_compare_reports_error_column(self, source_file):
        proc = run_cli(
            "locality", source_file, "--compare", "--line", "64",
            "--capacities", "32,512",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "traced" in proc.stdout and "err" in proc.stdout
        assert "32 lines" in proc.stdout and "512 lines" in proc.stdout

    def test_compare_past_access_limit_is_an_error(self, source_file, monkeypatch, capsys):
        # The 16**3 matmul issues 16384 accesses; cap the analyzer below that.
        import functools

        import repro.cache.reuse as reuse
        from repro.__main__ import main

        monkeypatch.setattr(
            reuse, "reuse_profile", functools.partial(reuse.reuse_profile, max_accesses=1000)
        )
        assert main(["locality", source_file, "--compare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_accesses=1000" in err
        assert "Traceback" not in err

    def test_set_associative_row(self, source_file):
        proc = run_cli("locality", source_file, "--sets", "64", "--assoc", "4")
        assert proc.returncode == 0
        assert "64 sets x 4-way" in proc.stdout

    def test_help(self):
        proc = run_cli("locality", "--help")
        assert proc.returncode == 0
        assert "--compare" in proc.stdout and "--capacities" in proc.stdout

    def test_bad_line_size_exits_nonzero(self, source_file):
        proc = run_cli("locality", source_file, "--line", "48")
        assert proc.returncode != 0

    def test_seed_env_sets_verify_default(self):
        import os

        env = dict(os.environ, REPRO_SEED="3")
        proc = run_cli("verify", "--fuzz", "2", env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "seed 3" in proc.stdout


# ----------------------------------------------------------------------
# Behaviour lock: every entry point x the failure modes of its command
# line, run in-process through each ``main()``.

#: entry point -> (module whose main() runs it, leading argv)
ENTRY_POINTS = {
    "cli": ("repro.__main__", []),
    "verify": ("repro.__main__", ["verify"]),
    "locality": ("repro.__main__", ["locality"]),
    "lint": ("repro.__main__", ["lint"]),
    "autotune": ("repro.__main__", ["autotune"]),
    "report": ("repro.__main__", ["report"]),
    "experiments": ("repro.experiments.__main__", []),
    "suite list": ("repro.suite.__main__", ["list"]),
    "suite run": ("repro.suite.__main__", ["run"]),
}

SRC, BAD = "{src}", "{bad}"  # the source file; a path in a missing directory

#: case -> entry point -> (argv, expected exit code, text the output must hold)
MATRIX = {
    "help": {name: (["--help"], 0, "") for name in ENTRY_POINTS},
    "missing_value": {
        "cli": ([SRC, "--cls"], 2, "missing value for --cls"),
        "verify": (["--fuzz"], 2, "missing value for --fuzz"),
        "locality": ([SRC, "--line"], 2, "missing value for --line"),
        "lint": ([SRC, "--format"], 2, "missing value for --format"),
        "autotune": ([SRC, "--budget"], 2, "missing value for --budget"),
        "report": (["--format"], 2, "missing value for --format"),
        "experiments": (["table1", "--trace"], 2, "missing value for --trace"),
        "suite run": (["smoke", "--instance"], 2, "missing value for --instance"),
    },
    "not_an_integer": {
        "cli": ([SRC, "--cls", "x"], 2, "integer"),
        "verify": (["--fuzz", "x"], 2, "integer"),
        "locality": ([SRC, "--line", "x"], 2, "integer"),
        "lint": ([SRC, "--line", "x"], 2, "integer"),
        "autotune": ([SRC, "--budget", "x"], 2, "integer"),
        "report": (["--last", "x"], 2, "integer"),
        "experiments": (["table1", "--jobs", "x"], 2, "integer"),
        "suite run": (["smoke", "--jobs", "x"], 2, "integer"),
    },
    "unknown_flag": {
        "cli": ([SRC, "--bogus"], 2, ""),
        "verify": (["--bogus"], 2, "unknown arguments"),
        "locality": ([SRC, "--bogus"], 2, ""),
        "lint": ([SRC, "--bogus"], 2, "unknown arguments"),
        "autotune": ([SRC, "--bogus"], 2, ""),
        "report": (["--bogus"], 2, "unknown arguments"),
        "experiments": (["table1", "--bogus"], 2, "unknown arguments"),
        "suite list": (["--bogus"], 2, "unknown arguments"),
        "suite run": (["smoke", "--bogus"], 2, "unknown arguments"),
    },
    "unwritable_output": {
        "cli": ([SRC, "-o", BAD], 1, "cannot write"),
        "lint": ([SRC, "--no-verify", "-o", BAD], 1, "cannot write"),
        "autotune": ([SRC, "--budget", "4", "-o", BAD], 1, "cannot write"),
        "report": (["-o", BAD], 1, "cannot write"),
        "experiments": (["table1", "--trace", BAD], 1, "cannot write"),
        "suite run": (["smoke", "--instance", "mini", "--report", BAD], 1, "cannot write"),
    },
    "unwritable_ledger": {
        "cli": ([SRC], 1, "error:"),
        "lint": ([SRC, "--no-verify"], 1, "error:"),
        "autotune": ([SRC, "--budget", "4"], 1, "error:"),
        "experiments": (["table1"], 1, "error:"),
        "suite list": (["kernel", "--time"], 1, "error:"),
        "suite run": (["smoke", "--instance", "mini"], 1, "error:"),
    },
}


def invoke(entry, argv, capsys):
    """Run one entry point in-process; (exit code, stdout + stderr)."""
    import importlib
    import traceback

    module, prefix = ENTRY_POINTS[entry]
    try:
        code = importlib.import_module(module).main([*prefix, *argv])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "raised"
    out, err = capsys.readouterr()
    return code, out + err


@pytest.mark.parametrize(
    "case,entry",
    [(case, entry) for case, row in MATRIX.items() for entry in row],
    ids=[f"{case}-{entry.replace(' ', '_')}" for case, row in MATRIX.items() for entry in row],
)
def test_cli_behaviour_matrix(case, entry, source_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "1")
    if case == "unwritable_ledger":
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, so no directory can be made under it")
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(blocker / "ledger"))
    argv, expected_code, expected_text = MATRIX[case][entry]
    bad = str(tmp_path / "missing" / "out.txt")
    argv = [arg.format(src=source_file, bad=bad) for arg in argv]
    code, output = invoke(entry, argv, capsys)
    assert code == expected_code, output
    assert expected_text in output
    assert "Traceback" not in output


@pytest.mark.parametrize(
    "module,argv",
    [
        ("repro.experiments.__main__", ["table1", "--ful"]),
        ("repro.suite.__main__", ["--bogus"]),
    ],
)
def test_unknown_flag_is_not_an_argument(module, argv, capsys):
    # A typo must not run the quick tables or list zero programs.
    import importlib

    assert importlib.import_module(module).main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown arguments ['" + argv[-1] + "']" in err


@pytest.mark.parametrize("flag", ["--trace", "--chrome-trace"])
def test_experiments_unwritable_trace_exits_1(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "1")
    bad = str(tmp_path / "missing" / "trace.json")
    code, output = invoke("experiments", ["table1", flag, bad, "--no-ledger"], capsys)
    assert code == 1
    assert f"cannot write {bad}" in output
    assert "Traceback" not in output


@pytest.mark.parametrize("entry", ["cli", "locality", "autotune"])
def test_unknown_flag_named_before_file_count(entry, source_file, capsys):
    code, output = invoke(entry, [source_file, "--bogus"], capsys)
    assert code == 2
    assert "unknown arguments ['--bogus']" in output
