"""Tests for the locality differential oracle (repro.verify.localitycheck)."""

import random

import pytest

from repro.frontend import parse_program
from repro.verify.localitycheck import (
    MODEL_CAPACITIES,
    LocalityMismatch,
    check_locality,
)
from repro.seeds import seed_sequence
from repro.verify.gennest import generate_program
from repro.verify.runner import run_fuzz


class TestCheckLocality:
    @pytest.mark.parametrize("seed", seed_sequence(6, "verify-locality"))
    def test_generated_nests_pass_quick(self, seed):
        program = generate_program(random.Random(seed), name=f"VL{seed}")
        assert check_locality(program) is None

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", seed_sequence(80, "verify-locality-deep"))
    def test_generated_nests_pass(self, seed):
        program = generate_program(random.Random(seed), name=f"VD{seed}")
        assert check_locality(program) is None

    def test_empty_nest_is_skipped_not_failed(self):
        program = parse_program(
            "PROGRAM p\nREAL A(4)\nDO I = 4, 1\nA(I) = 0.0\nENDDO\nEND"
        )
        assert check_locality(program) is None

    def test_sabotaged_predictor_is_caught(self, monkeypatch):
        # A predictor that calls every access cold must fall outside the
        # model envelope (and break the mass invariant is not enough: the
        # sabotage below keeps mass consistent, so only the rate check
        # can catch it).
        import repro.verify.localitycheck as lc
        from repro.locality import predict_locality as real

        def all_cold(program, line=128, params=None):
            prediction = real(program, line=line, params=params)
            return type(prediction)(
                program=prediction.program,
                line=prediction.line,
                accesses=prediction.accesses,
                cold=prediction.accesses,
                terms=(),
                exact=False,
            )

        monkeypatch.setattr(lc, "predict_locality", all_cold)
        program = parse_program(
            """PROGRAM p
PARAMETER N = 24
REAL A(N,N)
DO I = 1, N
  DO J = 1, N
    A(I,J) = A(I,J) + 1.0
  ENDDO
ENDDO
END"""
        )
        mismatch = check_locality(program)
        assert isinstance(mismatch, LocalityMismatch)
        assert mismatch.where == "model"

    def test_shifted_reuse_bucket_is_caught(self, monkeypatch):
        # Moving the distance-0 reuses to distance 1 keeps the access and
        # cold counts; only the FA-LRU replay at one line can tell.
        import repro.verify.localitycheck as lc

        real = lc.reuse_profile

        def shifted(program, line=128, params=None, max_accesses=1 << 25):
            profile = real(program, line=line, params=params, max_accesses=max_accesses)
            profile.histogram[1] += profile.histogram.pop(0)
            return profile

        monkeypatch.setattr(lc, "reuse_profile", shifted)
        program = parse_program(
            "PROGRAM p\nREAL A(8)\nDO I = 1, 8\nA(I) = A(I) + 1.0\nENDDO\nEND"
        )
        mismatch = check_locality(program)
        assert isinstance(mismatch, LocalityMismatch)
        assert mismatch.where == "engines"
        assert "1-line FA-LRU replay" in mismatch.detail

    def test_probed_capacities_are_sane(self):
        assert all(c > 0 for c in MODEL_CAPACITIES)


class TestRunnerIntegration:
    def test_fuzz_report_counts_locality_rounds(self):
        report = run_fuzz(3, seed=0)
        assert report.ok, [f.repro_script() for f in report.failures]
        assert report.locality_rounds == 3
        assert "locality cross-check" in report.summary()
