"""CLI tests: golden records, exit codes, settings and output modes."""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from scl_lab import cli, errors, sol_geometry
from scl_lab.cli import main
from scl_lab.errors import (
    AuditError,
    CertificateError,
    SclLabError,
    SearchBudgetError,
    SolProfileError,
    SoundnessError,
)


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, f"exit {code}: {captured.err or captured.out}"
    return captured


def records_of(captured):
    lines = captured.out.strip().splitlines()
    return [json.loads(line) for line in lines]


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


class TestDocumentedExamples:
    def test_scl_basic_commutator(self, capsys):
        captured = run_cli(capsys, "scl", "--rank", "2", "--word", "[a,b]")
        (record,) = records_of(captured)
        assert record["command"] == "scl"
        assert record["result"]["status"] == "bounded"
        assert record["result"]["lower"] == "1/12"
        assert record["result"]["upper"] == "1/2"
        assert record["result"]["lower_witness"] == "ab"
        assert record["certificates"]["pairs"] == [["a", "b"]]
        assert "above-homological-margulis-constant" in record["flags"]

    def test_homogeneous_brooks_on_letter_power(self, capsys):
        captured = run_cli(capsys, "brooks", "--homogeneous",
                           "--pattern", "aaaa", "--word", "aaa")
        (record,) = records_of(captured)
        assert record["result"]["value"] == "3/4"

    def test_hk_radius_two(self, capsys):
        captured = run_cli(capsys, "hk", "--radius", "2")
        (record,) = records_of(captured)
        value = record["result"]["min_core_length"]
        assert abs(value - 0.019077049306) < 1e-11
        assert captured.out.count("\n") == 1

    def test_sol_certificate(self, capsys):
        captured = run_cli(capsys, "sol", "cert",
                           "--matrix", "2,1,1,1", "--vector", "1,1")
        (record,) = records_of(captured)
        assert record["result"] == {"member": True, "verified": True,
                                    "factor_count": 1,
                                    "target": "((1,1),0)"}
        assert record["certificates"] == [["g", "(1,0)"]]

    def test_byte_identical_across_runs(self, capsys):
        invocations = [
            ("scl", "--rank", "2", "--word", "[a,b]"),
            ("hk", "--radius", "2"),
            ("sol", "cert", "--matrix", "2,1,1,1", "--vector", "1,1"),
            ("audit",),
        ]
        for argv in invocations:
            first = run_cli(capsys, *argv).out
            second = run_cli(capsys, *argv).out
            assert first == second

    def test_rotation_number_documented(self, capsys):
        # rigid rotation by a third: estimate 1/3 within 1/300
        captured = run_cli(capsys, "rot", "--matrix",
                           "0.5,-0.8660254037844386,0.8660254037844386,0.5",
                           "--iterations", "300")
        (record,) = records_of(captured)
        assert abs(record["result"]["estimate"] - 1 / 3) <= 1 / 300
        assert record["result"]["error_bound"] == pytest.approx(1 / 300)

    def test_rotation_number_of_strongly_hyperbolic_lift(self, capsys):
        # 80-digit mpmath iterate of the same lift: 0.99916666672
        captured = run_cli(capsys, "rot", "--matrix",
                           "10000000,-10000001,-9999999,10000000",
                           "--iterations", "300")
        (record,) = records_of(captured)
        assert abs(record["result"]["estimate"] - 0.99916666672) <= 1 / 300

    def test_rotation_number_with_exact_determinant_one(self, capsys):
        # a*d - b*c rounds to 0.0 in floats; the exact determinant is 1
        captured = run_cli(capsys, "rot", "--matrix",
                           "100000000,100000001,99999999,100000000",
                           "--iterations", "300")
        (record,) = records_of(captured)
        assert record["result"]["estimate"] == 0.000833333328028


    def test_rot_matrix_with_negative_first_entry(self, capsys):
        # rotation by two thirds; the "=" form takes the leading minus
        captured = run_cli(
            capsys, "rot",
            "--matrix=-0.5,-0.8660254037844386,0.8660254037844386,-0.5")
        (record,) = records_of(captured)
        assert record["inputs"]["matrix"][0] == -0.5
        assert abs(record["result"]["estimate"] - 2 / 3) <= 1 / 300

    def test_sol_decompose_matrix_with_negative_first_entry(self, capsys):
        # (-263, 26) = (A - I)(100, 37) is a member
        captured = run_cli(capsys, "sol", "decompose", "--matrix=-2,1,1,-1",
                           "--vector=-263,26")
        (record,) = records_of(captured)
        assert record["inputs"]["matrix"] == [-2, 1, 1, -1]
        assert record["result"]["verified"] is True

    @pytest.mark.parametrize("command,rest", [
        (["rot"], ["--matrix", "-0.5,0,0,-2"]),
        (["sol", "decompose"], ["--matrix", "-2,1,1,-1", "--vector", "2,1"])])
    def test_space_form_of_a_negative_matrix_is_documented(
            self, capsys, command, rest):
        # argparse reads "-0.5,..." as an option: exit 2, which the
        # --matrix help documents
        assert main(command + rest) == 2
        assert "expected one argument" in capsys.readouterr().err
        assert main(command + ["--help"]) == 0
        assert "(--matrix=-" in capsys.readouterr().out


class TestRecordShape:
    def test_keys_and_single_line(self, capsys):
        invocations = [
            ("word", "--word", "[a,b]^2"),
            ("brooks", "--pattern", "ab", "--word", "abab"),
            ("defect", "--pattern", "ab", "--length-budget", "3"),
            ("cl", "--word", "[a,b]"),
            ("tube", "--length", "0.1", "--radius", "2"),
            ("surgery-a", "--chi", "-1", "--radius", "2.001", "--p", "10"),
            ("surgery-b", "--meridian-length", "6.3"),
            ("nz", "--meridian", "1,0", "--longitude", "0,1",
             "--p", "1000", "--q", "1"),
            ("gap", "--m", "100", "--genus", "1", "--epsilon", "0.3618"),
            ("gap", "--optimal", "--cap", "1"),
            ("sol", "member", "--matrix", "3,1,2,1", "--vector", "1,0"),
            ("sol", "report", "--matrix", "2,1,1,1", "--vector", "2,2"),
            ("sol", "decompose", "--matrix", "2,1,1,1", "--vector", "55,34"),
            ("sol", "mul", "--matrix", "2,1,1,1",
             "--x", "1,0,1", "--y", "0,1,0"),
        ]
        for argv in invocations:
            captured = run_cli(capsys, *argv)
            lines = captured.out.strip().splitlines()
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert list(record) == ["command", "inputs", "result",
                                    "certificates", "flags"]

    def test_fractions_round_trip(self, capsys):
        captured = run_cli(capsys, "scl", "--word", "[a,b]")
        (record,) = records_of(captured)
        assert parse_fraction(record["result"]["lower"]) == Fraction(1, 12)
        assert parse_fraction(record["result"]["upper"]) == Fraction(1, 2)
        captured = run_cli(capsys, "surgery-a", "--chi", "-1",
                           "--radius", "2.001", "--p", "50")
        (record,) = records_of(captured)
        assert parse_fraction(record["result"]["scl_upper"]) == Fraction(1, 100)

    def test_seed_printed_for_randomized_scans(self, capsys):
        captured = run_cli(capsys, "defect", "--pattern", "ab",
                           "--length-budget", "3", "--seed", "7")
        (record,) = records_of(captured)
        assert record["inputs"]["seed"] == 7
        captured = run_cli(capsys, "audit")
        assert all(r["inputs"]["seed"] == 0 for r in records_of(captured))

    def test_non_member_report(self, capsys):
        captured = run_cli(capsys, "sol", "report",
                           "--matrix", "3,1,2,1", "--vector", "0,1")
        (record,) = records_of(captured)
        assert record["result"]["scl"] == "infinity"
        assert record["result"]["witness_rational"] == ["1/2", "-1/1"]

    def test_table_mode(self, capsys):
        captured = run_cli(capsys, "hk", "--radius", "2", "--table")
        assert "result.min_core_length" in captured.out
        assert "{" not in captured.out

    def test_gap_margulis_flag(self, capsys):
        captured = run_cli(capsys, "gap", "--m", "100", "--genus", "1",
                           "--epsilon", "0.3618")
        (record,) = records_of(captured)
        assert "margulis-unchecked" in record["flags"]
        captured = run_cli(capsys, "gap", "--m", "100", "--genus", "1",
                           "--epsilon", "0.05", "--margulis", "0.29")
        (record,) = records_of(captured)
        assert record["flags"] == []
        assert record["result"]["margulis_constant"] == 0.29

    def test_nz_flagged_approximate(self, capsys):
        captured = run_cli(capsys, "nz", "--meridian", "1,0",
                           "--longitude", "0,1", "--p", "100", "--q", "1")
        (record,) = records_of(captured)
        assert record["flags"] == ["approximate"]


class TestExitCodes:
    def test_malformed_word_reports_position(self, capsys):
        code = main(["word", "--word", "ab["])
        captured = capsys.readouterr()
        assert code == 2
        assert "position 3" in captured.err

    @pytest.mark.parametrize("argv,position", [
        (["word", "--word", "a^1000000000000000"], 2),
        (["scl", "--word", "[a,b]^1000000000000000"], 6),
        (["word", "--word", "a^100000000000000000000"], 2),
        (["cl", "--word", "(ab)^ -100000000000000000000"], 6),
    ])
    def test_power_too_large_to_build_is_invalid_input(self, capsys, argv,
                                                       position):
        # the repeated word does not fit in memory or in an index
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("scl-lab: error: power ")
        assert captured.err.endswith(
            f"is too large to build (position {position})\n")

    def test_deep_nesting_is_invalid_input(self, capsys):
        code = main(["word", "--word", "(" * 500 + "a" + ")" * 500])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "scl-lab: error: brackets nested too deeply (position 499)\n")

    def test_word_too_large_for_memory_is_invalid_input(self):
        # [a,[a,...[a,b]...]] 26 deep doubles its length per level, past
        # 10^8 letters; a 160 MB address-space cap turns that into a
        # MemoryError long before, which must still exit 2 on one line
        text = "b"
        for _ in range(26):
            text = f"[a,{text}]"
        cap = 160 * 2 ** 20
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "scl_lab", "word", "--word", text],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "scl-lab: error: word is too large to build (position 0)\n")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_named_precondition(self, capsys):
        code = main(["hk", "--radius", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "radius" in captured.err

    def test_budget_exhausted_is_exit_three(self, capsys):
        code = main(["scl", "--word", "[a,b]^3",
                     "--max-genus", "1", "--max-len", "4"])
        captured = capsys.readouterr()
        assert code == 3
        (record,) = [json.loads(line)
                     for line in captured.out.strip().splitlines()]
        assert record["result"]["status"] == "inconclusive"
        assert "budget-exhausted" in record["flags"]
        assert "upper" not in record["result"]

    @pytest.mark.parametrize("argv", [
        ["cl", "--word", "[a,b]"], ["cl", "--word", "[a,b]^2"],
        ["scl", "--word", "[a,b]"]])
    def test_negative_pair_budget_is_invalid_input(self, capsys, argv):
        code = main(argv + ["--pair-budget", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "scl-lab: error: pair_budget must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv,message", [
        (["scl", "--word", "", "--max-len", "-5", "--pair-budget", "-1",
          "--max-genus", "9"], "search supports genus at most 2, got "
         "max_genus 9"),
        (["scl", "--word", "ab", "--max-len", "-5"],
         "max_len must be >= 1, got -5"),
        (["scl", "--word", "", "--n-max", "0"], "n_max must be >= 1, got 0"),
        (["cl", "--word", "ab", "--max-len", "-5", "--pair-budget", "-3"],
         "max_len must be >= 1, got -5"),
    ], ids=["scl-identity", "scl-outside", "scl-identity-n-max",
            "cl-outside"])
    def test_budgets_are_checked_before_early_answers(self, capsys, argv,
                                                      message):
        # the identity and words outside [F, F] are answered without a
        # search, but an invalid budget is still invalid input
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"scl-lab: error: {message}\n"

    def test_zero_pair_budget_is_exit_three(self, capsys):
        code = main(["cl", "--word", "[a,b]^2", "--pair-budget", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert "budget is 0" in captured.err

    def test_cl_without_witness_is_exit_three(self, capsys):
        code = main(["cl", "--word", "[a,b]^3",
                     "--max-genus", "1", "--max-len", "5"])
        captured = capsys.readouterr()
        assert code == 3
        (record,) = [json.loads(line)
                     for line in captured.out.strip().splitlines()]
        assert record["result"]["upper"] is None

    def test_cl_outside_commutator_subgroup_is_definitive(self, capsys):
        captured = run_cli(capsys, "cl", "--word", "ab")
        (record,) = records_of(captured)
        assert record["result"] == {"in_commutator_subgroup": False,
                                    "cl": "infinity"}

    def test_audit_proves_the_surgery_chain(self, capsys):
        captured = run_cli(capsys, "audit")
        records = records_of(captured)
        assert [r["result"]["check"] for r in records] == [
            "surgery-inequalities", "filled-core-limit", "brooks-defect"]
        assert all(r["result"]["passed"] for r in records)
        assert all(r["inputs"] == {"seed": 0} for r in records)
        surgery = records[0]["result"]
        assert surgery["t0"] == 2.001
        assert len(surgery["margins"]) == 3
        assert all(m > 0 for m in surgery["margins"].values())

    @pytest.mark.parametrize("grid", ["2.5,3", "", "3,x"])
    def test_audit_takes_no_grid(self, capsys, grid):
        code = main(["audit", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --grid" in captured.err

    @pytest.mark.parametrize("radius,code,err", [
        ("2", 2, "scl-lab: error: radius must be >= 2.001, got 2.0\n"),
        ("2.001", 0, "")], ids=["2", "2.001"])
    def test_surgery_a_radius_domain(self, capsys, radius, code, err):
        assert main(["surgery-a", "--chi", "-1", "--radius", radius,
                     "--p", "10"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        assert (captured.out != "") == (code == 0)

    def test_bad_matrix(self, capsys):
        code = main(["sol", "cert", "--matrix", "2,1,1", "--vector", "1,1"])
        assert code == 2
        capsys.readouterr()
        code = main(["sol", "cert", "--matrix", "1,0,0,1", "--vector", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace" in captured.err

    @pytest.mark.parametrize("matrix,entry", [
        ("nan,0,0,1", "nan"), ("1,inf,0,1", "inf"),
        ("1,0,-Infinity,1", "-Infinity"), ("1,0,0, NaN", "NaN")])
    def test_rot_rejects_non_finite_entries(self, capsys, matrix, entry):
        code = main(["rot", "--matrix", matrix])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"scl-lab: error: --matrix entry '{entry}' is not finite\n")

    @pytest.mark.parametrize("matrix,message", [
        ("1,x,0,1", "--matrix entry 2 'x' is not a number"),
        ("1,,0,1", "--matrix entry 2 '' is not a number")],
        ids=["x", "empty"])
    def test_rot_names_the_bad_entry(self, capsys, matrix, message):
        code = main(["rot", "--matrix", matrix])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"scl-lab: error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["sol", "member", "--matrix=2,1,1,1", "--vector=1,x"],
         "--vector entry 2 'x' is not an integer"),
        (["sol", "cert", "--matrix=2,1.5,1,1", "--vector=1,1"],
         "--matrix entry 2 '1.5' is not an integer"),
        (["nz", "--meridian", "1,0,0", "--longitude", "0,1", "--p", "5",
          "--q", "1"],
         "--meridian needs 2 comma-separated reals, got '1,0,0'"),
        (["nz", "--meridian", "1,0", "--longitude", "0, i", "--p", "5",
          "--q", "1"], "--longitude entry 2 'i' is not a number"),
        (["rot", "--matrix", "1,0,1"],
         "--matrix needs 4 comma-separated reals, got '1,0,1'")],
        ids=["int-entry", "real-for-int", "real-count",
             "real-entry", "rot-count"])
    def test_list_flag_names_count_and_entry(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"scl-lab: error: {message}\n"


class TestDefectSampling:
    #: records of the scan that listed every word before drawing
    @pytest.mark.parametrize("argv,expected", [
        (["--pattern", "ab", "--length-budget", "8", "--samples", "2000"],
         '{"command":"defect","inputs":{"pattern":"ab","rank":2,'
         '"homogeneous":false,"length_budget":8,"samples":2000,"seed":0},'
         '"result":{"observed":1,"mode":"sampled","pairs_checked":2000,'
         '"defect_certificate":3},"certificates":null,"flags":[]}'),
        (["--pattern", "abAB", "--length-budget", "8", "--samples", "2000"],
         '{"command":"defect","inputs":{"pattern":"abAB","rank":2,'
         '"homogeneous":false,"length_budget":8,"samples":2000,"seed":0},'
         '"result":{"observed":2,"mode":"sampled","pairs_checked":2000,'
         '"defect_certificate":3},"certificates":null,"flags":[]}'),
        (["--pattern", "abA", "--homogeneous", "--length-budget", "8",
          "--samples", "300", "--seed", "3"],
         '{"command":"defect","inputs":{"pattern":"abA","rank":2,'
         '"homogeneous":true,"length_budget":8,"samples":300,"seed":3},'
         '"result":{"observed":"3/1","mode":"sampled","pairs_checked":300,'
         '"defect_certificate":6},"certificates":null,"flags":[]}'),
    ])
    def test_sampled_records(self, capsys, argv, expected):
        captured = run_cli(capsys, "defect", *argv)
        assert captured.out == expected + "\n"

    def test_long_budget_samples_without_the_word_list(self, capsys):
        # 4 * 3^39 words of length 40 alone; only the drawn ones are built
        start = time.perf_counter()
        captured = run_cli(capsys, "defect", "--pattern", "ab",
                           "--length-budget", "40", "--samples", "1000")
        elapsed = time.perf_counter() - start
        (record,) = records_of(captured)
        assert record["result"]["mode"] == "sampled"
        assert record["result"]["pairs_checked"] == 1000
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize("samples,budget", [
        ("-5", "9"), ("0", "9"), ("-5", "2")])
    def test_sample_count_below_one_is_invalid_input(self, capsys, samples,
                                                     budget):
        code = main(["defect", "--pattern", "ab", "--length-budget", budget,
                     "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == \
            f"scl-lab: error: samples must be >= 1, got {samples}\n"


#: every SclLabError class with the exit code and stderr label it must get
ERROR_EXITS = {
    SclLabError: (1, "soundness failure"),
    CertificateError: (1, "certificate check failed"),
    SoundnessError: (1, "soundness failure"),
    AuditError: (1, "soundness failure"),
    SearchBudgetError: (3, "budget exhausted"),
    SolProfileError: (3, "inconclusive"),
}

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _with_subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _with_subclasses(sub)
    return out


def _inject(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, "cl_upper", fail)
    code = main(["cl", "--word", "[a,b]"])
    return code, capsys.readouterr()


class TestInternalErrors:
    """Failures of the program's own checks exit 1 with one stderr line,
    never 2 ("invalid input") and never a traceback; a search that cannot
    conclude exits 3 the same way."""

    def test_every_error_class_is_covered(self):
        assert _with_subclasses(SclLabError) == set(ERROR_EXITS)

    @pytest.mark.parametrize("error", sorted(
        _with_subclasses(SclLabError), key=lambda e: e.__name__),
        ids=lambda e: e.__name__)
    def test_one_hierarchy_in_errors_and_the_readme(self, error):
        # defined in errors.py, listed in the README exit-code table, and
        # its code and label pinned above
        assert error.__module__ == errors.__name__
        assert getattr(errors, error.__name__) is error
        table = [line for line in README.splitlines()
                 if line.startswith(f"| {error.exit_code} ")]
        assert len(table) == 1 and f"`{error.__name__}`" in table[0]
        assert ERROR_EXITS[error] == (error.exit_code, error.label)

    @pytest.mark.parametrize("error", [
        e for e, (code, _) in ERROR_EXITS.items() if code == 1],
        ids=lambda e: e.__name__)
    def test_internal_check_failure_is_exit_one(self, capsys, monkeypatch,
                                                error):
        code, captured = _inject(capsys, monkeypatch, error)
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err == \
            f"scl-lab: {ERROR_EXITS[error][1]}: injected failure\n"

    @pytest.mark.parametrize("error", [
        e for e, (code, _) in ERROR_EXITS.items() if code == 3],
        ids=lambda e: e.__name__)
    def test_inconclusive_is_exit_three(self, capsys, monkeypatch, error):
        code, captured = _inject(capsys, monkeypatch, error)
        assert code == 3
        assert captured.out == ""
        assert captured.err == \
            f"scl-lab: {ERROR_EXITS[error][1]}: injected failure\n"

    def test_sol_contraction_failure_is_exit_one(self, capsys):
        # the decomposition's own contraction check fails on this member;
        # its cause in the profile constants is still open
        code = main(["sol", "decompose", "--matrix=0,1,-1,3",
                     "--vector=1000,1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "contraction failed" in captured.err

    def test_sol_profile_that_cannot_certify_is_exit_three(self, capsys):
        # a valid member, which `sol cert` certifies, but no box up to 8
        # gives the decomposition a certified contraction
        assert main(["sol", "cert", "--matrix=7,3,2,1",
                     "--vector=6,2"]) == 0
        capsys.readouterr()
        code = main(["sol", "decompose", "--matrix=7,3,2,1", "--vector=6,2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("scl-lab: inconclusive: ")

    def test_sol_decompose_large_member_within_bound(self, capsys):
        # no depth cap: the certified factor-count bound is the only limit
        self.check_large_member(capsys, 10 ** 80)

    def test_sol_decompose_past_float_range(self, capsys):
        # the steering does not overflow past 1e308
        self.check_large_member(capsys, 10 ** 320)

    def test_sol_decompose_past_old_fold_back(self, capsys):
        # 6,644 bits, far past a float's range; the SHA-256 pins the record
        n = 10 ** 2000
        captured = run_cli(capsys, "sol", "decompose", "--matrix=2,1,1,1",
                           f"--vector={n},{n}")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "1cbef44341723dcc5cbd259e4f59bbd0a8d60cc4b3e03fd766f0b7d1af7372f9")

    @staticmethod
    def check_large_member(capsys, n):
        captured = run_cli(capsys, "sol", "decompose", "--matrix=2,1,1,1",
                           f"--vector={n},{n}")
        (record,) = records_of(captured)
        result = record["result"]
        assert result["verified"] is True
        assert result["target"] == f"(({n},{n}),0)"
        consts = result["constants"]
        bound = consts["c1"] * math.log(n + 2) + consts["c2"]
        assert len(record["certificates"]) == result["factor_count"] <= bound
        # every factor is [g, (u, 0)] = ((A - I) u, 0), so the fiber parts
        # of the product add up
        total = [0, 0]
        for left, right in record["certificates"]:
            assert left == "g"
            u0, u1 = map(int, right.strip("()").split(","))
            total[0] += u0 + u1
            total[1] += u0
        assert total == [n, n]


GAP = ["gap", "--m", "100", "--genus", "1", "--epsilon", "0.05"]


class TestMargulis:
    """``gap --margulis`` supplies the one constant no default stands in
    for."""

    def test_valid_value_is_checked_and_recorded(self, capsys):
        captured = run_cli(capsys, *GAP, "--margulis", "0.29")
        (record,) = records_of(captured)
        assert record["inputs"] == {"m": 100, "genus": 1, "epsilon": 0.05,
                                    "variant": "universal", "margulis": 0.29}
        assert record["result"]["margulis_constant"] == 0.29
        assert record["flags"] == []

    def test_absent_value_is_unchecked(self, capsys):
        (record,) = records_of(run_cli(capsys, *GAP))
        assert record["inputs"]["margulis"] is None
        assert "margulis_constant" not in record["result"]
        assert record["flags"] == ["margulis-unchecked"]

    @pytest.mark.parametrize("value,reason", [
        ("0", "Margulis constant must be > 0, got 0.0"),
        ("-0.29", "Margulis constant must be > 0, got -0.29"),
        ("nan", "Margulis constant must be > 0, got nan"),
        ("0.1", "4*epsilon = 0.2 exceeds the supplied Margulis constant 0.1"),
    ])
    def test_invalid_value_is_invalid_input(self, capsys, value, reason):
        code = main(GAP + ["--margulis", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"scl-lab: error: {reason}\n"

    @pytest.mark.parametrize("option", [["--dim", "3"],
                                        ["--config", "x.json"]])
    def test_removed_options_are_rejected(self, capsys, option):
        code = main(GAP + option)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestGapModes:
    """``gap --optimal`` reads only ``--cap``, and only it reads ``--cap``."""

    @pytest.mark.parametrize("argv,reason", [
        (["--optimal", "--cap", "1", "--margulis", "-1", "--m", "0"],
         "--optimal takes only --cap, not --m, --margulis"),
        (["--optimal", "--cap", "1", "--genus", "1"],
         "--optimal takes only --cap, not --genus"),
        (["--optimal", "--cap", "1", "--epsilon", "0.05"],
         "--optimal takes only --cap, not --epsilon"),
        (["--optimal", "--cap", "1", "--margulis", "0.29"],
         "--optimal takes only --cap, not --margulis"),
        (["--optimal", "--cap", "1", "--variant", "universal"],
         "--optimal takes only --cap, not --variant"),
        (["--m", "30", "--genus", "1", "--epsilon", "0.1", "--cap", "-5"],
         "--cap needs --optimal"),
        (GAP[1:] + ["--cap", "1"], "--cap needs --optimal"),
    ])
    def test_unread_flag_is_invalid_input(self, capsys, argv, reason):
        code = main(["gap"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"scl-lab: error: {reason}\n"

    def test_explicit_default_variant_gives_the_same_record(self, capsys):
        default = run_cli(capsys, *GAP).out
        assert run_cli(capsys, *GAP, "--variant", "universal").out == default
        (record,) = records_of(run_cli(capsys, *GAP, "--variant", "closed"))
        assert record["inputs"]["variant"] == "closed"


#: float calculator inputs whose arithmetic overflows, divides by zero or
#: gives a value JSON cannot hold
FLOAT_FAILURES = [
    ("hk", "--radius", "1000"),
    ("tube", "--length", "1", "--radius", "1000"),
    ("surgery-b", "--meridian-length", "1e-200"),
    ("tube", "--length", "inf", "--radius", "2"),
    ("surgery-a", "--chi", "-1", "--radius", "inf", "--p", "3"),
    ("gap", "--m", "100", "--genus", "1", "--epsilon", "1e-320"),
]


@pytest.mark.parametrize("argv", FLOAT_FAILURES, ids=" ".join)
def test_float_failure_is_invalid_input(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("scl-lab: error: ")


#: float calculator inputs out of float range, and the flags that say so
FLOAT_OVERFLOWS = [
    (("tube", "--length", "1e-300", "--radius", "1e300"),
     "--length 1e-300, --radius 1e+300"),
    (("tube", "--length", "inf", "--radius", "2"), "--length inf, --radius 2.0"),
    (("hk", "--radius", "1000"), "--radius 1000.0"),
    (("surgery-b", "--meridian-length", "1e308"), "--meridian-length 1e+308"),
    (("surgery-b", "--meridian-length", "1e-320"), "--meridian-length 1e-320"),
    (("surgery-b", "--meridian-length", "1e-160"), "--meridian-length 1e-160"),
    (("gap", "--m", "100", "--genus", "1", "--epsilon", "1e-320"),
     "--epsilon 1e-320"),
    (("gap", "--optimal", "--cap", "1e-320"), "--cap 1e-320"),
    (("surgery-a", "--chi", "-2", "--radius", "1e308", "--p", "5"),
     "--radius 1e+308"),
    (("nz", "--meridian", "1e200,0", "--longitude", "0,1e-200", "--p", "1",
      "--q", "0"), "--meridian 1e+200,0.0, --longitude 0.0,1e-200"),
]


@pytest.mark.parametrize("argv,flags", FLOAT_OVERFLOWS,
                         ids=[" ".join(argv) for argv, _ in FLOAT_OVERFLOWS])
def test_float_overflow_names_the_flags(capsys, argv, flags):
    # an overflow, a divisor that underflows to 0 and an infinite result
    # each name the flags, not Python's own message
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"scl-lab: error: out of float range at {flags}\n"


@pytest.mark.parametrize("argv,reason", [
    (("nz", "--meridian", "nan,0", "--longitude", "0,1", "--p", "5",
      "--q", "1"), "cusp area nan is not normalized to 1 within 1e-09"),
    (("surgery-a", "--chi", "-1", "--radius", "nan", "--p", "3"),
     "radius must be >= 2.001, got nan"),
    (("surgery-b", "--meridian-length", "nan"),
     "meridian length must be > 0, got nan"),
])
def test_nan_input_fails_its_validation(capsys, argv, reason):
    # the calculator's own check names the input, not the JSON writer
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"scl-lab: error: {reason}\n"


def test_readme_cli_examples_byte_for_byte(capsys):
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = [(line, lines[i + 1]) for i, line in enumerate(lines)
                if line.startswith("$ scl-lab ")]
    assert len(examples) >= 4
    for command, expected in examples:
        captured = run_cli(capsys, *shlex.split(command)[2:])
        assert captured.out == expected + "\n", command


#: a minimal valid command line for every leaf command
LEAF_ARGV = {
    "word": ["word", "--word", "ab"],
    "brooks": ["brooks", "--pattern", "ab", "--word", "ab"],
    "defect": ["defect", "--pattern", "ab"],
    "scl": ["scl", "--word", "[a,b]"],
    "cl": ["cl", "--word", "[a,b]"],
    "rot": ["rot", "--matrix", "1,0,0,1"],
    "tube": ["tube", "--length", "1", "--radius", "2"],
    "hk": ["hk", "--radius", "2"],
    "surgery-a": ["surgery-a", "--chi", "-1", "--radius", "2.5", "--p", "3"],
    "surgery-b": ["surgery-b", "--meridian-length", "6.3"],
    "nz": ["nz", "--meridian", "1,0", "--longitude", "0,1",
           "--p", "5", "--q", "1"],
    "gap": ["gap", "--optimal", "--cap", "1"],
    "sol member": ["sol", "member", "--matrix=2,1,1,1", "--vector=1,1"],
    "sol cert": ["sol", "cert", "--matrix=2,1,1,1", "--vector=1,1"],
    "sol decompose": ["sol", "decompose", "--matrix=2,1,1,1",
                      "--vector=1,1"],
    "sol report": ["sol", "report", "--matrix=2,1,1,1", "--vector=1,1"],
    "sol mul": ["sol", "mul", "--matrix=2,1,1,1", "--x=1,0,1", "--y=0,1,0"],
    "audit": ["audit"],
}


def _parses(argv) -> bool:
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


class TestParserShape:
    """Each setting is an option of exactly the commands that read it."""

    @pytest.mark.parametrize("leaf", LEAF_ARGV)
    def test_leaf_options(self, capsys, leaf):
        argv = LEAF_ARGV[leaf]
        assert main(leaf.split() + ["--help"]) == 0
        assert _parses(argv)
        assert _parses(argv + ["--table"])
        assert _parses(argv + ["--seed", "1"]) == (leaf in ("defect", "audit"))
        assert _parses(argv + ["--margulis", "0.29"]) == (leaf == "gap")
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [*LEAF_ARGV.values(), GAP],
                             ids=[*LEAF_ARGV, "gap formula"])
    def test_inputs_are_the_flags_read_in_help_order(self, capsys, argv):
        # argparse fills the namespace in declaration order, which --help
        # lists; gap records only the flags of its mode
        leaf = argv[:2] if argv[0] == "sol" else argv[:1]
        assert main(leaf + ["--help"]) == 0
        flags = re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.M)
        dests = [flag.replace("-", "_") for flag in flags if flag != "table"]
        if argv[0] == "gap":
            optimal = "--optimal" in argv
            dests = [d for d in dests if (d in ("optimal", "cap")) == optimal]
        for record in records_of(run_cli(capsys, *argv)):
            assert list(record["inputs"]) == dests

    @pytest.mark.parametrize("option", [["--table"], ["--seed", "1"],
                                        ["--margulis", "0.29"]])
    def test_sol_group_takes_no_option(self, capsys, option):
        code = main(["sol", *option, "cert", "--matrix=2,1,1,1",
                     "--vector=1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_sol_leaf_table(self, capsys):
        captured = run_cli(capsys, "sol", "cert", "--table",
                           "--matrix=2,1,1,1", "--vector=1,1")
        assert "result.factor_count  1" in captured.out
        assert "{" not in captured.out


#: ``cl``/``scl`` records at the default budgets, recorded from the index
#: that stored all 1,850,488 commutator values and re-recorded with the
#: Wicks scan for genus 1: Culler's ``[a,b]^2..5``, seeded products of two
#: commutators with entries of 1 to 4 letters and their conjugates (hits
#: and misses), two rank-3 words (a genus-1 hit and a genus-2 budget stop),
#: one ``--max-len 4`` call, and three products of two commutators whose
#: exact cl, 2 by letter pairings, the search attains
GOLDEN_CL_SCL = json.loads((Path(__file__).resolve().parent / "data"
                            / "cl_scl_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN_CL_SCL,
                         ids=lambda record: " ".join(record["argv"]))
def test_cl_scl_golden_records_byte_for_byte(capsys, record):
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) \
        == (record["exit"], record["stdout"], record["stderr"])


def test_cl_scl_golden_corpus_has_hits_and_misses():
    exits = [record["exit"] for record in GOLDEN_CL_SCL]
    genus_two = [record for record in GOLDEN_CL_SCL if record["exit"] == 0
                 and len(json.loads(record["stdout"])["certificates"]["pairs"])
                 == 2]
    assert len(GOLDEN_CL_SCL) >= 40
    assert exits.count(3) >= 8 and len(genus_two) >= 20


#: ``cl``/``scl`` records at ranks 2 and 3 and ``--max-len`` 2 to 6, chosen
#: when genus 1 swept every reduced word up to ``max_len`` and re-recorded
#: with the Wicks scan, which bounds no entry, so ``--max-len`` bounds only
#: genus 2 here: per budget, seeded genus-1 hits and misses of 4 to 11
#: letters, commutators conjugated by 1 to 5 letters and a proper power,
#: plus ``(ab)^2``, a conjugated ``[a,b]^2``, ``[a,c]^3`` and a conjugated
#: commutator at rank 3
GOLDEN_GENUS_ONE = json.loads((Path(__file__).resolve().parent / "data"
                               / "genus_one_golden.json")
                              .read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN_GENUS_ONE,
                         ids=lambda record: " ".join(record["argv"]))
def test_genus_one_golden_records_byte_for_byte(capsys, record):
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) \
        == (record["exit"], record["stdout"], record["stderr"])


def test_genus_one_golden_corpus_covers_the_budgets():
    budgets = {(record["argv"][4], record["argv"][6])
               for record in GOLDEN_GENUS_ONE}
    assert budgets >= {(rank, max_len) for rank in "23" for max_len in "23456"}
    genus = [len(json.loads(record["stdout"])["certificates"]["pairs"])
             for record in GOLDEN_GENUS_ONE
             if record["argv"][0] == "cl" and record["exit"] == 0
             and json.loads(record["stdout"])["certificates"]]
    assert genus.count(1) >= 30 and genus.count(2) >= 5
    assert [record["exit"] for record in GOLDEN_GENUS_ONE].count(3) >= 10


def test_rank_ten_genus_two_budget_is_a_clean_exit(capsys):
    # genus 1 reads only the word, so no rank-10 vocabulary is built
    # before the genus-2 budget refuses
    start = time.perf_counter()
    code = main(["cl", "--word", "[a,b][c,d]", "--rank", "10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "scl-lab: budget exhausted: genus-2 search at rank 10, max_len 6")
    assert main(["scl", "--word", "[a,b]", "--rank", "10"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["upper"] == "1/2"
    assert record["certificates"]["pairs"] == [["a", "b"]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rank-10 calls took {elapsed:.2f}s"


@pytest.mark.parametrize("argv", [
    ["cl", "--word", "[a,b]^2", "--max-len", "14"],
    ["scl", "--word", "[a,b]^2[a,c]", "--rank", "6", "--max-len", "64"],
    ["scl", "--word", "[a,b]^2", "--rank", "10000000", "--max-len", "2"]],
    ids=" ".join)
def test_long_entry_budgets_and_large_ranks_exit_cleanly(argv):
    # genus 1 reads no budget, so these reach the genus-2 pair count, which
    # refuses before it builds anything: cl says so on one stderr line, and
    # scl prints its inconclusive record; a child with a 2 GB address space
    # and 5 s (at rank 10^7 the rank-sized lists take about 250 MB)
    cap = 2 * 2 ** 30
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "scl_lab", *argv], capture_output=True,
        text=True, env=env, timeout=5,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    if argv[0] == "cl":
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(
            "scl-lab: budget exhausted: genus-2 search at rank 2, max_len 14")
    else:
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["result"]["status"] == "inconclusive"
        assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["cl", "--word", "ab", "--rank", "10000000"],
    ["word", "--word", "ab", "--rank", "10000000"]], ids=" ".join)
def test_rank_sized_work_fits_or_exits_three_in_100_mb(argv):
    # cl catches the non-member error without reading its text, a vector
    # of 10^7 entries, so it answers at the interpreter's own size; word
    # prints that vector, and running out of memory is exit 3 on one line
    cap = 100 * 2 ** 20
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "scl_lab", *argv], capture_output=True,
        text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert "Traceback" not in proc.stderr
    if argv[0] == "cl":
        assert proc.returncode == 0 and proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["result"] == {
            "in_commutator_subgroup": False, "cl": "infinity"}
    else:
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (
            "scl-lab: budget exhausted: word ran out of memory\n")


#: ``sol member|cert|decompose|report|mul`` records: the benchmark's four
#: matrices on members of 1 to 80 digits and on non-members, the 10^320
#: member of (2,1,1,1), one ``--table`` call, a profile that gives up
#: (exit 3), the known contraction failure of (0,1,-1,3) (exit 1) and a
#: malformed ``--matrix`` (exit 2)
GOLDEN_SOL = json.loads((Path(__file__).resolve().parent / "data"
                         / "sol_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN_SOL,
                         ids=lambda record: " ".join(record["argv"])[:80])
def test_sol_golden_records_byte_for_byte(capsys, record):
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) \
        == (record["exit"], record["stdout"], record["stderr"])


def test_sol_golden_corpus_covers_every_leaf_and_exit():
    assert len(GOLDEN_SOL) >= 40
    assert {record["argv"][1] for record in GOLDEN_SOL} \
        == {"member", "cert", "decompose", "report", "mul"}
    assert {record["exit"] for record in GOLDEN_SOL} == {0, 1, 2, 3}
    assert any("--table" in record["argv"] for record in GOLDEN_SOL)


#: records taken while ``sol report`` had its own report type and the
#: homogeneous Brooks value tabled the core once per count: ``sol
#: member|cert|report|decompose`` on the identity, on members of 1 to 60
#: digits and on non-members of six matrices (the benchmark's four,
#: (0,1,-1,3) and (3,2,4,3)); 60 seeded ``brooks`` calls, plain and
#: ``--homogeneous``, with patterns of 1 to 5 letters; three ``audit`` calls
#: and one homogeneous ``defect`` scan
GOLDEN_SOL_BROOKS_AUDIT = json.loads(
    (Path(__file__).resolve().parent / "data"
     / "sol_brooks_audit_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN_SOL_BROOKS_AUDIT,
                         ids=lambda record: " ".join(record["argv"])[:80])
def test_sol_brooks_audit_golden_records_byte_for_byte(capsys, monkeypatch,
                                                       record):
    # argparse wraps its usage text to COLUMNS; the records were taken at 80
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) \
        == (record["exit"], record["stdout"], record["stderr"])


def test_sol_brooks_audit_golden_corpus_coverage():
    by_command = {}
    for record in GOLDEN_SOL_BROOKS_AUDIT:
        key = tuple(record["argv"][:2]) if record["argv"][0] == "sol" \
            else record["argv"][0]
        by_command.setdefault(key, set()).add(record["exit"])
    assert by_command[("sol", "report")] == {0}
    assert by_command[("sol", "decompose")] == {0, 1, 2}
    assert by_command["brooks"] == {0, 2}
    assert {"audit", "defect", ("sol", "member"), ("sol", "cert")} \
        <= set(by_command)
    reports = [json.loads(record["stdout"]) for record in GOLDEN_SOL_BROOKS_AUDIT
               if record["argv"][:2] == ["sol", "report"]]
    assert {report["result"]["scl"] for report in reports} \
        == {"0/1", "infinity"}
    assert [] in [report["certificates"] for report in reports]
    homogeneous = [record for record in GOLDEN_SOL_BROOKS_AUDIT
                   if "--homogeneous" in record["argv"]
                   and record["argv"][0] == "brooks"]
    assert len(homogeneous) == 60


@pytest.mark.parametrize("leaf", ["cert", "report"])
def test_sol_certificate_of_a_member_costs_one_solve(capsys, monkeypatch,
                                                      leaf):
    calls = []
    real = sol_geometry.membership_commutator_subgroup

    def counted(A, a):
        calls.append(a)
        return real(A, a)

    monkeypatch.setattr(sol_geometry, "membership_commutator_subgroup",
                        counted)
    monkeypatch.setattr(cli, "membership_commutator_subgroup", counted)
    # (A - I)(10^40, 7) for A = (5,3,3,2)
    assert main(["sol", leaf, "--matrix=5,3,3,2",
                 f"--vector={4 * 10 ** 40 + 21},{3 * 10 ** 40 + 7}"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["member"] is True
    assert len(calls) == 1


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    @staticmethod
    def run(capsys, argv, fresh: bool):
        if fresh:
            cli.build_parser.cache_clear()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def check_sequence(self, capsys, *argvs):
        alone = [self.run(capsys, argv, fresh=True) for argv in argvs]
        cli.build_parser.cache_clear()
        in_sequence = [self.run(capsys, argv, fresh=False) for argv in argvs]
        assert in_sequence == alone
        return in_sequence

    def test_same_parser_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    def test_table_flag_does_not_stick(self, capsys):
        sol = ["sol", "cert", "--matrix=2,1,1,1", "--vector=1,1"]
        (_, table, _), (code, out, _) = self.check_sequence(
            capsys, sol + ["--table"], sol)
        assert "{" not in table
        assert code == 0 and json.loads(out)["result"]["verified"] is True

    def test_margulis_does_not_stick(self, capsys):
        (_, first, _), (_, second, _) = self.check_sequence(
            capsys, GAP + ["--margulis", "0.25"], GAP)
        assert json.loads(first)["result"]["margulis_constant"] == 0.25
        assert json.loads(second)["inputs"]["margulis"] is None
        assert json.loads(second)["flags"] == ["margulis-unchecked"]

    def test_budget_does_not_stick(self, capsys):
        scl = ["scl", "--word", "[a,b]"]
        (_, first, _), (_, second, _) = self.check_sequence(
            capsys, scl + ["--max-len", "4"], scl)
        assert json.loads(first)["inputs"]["max_len"] == 4
        assert json.loads(second)["inputs"]["max_len"] == 6

    def test_error_then_help_then_success(self, capsys):
        results = self.check_sequence(
            capsys, ["sol", "cert", "--matrix=2,1,1,1"],
            ["sol", "cert", "--help"],
            ["sol", "cert", "--matrix=2,1,1,1", "--vector=1,1"])
        (bad, _, bad_err), (helped, help_out, _), (good, good_out, _) = results
        assert (bad, helped, good) == (2, 0, 0)
        assert "--vector" in bad_err and "usage:" in help_out
        assert json.loads(good_out)["command"] == "sol cert"

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cli.build_parser.cache_clear()
        assert main(["sol", "cert", "--matrix=2,1,1,1", "--vector=1,1"]) == 0
        assert built
        built.clear()
        for i in range(25):
            assert main(["sol", "decompose", "--matrix=5,3,3,2",
                         f"--vector={4 * i + 3},{3 * i + 1}"]) == 0
            assert main(["cl", "--word", "[a,b]"]) == 0
        capsys.readouterr()
        assert built == []
