"""CLI tests: golden records, exit codes, config and output modes."""

import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from scl_lab import cli
from scl_lab.cli import main
from scl_lab.errors import SclLabError
from scl_lab.hyperbolic_estimates import AuditError
from scl_lab.quasimorphisms import DefectCertificateError
from scl_lab.scl_engine import (
    CertificateError,
    SearchBudgetError,
    SoundnessError,
    WitnessError,
)
from scl_lab.sol_geometry import SolCertificateError, SolProfileError


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


class TestRecordShape:
    def test_keys_and_single_line(self, capsys):
        invocations = [
            ("word", "--word", "[a,b]^2"),
            ("brooks", "--pattern", "ab", "--word", "abab"),
            ("defect", "--pattern", "ab", "--length-budget", "3"),
            ("cl", "--word", "[a,b]"),
            ("tube", "--length", "0.1", "--radius", "2"),
            ("surgery-a", "--chi", "-1", "--radius", "2", "--p", "10"),
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
                           "--radius", "2", "--p", "50")
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
                           "--epsilon", "0.05", "--dim", "3")
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

    def test_audit_ok_and_bad_grid(self, capsys):
        captured = run_cli(capsys, "audit")
        records = records_of(captured)
        assert len(records) == 4
        assert all(r["result"]["passed"] for r in records)
        assert {r["result"]["check"] for r in records} == {
            "surgery-inequalities", "filled-core-limit",
            "brooks-defect", "greedy-counting"}
        code = main(["audit", "--grid", "1.5,3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "1.5" in captured.err

    def test_bad_matrix(self, capsys):
        code = main(["sol", "cert", "--matrix", "2,1,1", "--vector", "1,1"])
        assert code == 2
        capsys.readouterr()
        code = main(["sol", "cert", "--matrix", "1,0,0,1", "--vector", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace" in captured.err


#: every SclLabError class with the exit code and stderr label it must get
ERROR_EXITS = {
    SclLabError: (1, "soundness failure"),
    CertificateError: (1, "certificate check failed"),
    SolCertificateError: (1, "certificate check failed"),
    SoundnessError: (1, "soundness failure"),
    WitnessError: (1, "soundness failure"),
    DefectCertificateError: (1, "soundness failure"),
    AuditError: (1, "soundness failure"),
    SearchBudgetError: (3, "budget exhausted"),
    SolProfileError: (3, "inconclusive"),
}


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
        # the float steering does not overflow past 1e308
        self.check_large_member(capsys, 10 ** 320)

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


class TestConfig:
    def test_margulis_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"margulis_constants": {"4": 0.27}}))
        captured = run_cli(capsys, "gap", "--m", "100", "--genus", "1",
                           "--epsilon", "0.05", "--dim", "4",
                           "--config", str(path))
        (record,) = records_of(captured)
        assert record["result"]["margulis_constant"] == 0.27

    def test_unknown_key_rejected(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, "maxlen")

    def test_budget_key_rejected(self, capsys, tmp_path):
        # the search budgets are flags of scl and cl, not config keys
        self.check_rejected(capsys, tmp_path, "max_len")

    @staticmethod
    def check_rejected(capsys, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 5}))
        code = main(["gap", "--optimal", "--cap", "1", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert key in captured.err


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
    "surgery-a": ["surgery-a", "--chi", "-1", "--radius", "2", "--p", "3"],
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
        assert _parses(argv + ["--config", "x.json"]) == (leaf == "gap")
        capsys.readouterr()

    @pytest.mark.parametrize("option", [["--table"], ["--seed", "1"],
                                        ["--config", "x.json"]])
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
