"""CLI tests: golden records, exit codes, config and output modes."""

import json
from fractions import Fraction

import pytest

from scl_lab import cli
from scl_lab.cli import main
from scl_lab.scl_engine import CertificateError, SoundnessError, WitnessError
from scl_lab.sol_geometry import SolCertificateError


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

    def test_invalid_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SCL_LAB_THREADS", "zero")
        assert main(["hk", "--radius", "2"]) == 2
        capsys.readouterr()
        monkeypatch.setenv("SCL_LAB_THREADS", "4")
        assert main(["hk", "--radius", "2"]) == 0
        capsys.readouterr()

    def test_bad_matrix(self, capsys):
        code = main(["sol", "cert", "--matrix", "2,1,1", "--vector", "1,1"])
        assert code == 2
        capsys.readouterr()
        code = main(["sol", "cert", "--matrix", "1,0,0,1", "--vector", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "trace" in captured.err


class TestInternalErrors:
    """Failures of the program's own checks exit 1 with one stderr line,
    never 2 ("invalid input") and never a traceback."""

    @pytest.mark.parametrize("error", [
        CertificateError, SolCertificateError, SoundnessError, WitnessError])
    def test_internal_check_failure_is_exit_one(self, capsys, monkeypatch,
                                                error):
        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, "cl_upper", fail)
        code = main(["cl", "--word", "[a,b]"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "injected failure" in captured.err

    def test_sol_contraction_failure_is_exit_one(self, capsys):
        # the decomposition's own contraction check fails on this member;
        # its cause in the profile constants is still open
        code = main(["sol", "decompose", "--matrix=0,1,-1,3",
                     "--vector=1000,1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "contraction failed" in captured.err

    def test_sol_depth_cap_is_exit_three(self, capsys):
        code = main(["sol", "decompose", "--matrix=2,1,1,1",
                     "--vector=100000000000000000000,1", "--max-depth", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.count("\n") == 1
        assert "max_depth 2" in captured.err


class TestConfig:
    def test_budget_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_len": 5}))
        captured = run_cli(capsys, "cl", "--word", "[a,b]",
                           "--config", str(path))
        (record,) = records_of(captured)
        assert record["inputs"]["max_len"] == 5

    def test_margulis_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"margulis_constants": {"4": 0.27}}))
        captured = run_cli(capsys, "gap", "--m", "100", "--genus", "1",
                           "--epsilon", "0.05", "--dim", "4",
                           "--config", str(path))
        (record,) = records_of(captured)
        assert record["result"]["margulis_constant"] == 0.27

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"maxlen": 5}))
        code = main(["hk", "--radius", "2", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "maxlen" in captured.err

    def test_command_line_beats_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_len": 5, "n_max": 2}))
        captured = run_cli(capsys, "scl", "--word", "[a,b]",
                           "--max-len", "6", "--config", str(path))
        (record,) = records_of(captured)
        assert record["inputs"]["max_len"] == 6
        assert record["inputs"]["n_max"] == 2
