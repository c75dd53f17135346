import csv
import hashlib
import io
import json
import math
import os
import stat
import warnings

import pytest

from pitmanyor.cli import cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEppfCommand:
    def test_json_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1,2|3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert doc["partition"] == "1,2|3"
        assert math.isclose(doc["prob"], 0.125, rel_tol=1e-12)
        assert math.isclose(doc["log_prob"], math.log(0.125), rel_tol=1e-12)

    def test_canonicalizes_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "3|2,1"
        )
        assert code == 0
        assert json.loads(out)["partition"] == "1,2|3"

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1|2", "--csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "alpha,d,n,partition,log_prob,prob"
        assert row.startswith("1.0,0.5,2,1|2,")

    def test_large_alpha_singletons(self, capsys):
        # 70 singletons at alpha = 1e15 have probability 1 - 1.2e-12, and the
        # (alpha + 1)_(69) factor takes the log-gamma-ratio branch of the
        # rising factorial; its plain lgamma difference printed 0.438
        spec = "|".join(str(i) for i in range(1, 71))
        code, out, _ = run_cli(capsys, "eppf", "--alpha", "1e15", "--d", "0.5", "--partition", spec)
        assert code == 0
        assert math.isclose(json.loads(out)["prob"], 1.0, rel_tol=1e-9)

    def test_bad_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1,3"
        )
        assert code == 2
        assert "error" in err

    def test_bad_params_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "eppf", "--alpha", "-2", "--d", "0.5", "--partition", "1"
        )
        assert code == 2


class TestSampleCommand:
    def test_default_lists_draws(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--method", "crp", "--alpha", "1", "--d", "0.5",
            "--n", "3", "--trials", "25", "--seed", "42",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["partitions"]) == 25

    def test_tabulate_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--method", "stick", "--alpha", "1", "--d", "0.5",
            "--n", "4", "--trials", "1000", "--seed", "42", "--tabulate",
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(doc["counts"].values()) == 1000

    def test_byte_identical_repeats(self, capsys):
        argv = ["sample", "--method", "stick", "--alpha", "1", "--d", "0.5",
                "--n", "4", "--trials", "1000", "--seed", "42"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_csv_tabulate(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--method", "crp", "--alpha", "1", "--d", "0",
            "--n", "2", "--trials", "50", "--seed", "1", "--tabulate", "--csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "partition,count,freq"
        assert sum(int(line.split(",")[-2]) for line in lines[1:]) == 50

    def test_n_too_large_for_tabulation(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--method", "crp", "--alpha", "1", "--d", "0.5",
            "--n", "11", "--trials", "10",
        )
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemmaC")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert "[PASS]" in err

    def test_known_failing_suite_exits_one(self, capsys):
        # labels <= 60 hold only ~0.91 of the n = 2 mass at (1, 0.5), short
        # of the 0.99 target (README, "Known failing checks")
        code, out, err = run_cli(
            capsys, "verify", "--suite", "propA", "--alpha", "1", "--d", "0.5"
        )
        assert code == 1
        report = json.loads(out)
        assert report["failures"] == 1
        assert "[FAIL] allocation_truncated_normalization" in err

    def test_bridge_suite_at_negative_alpha_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "lemmaB", "--alpha", "-0.3", "--d", "0.5"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert "[FAIL]" not in err

    def test_bridge_suite_at_zero_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "lemmaB", "--alpha", "0", "--d", "0.5"
        )
        assert code == 2
        assert "alpha = 0" in err

    def test_equivalence_at_discount_0_9_exits_zero(self, capsys):
        # the stick route's label tail at d = 0.9 passes 2^53 for about one
        # observation in sixty; the sampler must still finish, and exactly
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "equivalence", "--alpha", "1", "--d", "0.9",
            "--trials", "20000",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_byte_identical_repeats(self, capsys):
        argv = ["verify", "--suite", "lemmaC", "--seed", "5"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_alpha_without_d_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "normalization", "--alpha", "1")
        assert code == 2

    @pytest.mark.parametrize("suite", ["lemmaC", "lemmaD", "lemmaE"])
    def test_override_on_fixed_config_suite_is_usage_error(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--alpha", "1", "--d", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "runs fixed configs" in err

    @pytest.mark.parametrize("suite", ["equivalence", "lemmaE"])
    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_too_few_trials_is_usage_error(self, capsys, suite, trials):
        # the TV bound divides by trials and the moment check takes a
        # ddof=1 spread, so fewer than two trials must not reach them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
        assert code == 2
        assert out == ""
        assert f"trials must be >= 2, got {trials}" in err


class TestGrowthCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--alpha", "1", "--d", "0.5",
            "--ngrid", "100,1000", "--trials", "50", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["n"] for r in doc["records"]] == [100, 1000]
        assert isinstance(doc["exponent"], float)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--alpha", "1", "--d", "0.5",
            "--ngrid", "100,1000", "--trials", "50", "--seed", "7", "--csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,mean_kn,se,trials"
        assert len(lines) == 3

    def test_one_point_grid_prints_null_exponent(self, capsys):
        # one point fits no slope; the document must still be strict JSON
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        code, out, _ = run_cli(
            capsys, "growth", "--alpha", "1", "--d", "0.5", "--ngrid", "100", "--trials", "5"
        )
        assert code == 0
        assert json.loads(out, parse_constant=reject)["exponent"] is None

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "growth", "--alpha", "1", "--d", "0.5", "--ngrid", "10,abc"
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1", "--nope"
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


# every command and output format, each small and seeded
EMITTED = {
    "eppf-json": ["eppf", "--alpha", "1", "--d", "0.5", "--partition", "1,2|3"],
    "eppf-csv": ["eppf", "--alpha", "1", "--d", "0.5", "--partition", "1,2|3", "--csv"],
    "sample-json": ["sample", "--method", "stick", "--alpha", "1", "--d", "0.5", "--n", "4",
                    "--trials", "20"],
    "sample-csv": ["sample", "--method", "crp", "--alpha", "1", "--d", "0.5", "--n", "4",
                   "--trials", "20", "--csv"],
    "tabulate-json": ["sample", "--method", "crp", "--alpha", "1", "--d", "0.5", "--n", "4",
                      "--trials", "200", "--tabulate"],
    "tabulate-csv": ["sample", "--method", "stick", "--alpha", "1", "--d", "0.5", "--n", "4",
                     "--trials", "200", "--tabulate", "--csv"],
    "growth-json": ["growth", "--alpha", "1", "--d", "0.5", "--ngrid", "10,100", "--trials", "20"],
    "growth-csv": ["growth", "--alpha", "1", "--d", "0.5", "--ngrid", "10,100", "--trials", "20",
                   "--csv"],
    "verify-json": ["verify", "--suite", "lemmaC"],
}

# sha256 of each case's stdout (x86-64 Linux, numpy 2.4)
EMITTED_SHA256 = {
    "eppf-json": "70e8dc99a4af8abaedb42b67c1e1455e07fc75d7ff57bed2bda96f5b109aaad1",
    "eppf-csv": "82c7428e0415a780a892a80697692ef5128063cabc140587c20b436a231c304f",
    "sample-json": "49843fc1d376632628e40236a3ea8fa978fdcffb1d92d598f01a58d63cdeebd2",
    "sample-csv": "c749d211906532e56696d4c60a97b7a5d134aae9e8d2923127648f8a9a991096",
    "tabulate-json": "d160df31e9164f354586e9cc2de562214be0eaba061eb5c6179a29f05ffd3359",
    "tabulate-csv": "cfec25d8a20d1fa3a9b668cb31a353cdf1da1cffc4dc8edc94be10bfbd5b7680",
    "growth-json": "5ff6417fbfd9ef3bded8d80d317393671340d95235f486ae5206456972c9e176",
    "growth-csv": "44698d79796a64b4cc26916249db6a4c2cd900b3bb061d740e266cb73ec34698",
    "verify-json": "759bf1b2a8919fba438e543c7d3cb96a943201e005f3030d834d25c9e66b554e",
}


@pytest.mark.parametrize("case", EMITTED)
def test_stdout_is_pinned(capsys, case):
    code, out, _ = run_cli(capsys, *EMITTED[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMITTED_SHA256[case]


def _json_rows(doc):
    """The records a command's JSON document holds, one dict per CSV row."""
    if "records" in doc:
        return doc["records"]
    if "counts" in doc:
        return [
            {"partition": key, "count": count, "freq": doc["freq"][key]}
            for key, count in doc["counts"].items()
        ]
    if "partitions" in doc:
        return [{"partition": key} for key in doc["partitions"]]
    return [doc]


@pytest.mark.parametrize("case", [case for case, argv in EMITTED.items() if "--csv" in argv])
def test_csv_reads_back_as_the_json_document(capsys, case):
    # partition text holds commas: each field must still read back as one
    argv = EMITTED[case]
    _, out, _ = run_cli(capsys, *argv)
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) for row in rows)
    _, doc_text, _ = run_cli(capsys, *[arg for arg in argv if arg != "--csv"])
    want = [[str(record[key]) for key in header] for record in _json_rows(json.loads(doc_text))]
    assert rows == want


class TestAtomicOutput:
    @pytest.mark.parametrize("case", EMITTED)
    def test_out_file_matches_stdout(self, capsys, tmp_path, case):
        target = tmp_path / "report.out"
        argv = EMITTED[case]
        _, stdout_doc, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""  # document went to the file instead
        assert target.read_text() == stdout_doc

    def test_out_file_gets_the_mode_open_would_give(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        previous = os.umask(0o022)
        try:
            code, _, _ = run_cli(
                capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1", "--out",
                str(target),
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        # exit 1 means a failed verification, so a bad path must exit 2
        if where == "directory":
            target = tmp_path / "taken"
            target.mkdir()
        else:
            target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "eppf", "--alpha", "1", "--d", "0.5", "--partition", "1", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.rglob(".pitmanyor-*")) == []
