import json
from fractions import Fraction

import pytest

from diagonal_effect import InputError, MixtureParams, ToricParams
from diagonal_effect.cli import main, parse_count_table, parse_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseCountTable:
    def test_valid(self):
        t = parse_count_table("0,1\n1,0")
        assert t.to_lists() == [[0, 1], [1, 0]]

    def test_ragged(self):
        with pytest.raises(InputError, match="line 2"):
            parse_count_table("1,2\n3")

    def test_negative(self):
        with pytest.raises(InputError, match="negative"):
            parse_count_table("1,-1\n0,0")

    def test_non_integer(self):
        with pytest.raises(InputError, match="column 2"):
            parse_count_table("1,x\n0,0")

    @pytest.mark.parametrize("entry", ["1_0", "+1", "\u0661", "\uff11"])
    def test_only_ascii_digits(self, entry):
        with pytest.raises(InputError, match="not an integer"):
            parse_count_table(f"1,{entry}\n0,0")


class TestParseParams:
    def test_mixture(self):
        text = json.dumps(
            {"alpha": "3/4", "r": ["1/3"] * 3, "c": ["1/3"] * 3, "d": ["1/3"] * 3}
        )
        params = parse_params(text)
        assert isinstance(params, MixtureParams)
        assert params.alpha == Fraction(3, 4)

    def test_toric(self):
        text = json.dumps({"zeta_r": ["1", "1", "1"], "zeta_c": [1, 1, 1], "zeta_gamma": ["2", "2", "2"]})
        params = parse_params(text)
        assert isinstance(params, ToricParams)
        assert params.zeta_g == (2, 2, 2)

    def test_alpha_range_error(self):
        with pytest.raises(InputError, match="alpha"):
            parse_params(json.dumps({"alpha": "2", "r": ["1"], "c": ["1"], "d": ["1"]}))

    def test_floats_rejected(self):
        with pytest.raises(InputError, match="num/den"):
            parse_params(json.dumps({"alpha": 0.5, "r": ["1"], "c": ["1"], "d": ["1"]}))

    def test_missing_keys(self):
        with pytest.raises(InputError, match="keys"):
            parse_params(json.dumps({"alpha": "1/2"}))


class TestSubcommands:
    def test_toric_ideal_verify_listed(self, capsys):
        code, out, _ = run_cli(
            capsys, "toric-ideal", "--model", "common", "--size", "3", "--verify-against", "listed"
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "toric-ideal"
        assert record["outputs"]["verdict"] == "EQUAL"
        assert record["outputs"]["count"] == 9

    def test_classify_witness(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps({"zeta_r": [1, 1, 1], "zeta_c": [1, 1, 1], "zeta_gamma": ["2", "2", "2"]})
        )
        code, out, _ = run_cli(capsys, "classify", "--params", str(params))
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["verdict"] == "InBothWithWitness"
        assert record["outputs"]["witness"]["alpha"] == "3/4"
        assert record["outputs"]["N_T"] == "12"

    def test_exact_test_enumerate(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,1\n1,0,1\n1,1,0\n")
        code, out, _ = run_cli(
            capsys, "exact-test", "--model", "diag", "--table", str(table),
            "--seed", "1", "--enumerate",
        )
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["method"] == "Enumeration"
        assert record["outputs"]["monte_carlo_stderr"] == 0.0

    def test_boundary_check(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,1\n1,0,1\n1,1,0\n")
        code, out, _ = run_cli(capsys, "boundary-check", "--table", str(table))
        record = json.loads(out)
        assert record["outputs"]["verdict"] == "RuledOutM2"
        assert record["outputs"]["invariants_vanish"] is True

    def test_enumerate_fiber(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,0\n0,0,1\n1,0,0\n")
        code, out, _ = run_cli(capsys, "enumerate-fiber", "--model", "diag", "--table", str(table))
        record = json.loads(out)
        assert record["outputs"]["size"] == 2

    def test_markov_moves(self, capsys):
        code, out, _ = run_cli(capsys, "markov-moves", "--model", "common", "--size", "3")
        record = json.loads(out)
        assert record["outputs"]["count"] == len(record["outputs"]["moves"])
        labels = {m["label"] for m in record["outputs"]["moves"]}
        assert {"cycle", "diag-shift", "diag-double", "diag-double^T"} <= labels

    def test_invariants_evaluate(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"alpha": "3/5", "r": ["1/3"] * 3, "c": ["1/3"] * 3}))
        code, out, _ = run_cli(
            capsys, "invariants", "--model", "common", "--form", "mixture", "--size", "3",
            "--listed", "--evaluate", str(params),
        )
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["count"] == 20
        assert record["outputs"]["vanishing"]["all_zero"] is True

    def test_check_connectivity(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-connectivity", "--model", "diag", "--size", "3", "--max-n", "3"
        )
        record = json.loads(out)
        assert record["outputs"]["all_connected"] is True

    def test_sample_stream(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,0\n0,0,1\n1,0,0\n")
        code, out, _ = run_cli(
            capsys, "sample", "--model", "diag", "--table", str(table),
            "--steps", "5", "--burnin", "0", "--seed", "2", "--stationary", "uniform",
        )
        assert code == 0
        lines = out.strip().splitlines()
        # one RunRecord (multi-line JSON) followed by 5 sample lines
        samples = [json.loads(line) for line in lines if line.startswith("{\"index\"")]
        assert len(samples) == 5

    def test_exact_test_chains(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("1,2,0\n0,1,2\n2,0,1\n")
        code, out, _ = run_cli(
            capsys, "exact-test", "--model", "common", "--table", str(table),
            "--samples", "3000", "--seed", "5", "--chains", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["config"]["chains"] == 3
        assert 0.0 <= record["outputs"]["p_value"] <= 1.0

    def test_determinism_byte_identical(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("1,2,0\n0,1,2\n2,0,1\n")
        argv = ["exact-test", "--model", "common", "--table", str(table),
                "--samples", "2000", "--seed", "123"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestExitCodes:
    def test_input_error_is_2(self, capsys, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("1,-2\n0,0\n")
        code, _, err = run_cli(capsys, "boundary-check", "--table", str(table))
        assert code == 2
        assert "input error" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run_cli(capsys, "boundary-check", "--table", "/nonexistent.csv")
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--enumerate", "--chains", "3"],
        ["--chains", "0"],
        ["--chains", "-2"],
    ])
    def test_bad_chains_is_2(self, capsys, tmp_path, extra):
        table = tmp_path / "t.csv"
        table.write_text("1,2,0\n0,1,2\n2,0,1\n")
        code, out, err = run_cli(
            capsys, "exact-test", "--model", "common", "--table", str(table),
            "--samples", "100", "--seed", "1", *extra,
        )
        assert code == 2
        assert "chains" in err
        assert out == ""

    def test_zero_thinning_is_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,0\n0,0,1\n1,0,0\n")
        code, _, err = run_cli(
            capsys, "sample", "--model", "diag", "--table", str(table),
            "--steps", "5", "--seed", "2", "--thinning", "0",
        )
        assert code == 2
        assert "thinning" in err

    def test_budget_error_is_3(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("3,3,3\n3,3,3\n3,3,3\n")
        code, _, err = run_cli(
            capsys, "enumerate-fiber", "--model", "common", "--table", str(table),
            "--budget", "10",
        )
        assert code == 3
        assert "budget" in err
