import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagonal_effect import InputError, MixtureParams, ModelFamily, ModelForm, ModelSpec, ToricParams
from diagonal_effect import markov, toricideal
from diagonal_effect.cli import main, parse_count_table, parse_params

from conftest import model

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

# past the interpreter's 4,300-digit limit on int <-> str conversion
HUGE = "9" * 5000

# values shaped like the documented ones, and a little off them
_TOKENS = (
    st.from_regex(r"-?[0-9]{1,4}(/-?[0-9]{0,3})?", fullmatch=True)
    | st.sampled_from(["", " ", "+1", "1.5", "1e3", "1_0", "0x1", "nan", "\u0661", HUGE])
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TOKENS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(
        st.sampled_from(["zeta_r", "zeta_c", "zeta_gamma", "alpha", "r", "c", "d"]) | st.text(max_size=4),
        inner,
        max_size=7,
    ),
    max_leaves=20,
)
_CSV = st.lists(st.lists(_TOKENS, min_size=1, max_size=4), min_size=1, max_size=4).map(
    lambda rows: "\n".join(",".join(row) for row in rows)
)
_MODELS = st.sampled_from(
    [None] + [ModelSpec(f, ModelForm.TORIC, 3)
              for f in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT)]
)


class TestParsersRaiseOnlyInputError:
    """Malformed input of any shape is an InputError (exit code 2), never
    another exception."""

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _CSV)
    @example(HUGE)
    @example(f"1,{HUGE}\n0,0")
    def test_parse_count_table(self, text):
        try:
            parse_count_table(text)
        except InputError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text() | _JSON_VALUES.map(json.dumps), _MODELS)
    @example(f'{{"zeta_r": [1, 1], "zeta_c": [1, 1], "zeta_gamma": [1, {HUGE}]}}', None)
    @example(json.dumps({"alpha": "1e10000000", "r": ["1"], "c": ["1"], "d": ["1"]}), None)
    @example("[" * 100_000, None)  # nested past the recursion limit
    # r's exact sum has a denominator of about 8,000 digits
    @example(json.dumps({"alpha": "1/2", "r": ["1/1" + "0" * 4000, "1/1" + "0" * 3999 + "1"],
                         "c": ["1/2", "1/2"], "d": ["1/2", "1/2"]}), None)
    def test_parse_params(self, text, model):
        try:
            parse_params(text, model)
        except InputError:
            pass


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

    @pytest.mark.parametrize("data, field", [
        ({"zeta_r": [1, 1, 1], "zeta_c": [1, 1, 1], "zeta_gamma": [1, 2, 1]}, "zeta_gamma"),
        ({"alpha": "1/2", "r": ["1/3"] * 3, "c": ["1/3"] * 3, "d": ["1/2", "1/4", "1/4"]}, "d"),
    ], ids=["toric", "mixture"])
    def test_common_model_needs_a_common_diagonal(self, data, field):
        common = ModelSpec(ModelFamily.COMMON_DIAGONAL_EFFECT, ModelForm.TORIC, 3)
        with pytest.raises(InputError, match=f"^{field}: the common-diagonal model needs all entries equal"):
            parse_params(json.dumps(data), common)
        parse_params(json.dumps(data))

    def test_missing_keys(self):
        with pytest.raises(InputError, match="keys"):
            parse_params(json.dumps({"alpha": "1/2"}))

    @pytest.mark.parametrize("value", ["1e10000000", "0.5", "1.", " 1/2", "1/ 2", "+1", "1_0",
                                       "0x10", "\u0661", "-1/-2", "1/2/3", "inf", "nan", ""])
    def test_only_documented_rational_forms(self, value):
        with pytest.raises(InputError, match="num/den"):
            parse_params(json.dumps({"alpha": value, "r": ["1"], "c": ["1"], "d": ["1"]}))

    @pytest.mark.parametrize("value", [HUGE, "1/" + HUGE, "1/0"],
                             ids=["huge", "huge-denominator", "zero-denominator"])
    def test_unrepresentable_rationals(self, value):
        with pytest.raises(InputError, match="cannot parse rational"):
            parse_params(json.dumps({"alpha": value, "r": ["1"], "c": ["1"], "d": ["1"]}))


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

    # one input per membership verdict, each compared with its full outputs; those
    # of the first four boundary-check tables were recorded while a ProbTable still
    # held a grid of Fractions (a diagonal-only table, and a diagonal-effect toric table)
    @pytest.mark.parametrize("command, flag, text, outputs", [
        ("classify", "--params", '{"zeta_r": [1, 1, 1], "zeta_c": [1, 1, 1], "zeta_gamma": [2, 2, 2]}',
         {"verdict": "InBothWithWitness", "case": None, "N": "9", "N_T": "12",
          "witness": {"alpha": "3/4", "r": ["1/3"] * 3, "c": ["1/3"] * 3, "d": ["1/3"] * 3}}),
        # a diagonal parameter below 1 with N_T > N has no mixture witness
        ("classify", "--params", '{"zeta_r": [1, 1, 1], "zeta_c": [1, 1, 1], "zeta_gamma": [2, 1, "1/2"]}',
         {"verdict": "ToricOnly", "case": "iii", "N": "9", "N_T": "19/2"}),
        ("boundary-check", "--table", "1,0,0\n0,2,0\n0,0,3\n",
         {"verdict": "RuledOutM1", "invariants_vanish": True,
          "toric_exclusions": [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]], "mixture_exclusions": []}),
        ("boundary-check", "--table", "0,2,1,3\n1,3,2,1\n2,1,4,1\n1,2,1,0\n",
         {"verdict": "RuledOutM2", "invariants_vanish": False, "toric_exclusions": [], "mixture_exclusions": [1, 4]}),
        ("boundary-check", "--table", "0,1,2,1\n3,1,0,2\n1,2,2,1\n2,1,1,3\n",
         {"verdict": "RuledOutBoth", "invariants_vanish": False, "toric_exclusions": [[2, 3]],
          "mixture_exclusions": [1]}),
        ("boundary-check", "--table", "4,1,1,1\n4,2,2,2\n2,1,3,1\n6,3,3,3\n",
         {"verdict": "Inconclusive", "invariants_vanish": True, "toric_exclusions": [], "mixture_exclusions": []}),
        ("boundary-check", "--table", "0,1,1\n1,0,1\n1,1,0\n",
         {"verdict": "RuledOutM2", "invariants_vanish": True, "toric_exclusions": [], "mixture_exclusions": [1, 2, 3]}),
    ], ids=["InBothWithWitness", "ToricOnly", "RuledOutM1", "RuledOutM2", "RuledOutBoth", "Inconclusive",
            "RuledOutM2-size-3"])
    def test_one_input_per_verdict(self, capsys, tmp_path, command, flag, text, outputs):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, _ = run_cli(capsys, command, flag, str(path))
        assert code == 0
        assert json.loads(out)["outputs"] == outputs

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

    def test_exact_test_enumerate_gets_the_enumeration_budget(self, capsys, tmp_path):
        # the `fibers` benchmark's largest base table: 9,480 tables, 352,789 nodes
        table = tmp_path / "t.csv"
        table.write_text("0,0,1,2,0\n0,0,2,0,1\n2,0,0,1,0\n1,0,0,0,2\n0,3,0,0,0\n")
        code, out, err = run_cli(
            capsys, "exact-test", "--model", "common", "--table", str(table),
            "--seed", "1", "--enumerate",
        )
        assert code == 0, err
        outputs = json.loads(out)["outputs"]
        golden = json.loads((GOLDEN / "enumeration_pvalues.json").read_text())["tests"]["fiber8"]
        assert repr(outputs["p_value"]) == golden["p_value"]
        assert outputs["samples_used"] == golden["samples_used"]
        assert outputs["config"] == {"node_budget": 10_000_000, "nodes_visited": 352_789}

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

    def test_check_connectivity_lists_a_disconnected_fiber(self, capsys, monkeypatch):
        # the command reads verify_connectivity from its module when it runs
        sweep = markov.verify_connectivity
        monkeypatch.setattr(markov, "verify_connectivity", lambda family, I, max_n: sweep(
            family, I, max_n, [m for m in markov.moves_for_model(model(family, I)) if m.label != "diag-shift"]))
        code, out, _ = run_cli(
            capsys, "check-connectivity", "--model", "common", "--size", "3", "--max-n", "3"
        )
        outputs = json.loads(out)["outputs"]
        assert code == 0
        assert outputs["all_connected"] is False
        assert outputs["disconnected"] == [{"stat": "((1, 1, 1), (1, 1, 1), 1)", "component_sizes": [1, 1, 1]}]

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

    @pytest.mark.parametrize("command,flag,text", [
        ("boundary-check", "--table", f"1,{HUGE}\n0,0\n"),
        ("classify", "--params", f'{{"zeta_r": [1, 1], "zeta_c": [1, 1], "zeta_gamma": [1, {HUGE}]}}'),
    ], ids=["csv-cell", "json-integer"])
    def test_oversized_integer_is_2(self, capsys, tmp_path, command, flag, text):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == 2
        assert "input error" in err
        assert out == ""

    @pytest.mark.parametrize("argv, text, message", [
        (["invariants", "--model", "common", "--form", "mixture", "--size", "4", "--evaluate"],
         (ROOT / "demos" / "mixture5.json").read_text(), "parameters have size 5, expected 4"),
        (["classify", "--params"], '{"alpha": "1/2", "r": ["1/2", "1/2"], "c": ["1/2", "1/2"], "d": ["1/2", "1/2"]}',
         "classify expects toric parameters (zeta_r, zeta_c, zeta_gamma)"),
        (["classify", "--params"], '{"zeta_r": [], "zeta_c": [1], "zeta_gamma": [1]}',
         "zeta_r: expected a nonempty list"),
    ], ids=["evaluate-size", "classify-mixture", "empty-vector"])
    def test_parameter_file_errors_are_2(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "params.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert message in err
        assert out == ""

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

    @pytest.mark.parametrize("form", ["toric", "mixture"])
    def test_listed_diag_is_2(self, capsys, form):
        code, out, err = run_cli(
            capsys, "invariants", "--model", "diag", "--form", form, "--size", "4", "--listed",
        )
        assert code == 2
        assert "common model at size 3" in err
        assert out == ""

    def test_listed_check_precedes_the_saturation(self, capsys, monkeypatch):
        def no_saturation(*args, **kwargs):
            raise AssertionError("toric_ideal ran before the listed generators were checked")

        # the command reads toric_ideal from its module when it runs
        monkeypatch.setattr(toricideal, "toric_ideal", no_saturation)
        code, out, err = run_cli(
            capsys, "toric-ideal", "--model", "common", "--size", "4", "--verify-against", "listed",
        )
        assert code == 2
        assert "common model at size 3" in err
        assert out == ""

    def test_closed_pipe_is_1_without_traceback(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        # 100,000 sample lines, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "diagonal_effect.cli", "sample", "--model", "common",
             "--table", "demos/table3.csv", "--steps", "100000", "--seed", "1"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert first == b"{\n"
        assert code == 1
        assert err == ""

    def test_zero_thinning_is_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1,0\n0,0,1\n1,0,0\n")
        code, _, err = run_cli(
            capsys, "sample", "--model", "diag", "--table", str(table),
            "--steps", "5", "--seed", "2", "--thinning", "0",
        )
        assert code == 2
        assert "thinning" in err

    @pytest.mark.parametrize("argv, name", [
        (["check-connectivity", "--model", "diag", "--size", "3", "--max-n", "-1"], "max_n"),
        (["exact-test", "--model", "common", "--table", "demos/table3.csv", "--samples", "0", "--seed", "1"],
         "steps"),
    ], ids=["max-n", "samples"])
    def test_count_below_its_floor_is_2(self, capsys, monkeypatch, argv, name):
        monkeypatch.chdir(ROOT)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"{name} must be an integer of at least" in err
        assert out == ""

    # each integer flag in a command that runs with it; int() would read
    # each of the first three values as 3
    @pytest.mark.parametrize("flag, argv", [
        ("--size", ["markov-moves", "--model", "diag"]),
        ("--steps", ["sample", "--model", "diag", "--table", "demos/table3.csv", "--seed", "1"]),
        ("--burnin", ["sample", "--model", "diag", "--table", "demos/table3.csv",
                      "--steps", "5", "--seed", "1"]),
        ("--thinning", ["sample", "--model", "diag", "--table", "demos/table3.csv",
                        "--steps", "5", "--seed", "1"]),
        ("--seed", ["sample", "--model", "diag", "--table", "demos/table3.csv", "--steps", "5"]),
        ("--samples", ["exact-test", "--model", "diag", "--table", "demos/table3.csv", "--seed", "1"]),
        ("--chains", ["exact-test", "--model", "diag", "--table", "demos/table3.csv",
                      "--samples", "100", "--seed", "1"]),
        ("--budget", ["enumerate-fiber", "--model", "diag", "--table", "demos/table3.csv"]),
        ("--max-n", ["check-connectivity", "--model", "diag", "--size", "3"]),
    ])
    @pytest.mark.parametrize("value, message", [
        ("+0_3", "'+0_3' is not an integer"),
        (" 3 ", "' 3 ' is not an integer"),
        ("\u0663", "'\u0663' is not an integer"),
        (HUGE, "5000 digits are too many"),
    ], ids=["sign-underscore", "spaces", "arabic-indic", "huge"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, monkeypatch, flag, argv, value, message):
        monkeypatch.chdir(ROOT)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert message in err
        assert out == ""

    # C(12 + 36, 36) is about 7e10 tables; the second sweep's count passes
    # the budget at its first factor
    @pytest.mark.parametrize("size, max_n", [(6, 12), (1000, 10 ** 9)])
    def test_oversized_sweep_is_3(self, capsys, size, max_n):
        code, out, err = run_cli(
            capsys, "check-connectivity", "--model", "common", "--size", str(size),
            "--max-n", str(max_n),
        )
        assert code == 3
        assert "10000000-table budget" in err
        assert out == ""

    def test_invariant_violation_is_4(self, capsys, unweighted_sweep):
        code, out, err = run_cli(
            capsys, "check-connectivity", "--model", "diag", "--size", "3", "--max-n", "3",
        )
        assert code == 4
        assert err.startswith("internal invariant violation: the sweep weighted ")
        assert err.endswith("= 220\n")
        assert out == ""

    def test_negative_budget_is_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("1,2,0\n0,1,2\n2,0,1\n")
        code, out, err = run_cli(
            capsys, "enumerate-fiber", "--model", "common", "--table", str(table),
            "--budget", "-1",
        )
        assert code == 2
        assert "node_budget" in err
        assert out == ""

    def test_budget_error_is_3(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("3,3,3\n3,3,3\n3,3,3\n")
        code, _, err = run_cli(
            capsys, "enumerate-fiber", "--model", "common", "--table", str(table),
            "--budget", "10",
        )
        assert code == 3
        assert "budget" in err
