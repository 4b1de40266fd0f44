"""Command-line interface: report schemas, formats and exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gammacap
from gammacap import cli
from gammacap.channel import parse_error_model
from gammacap.solver import SolverConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert err == ""
    return code, json.loads(out)


def env_with_this_gammacap():
    """The environment for a child process importing this session's gammacap."""
    env = dict(os.environ)
    src = str(Path(gammacap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def stderr_diagnostic(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestReportSchema:
    def test_top_level_keys(self, capsys):
        code, doc = run_json(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0",
        )
        assert code == 0
        assert sorted(doc) == ["command", "diagnostics", "params", "result"]
        assert doc["command"] == "capacity"
        assert doc["params"]["q"] == 2
        assert doc["diagnostics"]["converged"] is True
        assert doc["diagnostics"] == {
            "converged": True,
            "newton_steps": 0,
            "stop_reason": "certified",
        }

    def test_byte_identical_reruns(self, capsys):
        args = (
            "capacity", "--q", "3", "--n", "2", "--m", "2", "--error", "iid:t=1"
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_equivalent_error_spellings_identical(self, capsys):
        """The params block records the canonical distribution, so two
        spellings of the same error model give byte-identical reports."""
        _, out1, _ = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0",
        )
        _, out2, _ = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "empirical:1.0",
        )
        assert out1 == out2


class TestCapacityCommand:
    def test_no_error_value(self, capsys):
        code, doc = run_json(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0",
        )
        assert code == 0
        assert doc["result"]["capacity_bits"] == pytest.approx(
            math.log2(5), abs=1e-9
        )
        norm = doc["result"]["capacity_bits"] / (4 * math.log2(2))
        assert doc["result"]["normalized_rate"] == pytest.approx(norm, abs=1e-12)

    def test_non_convergence_still_reports(self, capsys):
        code, out, err = run_cli(
            capsys, "capacity", "--q", "2", "--n", "3", "--m", "3",
            "--error", "binomial:T=2,p=0.2", "--max-iters", "2",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["diagnostics"]["converged"] is False
        assert doc["result"]["iterations"] == 2
        assert doc["diagnostics"]["stop_reason"] == "iteration_cap"
        assert doc["diagnostics"]["newton_steps"] == 0

    def test_stalled_channel_certifies_with_newton_steps(self, capsys):
        """SQUAREM alone stopped here at the 500 cap with a 4.9e-5-bit gap
        (exit 3); the Newton polish certifies it, and the report, including
        both diagnostics, is the same on every run."""
        args = (
            "capacity", "--q", "5", "--n", "11", "--m", "11",
            "--error", "constant:t=8", "--max-iters", "500",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["stop_reason"] == "certified"
        assert doc["diagnostics"]["newton_steps"] > 0
        assert doc["result"]["optimality_gap_bits"] <= 1e-9
        assert run_cli(capsys, *args)[1] == out

    @pytest.mark.parametrize(
        "n, bits, iterations", [(16, 5942.20, 2), (32, 8070.42, 7)]
    )
    def test_class_weight_beyond_float_range(self, capsys, n, bits, iterations):
        """At q = 256 an output class of h_r holds more than 2^1024 row
        spaces, and weight * float(p) raised OverflowError (exit 2)."""
        code, doc = run_json(
            capsys, "capacity", "--q", "256", "--n", str(n), "--m", "64",
            "--error", "binomial:T=4,p=0.1",
        )
        assert code == 0
        assert doc["result"]["capacity_bits"] == pytest.approx(bits, abs=5e-3)
        assert doc["result"]["iterations"] == iterations
        assert doc["diagnostics"]["stop_reason"] == "certified"

    def test_invalid_params_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "capacity", "--q", "6", "--n", "2", "--m", "2",
            "--error", "constant:t=0",
        )
        assert code == 2 and out == ""
        assert stderr_diagnostic(err)["exit_code"] == 2

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_exit_2(self, capsys, tolerance):
        """--tol inf used to report "converged": true and write the
        tolerance as Infinity, which is not JSON."""
        code, out, err = run_cli(
            capsys, "capacity", "--q", "2", "--n", "3", "--m", "3",
            "--error", "constant:t=1", "--tol", tolerance,
        )
        assert code == 2 and out == ""
        diagnostic = stderr_diagnostic(err)
        assert diagnostic["exit_code"] == 2
        assert "finite" in diagnostic["error"]

    def test_float_overflow_exit_2(self, capsys, monkeypatch):
        """An OverflowError used to escape main: a traceback and exit 1,
        the code of a verify mismatch."""

        def overflow(params, config):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli, "maximize", overflow)
        code, out, err = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0",
        )
        assert code == 2 and out == ""
        diagnostic = stderr_diagnostic(err)
        assert diagnostic["exit_code"] == 2
        assert "float" in diagnostic["error"]

    def test_bad_error_model_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=9",
        )
        assert code == 2 and out == ""
        assert "exceeds" in stderr_diagnostic(err)["error"]

    def test_zero_denominator_probability_exit_2(self, capsys):
        """empirical:1/0 used to escape main as a ZeroDivisionError: a
        traceback and exit 1."""
        code, out, err = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "empirical:1/0",
        )
        assert code == 2 and out == ""
        diagnostic = stderr_diagnostic(err)
        assert diagnostic["exit_code"] == 2
        assert "1/0" in diagnostic["error"]

    def test_exact_law_past_the_int_digit_limit(self, capsys):
        """At q = 65536 the iid:t=14 law has entries of 7 757 digits, and
        str() of them raised the interpreter's 4 300-digit limit (exit 2)
        after a certified solve."""
        shape = ("--q", "65536", "--n", "16", "--m", "64")
        code, doc = run_json(capsys, "capacity", *shape, "--error", "iid:t=14")
        assert code == 0
        assert doc["diagnostics"]["stop_reason"] == "certified"
        law = parse_error_model("iid:t=14", 65536, 16, 64).probs
        strings = doc["params"]["error_ranks"]
        assert max(map(len, strings)) > 4300
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert [Fraction(s) for s in strings] == list(law)
        finally:
            sys.set_int_max_str_digits(old_limit)

    @pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
    def test_empty_matrix_rate_is_zero(self, capsys, n, m):
        """With n*m = 0 the normalized rate divided by zero: a traceback and
        exit 1, where maximize certifies capacity 0."""
        code, doc = run_json(
            capsys, "capacity", "--q", "2", "--n", str(n), "--m", str(m),
            "--error", "constant:t=0",
        )
        assert code == 0
        assert doc["result"]["capacity_bits"] == 0.0
        assert doc["result"]["normalized_rate"] == 0.0
        assert doc["diagnostics"]["stop_reason"] == "certified"


class TestMatrixfnCommand:
    def test_f0_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrixfn", "f0", "--q", "2", "--n", "2", "--m", "2",
            "--u", "2", "--format", "text",
        )
        assert code == 0
        assert out == "6\n"

    def test_f2_value(self, capsys):
        code, doc = run_json(
            capsys, "matrixfn", "f2", "--q", "2", "--n", "2", "--m", "2",
            "--r", "1", "--rx", "1", "--rb", "0",
        )
        assert code == 0
        assert doc["result"]["value"] == 1
        assert doc["params"]["arguments"] == {"r": 1, "rx": 1, "rb": 0}

    def test_f1_zero_region(self, capsys):
        code, doc = run_json(
            capsys, "matrixfn", "f1", "--q", "2", "--n", "3", "--m", "3",
            "--u", "1", "--v", "1", "--r", "0", "--h", "1",
        )
        assert code == 0
        assert doc["result"]["value"] == 0

    def test_argument_mismatch_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "matrixfn", "f0", "--q", "2", "--n", "2", "--m", "2",
            "--u", "1", "--v", "1",
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments" in stderr_diagnostic(err)["error"]
        code, _, err = run_cli(
            capsys, "matrixfn", "f2", "--q", "2", "--n", "2", "--m", "2",
        )
        assert code == 2
        assert "required" in stderr_diagnostic(err)["error"]

    def test_each_function_requires_its_own_arguments(self, capsys):
        code, out, err = run_cli(
            capsys, "matrixfn", "f1", "--q", "2", "--n", "3", "--m", "3",
            "--u", "1", "--v", "1", "--r", "0",
        )
        assert code == 2 and out == ""
        diagnostic = stderr_diagnostic(err)
        assert diagnostic["exit_code"] == 2 and "--h" in diagnostic["error"]

    def test_function_name_comes_first(self, capsys):
        code, out, err = run_cli(
            capsys, "matrixfn", "--q", "2", "--n", "2", "--m", "2", "f0", "--u", "2",
        )
        assert code == 2 and out == ""
        assert stderr_diagnostic(err)["exit_code"] == 2

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "matrixfn", "f0", "--q", "2", "--n", "2", "--m", "3",
            "--u", "3",
        )
        assert code == 2
        assert stderr_diagnostic(err)["exit_code"] == 2


class TestRanksCommand:
    def test_delta_input_delta_error(self, capsys):
        code, doc = run_json(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=1", "--input", "1,0,0",
        )
        assert code == 0
        assert doc["result"]["output_exact"] == ["0", "1", "0"]

    def test_no_error_identity(self, capsys):
        code, doc = run_json(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1/5,3/5,1/5",
        )
        assert code == 0
        assert doc["result"]["output_exact"] == ["1/5", "3/5", "1/5"]

    def test_short_input_is_padded(self, capsys):
        code, doc = run_json(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1",
        )
        assert code == 0
        assert doc["result"]["input_ranks"] == ["1", "0", "0"]

    def test_non_normalized_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1/2,1/3",
        )
        assert code == 2
        assert "sum" in stderr_diagnostic(err)["error"]

    def test_overlong_input_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1,0,0,0",
        )
        assert code == 2
        assert stderr_diagnostic(err)["exit_code"] == 2

    def test_malformed_entry_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1,zero,0",
        )
        assert code == 2
        assert "malformed" in stderr_diagnostic(err)["error"]

    @pytest.mark.parametrize(
        "option,value",
        [("--input", text) for text in ("1,,0", "", "1/0,1", "a")]
        + [("--error", spec) for spec in (
            "binomial:T=2,p=x", "binomial:T=2,p=1/0", "empirical:1/2,x", "empirical:1/2,,1/2",
        )],
    )
    def test_every_malformed_number_exit_2(self, capsys, option, value):
        """--input, empirical: and p= share one number parser, whose message
        names the source of the bad text."""
        flags = {"--error": "constant:t=0", "--input": "1", option: value}
        code, out, err = run_cli(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            *(word for flag in flags.items() for word in flag),
        )
        message = stderr_diagnostic(err)["error"]
        assert code == 2 and out == ""
        assert "malformed" in message and repr(value) in message


class TestErrormodelCommand:
    def test_exact_fractions_reported(self, capsys):
        code, doc = run_json(
            capsys, "errormodel", "--q", "2", "--n", "2", "--m", "2",
            "--error", "binomial:T=2,p=0.3",
        )
        assert code == 0
        assert doc["result"]["rank_probabilities_exact"] == [
            "961/1600", "117/320", "27/800",
        ]
        assert doc["diagnostics"]["exact"] is True

    def test_sum_past_the_int_digit_limit_is_reported(self, capsys):
        """The message used to be the interpreter's 4 300-digit limit, raised
        while the 5 001-digit sum was put into it."""
        code, out, err = run_cli(
            capsys, "errormodel", "--q", "2", "--n", "2", "--m", "2",
            "--error", "empirical:1e-5000,1",
        )
        assert code == 2 and out == ""
        assert stderr_diagnostic(err)["error"] == (
            "exact probabilities sum to 1 + 1E-5000, not 1"
        )

    def test_unknown_kind_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "errormodel", "--q", "2", "--n", "2", "--m", "2",
            "--error", "wibble:t=1",
        )
        assert code == 2
        assert "unknown" in stderr_diagnostic(err)["error"]


class TestVerifyCommand:
    def test_small_channel_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=1",
        )
        assert code == 0
        assert doc["result"]["passed"] is True
        names = [check["name"] for check in doc["result"]["checks"]]
        assert names == [
            "matrix functions vs enumeration",
            "output rank law vs enumeration",
            "capacity vs Blahut-Arimoto",
        ]
        cap_check = doc["result"]["checks"][2]
        assert cap_check["max_deviation"] < 1e-6

    def test_degenerate_channel_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--q", "2", "--n", "1", "--m", "1",
            "--error", "constant:t=0",
        )
        assert code == 0
        assert doc["result"]["passed"] is True

    @staticmethod
    def _verify_with(capsys, caplog, monkeypatch, alter=lambda res: res, *flags):
        """verify at (2, 2, 3, iid:t=1) with the solver's result passed
        through ``alter``, and the number of Blahut-Arimoto passes."""
        maximize = cli.maximize
        monkeypatch.setattr(cli, "maximize", lambda *args: alter(maximize(*args)))
        with caplog.at_level(logging.INFO, logger="gammacap.oracle"):
            code, doc = run_json(
                capsys, "verify", "--q", "2", "--n", "2", "--m", "3", "--error", "iid:t=1",
                *flags,
            )
        (check,) = [
            c for c in doc["result"]["checks"] if c["name"] == "capacity vs Blahut-Arimoto"
        ]
        (record,) = [r for r in caplog.records if r.name == "gammacap.oracle"]
        passes = int(re.search(r"passes=(\d+)", record.getMessage())[1])
        return code, doc, check, passes

    def test_cross_check_closes_in_one_pass(self, capsys, caplog, monkeypatch):
        """Blahut-Arimoto used to start from the uniform law over all 64
        matrices and take 705 passes to find the solver's optimum again."""
        code, doc, check, passes = self._verify_with(capsys, caplog, monkeypatch)
        assert code == 0 and check["passed"] is True and passes == 1

    def test_wrong_capacity_fails(self, capsys, caplog, monkeypatch):
        """A capacity 1e-5 bits too high fails the cross-check even though
        Blahut-Arimoto starts from the solver's own optimum."""
        code, doc, check, _ = self._verify_with(
            capsys, caplog, monkeypatch,
            lambda res: dataclasses.replace(res, capacity_bits=res.capacity_bits + 1e-5),
        )
        assert code == 1 and doc["result"]["passed"] is False
        assert check["passed"] is False
        assert check["max_deviation"] == pytest.approx(1e-5, rel=1e-3)

    def test_loose_tolerance_passes(self, capsys, caplog, monkeypatch):
        """At --tol 1e-4 the solver and Blahut-Arimoto each promise only
        1e-4; the check used to demand 1e-6 and failed at 7.0e-6."""
        code, doc, check, _ = self._verify_with(
            capsys, caplog, monkeypatch, lambda res: res, "--tol", "1e-4"
        )
        assert code == 0 and doc["result"]["passed"] is True
        assert check["passed"] is True

    def test_capacity_off_by_1e_7_fails(self, capsys, caplog, monkeypatch):
        """At the default tolerance of 1e-9 bits, a capacity 1e-7 bits too
        high is far outside what the solver and Blahut-Arimoto certify."""
        code, doc, check, _ = self._verify_with(
            capsys, caplog, monkeypatch,
            lambda res: dataclasses.replace(res, capacity_bits=res.capacity_bits + 1e-7),
        )
        assert code == 1 and doc["result"]["passed"] is False
        assert check["passed"] is False

    def test_moved_start_still_passes(self, capsys, caplog, monkeypatch):
        """1e-3 of the optimal input moved between two ranks, the capacity
        kept: the check certifies the number, not the start."""

        def move_mass(res):
            x = list(res.optimal_input.as_floats())
            top = max(range(len(x)), key=x.__getitem__)
            x[top] -= 1e-3
            x[(top + 1) % len(x)] += 1e-3
            return dataclasses.replace(res, optimal_input=gammacap.RankDistribution(x))

        code, doc, check, passes = self._verify_with(capsys, caplog, monkeypatch, move_mass)
        assert code == 0 and doc["result"]["passed"] is True and passes > 1
        assert check["passed"] is True and check["max_deviation"] <= 1e-6

    def test_budget_refusal_exit_4(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--q", "5", "--n", "3", "--m", "3",
        )
        assert code == 4 and out == ""
        assert stderr_diagnostic(err)["exit_code"] == 4

    def test_budget_refusal_before_enumerating(self, capsys, monkeypatch):
        """(q, n, m) = (2, 4, 4) used to spend about 22 s enumerating its
        65 536 matrices in brute_f_functions before build_channel refused it."""
        def enumerate_nothing(*args):
            raise AssertionError("enumerated a shape over budget")

        for name in ("brute_f_functions", "enumerate_matrices", "enumerate_gl"):
            monkeypatch.setattr(cli.oracle, name, enumerate_nothing)
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--n", "4", "--m", "4", "--error", "iid:t=1",
        )
        assert code == 4 and out == ""
        assert stderr_diagnostic(err) == {
            "error": "|GL|*q^(2nm) = 86586540687360 exceeds the channel budget 16777216",
            "exit_code": 4,
        }


class TestFlagsPerCommand:
    """Each subcommand takes only the flags it reads and echoes only those
    settings in its params block."""

    SHAPE = ["--q", "2", "--n", "2", "--m", "2"]
    COMMANDS = {
        "capacity": ["capacity", *SHAPE, "--error", "iid:t=1"],
        "verify": ["verify", *SHAPE, "--error", "iid:t=1"],
        "ranks": ["ranks", *SHAPE, "--error", "iid:t=1", "--input", "1/2,1/2"],
        "errormodel": ["errormodel", *SHAPE, "--error", "iid:t=1"],
        "matrixfn": ["matrixfn", "f0", *SHAPE, "--u", "1"],
    }
    CHANNEL_KEYS = {"q", "n", "m", "error_ranks"}
    PARAMS_KEYS = {
        "capacity": CHANNEL_KEYS | {"tolerance_bits", "max_iterations"},
        "verify": CHANNEL_KEYS | {"tolerance_bits", "max_iterations"},
        "ranks": CHANNEL_KEYS,
        "errormodel": CHANNEL_KEYS,
        "matrixfn": {"q", "n", "m", "function", "arguments"},
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_params_keys(self, capsys, command):
        code, doc = run_json(capsys, *self.COMMANDS[command])
        assert code == 0
        assert set(doc["params"]) == self.PARAMS_KEYS[command]

    @pytest.mark.parametrize("command", ["capacity", "verify"])
    def test_solver_flags_default_to_the_solver_config(self, capsys, command):
        code, doc = run_json(capsys, *self.COMMANDS[command])
        assert code == 0
        assert doc["params"]["tolerance_bits"] == SolverConfig.tolerance_bits
        assert doc["params"]["max_iterations"] == SolverConfig.max_iterations

    @pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--max-iters", "5"]],
                             ids=["tol", "max-iters"])
    @pytest.mark.parametrize("command", ["ranks", "errormodel", "matrixfn"])
    def test_solver_flags_only_where_the_solver_runs(self, capsys, command, flag):
        code, out, err = run_cli(capsys, *self.COMMANDS[command], *flag)
        assert code == 2 and out == ""
        diagnostic = stderr_diagnostic(err)
        assert diagnostic["exit_code"] == 2
        assert "unrecognized arguments" in diagnostic["error"]

    @pytest.mark.parametrize("value", ["1_6", "\N{ARABIC-INDIC DIGIT ONE}", "-1", "+2", "0x2"])
    @pytest.mark.parametrize(
        "command, flag",
        [("capacity", flag) for flag in ("--q", "--n", "--m", "--max-iters")]
        + [("verify", "--max-iters")]
        + [(name, "--" + key) for name, keys in cli._MATRIXFN_ARGS.items() for key in keys],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, command, flag, value):
        """Every integer flag reads ASCII digits only, as the error model's
        t= and T= do: argparse's int would take 1_6 and non-ASCII digits."""
        if command in cli._MATRIXFN_ARGS:
            keys = cli._MATRIXFN_ARGS[command]
            args = ["matrixfn", command, *self.SHAPE, *(w for k in keys for w in ("--" + k, "1"))]
        else:
            args = self.COMMANDS[command] + ["--max-iters", "5"]
        args[args.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert stderr_diagnostic(err) == {
            "error": f"argument {flag}: takes ASCII digits only, got {value!r}",
            "exit_code": 2,
        }


class TestFormatsAndOutput:
    def test_csv_one_row_per_rank(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--q", "2", "--n", "2", "--m", "2",
            "--error", "iid:t=1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        assert header[0] == "rank"
        assert len(body) == 3
        assert [row[0] for row in body] == ["0", "1", "2"]
        cap_col = header.index("capacity_bits")
        assert len({row[cap_col] for row in body}) == 1

    def test_text_format_lists_ranks(self, capsys):
        code, out, _ = run_cli(
            capsys, "errormodel", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=2", "--format", "text",
        )
        assert code == 0
        assert "rank 2: 1" in out

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "ranks", "--q", "2", "--n", "2", "--m", "2",
            "--error", "constant:t=0", "--input", "1,0,0",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "ranks"

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate", "--q", "2")
        assert code == 2
        assert stderr_diagnostic(err)["exit_code"] == 2


class TestReportDigest:
    """cli.main's stdout, exit code and JSON error line for every subcommand
    in every format at one small shape each, and for each error path,
    pinned as one SHA-256: a change to any report byte moves it.  argparse
    words its list of choices differently across Python versions, so an
    error message is cut before that list."""

    SHAPES = (
        ["capacity", "--q", "2", "--n", "3", "--m", "3", "--error", "iid:t=1"],
        ["matrixfn", "f1", "--q", "2", "--n", "3", "--m", "3",
         "--u", "1", "--v", "1", "--h", "1", "--r", "1"],
        ["ranks", "--q", "2", "--n", "2", "--m", "2", "--error", "iid:t=1",
         "--input", "1/2,1/2"],
        ["errormodel", "--q", "2", "--n", "2", "--m", "2", "--error", "binomial:T=2,p=0.3"],
        ["verify", "--q", "2", "--n", "1", "--m", "2"],
    )
    OTHERS = (
        ["matrixfn", "f0", "--q", "3", "--n", "2", "--m", "3", "--u", "2"],
        ["matrixfn", "f2", "--q", "4", "--n", "3", "--m", "2", "--r", "1", "--rx", "2",
         "--rb", "1"],
        ["capacity", "--q", "2", "--n", "3", "--m", "3", "--error", "iid:t=1",
         "--max-iters", "1"],
        ["capacity", "--q", "6", "--n", "2", "--m", "2", "--error", "iid:t=1"],
        ["capacity", "--q", "2", "--n", "2", "--m", "2", "--error", "bogus:t=1"],
        ["verify", "--q", "2", "--n", "4", "--m", "4", "--error", "iid:t=1"],
        ["frobnicate", "--q", "2"],
    )
    DIGEST = "75181727081226a7c4c4e6fcb1289aeab3b21e0e9812e2624ce8f80879f0f9a4"

    @classmethod
    def runs(cls):
        for argv in cls.SHAPES:
            for fmt in ("json", "csv", "text"):
                yield argv + ["--format", fmt]
        yield from cls.OTHERS

    def test_report_digest(self, capsys):
        texts = []
        for argv in self.runs():
            code, out, err = run_cli(capsys, *argv)
            errors = [
                line.split(" (choose from")[0]
                for line in err.splitlines() if line.startswith("{")
            ]
            texts.append(repr((argv, code, out, errors)))
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == self.DIGEST


class TestRepeatedMain:
    """main builds its parser once per process and keeps it."""

    RUNS = (
        ["capacity", "--q", "3", "--n", "2", "--m", "2", "--error", "iid:t=1",
         "--tol", "1e-6", "--format", "text"],
        ["verify", "--q", "2", "--n", "2", "--m", "1"],
        ["verify", "--q", "2", "--n", "2"],
    )

    def test_each_run_matches_a_fresh_process(self, capsys):
        """Runs after other runs in one process print what each prints alone."""
        env = env_with_this_gammacap()
        for argv in self.RUNS:
            alone = subprocess.run(
                [sys.executable, "-m", "gammacap.cli", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (alone.returncode, alone.stdout), argv
        assert code == 2
        assert stderr_diagnostic(err) == stderr_diagnostic(alone.stderr)


class TestOracleMemo:
    """verify prints what a cold oracle gives, whatever ran before it."""

    RUNS = (
        ["verify", "--q", "2", "--n", "2", "--m", "2", "--error", "iid:t=1"],
        ["verify", "--q", "2", "--n", "2", "--m", "2", "--error", "binomial:T=2,p=0.3"],
    )

    def test_warm_reports_match_cold_ones(self, capsys, cold_oracle):
        """Two error laws at one shape, one after the other: each report
        is byte-identical to the one printed after the memo is emptied."""
        first, second = self.RUNS
        cold_first = run_cli(capsys, *first)
        warm_second = run_cli(capsys, *second)
        warm_first = run_cli(capsys, *first)
        assert cli.oracle._f_tables.cache_info().hits == 2
        assert cli.oracle._gl_images.cache_info().hits == 2
        cold_oracle()
        cold_second = run_cli(capsys, *second)
        assert warm_first == cold_first and warm_second == cold_second
        assert warm_first[0] == warm_second[0] == 0
        assert warm_first[1] != warm_second[1]


class TestInstalledEntryPoint:
    """The `gammacap` command declared in pyproject.toml, run as a process.

    Every other test calls `cli.main` in-process with an explicit argv; this
    one checks that the declared entry point reads its arguments from
    `sys.argv` and hands its return code to the process exit status.
    """

    F0_ARGS = ["matrixfn", "f0", "--q", "2", "--n", "2", "--m", "2",
               "--u", "2", "--format", "text"]
    BAD_ARGS = ["matrixfn", "f0", "--q", "6", "--n", "2", "--m", "2",
                "--u", "2", "--format", "text"]

    @staticmethod
    def declared_scripts():
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["scripts"]

    def check_command(self, command, env=None):
        ok = subprocess.run(
            command + self.F0_ARGS,
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout == "6\n"
        bad = subprocess.run(
            command + self.BAD_ARGS,
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert stderr_diagnostic(bad.stderr)["exit_code"] == 2

    def test_console_script(self):
        scripts = self.declared_scripts()
        assert scripts == {"gammacap": "gammacap.cli:main"}

        # Launch the entry point the way a generated console script does,
        # importing the same gammacap as this session.
        module, attr = scripts["gammacap"].split(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        env = env_with_this_gammacap()
        self.check_command([sys.executable, "-c", launcher], env)

        # Where the package is installed, the installer's script must agree.
        exe = shutil.which("gammacap")
        if exe is not None:
            self.check_command([exe])
