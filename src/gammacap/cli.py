"""Command-line front-end for the gammacap toolkit.

Subcommands
-----------
capacity    optimize the input rank distribution and report the capacity
matrixfn    evaluate one exact matrix-counting function (f0, f1 or f2)
ranks       push an input rank distribution through the channel law
errormodel  build an additive-error rank distribution and print it
verify      cross-check the closed forms against the enumeration oracle

Every subcommand takes the channel shape --q/--n/--m and --format/--out.
capacity, ranks, errormodel and verify also take the error model --error
(verify defaults to constant:t=0), and only capacity and verify, which run
the solver, take --tol/--max-iters.  matrixfn names its function first and
then that function's own required arguments, e.g.
``matrixfn f2 --q 2 --n 2 --m 2 --r 1 --rx 1 --rb 0``.

Reports are written as JSON (default), CSV or plain text, to stdout or to
the path given with --out.  Every error path prints a single-line JSON
diagnostic to stderr.  Exit codes: 0 success, 1 verification failure,
2 bad input, 3 solver non-convergence (the report is still emitted),
4 enumeration budget refusal.

The JSON report always has the four top-level keys ``command``, ``params``,
``result`` and ``diagnostics``, with keys sorted, so identical invocations
produce byte-identical documents.  The ``params`` block echoes the shape
and only the settings the command reads: the error model, as its canonical
rank distribution ``error_ranks`` rather than the raw spec string (so two
spellings of the same model produce identical reports), and the solver's
``tolerance_bits`` and ``max_iterations``.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import logging
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from . import matrixfn, oracle
from .channel import (
    ChannelParams,
    RankDistribution,
    empirical_model,
    output_rank_distribution,
    parse_error_model,
    _exact_numbers,
    _DIGITS,
)
from .solver import CapacityResult, SolverConfig, maximize

log = logging.getLogger("gammacap.cli")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BUDGET = 4

_MATRIXFN_ARGS = {
    "f0": ("u",),
    "f1": ("u", "v", "h", "r"),
    "f2": ("r", "rx", "rb"),
}
_MATRIXFN_HELP = {
    "u": "subspace dimension u", "v": "subspace dimension v", "h": "quotient dimension h",
    "r": "matrix rank r", "rx": "input rank", "rb": "error rank",
}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors match the single-line JSON error contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _print_error(EXIT_BAD_INPUT, message)
        raise SystemExit(EXIT_BAD_INPUT)


def _print_error(code: int, message: str) -> None:
    print(
        json.dumps({"error": str(message), "exit_code": code}, sort_keys=True),
        file=sys.stderr,
    )


def _configure_logging() -> None:
    name = os.environ.get("GAMMA_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _int_str(k: int) -> str:
    """The decimal digits of ``k``.  str() of an int refuses more digits than
    sys.get_int_max_str_digits() allows (4 300 by default); an exact law's
    entries can have more, and Decimal converts them without that limit."""
    return str(decimal.Decimal(k))


def _int_flag(text: str) -> int:
    """An integer flag, read as t= and T= of an error model are: ASCII digits
    only, where argparse's int would also take 1_6 and non-ASCII digits."""
    if not _DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"takes ASCII digits only, got {text!r}")
    return int(text)


def _fraction_str(x: Union[int, Fraction]) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on the first call rather than at import
    and then kept: parse_args leaves no state on it between calls."""
    parser = _Parser(prog="gammacap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_command(
        subparsers, name: str, help: str, *, error: Union[bool, str] = False,
        solver: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand with the shape and report flags, --error when ``error``
        (required when True, else its default) and --tol/--max-iters when
        ``solver``."""
        p = subparsers.add_parser(name, help=help)
        p.add_argument("--q", type=_int_flag, required=True, help="field order, a prime power")
        p.add_argument("--n", type=_int_flag, required=True, help="number of matrix rows")
        p.add_argument("--m", type=_int_flag, required=True, help="number of matrix columns")
        if error is True:
            p.add_argument("--error", required=True, help="error model spec, e.g. iid:t=2")
        elif error:
            p.add_argument("--error", default=error, help=f"error model spec (default {error})")
        if solver:
            p.add_argument(
                "--tol", type=float, default=SolverConfig.tolerance_bits,
                help="solver gap tolerance in bits",
            )
            p.add_argument(
                "--max-iters", type=_int_flag, default=SolverConfig.max_iterations,
                help="solver iteration cap",
            )
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="json",
            help="report format",
        )
        p.add_argument("--out", default=None, help="write the report to this path")
        return p

    add_command(sub, "capacity", "maximize mutual information over inputs",
                error=True, solver=True)

    p_fn = sub.add_parser("matrixfn", help="evaluate f0, f1 or f2 exactly")
    functions = p_fn.add_subparsers(dest="function", required=True, parser_class=_Parser)
    for name, keys in _MATRIXFN_ARGS.items():
        p = add_command(functions, name, f"evaluate {name} exactly")
        for key in keys:
            p.add_argument("--" + key, type=_int_flag, required=True, help=_MATRIXFN_HELP[key])

    p_ranks = add_command(sub, "ranks", "output rank law for a given input law", error=True)
    p_ranks.add_argument(
        "--input",
        required=True,
        help="comma-separated input rank probabilities, fractions or decimals",
    )

    add_command(sub, "errormodel", "build and print an error model", error=True)
    add_command(sub, "verify", "cross-check against the oracle",
                error="constant:t=0", solver=True)

    return parser


def _params_block(
    args: argparse.Namespace, params: Optional[ChannelParams], solver: Optional[SolverConfig]
) -> Dict[str, Any]:
    block: Dict[str, Any] = {"q": args.q, "n": args.n, "m": args.m}
    if params is not None:
        block["error_ranks"] = [_fraction_str(p) for p in params.error_dist.probs]
    if solver is not None:
        block["tolerance_bits"] = solver.tolerance_bits
        block["max_iterations"] = solver.max_iterations
    if args.command == "matrixfn":
        block["function"] = args.function
        block["arguments"] = {key: getattr(args, key) for key in _MATRIXFN_ARGS[args.function]}
    return block


#: What a subcommand handler returns: the report's result and diagnostics
#: blocks and the exit code.  main adds the command and params blocks.
_Report = Tuple[Dict[str, Any], Dict[str, Any], int]


def _cmd_capacity(
    args: argparse.Namespace, params: ChannelParams, solver: SolverConfig
) -> _Report:
    res: CapacityResult = maximize(params, solver)
    bits_per_use = params.n * params.m * math.log2(params.q)
    result = {
        "capacity_bits": res.capacity_bits,
        # An empty (n*m = 0) matrix carries nothing: rate 0, not 0/0.
        "normalized_rate": res.capacity_bits / bits_per_use if bits_per_use else 0.0,
        "optimal_input": list(res.optimal_input.as_floats()),
        "output_ranks": list(res.output_ranks.as_floats()),
        "optimality_gap_bits": res.optimality_gap_bits,
        "iterations": res.iterations,
    }
    diagnostics = {
        "converged": res.converged,
        "newton_steps": res.newton_steps,
        "stop_reason": res.stop_reason,
    }
    if not res.converged:
        log.warning(
            "gap %.3e above tolerance %.3e after %d iterations",
            res.optimality_gap_bits,
            solver.tolerance_bits,
            res.iterations,
        )
    return result, diagnostics, EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_matrixfn(args: argparse.Namespace, params: None, solver: None) -> _Report:
    values = [getattr(args, key) for key in _MATRIXFN_ARGS[args.function]]
    value = getattr(matrixfn, args.function)(*values, args.n, args.m, args.q)
    return {"value": value}, {"exact": True}, EXIT_OK


def _cmd_ranks(args: argparse.Namespace, params: ChannelParams, solver: None) -> _Report:
    probs = _exact_numbers(args.input, f"--input {args.input!r}")
    input_ranks = empirical_model(probs, params.n, params.m)
    out = output_rank_distribution(input_ranks, params)
    result = {
        "input_ranks": [_fraction_str(p) for p in input_ranks.probs],
        "output_exact": [_fraction_str(p) for p in out.probs],
        "output_float": list(out.as_floats()),
    }
    return result, {"exact": out.is_exact}, EXIT_OK


def _cmd_errormodel(args: argparse.Namespace, params: ChannelParams, solver: None) -> _Report:
    dist = params.error_dist
    result = {
        "rank_probabilities_exact": [_fraction_str(p) for p in dist.probs],
        "rank_probabilities_float": list(dist.as_floats()),
    }
    return result, {"exact": dist.is_exact}, EXIT_OK


def _verify_checks(p: ChannelParams, solver: SolverConfig) -> List[Tuple[str, int, float, bool]]:
    """Each check of ``verify`` as (name, cases, max_deviation, passed)."""
    # A shape over budget is refused before any enumeration starts.
    oracle.check_budgets(p.n, p.m, p.q)
    tables = oracle.brute_f_functions(p.n, p.m, p.q)
    mismatches = 0
    cases = 0
    for name in ("f0", "f1", "f2"):
        # Read from the module at run time, so a wrapper installed there sees the calls.
        fn = getattr(matrixfn, name)
        for key, want in tables[name].items():
            cases += 1
            args = key if isinstance(key, tuple) else (key,)
            mismatches += fn(*args, p.n, p.m, p.q) != want
    checks = [("matrix functions vs enumeration", cases, float(mismatches), mismatches == 0)]

    law = oracle.build_channel(p)
    kernel = oracle.rank_kernel(law)
    rank_count = p.rank_count
    marg_dev = 0.0
    marg_cases = 0
    trial_inputs = [
        [Fraction(1 if i == 0 else 0) for i in range(rank_count)],
        [Fraction(1 if i == rank_count - 1 else 0) for i in range(rank_count)],
        [Fraction(1, rank_count) for _ in range(rank_count)],
    ]
    for probs in trial_inputs:
        want = oracle.rank_marginal(kernel, probs)
        got = output_rank_distribution(RankDistribution(probs), p)
        for r in range(rank_count):
            marg_cases += 1
            marg_dev = max(marg_dev, abs(float(got[r] - want[r])))
    checks.append(("output rank law vs enumeration", marg_cases, marg_dev, marg_dev == 0.0))

    # Blahut-Arimoto starts from the solver's optimum spread uniformly over
    # each rank class, so its first pass brackets the raw-alphabet capacity
    # around the solver's point; a start off the optimum only costs passes.
    res = maximize(p, solver)
    x = res.optimal_input.as_floats()
    class_size = Counter(law.ranks)
    start = [x[r] / class_size[r] for r in law.ranks]
    cap_ba, _ = oracle.blahut_arimoto(law, tol=solver.tolerance_bits, start=start)
    cap_dev = abs(res.capacity_bits - cap_ba)
    # The capacity lies within the certified gap above capacity_bits and
    # within half the bracket width of Blahut-Arimoto's midpoint; 1024 ulps
    # of the capacity allow for the rounding of both float sums.
    slack = 1024 * math.ulp(max(res.capacity_bits, cap_ba, 1.0))
    bound = res.optimality_gap_bits + solver.tolerance_bits / 2 + slack
    passed = bool(res.converged and cap_dev <= bound)
    checks.append(("capacity vs Blahut-Arimoto", 1, cap_dev, passed))
    return checks


def _cmd_verify(args: argparse.Namespace, params: ChannelParams, solver: SolverConfig) -> _Report:
    keys = ("name", "cases", "max_deviation", "passed")
    checks = [dict(zip(keys, check)) for check in _verify_checks(params, solver)]
    passed = all(c["passed"] for c in checks)
    result = {
        "checks": checks,
        "passed": passed,
        "max_deviation": max(c["max_deviation"] for c in checks),
    }
    return result, {"oracle_budget_ok": True}, EXIT_OK if passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "capacity": _cmd_capacity,
    "matrixfn": _cmd_matrixfn,
    "ranks": _cmd_ranks,
    "errormodel": _cmd_errormodel,
    "verify": _cmd_verify,
}


def _to_json(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _distribution_columns(result: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    lists = [key for key in sorted(result) if isinstance(result[key], list)]
    scalars = [key for key in sorted(result) if not isinstance(result[key], list)]
    return lists, scalars


def _to_csv(payload: Dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    result = payload["result"]
    if payload["command"] == "verify":
        writer.writerow(["check", "cases", "max_deviation", "passed"])
        for check in result["checks"]:
            writer.writerow(
                [check["name"], check["cases"], check["max_deviation"], check["passed"]]
            )
        return buf.getvalue()
    lists, scalars = _distribution_columns(result)
    if not lists:
        writer.writerow(scalars)
        writer.writerow([result[key] for key in scalars])
        return buf.getvalue()
    # Every list holds one entry per rank 0..min(n, m).
    writer.writerow(["rank"] + lists + scalars)
    tail = [result[key] for key in scalars]
    for rank, entries in enumerate(zip(*(result[key] for key in lists))):
        writer.writerow([rank, *entries, *tail])
    return buf.getvalue()


def _to_text(payload: Dict) -> str:
    lines: List[str] = []
    result = payload["result"]
    if payload["command"] == "matrixfn":
        return f"{result['value']}\n"
    if payload["command"] == "verify":
        for check in payload["result"]["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(
                f"{status}  {check['name']}  cases={check['cases']}  "
                f"max_deviation={check['max_deviation']:.3e}"
            )
        lines.append("overall: " + ("PASS" if result["passed"] else "FAIL"))
        return "\n".join(lines) + "\n"
    lists, scalars = _distribution_columns(result)
    for key in scalars:
        lines.append(f"{key}: {result[key]}")
    for key in lists:
        lines.append(f"{key}:")
        for rank, value in enumerate(result[key]):
            lines.append(f"  rank {rank}: {value}")
    return "\n".join(lines) + "\n"


_FORMATTERS = {"json": _to_json, "csv": _to_csv, "text": _to_text}


def _emit(payload: Dict, output_format: str, out_path: Optional[str]) -> None:
    text = _FORMATTERS[output_format](payload)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = solver = None
        if hasattr(args, "error"):
            error_dist = parse_error_model(args.error, args.q, args.n, args.m)
            params = ChannelParams(args.q, args.n, args.m, error_dist)
        if hasattr(args, "tol"):
            solver = SolverConfig(tolerance_bits=args.tol, max_iterations=args.max_iters)
        log.info("dispatching %s on q=%d n=%d m=%d", args.command, args.q, args.n, args.m)
        result, diagnostics, code = _HANDLERS[args.command](args, params, solver)
    except oracle.BudgetExceededError as exc:
        _print_error(EXIT_BUDGET, str(exc))
        return EXIT_BUDGET
    except AssertionError as exc:
        # An oracle table that is not well defined fails verification.
        _print_error(EXIT_VERIFY_FAILED, str(exc))
        return EXIT_VERIFY_FAILED
    except (ValueError, TypeError) as exc:
        _print_error(EXIT_BAD_INPUT, str(exc))
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        _print_error(EXIT_BAD_INPUT, f"channel too large for float arithmetic: {exc}")
        return EXIT_BAD_INPUT
    payload = {
        "command": args.command,
        "params": _params_block(args, params, solver),
        "result": result,
        "diagnostics": diagnostics,
    }
    try:
        _emit(payload, args.format, args.out)
    except OSError as exc:
        _print_error(EXIT_BAD_INPUT, f"cannot write report: {exc}")
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
