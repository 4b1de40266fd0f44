"""Command-line front-end for the gammacap toolkit.

Subcommands
-----------
capacity    optimize the input rank distribution and report the capacity
matrixfn    evaluate one exact matrix-counting function (f0, f1 or f2)
ranks       push an input rank distribution through the channel law
errormodel  build an additive-error rank distribution and print it
verify      cross-check the closed forms against the enumeration oracle

Reports are written as JSON (default), CSV or plain text, to stdout or to
the path given with --out.  Every error path prints a single-line JSON
diagnostic to stderr.  Exit codes: 0 success, 1 verification failure,
2 bad input, 3 solver non-convergence (the report is still emitted),
4 enumeration budget refusal.

The JSON report always has the four top-level keys ``command``, ``params``,
``result`` and ``diagnostics``, with keys sorted, so identical invocations
produce byte-identical documents.  The ``params`` block records the error
model as its canonical rank distribution rather than the raw spec string,
so two spellings of the same model produce identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import oracle
from .channel import (
    ChannelParams,
    RankDistribution,
    constant_rank_model,
    output_rank_distribution,
    parse_error_model,
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


@dataclass(frozen=True)
class RunSpec:
    """One validated CLI invocation, ready to dispatch."""

    command: str
    params: ChannelParams
    solver: SolverConfig
    output_format: str


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


def _fraction_str(x) -> str:
    return str(Fraction(x)) if not isinstance(x, float) else repr(x)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on the first call rather than at import
    and then kept: parse_args leaves no state on it between calls."""
    parser = _Parser(prog="gammacap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser, *, error_flag: str) -> None:
        p.add_argument("--q", type=int, required=True, help="field order, a prime power")
        p.add_argument("--n", type=int, required=True, help="number of matrix rows")
        p.add_argument("--m", type=int, required=True, help="number of matrix columns")
        if error_flag == "required":
            p.add_argument("--error", required=True, help="error model spec, e.g. iid:t=2")
        elif error_flag == "optional":
            p.add_argument(
                "--error",
                default="constant:t=0",
                help="error model spec (default constant:t=0)",
            )
        p.add_argument(
            "--tol", type=float, default=1e-9, help="solver gap tolerance in bits"
        )
        p.add_argument(
            "--max-iters", type=int, default=100000, help="solver iteration cap"
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="json",
            help="report format",
        )
        p.add_argument("--out", default=None, help="write the report to this path")

    p_cap = sub.add_parser("capacity", help="maximize mutual information over inputs")
    add_common(p_cap, error_flag="required")

    p_fn = sub.add_parser("matrixfn", help="evaluate f0, f1 or f2 exactly")
    p_fn.add_argument("function", choices=sorted(_MATRIXFN_ARGS))
    add_common(p_fn, error_flag="none")
    p_fn.add_argument("--u", type=int, default=None, help="subspace dimension u")
    p_fn.add_argument("--v", type=int, default=None, help="subspace dimension v")
    p_fn.add_argument("--h", type=int, default=None, help="quotient dimension h")
    p_fn.add_argument("--r", type=int, default=None, help="matrix rank r")
    p_fn.add_argument("--rx", type=int, default=None, help="input rank")
    p_fn.add_argument("--rb", type=int, default=None, help="error rank")

    p_ranks = sub.add_parser("ranks", help="output rank law for a given input law")
    add_common(p_ranks, error_flag="required")
    p_ranks.add_argument(
        "--input",
        required=True,
        help="comma-separated input rank probabilities, fractions or decimals",
    )

    p_err = sub.add_parser("errormodel", help="build and print an error model")
    add_common(p_err, error_flag="required")

    p_verify = sub.add_parser("verify", help="cross-check against the oracle")
    add_common(p_verify, error_flag="optional")

    return parser


def _parse_probabilities(text: str) -> List[Fraction]:
    parts = [piece.strip() for piece in text.split(",")]
    if not parts or any(piece == "" for piece in parts):
        raise ValueError(f"malformed probability list: {text!r}")
    try:
        return [Fraction(piece) for piece in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed probability list: {text!r} ({exc})") from exc


def _params_block(spec: RunSpec, *, with_error: bool = True) -> Dict[str, Any]:
    params: Dict[str, Any] = {
        "q": spec.params.q,
        "n": spec.params.n,
        "m": spec.params.m,
        "tolerance_bits": spec.solver.tolerance_bits,
        "max_iterations": spec.solver.max_iterations,
    }
    if with_error:
        params["error_ranks"] = [
            _fraction_str(p) for p in spec.params.error_dist.probs
        ]
    return params


def _cmd_capacity(spec: RunSpec, args: argparse.Namespace) -> Tuple[Dict, int]:
    res: CapacityResult = maximize(spec.params, spec.solver)
    p = spec.params
    bits_per_use = p.n * p.m * math.log2(p.q)
    payload = {
        "command": "capacity",
        "params": _params_block(spec),
        "result": {
            "capacity_bits": res.capacity_bits,
            # An empty (n*m = 0) matrix carries nothing: rate 0, not 0/0.
            "normalized_rate": res.capacity_bits / bits_per_use if bits_per_use else 0.0,
            "optimal_input": list(res.optimal_input.as_floats()),
            "output_ranks": list(res.output_ranks.as_floats()),
            "optimality_gap_bits": res.optimality_gap_bits,
            "iterations": res.iterations,
        },
        "diagnostics": {
            "converged": res.converged,
            "newton_steps": res.newton_steps,
            "stop_reason": res.stop_reason,
        },
    }
    if not res.converged:
        log.warning(
            "gap %.3e above tolerance %.3e after %d iterations",
            res.optimality_gap_bits,
            spec.solver.tolerance_bits,
            res.iterations,
        )
    return payload, EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_matrixfn(spec: RunSpec, args: argparse.Namespace) -> Tuple[Dict, int]:
    from . import matrixfn

    name = args.function
    needed = _MATRIXFN_ARGS[name]
    given = {
        key: getattr(args, key)
        for key in ("u", "v", "h", "r", "rx", "rb")
        if getattr(args, key) is not None
    }
    missing = [key for key in needed if key not in given]
    extra = [key for key in sorted(given) if key not in needed]
    if missing or extra:
        detail = []
        if missing:
            detail.append("missing " + ", ".join("--" + k for k in missing))
        if extra:
            detail.append("unexpected " + ", ".join("--" + k for k in extra))
        raise ValueError(f"{name} takes exactly {needed}: " + "; ".join(detail))
    p = spec.params
    if name == "f0":
        value = matrixfn.f0(given["u"], p.n, p.m, p.q)
    elif name == "f1":
        value = matrixfn.f1(given["u"], given["v"], given["h"], given["r"], p.n, p.m, p.q)
    else:
        value = matrixfn.f2(given["r"], given["rx"], given["rb"], p.n, p.m, p.q)
    payload = {
        "command": "matrixfn",
        "params": dict(
            _params_block(spec, with_error=False),
            function=name,
            arguments={key: given[key] for key in needed},
        ),
        "result": {"value": value},
        "diagnostics": {"exact": True},
    }
    return payload, EXIT_OK


def _cmd_ranks(spec: RunSpec, args: argparse.Namespace) -> Tuple[Dict, int]:
    probs = _parse_probabilities(args.input)
    rank_count = spec.params.rank_count
    if len(probs) > rank_count:
        raise ValueError(
            f"input lists {len(probs)} ranks; channel has ranks 0..{rank_count - 1}"
        )
    probs = probs + [Fraction(0)] * (rank_count - len(probs))
    input_ranks = RankDistribution(probs)
    out = output_rank_distribution(input_ranks, spec.params)
    payload = {
        "command": "ranks",
        "params": _params_block(spec),
        "result": {
            "input_ranks": [_fraction_str(p) for p in input_ranks.probs],
            "output_exact": [_fraction_str(p) for p in out.probs],
            "output_float": list(out.as_floats()),
        },
        "diagnostics": {"exact": out.is_exact},
    }
    return payload, EXIT_OK


def _cmd_errormodel(spec: RunSpec, args: argparse.Namespace) -> Tuple[Dict, int]:
    dist = spec.params.error_dist
    payload = {
        "command": "errormodel",
        "params": _params_block(spec),
        "result": {
            "rank_probabilities_exact": [_fraction_str(p) for p in dist.probs],
            "rank_probabilities_float": list(dist.as_floats()),
        },
        "diagnostics": {"exact": dist.is_exact},
    }
    return payload, EXIT_OK


def _verify_checks(spec: RunSpec) -> List[Dict[str, Any]]:
    p = spec.params
    from . import matrixfn

    checks: List[Dict[str, Any]] = []

    # A shape over budget is refused before any enumeration starts.
    oracle.check_budgets(p.n, p.m, p.q)
    tables = oracle.brute_f_functions(p.n, p.m, p.q)
    mismatches = 0
    cases = 0
    for u, want in tables["f0"].items():
        cases += 1
        mismatches += matrixfn.f0(u, p.n, p.m, p.q) != want
    for (u, v, h, r), want in tables["f1"].items():
        cases += 1
        mismatches += matrixfn.f1(u, v, h, r, p.n, p.m, p.q) != want
    for (r, rx, rb), want in tables["f2"].items():
        cases += 1
        mismatches += matrixfn.f2(r, rx, rb, p.n, p.m, p.q) != want
    checks.append(
        {
            "name": "matrix functions vs enumeration",
            "cases": cases,
            "max_deviation": float(mismatches),
            "passed": mismatches == 0,
        }
    )

    table = oracle.build_channel(p)
    rank = oracle.table_ranks(table, p.q)
    kernel = oracle.rank_kernel(table, rank)
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
    checks.append(
        {
            "name": "output rank law vs enumeration",
            "cases": marg_cases,
            "max_deviation": marg_dev,
            "passed": marg_dev == 0.0,
        }
    )

    # Blahut-Arimoto starts from the solver's optimum spread uniformly over
    # each rank class, so its first pass brackets the raw-alphabet capacity
    # around the solver's point; a start off the optimum only costs passes.
    res = maximize(p, spec.solver)
    x = res.optimal_input.as_floats()
    class_size = Counter(rank[X] for X in table)
    start = [x[rank[X]] / class_size[rank[X]] for X in table]
    cap_ba, _ = oracle.blahut_arimoto(table, tol=1e-9, start=start)
    cap_dev = abs(res.capacity_bits - cap_ba)
    checks.append(
        {
            "name": "capacity vs Blahut-Arimoto",
            "cases": 1,
            "max_deviation": cap_dev,
            "passed": bool(res.converged and cap_dev <= 1e-6),
        }
    )
    return checks


def _cmd_verify(spec: RunSpec, args: argparse.Namespace) -> Tuple[Dict, int]:
    checks = _verify_checks(spec)
    passed = all(c["passed"] for c in checks)
    payload = {
        "command": "verify",
        "params": _params_block(spec),
        "result": {
            "checks": checks,
            "passed": passed,
            "max_deviation": max(c["max_deviation"] for c in checks),
        },
        "diagnostics": {"oracle_budget_ok": True},
    }
    return payload, EXIT_OK if passed else EXIT_VERIFY_FAILED


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
    writer.writerow(["rank"] + lists + scalars)
    length = max(len(result[key]) for key in lists)
    for rank in range(length):
        row: List[Any] = [rank]
        for key in lists:
            row.append(result[key][rank] if rank < len(result[key]) else "")
        row.extend(result[key] for key in scalars)
        writer.writerow(row)
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


def _build_spec(args: argparse.Namespace) -> RunSpec:
    error_spec = getattr(args, "error", None)
    if error_spec is None:
        error_dist = constant_rank_model(0, args.n, args.m)
    else:
        error_dist = parse_error_model(error_spec, args.q, args.n, args.m)
    params = ChannelParams(args.q, args.n, args.m, error_dist)
    solver = SolverConfig(tolerance_bits=args.tol, max_iterations=args.max_iters)
    return RunSpec(args.command, params, solver, args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = _build_spec(args)
    except (ValueError, TypeError) as exc:
        _print_error(EXIT_BAD_INPUT, str(exc))
        return EXIT_BAD_INPUT
    log.info("dispatching %s on q=%d n=%d m=%d", spec.command, spec.params.q,
             spec.params.n, spec.params.m)
    try:
        payload, code = _HANDLERS[spec.command](spec, args)
    except oracle.BudgetExceededError as exc:
        _print_error(EXIT_BUDGET, str(exc))
        return EXIT_BUDGET
    except (ValueError, TypeError) as exc:
        _print_error(EXIT_BAD_INPUT, str(exc))
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        _print_error(EXIT_BAD_INPUT, f"channel too large for float arithmetic: {exc}")
        return EXIT_BAD_INPUT
    try:
        _emit(payload, spec.output_format, args.out)
    except OSError as exc:
        _print_error(EXIT_BAD_INPUT, f"cannot write report: {exc}")
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
