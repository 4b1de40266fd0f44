"""gammacap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 25 --trace 0

Workloads: capacity, subspace_pairs, verify (see README.md in this
directory).  With --trace 0 the last line of standard output is a JSON
object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run over the same rounds as an untraced one.
Every answer is checked; the lines before the result say what failed.

Each measurement runs in a fresh interpreter (worker.py).  The command
exits non-zero without a result when it cannot import the checkout's
gammacap or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import speed  # noqa: E402
from workloads import NOMINAL_ROUND_SECONDS, WORKLOADS, make_round  # noqa: E402

SETUP_PROBES = 5
# Each run measures its rounds this many times, in fresh interpreters.
PASSES = 5
# No further pass starts once a run has taken this many times --seconds.
PASS_DEADLINE_FACTOR = 2.5
WORKER_TIMEOUT_S = 170
TAIL_SAMPLES_BEYOND = 10
# A run has at least this many queries, so its tail lies well above the median.
MIN_QUERIES = 3 * TAIL_SAMPLES_BEYOND

# Layer boundaries each workload must reach; zero calls there means the
# boundary was bypassed (for example by a refactor of the imports).
EXPECTED = {
    "capacity": (
        "solver.maximize", "channel.rho_avg", "channel.h_r", "channel.parse_error_model",
        "matrixfn.f0", "matrixfn.f1", "matrixfn.f2", "exactcomb.count_rank_matrices",
        "exactcomb.qbinom_ext",
    ),
    "subspace_pairs": ("matrixfn.c_prime", "exactcomb.qbinom_ext"),
    "verify": (
        "cli.main", "oracle.brute_f_functions", "oracle.build_channel",
        "oracle.blahut_arimoto", "solver.maximize", "channel.rho_avg", "channel.h_r",
        "channel.output_rank_distribution", "channel.parse_error_model",
        "matrixfn.f0", "matrixfn.f1", "matrixfn.f2",
    ),
}


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def _worker_cmd(mode: str, args: argparse.Namespace, *extra: str) -> List[str]:
    return [
        sys.executable, WORKER, mode, "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, *extra,
    ]


def _run_worker(cmd: Sequence[str]) -> Dict[str, Any]:
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _rounds(args: argparse.Namespace) -> int:
    """Whole rounds for about --seconds over all passes, and MIN_QUERIES queries."""
    rounds = max(1, round(args.seconds / (PASSES * NOMINAL_ROUND_SECONDS[args.workload])))
    queries = 0
    for index in range(rounds):
        queries += len(make_round(args.workload, args.seed, index, args.size))
    while queries < MIN_QUERIES:
        queries += len(make_round(args.workload, args.seed, rounds, args.size))
        rounds += 1
    return rounds


def _setup_seconds(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Interpreter start + gammacap import + first input round, per probe.

    Each probe gives its time and the machine's scale just before it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        scale = speed.scale_now()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            _worker_cmd("setup", args), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("setup probe timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed ({proc.returncode}): {err.strip()[-2000:]}")
        times.append((elapsed, scale))
    return times


def combine(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Each query's latency: the median over the passes of its scaled times.

    The passes run the same inputs in the same order, each in a fresh
    interpreter, spread over the run.  Every latency is first scaled to the
    reference speed (speed.py).  ``raw_latencies_s`` combines the unscaled
    latencies the same way, for the notes.
    """
    def per_query(scaled: bool) -> List[float]:
        columns = zip(*(
            [t * (s if scaled else 1.0) for t, s in zip(p["latencies_s"], p["scales"])]
            for p in passes
        ))
        return [statistics.median(column) for column in columns]

    result = dict(passes[0])
    result["latencies_s"] = per_query(scaled=True)
    result["raw_latencies_s"] = per_query(scaled=False)
    result["elapsed_s"] = sum(result["latencies_s"])
    result["pass_seconds"] = [p["elapsed_s"] for p in passes]
    result["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    return result


def percentile(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(count: int) -> int:
    """The highest whole percentile with TAIL_SAMPLES_BEYOND samples beyond it."""
    for pct in range(99, 0, -1):
        if count - max(1, math.ceil(pct / 100.0 * count)) >= TAIL_SAMPLES_BEYOND:
            return pct
    return 100


def _failures(run: Dict[str, Any]) -> Tuple[int, int, Dict[str, int]]:
    causes = run["causes"]
    return len(run["latencies_s"]), sum(causes.values()), causes


def end_to_end(
    workload: str, run: Dict[str, Any], setup: List[Tuple[float, float]]
) -> Tuple[Dict, List[str]]:
    lat = sorted(run["latencies_s"])
    raw = sorted(run["raw_latencies_s"])
    pct = tail_percentile(len(lat))
    tail, beyond = percentile(lat, pct)
    attempted, failed, causes = _failures(run)
    metrics = {
        "setup_s": (statistics.median(t * scale for t, scale in setup), "s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "query_tail_s": (tail, "s"),
        "queries_per_s": (len(lat) / run["elapsed_s"], "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"query_tail_s is p{pct} of {len(lat)} queries ({beyond} beyond it)"
        + ("" if beyond >= TAIL_SAMPLES_BEYOND else "; too few beyond, read it as a maximum"),
        f"{len(run['round_seconds'])} rounds x {len(run['pass_seconds'])} passes, each query's "
        "median over the passes; query time per pass "
        + ", ".join(f"{t:.2f}" for t in run["pass_seconds"]) + " s",
        f"unscaled: query_p50_s {statistics.median(raw):.6g}, query_tail_s "
        f"{percentile(raw, pct)[0]:.6g}, queries_per_s {len(raw) / sum(raw):.6g}, setup_s "
        f"{statistics.median(t for t, _ in setup):.6g}; median scale "
        f"{statistics.median(run['scales']):.3f}",
        f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted}: "
        + ", ".join(f"{k} {v}" for k, v in causes.items()) + ")",
        "peak_rss_mb is the high-water mark after the first round",
    ]
    return metrics, notes


def per_layer(workload: str, run: Dict[str, Any], traced: Dict[str, Any]) -> Tuple[Dict, List[str]]:
    layers = traced["layers"]

    def rec(name: str) -> Dict[str, float]:
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(prefix: str) -> float:
        return sum(r["self_s"] for name, r in layers.items() if name.startswith(prefix + "."))

    calls = {name: r["calls"] for name, r in layers.items()}
    calls.update(traced["counts"])
    zero = traced["zero_weight"]
    metrics = {
        "solver.maximize.busy_s": (rec("solver.maximize")["busy_s"], "s"),
        "solver.self_s": (rec("solver.maximize")["self_s"], "s"),
        "solver.iterations": (traced["solver_iterations"], "count"),
        "solver.unconverged": (traced["unconverged"], "count"),
        "channel.rho_avg.calls": (rec("channel.rho_avg")["calls"], "count"),
        "channel.rho_avg.busy_s": (rec("channel.rho_avg")["busy_s"], "s"),
        "channel.h_r.calls": (rec("channel.h_r")["calls"], "count"),
        "channel.h_r.busy_s": (rec("channel.h_r")["busy_s"], "s"),
        "channel.output_rank_distribution.busy_s": (rec("channel.output_rank_distribution")["busy_s"], "s"),
        "channel.parse_error_model.busy_s": (rec("channel.parse_error_model")["busy_s"], "s"),
        "channel.self_s": (layer_self("channel"), "s"),
        "matrixfn.f2.calls": (rec("matrixfn.f2")["calls"], "count"),
        "matrixfn.f2.busy_s": (rec("matrixfn.f2")["busy_s"], "s"),
        "matrixfn.f2.zero_weight_frac": (frac(zero.get("matrixfn.f2", 0), rec("matrixfn.f2")["calls"]), "ratio"),
        "matrixfn.f1.calls": (rec("matrixfn.f1")["calls"], "count"),
        "matrixfn.f1.busy_s": (rec("matrixfn.f1")["busy_s"], "s"),
        "matrixfn.f1.zero_weight_frac": (frac(zero.get("matrixfn.f1", 0), rec("matrixfn.f1")["calls"]), "ratio"),
        "matrixfn.f0.calls": (rec("matrixfn.f0")["calls"], "count"),
        "matrixfn.c_prime.calls": (rec("matrixfn.c_prime")["calls"], "count"),
        "matrixfn.c_prime.busy_s": (rec("matrixfn.c_prime")["busy_s"], "s"),
        "matrixfn.c_prime.nonzero_frac": (frac(traced["nonzero_answers"], rec("matrixfn.c_prime")["calls"]), "ratio"),
        "exactcomb.count_rank_matrices.calls": (rec("exactcomb.count_rank_matrices")["calls"], "count"),
        "exactcomb.count_rank_matrices.busy_s": (rec("exactcomb.count_rank_matrices")["busy_s"], "s"),
        "exactcomb.qbinom_ext.calls": (traced["counts"].get("exactcomb.qbinom_ext", 0), "count"),
        "oracle.brute_f_functions.busy_s": (rec("oracle.brute_f_functions")["busy_s"], "s"),
        "oracle.build_channel.busy_s": (rec("oracle.build_channel")["busy_s"], "s"),
        "oracle.blahut_arimoto.busy_s": (rec("oracle.blahut_arimoto")["busy_s"], "s"),
        "cli.main.calls": (rec("cli.main")["calls"], "count"),
        "cli.self_s": (rec("cli.main")["self_s"], "s"),
        "trace.overhead_frac": (
            traced["elapsed_s"] / statistics.median(run["pass_seconds"]) - 1.0, "ratio"
        ),
    }
    notes = [
        f"MISSING {name} on {workload}: the boundary recorded zero calls"
        for name in EXPECTED[workload]
        if calls.get(name, 0) == 0
    ]
    query_time = rec("query")["busy_s"]
    for name in sorted(layers):
        if name != "query" and layers[name]["calls"]:
            r = layers[name]
            notes.append(
                f"span {name}: calls {r['calls']}, busy {r['busy_s']:.4f} s, "
                f"self {r['self_s']:.4f} s ({frac(r['self_s'], query_time):.1%} of query time)"
            )
    if traced["digest"] != run["digest"]:
        notes.append("traced answers differ from the untraced run's answers")
    return metrics, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every design, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    try:
        setup = _setup_seconds(args)
        start = time.perf_counter()
        rounds = _rounds(args)
        run = _run_worker(_worker_cmd("run", args, "--rounds", str(rounds)))
        passes = [run]
        while (
            len(passes) < PASSES
            and time.perf_counter() - start < PASS_DEADLINE_FACTOR * args.seconds
        ):
            passes.append(_run_worker(_worker_cmd("repeat", args, "--rounds", str(rounds))))
        correct = (
            run["causes"]["wrong"] == 0
            and run["causes"]["exception"] == 0
            and all(p["digest"] == run["digest"] for p in passes)
        )
        combined = combine(passes)
        if args.trace:
            os.makedirs(SPAN_DIR, exist_ok=True)
            spans = os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}.spans")
            traced = _run_worker(_worker_cmd("trace", args, "--rounds", str(rounds), "--spans", spans))
            metrics, notes = per_layer(args.workload, combined, traced)
            correct = correct and traced["digest"] == run["digest"]
            notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            metrics, notes = end_to_end(args.workload, combined, setup)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, _ = _failures(run)
    print(f"workload {args.workload}, seed {args.seed}, closed loop, 1 client")
    for note in notes:
        print(note)
    for example in run["examples"]:
        print(f"failed: {example}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
