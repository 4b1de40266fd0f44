"""One measuring process of the benchmark; run.py starts it, never a user.

Each mode runs in a fresh interpreter, because gammacap keeps unbounded
process-wide caches and a reused process would inherit earlier work.

  setup   import gammacap, build the first input round, print "ready", exit
  run     the untraced closed loop over --rounds rounds, then the gates
  repeat  the same rounds again, untraced and ungated
  trace   the same rounds again, with spans at every boundary

The untraced modes also time the reference computation of speed.py every
0.1 s and give each query's latency (without the samples) and its scale.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from speed import Sampler  # noqa: E402


def _import_gammacap():
    """Import the checkout's gammacap; refuse any other copy."""
    sys.path.insert(0, SRC)
    import gammacap
    import gammacap.cli  # noqa: F401  (the verify workload's entry point)
    import gammacap.oracle  # noqa: F401

    origin = os.path.realpath(gammacap.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"gammacap imported from {origin}, not from {SRC}")
    return gammacap


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """The closed loop: whole rounds, one query at a time."""

    def __init__(self, gc, workload: str, seed: int, size: str, first_round):
        self.gc = gc
        self.workload = workload
        self.seed = seed
        self.size = size
        self.query = workloads.QUERIES[workload]
        self.rounds: List[list] = [first_round]
        self.items: List[Any] = []
        self.answers: List[Any] = []
        self.errors: List[Optional[str]] = []
        self.latencies: List[float] = []
        self.scales: List[float] = []
        self.round_sizes: List[int] = []
        self.round_seconds: List[float] = []
        self.elapsed = 0.0
        self.rss_first_round_mb = 0.0

    def _round(self, index: int):
        while len(self.rounds) <= index:
            self.rounds.append(
                workloads.make_round(self.workload, self.seed, len(self.rounds), self.size)
            )
        return self.rounds[index]

    def run(self, rounds: int, tracer=None, observer=None, sampler: Optional[Sampler] = None):
        """Run ``rounds`` whole rounds.

        With a sampler running, each latency leaves out the reference samples
        taken during the query and gets the sampler's scale around it.
        """
        perf = time.perf_counter
        spans: List[tuple] = []
        for index in range(rounds):
            items = self._round(index)
            for item in items:
                if tracer is not None:
                    tracer.query_id = len(self.items)
                    span = tracer.open("query")
                t0 = perf()
                try:
                    answer, error = self.query(self.gc, item, tracer, observer), None
                except Exception:  # noqa: BLE001 -- a failed query is counted, not fatal
                    answer, error = None, traceback.format_exc(limit=3)
                spans.append((t0, perf()))
                if tracer is not None:
                    tracer.close(span)
                    tracer.error_dist = None
                self.items.append(item)
                self.answers.append(answer)
                self.errors.append(error)
            self.round_sizes.append(len(items))
            if index == 0:
                self.rss_first_round_mb = _peak_rss_mb()
        for t0, t1 in spans:
            if sampler is None:
                self.latencies.append(t1 - t0)
                self.scales.append(1.0)
            else:
                self.latencies.append(t1 - t0 - sampler.inside(t0, t1))
                self.scales.append(sampler.scale(t0, t1))
        first = 0
        for size in self.round_sizes:
            self.round_seconds.append(sum(self.latencies[first:first + size]))
            first += size
        self.elapsed = sum(self.latencies)

    def outcomes(self, gate) -> Dict[str, Any]:
        """Failure counts by cause, with every answer gated."""
        causes = {"exception": 0, "uncertified": 0, "wrong": 0}
        examples: List[str] = []
        for item, answer, error in zip(self.items, self.answers, self.errors):
            if error is not None:
                causes["exception"] += 1
                examples.append(f"{item!r}: {error.strip().splitlines()[-1]}")
                continue
            try:
                problem = gate.check(item, answer)
            except Exception:  # noqa: BLE001 -- an answer the gate cannot read is wrong
                problem = "gate raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            if problem is not None:
                causes["wrong"] += 1
                examples.append(f"{item!r}: {problem}")
            elif workloads.uncertified(self.workload, answer):
                causes["uncertified"] += 1
        first = self.round_sizes[0]
        problem = gate.check_round_digest(self.items[:first], self.answers[:first])
        if problem is not None:
            causes["wrong"] += 1
            examples.append(problem)
        return {"causes": causes, "examples": examples[:5]}

    def digest(self) -> str:
        text = "\n".join(
            "error" if error is not None else workloads.answer_digest(self.workload, answer)
            for answer, error in zip(self.answers, self.errors)
        )
        return hashlib.sha256(text.encode()).hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "repeat", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", default=None, help="file for the recorded spans")
    args = parser.parse_args(argv)

    gc = _import_gammacap()
    first = workloads.make_round(args.workload, args.seed, 0, args.size)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    loop = Loop(gc, args.workload, args.seed, args.size, first)
    if args.mode in ("run", "repeat"):
        with Sampler() as sampler:
            loop.run(args.rounds, sampler=sampler)
        result: Dict[str, Any] = {
            "elapsed_s": loop.elapsed,
            "latencies_s": loop.latencies,
            "scales": loop.scales,
            "round_seconds": loop.round_seconds,
            "peak_rss_mb": loop.rss_first_round_mb,
            "digest": loop.digest(),
        }
        if args.mode == "run":
            result.update(loop.outcomes(workloads.Gate(gc, args.workload, args.size)))
    else:
        from tracing import Tracer

        tracer = Tracer()
        iterations = [0]

        def observer(iteration: int, value: float, gap: float) -> None:
            iterations[0] += 1

        tracer.install()
        try:
            loop.run(args.rounds, tracer=tracer, observer=observer)
        finally:
            tracer.remove()
        result = {
            "elapsed_s": loop.elapsed,
            "layers": tracer.summary(),
            "counts": tracer.counts,
            "zero_weight": tracer.zero_weight,
            "solver_iterations": iterations[0],
            "unconverged": sum(
                1 for a, e in zip(loop.answers, loop.errors)
                if e is None and workloads.uncertified(args.workload, a)
            ),
            "nonzero_answers": sum(
                1 for a, e in zip(loop.answers, loop.errors)
                if e is None and args.workload == "subspace_pairs" and a != 0
            ),
            "digest": loop.digest(),
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
