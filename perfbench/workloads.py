"""The benchmark's workloads: seeded input rounds, queries and answer gates.

Every workload is a closed loop with one client: the next query is sent when
the previous answer is back.  Inputs come in rounds.  A round is a fixed
design of cells (field order, shape class, error-model kind).  The inputs
that set a query's cost (channels, shapes, error models, subspace profiles)
come from a catalogue fixed per round index; the seed draws the order of
every round.  Whether a capacity query stalls at the iteration cap, and for
how long, depends on the exact channel and starting point: with seeded
channels or seeded starting points the median latency of a 20 s run spread
by 50 to 80 percent between seeds.

The library receives only the generated inputs, through its public API.
Gates run after the timed region and accept or reject each answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("capacity", "subspace_pairs", "verify")

# Seconds one full-size round takes at the seed commit (shared 2-vCPU x86 VM,
# CPython 3.11).  run.py turns --seconds into a number of whole rounds with
# them, so every commit does the same work and only its speed moves the
# metrics.
NOMINAL_ROUND_SECONDS = {"capacity": 5.5, "subspace_pairs": 1.6, "verify": 1.2}

KINDS = ("constant", "iid", "binomial", "empirical")
PACKET_PROBABILITIES = ("0.01", "0.05", "0.1", "0.2", "0.3")

# capacity: the solver's default tolerance and the benchmark's iteration cap.
# At the seed commit every certified query needs at most 85 iterations; the
# cap sets what a stall costs.  At 500 the solver's own time is the largest
# share of the workload (45 percent, the f1 tables 36); a higher cap leaves
# too few passes within the time of a run.
TOLERANCE_BITS = 1e-9
MAX_ITERATIONS = 500
CAPACITY_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)
# min(n, m) of the 16 cells of a round, spread like min(n, m) of uniform
# n, m in [2, 16], with the largest class kept.
CAPACITY_MIN_DIMS = (2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10, 11, 13, 16)
CAPACITY_MAX_DIM = 16
# The seed commit's solver never certifies this channel (gap 0.099 bits).
KNOWN_STALL = (2, 16, 16, "binomial:T=4,p=0.1")

# subspace_pairs: (m, q, weighted block count) per profile of a round.  The
# first three are small enough for the enumeration oracle.
SUBSPACE_STRATA = (
    (3, 2, 3), (3, 2, 2), (2, 2, 2),
    (4, 2, 4), (4, 3, 4), (5, 2, 5), (5, 4, 4),
    (6, 2, 6), (6, 3, 5), (7, 2, 6), (7, 3, 6), (8, 2, 7), (8, 3, 7),
)
ORACLE_MAX_M = 3
ORACLE_Q = 2

# verify: every shape the oracle accepts at q in {2, 3, 5} with at most 64
# input matrices and at most 2**15 channel terms |GL(n, q)| * q**(2nm).
# Larger shapes inside the oracle's own budgets take 2 s to over 200 s each.
VERIFY_SHAPES = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1),
    (5, 1, 1), (5, 1, 2),
)

# Smaller designs of the same shape, for the benchmark's own tests.
TINY = {
    "capacity": {"fields": (2, 3), "min_dims": (2, 3), "max_dim": 4},
    "subspace_pairs": {"strata": ((3, 2, 3), (2, 2, 2))},
    "verify": {"shapes": ((2, 1, 2), (2, 2, 1))},
}

# Digest of the first subspace_pairs round: every (input, c_prime value)
# pair, sorted.  The seed only orders a round, so one record serves every seed.
SUBSPACE_DIGEST = {
    "full": "6ade7fcef5d86812b07cc3b5ccdf2caa5c2a20901b0f789e23d6a1a3ee6c9c10",
    "tiny": "106a040b451cb5dbbee1dada1654bf46307e0ef224c0ffae3c017962d9d63dd3",
}

Item = Tuple[Any, ...]


def error_spec(rng: random.Random, kind: str, n: int, m: int) -> str:
    """A random error model of the given kind in the parse_error_model language."""
    k = min(n, m)
    if kind == "constant":
        return f"constant:t={rng.randint(0, k)}"
    if kind == "iid":
        return f"iid:t={rng.randint(1, min(n, 4))}"
    if kind == "binomial":
        return f"binomial:T={rng.randint(1, min(n, 6))},p={rng.choice(PACKET_PROBABILITIES)}"
    weights = [rng.randint(0, 9) for _ in range(rng.randint(1, k + 1))]
    weights[0] += sum(weights) == 0
    total = sum(weights)
    return "empirical:" + ",".join(f"{w}/{total}" for w in weights)


def _shape(rng: random.Random, k: int, max_dim: int) -> Tuple[int, int]:
    other = rng.randint(k, max_dim)
    return (k, other) if rng.random() < 0.5 else (other, k)


def make_round(workload: str, seed: int, index: int, size: str = "full") -> List[Item]:
    """The inputs of round ``index``; the same arguments give the same inputs."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    catalogue = random.Random(f"{workload}:catalogue:{index}")
    tiny = TINY[workload] if size == "tiny" else {}
    items: List[Item] = []
    if workload == "capacity":
        fields = tiny.get("fields", CAPACITY_FIELDS)
        dims = list(tiny.get("min_dims", CAPACITY_MIN_DIMS))
        max_dim = tiny.get("max_dim", CAPACITY_MAX_DIM)
        catalogue.shuffle(dims)
        for cell, k in enumerate(dims):
            q = fields[cell % len(fields)]
            kind = KINDS[(cell + cell // len(fields)) % len(KINDS)]
            n, m = _shape(catalogue, k, max_dim)
            items.append((q, n, m, error_spec(catalogue, kind, n, m)))
        if index == 0 and not tiny:
            items.append(KNOWN_STALL)
    elif workload == "subspace_pairs":
        for m, q, blocks in tiny.get("strata", SUBSPACE_STRATA):
            d1 = _profile(catalogue, blocks)
            dV, dW = d1[1], d1[2]
            for a in range(dV + 1):
                for b in range(dW + 1):
                    for c in range(min(a, b) + 1):
                        items.append((m, q, d1, a, b, c))
    elif workload == "verify":
        for q, n, m in tiny.get("shapes", VERIFY_SHAPES):
            kind = KINDS[catalogue.randrange(len(KINDS))]
            items.append((q, n, m, error_spec(catalogue, kind, n, m)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def _profile(rng: random.Random, blocks: int) -> Tuple[int, ...]:
    """A realizable (U, V, W) profile with W + V = U + V.

    Draws the multiplicities of the six indecomposable blocks of the
    three-subspace lattice (the generic plane block weighs two dimensions)
    so that they fill ``blocks`` dimensions of the ambient space.
    """
    x = [0] * 6
    left = blocks
    while left > 0:
        i = rng.randrange(6)
        weight = 2 if i == 4 else 1
        if weight <= left:
            x[i] += 1
            left -= weight
    x1, x2, x3, x4, x5, x6 = x
    dUVW, dUV, dUW, dVW = x1, x1 + x2, x1 + x3, x1 + x4
    dW = x1 + x3 + x4 + x5
    dV = x1 + x2 + x4 + x5 + x6
    dU = x1 + x2 + x3 + x5
    return (dU, dV, dW, dUV, dUW, dVW, dUVW)


# --- queries -----------------------------------------------------------------
#
# A query takes the gammacap package, one input item, the tracer (None when
# untraced) and an optional solver observer, and returns the answer the gate
# checks.


def _set_law(tracer, law) -> None:
    if tracer is not None:
        tracer.error_dist = law


def capacity_query(gc, item: Item, tracer=None, observer=None):
    q, n, m, spec = item
    law = gc.parse_error_model(spec, q, n, m)
    _set_law(tracer, law)
    params = gc.ChannelParams(q, n, m, law)
    config = gc.SolverConfig(tolerance_bits=TOLERANCE_BITS, max_iterations=MAX_ITERATIONS)
    return params, gc.maximize(params, config, observer=observer)


def subspace_pairs_query(gc, item: Item, tracer=None, observer=None):
    m, q, d1, a, b, c = item
    return gc.c_prime(*d1, a, b, c, m, q)


def verify_query(gc, item: Item, tracer=None, observer=None):
    q, n, m, spec = item
    if tracer is not None:
        # Read outside the wrapped names: the law is only needed for the
        # zero-weight counters, not part of the query.
        tracer.error_dist = gc.channel.parse_error_model(spec, q, n, m)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = gc.cli.main(
            ["verify", "--q", str(q), "--n", str(n), "--m", str(m), "--error", spec]
        )
    return code, report.getvalue()


QUERIES: Dict[str, Callable] = {
    "capacity": capacity_query,
    "subspace_pairs": subspace_pairs_query,
    "verify": verify_query,
}


def uncertified(workload: str, answer) -> bool:
    """The program itself flags the answer as not meeting its tolerance."""
    return workload == "capacity" and not answer[1].converged


def answer_digest(workload: str, answer) -> str:
    """A stable text form of an answer, to compare two runs of the same inputs."""
    if workload == "capacity":
        res = answer[1]
        return repr((res.capacity_bits, res.optimality_gap_bits, res.iterations))
    return repr(answer)


# --- gates -------------------------------------------------------------------


class Gate:
    """Checks answers of one workload; keeps per-shape work done once."""

    def __init__(self, gc, workload: str, size: str = "full"):
        self.gc = gc
        self.workload = workload
        self.size = size
        self._oracle_tables: Dict[Tuple, Dict] = {}

    def check(self, item: Item, answer) -> Optional[str]:
        """None when the answer passes, else a one-line reason."""
        return getattr(self, "_" + self.workload)(item, answer)

    def _capacity(self, item: Item, answer) -> Optional[str]:
        gc = self.gc
        q, n, m = item[:3]
        params, res = answer
        bound = n * m * math.log2(q)
        cap = res.capacity_bits
        if not (-1e-9 <= cap <= bound + 1e-9):
            return f"capacity {cap!r} outside [0, n*m*log2 q = {bound}]"
        if not res.converged:
            return None
        x = res.optimal_input
        grad = gc.gradient(x, params)
        gap = max(grad) - sum(g * p for g, p in zip(grad, x.as_floats()) if p > 0)
        if not gap <= TOLERANCE_BITS:
            return f"recomputed Frank-Wolfe gap {gap!r} above tolerance"
        slack = 1e-12 * max(1.0, bound)
        if abs(gc.objective(x, params) - cap) > gap + slack:
            return f"objective at optimal_input differs from capacity {cap!r} by more than the gap"
        law = params.error_dist
        if law[0] == 1:
            closed = math.log2(sum(gc.qbinom(m, u, q) for u in range(min(n, m) + 1)))
            if abs(cap - closed) > TOLERANCE_BITS + slack:
                return f"zero-error capacity {cap!r} differs from log2 subspace count {closed!r}"
        return None

    def _subspace_pairs(self, item: Item, answer) -> Optional[str]:
        m, q, d1, a, b, c = item
        if not isinstance(answer, int) or answer < 0:
            return f"c_prime returned {answer!r}, not a count"
        if m > ORACLE_MAX_M or q != ORACLE_Q:
            return None
        key = (d1, m, q)
        if key not in self._oracle_tables:
            table = self.gc.oracle.pair_counts(d1, m, q)
            marginal: Dict[Tuple[int, int, int], int] = {}
            for prof, count in (table or {}).items():
                t = (prof[0], prof[1], prof[6])
                marginal[t] = marginal.get(t, 0) + count
            self._oracle_tables[key] = marginal
        want = self._oracle_tables[key].get((a, b, c), 0)
        if answer != want:
            return f"c_prime{d1 + (a, b, c)} = {answer}, enumeration gives {want}"
        return None

    def _verify(self, item: Item, answer) -> Optional[str]:
        code, report = answer
        if code != 0:
            return f"verify exited with {code}"
        try:
            passed = json.loads(report)["result"]["passed"]
        except (ValueError, KeyError, TypeError):
            return "verify report is not the expected JSON document"
        if passed is not True:
            return "verify report says passed = false"
        return None

    def check_round_digest(self, items: Sequence[Item], answers: Sequence) -> Optional[str]:
        """The first subspace_pairs round must reproduce its recorded digest."""
        want = SUBSPACE_DIGEST.get(self.size)
        if self.workload != "subspace_pairs" or want is None:
            return None
        got = subspace_digest(items, answers)
        if got != want:
            return f"first-round c_prime digest {got} differs from the recorded {want}"
        return None


def subspace_digest(items: Sequence[Item], answers: Sequence) -> str:
    lines = sorted(f"{item}={answer}" for item, answer in zip(items, answers))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
