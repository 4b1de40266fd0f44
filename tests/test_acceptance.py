"""Acceptance suite: ten go/no-go checks with stated tolerances.

Each criterion is one test function, so the verbose pytest report shows one
pass/fail line per criterion; each test also prints a one-line summary with
the measured deviation and its tolerance.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from gammacap import oracle
from gammacap.channel import (
    ChannelParams,
    RankDistribution,
    h_r,
    output_rank_distribution,
    parse_error_model,
)
from gammacap.exactcomb import count_rank_matrices, qbinom
from gammacap.matrixfn import f0, f1, f2
from gammacap.solver import SolverConfig, gradient, maximize, objective
from reference import log2_exact


def _params(q, n, m, spec):
    return ChannelParams(q, n, m, parse_error_model(spec, q, n, m))


def test_criterion_01_rowspace_count_dual_formula():
    """f0 (the falling product) equals the alternating sum exactly for
    q in {2,3,4,5}, n,m <= 8, u <= min(n,m); runtime < 5 s."""
    start = time.monotonic()
    checked = 0
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            for m in range(1, 9):
                for u in range(min(n, m) + 1):
                    alternating = sum(
                        (-1) ** (u - v)
                        * q ** (n * v + (u - v) * (u - v - 1) // 2)
                        * qbinom(u, v, q)
                        for v in range(u + 1)
                    )
                    assert f0(u, n, m, q) == alternating, (q, n, m, u)
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1 PASS: {checked} exact identities in {elapsed:.2f}s (< 5s)")


def test_criterion_02_matrix_counts_match_enumeration():
    """f0/f1/f2 equal brute-force enumeration exactly on the full admissible
    grid for q=2, n,m <= 3 and q=3, n=m=2; the oracle build itself asserts
    f1/f2 well-definedness across representatives; runtime < 5 min."""
    start = time.monotonic()
    configs = [(n, m, 2) for n in range(1, 4) for m in range(1, 4)]
    configs.append((2, 2, 3))
    checked = 0
    for n, m, q in configs:
        tables = oracle.brute_f_functions(n, m, q)
        for u, want in tables["f0"].items():
            assert f0(u, n, m, q) == want, ("f0", n, m, q, u)
            checked += 1
        for (u, v, h, r), want in tables["f1"].items():
            assert f1(u, v, h, r, n, m, q) == want, ("f1", n, m, q, u, v, h, r)
            checked += 1
        for (r, rx, rb), want in tables["f2"].items():
            assert f2(r, rx, rb, n, m, q) == want, ("f2", n, m, q, r, rx, rb)
            checked += 1
        mn = min(n, m)
        for u in range(mn + 1):
            for v in range(m + 1):
                for h in range(mn + 1):
                    for r in range(mn + 1):
                        if (u, v, h, r) not in tables["f1"]:
                            assert f1(u, v, h, r, n, m, q) == 0
                            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    print(f"criterion 2 PASS: {checked} exact counts in {elapsed:.2f}s (< 5 min)")


def test_criterion_03_partition_identities():
    """Sum of f2 over the output rank recovers the error rank-class size and
    the qbinom-weighted sum of f0 recovers q^(nm), exactly."""
    checked = 0
    for n, m, q in ((1, 1, 2), (2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3), (3, 4, 2)):
        mn = min(n, m)
        for rx in range(mn + 1):
            for rb in range(mn + 1):
                total = sum(f2(r, rx, rb, n, m, q) for r in range(mn + 1))
                assert total == count_rank_matrices(n, m, rb, q), (n, m, q, rx, rb)
                checked += 1
        assert (
            sum(qbinom(m, u, q) * f0(u, n, m, q) for u in range(mn + 1))
            == q ** (n * m)
        )
        checked += 1
    print(f"criterion 3 PASS: {checked} exact partition identities")


def test_criterion_04_output_rank_law_matches_oracle(channel_laws):
    """Output rank law equals the enumerated channel marginal as exact
    rationals for q=2, n=m=2 across six (input law, error law) pairs."""
    pairs = [
        ("constant:t=0", [Fraction(1), Fraction(0), Fraction(0)]),
        ("constant:t=1", [Fraction(0), Fraction(0), Fraction(1)]),
        ("constant:t=2", [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]),
        ("iid:t=1", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
        ("iid:t=2", [Fraction(0), Fraction(1), Fraction(0)]),
        ("binomial:T=2,p=0.3", [Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)]),
    ]
    for spec, probs in pairs:
        params = _params(2, 2, 2, spec)
        want = oracle.channel_output_rank_marginal(channel_laws(params), probs)
        got = output_rank_distribution(RankDistribution(probs), params)
        for r in range(3):
            assert got[r] == want[r], (spec, r)
    print(f"criterion 4 PASS: {len(pairs)} input/error pairs, exact rational equality")


def test_criterion_05_conditional_entropy_matches_oracle(channel_laws, row_entropy_bits):
    """Per-rank conditional output entropy within 1e-10 bits of the oracle
    row entropy for four error models, and exactly log2 f0(r) without
    errors."""
    specs = ("constant:t=1", "constant:t=2", "iid:t=1", "binomial:T=2,p=0.3")
    worst = 0.0
    for spec in specs:
        params = _params(2, 2, 2, spec)
        law = channel_laws(params)
        h_vec = h_r(params)
        for r in range(3):
            want = row_entropy_bits(law, law.ranks.index(r))
            got = h_vec[r]
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-10, (spec, r)
    no_err = _params(2, 2, 2, "constant:t=0")
    assert h_r(no_err) == tuple(log2_exact(Fraction(f0(r, 2, 2, 2))) for r in range(3))
    print(
        f"criterion 5 PASS: {len(specs)} error models, worst deviation "
        f"{worst:.2e} (tol 1e-10); no-error reduction exact"
    )


def test_criterion_06_entropy_depends_only_on_rank(channel_laws, row_entropy_bits):
    """All fixed inputs of equal rank give output entropies within
    1e-12 bits of each other (q=2, n=m=2)."""
    worst = 0.0
    for spec in ("iid:t=1", "binomial:T=2,p=0.3"):
        params = _params(2, 2, 2, spec)
        law = channel_laws(params)
        by_rank = {}
        for x, r in enumerate(law.ranks):
            by_rank.setdefault(r, []).append(row_entropy_bits(law, x))
        for r, entropies in by_rank.items():
            spread = max(entropies) - min(entropies)
            worst = max(worst, spread)
            assert spread <= 1e-12, (spec, r)
    print(f"criterion 6 PASS: worst within-rank entropy spread {worst:.2e} (tol 1e-12)")


def test_criterion_07_no_error_capacity_closed_form():
    """With no errors the solver returns log2 of the total subspace count
    within 1e-9 bits for q in {2,3}, n,m <= 4; runtime < 10 s."""
    start = time.monotonic()
    worst = 0.0
    for q in (2, 3):
        for n in range(1, 5):
            for m in range(1, 5):
                params = _params(q, n, m, "constant:t=0")
                res = maximize(params)
                want = math.log2(sum(qbinom(m, u, q) for u in range(min(n, m) + 1)))
                dev = abs(res.capacity_bits - want)
                worst = max(worst, dev)
                assert res.converged and dev <= 1e-9, (q, n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 7 PASS: 32 channels, worst deviation {worst:.2e} "
        f"(tol 1e-9) in {elapsed:.2f}s (< 10s)"
    )


def test_criterion_08_solver_matches_blahut_arimoto(channel_laws):
    """Solver capacity equals full-alphabet Blahut-Arimoto within 1e-6 bits
    on six error models (q=2, n=m=2), and the Blahut-Arimoto optimum puts
    equal mass (within 1e-4) on matrices of equal rank; runtime < 10 min.
    Capacity values are compared; optimizing inputs are not, since flat
    optima (full-noise models) admit many maximizers."""
    start = time.monotonic()
    specs = (
        "constant:t=0",
        "constant:t=1",
        "constant:t=2",
        "iid:t=1",
        "iid:t=2",
        "binomial:T=2,p=0.3",
    )
    worst_cap = 0.0
    worst_spread = 0.0
    for spec in specs:
        params = _params(2, 2, 2, spec)
        law = channel_laws(params)
        cap_ba, probs_ba = oracle.blahut_arimoto(law, tol=1e-9)
        res = maximize(params)
        dev = abs(res.capacity_bits - cap_ba)
        worst_cap = max(worst_cap, dev)
        assert res.converged and dev <= 1e-6, spec
        by_rank = {}
        for r, p in zip(law.ranks, probs_ba):
            by_rank.setdefault(r, []).append(p)
        for r, masses in by_rank.items():
            spread = max(masses) - min(masses)
            worst_spread = max(worst_spread, spread)
            assert spread <= 1e-4, (spec, r)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 8 PASS: {len(specs)} models, worst capacity deviation "
        f"{worst_cap:.2e} (tol 1e-6), worst within-rank mass spread "
        f"{worst_spread:.2e} (tol 1e-4) in {elapsed:.2f}s (< 10 min)"
    )


def test_criterion_09_gradient_matches_finite_differences():
    """Analytic gradient vs central differences (step 1e-6): relative error
    <= 1e-6 on 20 seeded interior points, q=2, n=m=3."""
    params = _params(2, 3, 3, "iid:t=2")
    rng = random.Random(42)
    worst = 0.0
    for _ in range(20):
        raw = [0.05 + rng.random() for _ in range(4)]
        total = sum(raw)
        point = [x / total for x in raw]
        grad = gradient(point, params)
        for a in range(4):
            plus = list(point)
            minus = list(point)
            plus[a] += 1e-6
            minus[a] -= 1e-6
            fd = (objective(plus, params) - objective(minus, params)) / 2e-6
            rel = abs(grad[a] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-6, (point, a)
    print(f"criterion 9 PASS: 20 interior points, worst relative error {worst:.2e} (tol 1e-6)")


def test_criterion_10_concavity_and_monotone_ascent():
    """Concavity inequality within 1e-10 on 100 seeded pairs at three mixing
    weights, and solver iterate values never decrease by more than
    1e-12."""
    params = _params(2, 3, 3, "binomial:T=2,p=0.2")
    rng = random.Random(9)
    worst_gap = 0.0
    for _ in range(100):
        a = [rng.random() for _ in range(4)]
        b = [rng.random() for _ in range(4)]
        a = [x / sum(a) for x in a]
        b = [x / sum(b) for x in b]
        fa, fb = objective(a, params), objective(b, params)
        for lam in (0.25, 0.5, 0.75):
            mid = [lam * x + (1 - lam) * y for x, y in zip(a, b)]
            slack = objective(mid, params) - (lam * fa + (1 - lam) * fb)
            worst_gap = min(worst_gap, slack)
            assert slack >= -1e-10, (a, b, lam)
    values = []
    res = maximize(
        params,
        SolverConfig(tolerance_bits=1e-12),
        observer=lambda it, val, gap: values.append(val),
    )
    assert res.converged
    worst_drop = 0.0
    for earlier, later in zip(values, values[1:]):
        worst_drop = max(worst_drop, earlier - later)
        assert later >= earlier - 1e-12
    print(
        f"criterion 10 PASS: worst concavity slack {worst_gap:.2e} (tol -1e-10), "
        f"worst ascent drop {worst_drop:.2e} (tol 1e-12) over {len(values)} iterates"
    )
