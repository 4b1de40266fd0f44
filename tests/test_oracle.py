"""Self-checks for the enumeration oracle's own primitives."""

import inspect
import itertools
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from gammacap import oracle
from gammacap.channel import ChannelParams, constant_rank_model, parse_error_model
from gammacap.exactcomb import qbinom
from gammacap.solver import maximize


def _mat_add(a, b, q):
    """Entrywise a + b mod q: the references below form X + B directly."""
    return tuple(tuple((x + y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_mul(a, b, q):
    """The product a * b mod q: the references below form A * Z directly."""
    cols = list(zip(*b))
    return tuple(
        [tuple([sum([x * y for x, y in zip(ra, col)]) % q for col in cols]) for ra in a]
    )


class TestLinearAlgebra:
    def test_rank_of_known_matrices(self):
        assert reference.rank_of(((0, 0), (0, 0)), 2) == 0
        assert reference.rank_of(((1, 0), (0, 1)), 2) == 2
        assert reference.rank_of(((1, 1), (1, 1)), 2) == 1
        assert reference.rank_of(((1, 2), (2, 1)), 3) == 1

    def test_rref_basis_is_canonical(self):
        basis = reference.rref_basis([(1, 1, 0), (0, 1, 1)], 2)
        again = reference.rref_basis([(1, 0, 1), (0, 1, 1)], 2)
        assert basis == again
        assert reference.rref_basis(list(basis), 2) == basis

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_row_reduction_against_span_enumeration(self, q):
        """rank_of and rref_basis, which share one elimination, and _span,
        which reduces nothing, agree with the brute-force row span on random
        matrices up to 4 x 4, entries drawn outside 0..q-1 as well."""
        rng = random.Random(q)

        def span(rows, ncols):
            return {
                tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(ncols))
                for coeffs in itertools.product(range(q), repeat=len(rows))
            }

        def random_matrix(ncols):
            return [
                [rng.randrange(-q, 2 * q) for _ in range(ncols)]
                for _ in range(rng.randint(0, 4))
            ]

        for _ in range(40):
            ncols = rng.randint(1, 4)
            mat = random_matrix(ncols)
            rank = reference.rank_of(mat, q)
            assert q**rank == len(span(mat, ncols))
            basis = reference.rref_basis(mat, q)
            assert len(basis) == rank and span(basis, ncols) == span(mat, ncols)
            leads = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert leads == sorted(set(leads))
            for i, lead in enumerate(leads):
                assert [row[lead] for row in basis] == [int(k == i) for k in range(rank)]
            # _span holds each vector by its index in lexicographic order.
            indices = {
                sum(x * q ** (ncols - 1 - j) for j, x in enumerate(vec))
                for vec in span(mat, ncols)
            }
            assert oracle._span(mat, q) == indices and len(indices) == q**rank


class TestEnumeration:
    def test_subspace_census_matches_qbinom(self):
        for q, m in ((2, 4), (3, 3)):
            subs = oracle.enumerate_subspaces(m, q)
            assert len(subs) == len(set(subs))
            for d in range(m + 1):
                assert sum(1 for s in subs if len(s) == d) == qbinom(m, d, q)

    def test_gl_census(self):
        """The row-by-row construction yields what filtering every n x n
        matrix by its rank yields, in the same order, count_gl of them."""
        for n, q in ((0, 2), (1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (4, 2)):
            invertible = [
                M for M in oracle.enumerate_matrices(n, n, q) if reference.rank_of(M, q) == n
            ]
            assert list(oracle.enumerate_gl(n, q)) == invertible
            assert len(invertible) == oracle.count_gl(n, q)

    def test_budget_refusals(self):
        with pytest.raises(oracle.BudgetExceededError):
            list(oracle.enumerate_matrices(5, 5, 2))
        with pytest.raises(oracle.BudgetExceededError):
            oracle.brute_f_functions(3, 3, 5)
        with pytest.raises(oracle.BudgetExceededError):
            oracle.build_channel(ChannelParams(2, 3, 3, constant_rank_model(0, 3, 3)))

    @pytest.mark.parametrize(
        "shape",
        [
            (2, 5, 5), (2, 5, 1), (2, 3, 3), (4, 1, 1), (3, 1, 2),
            (2**61 - 1, 1, 1), (2**61 - 1, 0, 1), (2**21, 1, 1),
        ],
        ids=[
            "matrix-grid", "gl-grid", "channel", "not-prime", "within",
            "mersenne-61", "mersenne-61-empty-grid", "not-prime-over-budget",
        ],
    )
    def test_check_budgets_refuses_as_the_enumerations_do(self, shape):
        """check_budgets raises what brute_f_functions and then build_channel
        would raise, message included, and nothing for a shape within.  A q
        over the grid budget is refused before it is tested for primality,
        which would trial-divide up to sqrt(q), even where the grid is
        empty."""
        q, n, m = shape
        params = ChannelParams(q, n, m, constant_rank_model(0, n, m))
        try:
            oracle.brute_f_functions(n, m, q)
            oracle.build_channel(params)
        except (ValueError, oracle.BudgetExceededError) as exc:
            with pytest.raises(type(exc)) as refused:
                oracle.check_budgets(n, m, q)
            assert str(refused.value) == str(exc)
        else:
            oracle.check_budgets(n, m, q)

    def test_build_channel_refuses_before_enumerating(self, monkeypatch):
        """(n, m, q) = (4, 4, 2) used to enumerate GL(4, 2), 65 536 matrices,
        before its channel budget refused it."""
        def enumerate_nothing(*args):
            raise AssertionError("enumerated a shape over budget")

        monkeypatch.setattr(oracle, "enumerate_gl", enumerate_nothing)
        monkeypatch.setattr(oracle, "enumerate_matrices", enumerate_nothing)
        params = ChannelParams(2, 4, 4, constant_rank_model(0, 4, 4))
        with pytest.raises(oracle.BudgetExceededError, match="channel budget"):
            oracle.build_channel(params)

    def test_requires_prime_field(self):
        with pytest.raises(ValueError):
            oracle.brute_f_functions(2, 2, 4)
        # Over Z/4 the elimination would divide by 2, which has no inverse.
        for reduce in (reference.rank_of, reference.rref_basis):
            with pytest.raises(ValueError, match="prime field"):
                reduce([[2, 1]], 4)


class TestChannelTable:
    def test_rows_are_exact_distributions(self, channel_laws):
        params = ChannelParams(2, 2, 2, parse_error_model("iid:t=1", 2, 2, 2))
        law = channel_laws(params)
        assert len(law.rows) == 2 ** 4
        for row in law.rows:
            assert sum(row.values()) == law.den

    def test_zero_input_delta_error_marginal(self, channel_laws):
        params = ChannelParams(2, 2, 2, parse_error_model("constant:t=1", 2, 2, 2))
        marginal = oracle.channel_output_rank_marginal(
            channel_laws(params), [Fraction(1), Fraction(0), Fraction(0)]
        )
        assert marginal == [Fraction(0), Fraction(1), Fraction(0)]


class TestIndexTranslation:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 1, 2), (5, 1, 2), (2, 1, 4)])
    def test_translation_matches_mat_add(self, shape):
        q, n, m = shape
        all_mats = list(oracle.enumerate_matrices(n, m, q))
        for X in all_mats:
            perm = oracle._translation(X, q)
            assert [all_mats[z] for z in perm] == [
                _mat_add(X, B, q) for B in all_mats
            ]


class TestConfigurations:
    def test_realized_dimensions_match_profile(self):
        cases = [
            ((1, 1, 1, 0, 0, 0, 0), 2),
            ((2, 2, 2, 1, 1, 1, 1), 3),
            ((1, 2, 1, 1, 0, 1, 0), 3),
        ]
        for d1, m in cases:
            config = oracle.realize_configuration(d1, m, 2)
            assert config is not None
            U, V, W = config
            dU, dV, dW, dUV, dUW, dVW, dUVW = d1

            def join(a, b):
                return len(reference.rref_basis(list(a) + list(b), 2))

            assert (len(U), len(V), len(W)) == (dU, dV, dW)
            assert len(U) + len(V) - join(U, V) == dUV
            assert len(U) + len(W) - join(U, W) == dUW
            assert len(V) + len(W) - join(V, W) == dVW
            assert reference.rref_basis(list(W) + list(V), 2) == reference.rref_basis(
                list(U) + list(V), 2
            )

    def test_unrealizable_profiles_return_none(self):
        assert oracle.realize_configuration((2, 1, 1, 1, 1, 1, 1), 3, 2) is None
        assert oracle.realize_configuration((1, 1, 1, 1, 1, 1, 1), 1, 2) is not None
        assert oracle.realize_configuration((2, 2, 2, 0, 0, 0, 0), 3, 2) is None

    def test_reduced_bases_give_the_same_pair_counts(self, monkeypatch):
        """The bases are returned as built, with no elimination: pair_counts
        gives the same table, entry for entry and in the same order, when
        each basis is first reduced to its canonical RREF.  Every realizable
        profile at q in {2, 3} with m <= 3 and at q = 2 with m = 4."""
        shapes = [(m, q) for q in (2, 3) for m in range(4)] + [(4, 2)]
        cases = [
            (d1, m, q)
            for m, q in shapes
            for d1 in itertools.product(range(m + 1), repeat=7)
            if oracle.realize_configuration(d1, m, q)
        ]
        assert len(cases) == 330
        built = {case: oracle.pair_counts(*case) for case in cases}
        realize = oracle.realize_configuration

        def reduced(d1, m, q):
            return tuple(reference.rref_basis(basis, q) for basis in realize(d1, m, q))

        monkeypatch.setattr(oracle, "realize_configuration", reduced)
        for case, table in built.items():
            assert list(oracle.pair_counts(*case).items()) == list(table.items()), case

    @pytest.mark.parametrize("d1", [(1, 1, 1, 0, 0, 0, 0), (2, 1, 1, 1, 1, 1, 1)])
    def test_non_prime_field_is_refused(self, d1):
        """Realizable or not, a profile over F_4 is refused: the block rows
        would be read as vectors over Z/4."""
        for build in (oracle.realize_configuration, oracle.pair_counts):
            with pytest.raises(ValueError, match="prime field order"):
                build(d1, 3, 4)


# The benchmark's verify shapes (q, n, m) at q in {2, 3, 5}, plus the two
# shapes the CI runs end to end.
VERIFY_SHAPES = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1),
    (5, 1, 1), (5, 1, 2),
)
CI_SHAPES = ((3, 2, 2), (5, 1, 3))


def _every_kind(q, n, m):
    """One ChannelParams per error kind, each giving weight to a different rank mix."""
    k = min(n, m)
    total = (k + 1) * (k + 2) // 2
    specs = (
        f"constant:t={k}",
        "iid:t=1",
        f"binomial:T={n},p=0.3",
        "empirical:" + ",".join(f"{r + 1}/{total}" for r in range(k + 1)),
    )
    return [ChannelParams(q, n, m, parse_error_model(s, q, n, m)) for s in specs]


def _law_table(law):
    """``law`` as {X: {Y: P(Y|X)}}, one Fraction per entry, rows and
    outputs in the law's order: the form the references below build."""
    mats = law.matrices
    return {
        mats[x]: {mats[y]: Fraction(num, law.den) for y, num in row.items()}
        for x, row in enumerate(law.rows)
    }


def _per_term_channel(params, inputs=None):
    """The channel law by one Fraction add per (X, B, A) term: the plain loop
    that the oracle's shared image tallies must reproduce.  ``inputs`` limits
    the rows built."""
    q, n, m = params.q, params.n, params.m
    gl = list(oracle.enumerate_gl(n, q))
    all_mats = list(oracle.enumerate_matrices(n, m, q))
    by_rank = {}
    for mat in all_mats:
        by_rank.setdefault(reference.rank_of(mat, q), []).append(mat)
    inv_gl = Fraction(1, len(gl))
    table = {}
    for X in all_mats if inputs is None else inputs:
        row = {}
        for rb, rb_weight in enumerate(params.error_dist):
            if rb_weight == 0 or rb not in by_rank:
                continue
            per_b = Fraction(rb_weight) / len(by_rank[rb])
            for B in by_rank[rb]:
                Z = _mat_add(X, B, q)
                w = per_b * inv_gl
                for A in gl:
                    Y = _mat_mul(A, Z, q)
                    row[Y] = row.get(Y, Fraction(0)) + w
        table[X] = row
    return table


def _per_v_f_functions(n, m, q, reps=3):
    """f0/f1/f2 with the whole B loop rerun for every (U, V) pair: the plain
    loop that the oracle's one tally per representative must reproduce."""
    mn = min(n, m)
    all_mats = list(oracle.enumerate_matrices(n, m, q))
    rowspace = {mat: reference.rref_basis(mat, q) for mat in all_mats}
    by_rank = {r: [] for r in range(mn + 1)}
    by_rowspace = {}
    for mat, rs in rowspace.items():
        by_rank[len(rs)].append(mat)
        by_rowspace.setdefault(rs, []).append(mat)
    subspaces = oracle.enumerate_subspaces(m, q)
    f0 = {}
    for u in range(mn + 1):
        target = next(s for s in subspaces if len(s) == u)
        f0[u] = len(by_rowspace.get(target, []))
    f1 = {}
    reps_seen = {}
    for U in subspaces:
        if len(U) > mn:
            continue
        for V in subspaces:
            if len(V) > mn:
                continue
            h = len(reference.rref_basis(list(U) + list(V), q)) - len(V)
            key3 = (len(U), len(V), h)
            if reps_seen.get(key3, 0) >= reps:
                continue
            reps_seen[key3] = reps_seen.get(key3, 0) + 1
            for M in by_rowspace.get(U, [])[:reps]:
                counts = {r: 0 for r in range(mn + 1)}
                for B in all_mats:
                    if rowspace[_mat_add(M, B, q)] == V:
                        counts[len(rowspace[B])] += 1
                for r, cnt in counts.items():
                    assert f1.setdefault(key3 + (r,), cnt) == cnt
    f2 = {}
    for rx in range(mn + 1):
        for X in by_rank[rx][:reps]:
            counts = {}
            for B in all_mats:
                key2 = (len(rowspace[_mat_add(X, B, q)]), len(rowspace[B]))
                counts[key2] = counts.get(key2, 0) + 1
            for r in range(mn + 1):
                for rb in range(mn + 1):
                    cnt = counts.get((r, rb), 0)
                    assert f2.setdefault((r, rx, rb), cnt) == cnt
    return {"f0": f0, "f1": f1, "f2": f2}


def _per_entry_marginal(table, input_rank_probs, q):
    """The output rank law with the class weight applied to every P(Y|X)."""
    outputs = set().union(*table.values())
    rank = {mat: reference.rank_of(mat, q) for mat in outputs.union(table)}
    by_rank = {}
    for X in table:
        by_rank.setdefault(rank[X], []).append(X)
    max_rank = max((rank[Y] for Y in outputs), default=0)
    out = [Fraction(0)] * max(len(input_rank_probs), max_rank + 1)
    for rx, p in enumerate(input_rank_probs):
        if p == 0 or rx not in by_rank:
            continue
        class_weight = Fraction(p) / len(by_rank[rx])
        for X in by_rank[rx]:
            for Y, pyx in table[X].items():
                out[rank[Y]] += class_weight * pyx
    return out


def _dense_blahut_arimoto(table, tol=1e-9, max_iter=200000, start=None):
    """Blahut-Arimoto over dense float rows, every output of every input,
    with one divergence per input: the plain loop that the oracle's sparse
    rows and shared divergences must reproduce float for float."""
    inputs = list(table)
    outputs = sorted({y for row in table.values() for y in row})
    y_index = {y: j for j, y in enumerate(outputs)}
    p_y_x = [[0.0] * len(outputs) for _ in inputs]
    for i, x in enumerate(inputs):
        for y, pr in table[x].items():
            p_y_x[i][y_index[y]] = float(pr)
    k = len(inputs)
    if start is None:
        p = [1.0 / k] * k
    else:
        total = 0.0
        for w in start:
            total += w
        p = [w / total for w in start]
    for _ in range(max_iter):
        qy = [0.0] * len(outputs)
        for i in range(k):
            pi = p[i]
            if pi == 0.0:
                continue
            row = p_y_x[i]
            for j in range(len(outputs)):
                qy[j] += pi * row[j]
        d = [0.0] * k
        for i in range(k):
            acc = 0.0
            row = p_y_x[i]
            for j in range(len(outputs)):
                pyx = row[j]
                if pyx > 0.0:
                    acc += pyx * math.log2(pyx / qy[j])
            d[i] = acc
        lower = 0.0
        for i in range(k):
            lower += p[i] * d[i]
        upper = max(d)
        if upper - lower <= tol:
            return (upper + lower) / 2.0, p
        z = [p[i] * 2.0 ** d[i] for i in range(k)]
        s = 0.0
        for zi in z:
            s += zi
        p = [zi / s for zi in z]
    return (upper + lower) / 2.0, p


_SHAPE_IDS = [f"q{q}-n{n}-m{m}" for q, n, m in VERIFY_SHAPES + CI_SHAPES]

# What brute_f_functions(2, 2, 2) reports under _zero_third_translation.
_ILL_DEFINED = "f1 not well defined at (1, 0, 1, 0): 0 != 1"


def _zero_third_translation(translate):
    """A mutant of ``translate`` that translates the zero matrix in place of
    the third matrix it is asked for, and the list of matrices asked for."""
    calls = []

    def corrupted(X, q):
        calls.append(X)
        if len(calls) == 3:
            X = tuple((0,) * len(row) for row in X)
        return translate(X, q)

    return corrupted, calls


class TestAgainstPerTermReferences:
    """The oracle's shared tallies give exactly the tables of the plain loops."""

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_build_channel(self, shape, channel_laws):
        """Every entry equals the per-term sum, outputs in order of first
        appearance, and every matrix carries its rank."""
        q, n, m = shape
        all_mats = list(oracle.enumerate_matrices(n, m, q))
        ranks = [reference.rank_of(X, q) for X in all_mats]
        # The per-term law costs |GL| * q^(2nm) Fraction adds; at the CI
        # shapes it is built for the first and last input of every rank.
        inputs = None
        if shape in CI_SHAPES:
            by_rank = {}
            for X, r in zip(all_mats, ranks):
                by_rank.setdefault(r, []).append(X)
            inputs = [X for cls in by_rank.values() for X in (cls[0], cls[-1])]
        for params in _every_kind(q, n, m):
            law = channel_laws(params)
            assert law.matrices == all_mats and law.ranks == ranks
            got = _law_table(law)
            want = _per_term_channel(params, inputs)
            for X, row in want.items():
                assert list(got[X].items()) == list(row.items()), params.error_dist

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_brute_f_functions(self, shape):
        q, n, m = shape
        got = oracle.brute_f_functions(n, m, q)
        want = _per_v_f_functions(n, m, q)
        for name in ("f0", "f1", "f2"):
            assert list(got[name].items()) == list(want[name].items()), name

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_f1_keys_are_every_feasible_class(self, shape):
        """U + V fits in F_q^m, so h = u - dim(U cap V) runs from
        max(0, u - v) to min(u, m - v), and every such class is reached."""
        q, n, m = shape
        k = min(n, m)
        f1 = oracle.brute_f_functions(n, m, q)["f1"]
        assert set(f1) == {
            (u, v, h, r)
            for u in range(k + 1)
            for v in range(k + 1)
            for h in range(max(0, u - v), min(u, m - v) + 1)
            for r in range(k + 1)
        }

    def test_disagreeing_representatives_are_reported(self, monkeypatch):
        """A mutant that tallies the zero matrix in place of the second
        representative of the first line U = <(1, 0)> of F_2^2 must trip the
        f1 check: for V = 0 the first representative M counts no B of rank 0
        with M + B = 0, the zero matrix counts one."""
        corrupted, calls = _zero_third_translation(oracle._translation)
        monkeypatch.setattr(oracle, "_translation", corrupted)
        with pytest.raises(AssertionError) as refused:
            oracle.brute_f_functions(2, 2, 2)
        assert str(refused.value) == _ILL_DEFINED
        assert calls[:3] == [((0, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0))]

    def test_disagreeing_representatives_are_reported_under_optimize(self):
        """The check is an explicit raise, not an assert statement, so
        python -O keeps it."""
        code = "\n".join([
            inspect.getsource(_zero_third_translation),
            "assert False, 'assert statements ran'",
            "from gammacap import oracle",
            "oracle._translation, _ = _zero_third_translation(oracle._translation)",
            "oracle.brute_f_functions(2, 2, 2)",
        ])
        env = dict(os.environ)
        src = str(Path(oracle.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == f"AssertionError: {_ILL_DEFINED}"

    def test_verify_reports_disagreeing_representatives(self, monkeypatch, capsys):
        """cli verify reports the mutant's table as one JSON error line and
        exit 1, a verification failure, not as a traceback."""
        from gammacap import cli

        corrupted, _ = _zero_third_translation(oracle._translation)
        monkeypatch.setattr(oracle, "_translation", corrupted)
        code = cli.main(["verify", "--q", "2", "--n", "2", "--m", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [
            json.dumps({"error": _ILL_DEFINED, "exit_code": 1}, sort_keys=True)
        ]

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_channel_output_rank_marginal(self, shape, channel_laws):
        q, n, m = shape
        k = min(n, m) + 1
        laws = [
            [Fraction(int(i == 0)) for i in range(k)],
            [Fraction(int(i == k - 1)) for i in range(k)],
            [Fraction(2 * i + 1, k * k) for i in range(k)],
        ]
        for params in _every_kind(q, n, m):
            channel = channel_laws(params)
            table = _law_table(channel)
            for law in laws:
                got = oracle.channel_output_rank_marginal(channel, law)
                assert got == _per_entry_marginal(table, law, q)


    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_blahut_arimoto(self, shape, channel_laws):
        # Most laws certify within the cap; the few slow ones (4 096
        # iterations at q5-n1-m3 with a full-rank error) are compared at it.
        q, n, m = shape
        for params in _every_kind(q, n, m):
            law = channel_laws(params)
            got = oracle.blahut_arimoto(law, tol=1e-9, max_iter=500)
            want = _dense_blahut_arimoto(_law_table(law), tol=1e-9, max_iter=500)
            assert got == want, params.error_dist


def _rank_uniform_start(inputs, q, rank_probs):
    """One weight per matrix of ``inputs``: its rank's probability over the
    size of its rank class."""
    ranks = [reference.rank_of(X, q) for X in inputs]
    sizes = {r: ranks.count(r) for r in set(ranks)}
    return [rank_probs[r] / sizes[r] for r in ranks]


class TestWarmStartedBlahutArimoto:
    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_rank_uniform_optimum_closes_in_one_pass(self, shape, channel_laws):
        """From the solver's optimum spread over each rank class, the sparse
        loop equals the dense one float for float, its first pass already
        brackets the capacity within 1e-9 bits, and the bracket's midpoint
        is the solver's capacity."""
        q, n, m = shape
        for params in _every_kind(q, n, m):
            law = channel_laws(params)
            res = maximize(params)
            start = _rank_uniform_start(law.matrices, q, res.optimal_input.as_floats())
            got = oracle.blahut_arimoto(law, start=start)
            want = _dense_blahut_arimoto(_law_table(law), start=start)
            assert got == want, params.error_dist
            assert oracle.blahut_arimoto(law, max_iter=1, start=start) == got
            assert abs(got[0] - res.capacity_bits) <= 1e-9, params.error_dist


def _per_entry_rank_kernel(table, q):
    """K[rx][ry] by one Fraction add per P(Y|X), the class size divided out
    of every entry."""
    rank = {mat: reference.rank_of(mat, q) for row in table.values() for mat in row}
    rank.update((X, reference.rank_of(X, q)) for X in table)
    sizes = {}
    for X in table:
        sizes[rank[X]] = sizes.get(rank[X], 0) + 1
    width = max(rank[Y] for row in table.values() for Y in row) + 1
    kernel = {}
    for X, row in table.items():
        rx = rank[X]
        cells = kernel.setdefault(rx, [Fraction(0)] * width)
        for Y, pyx in row.items():
            cells[rank[Y]] += pyx / sizes[rx]
    return kernel


class TestRankKernel:
    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_matches_per_entry_reference(self, shape, channel_laws):
        q, n, m = shape
        for params in _every_kind(q, n, m):
            law = channel_laws(params)
            kernel = oracle.rank_kernel(law)
            assert kernel == _per_entry_rank_kernel(_law_table(law), q)
            assert sorted(kernel) == list(range(min(n, m) + 1))
            assert all(sum(row) == 1 for row in kernel.values())


class TestEntropyAndBlahutArimoto:
    def test_entropy_bits(self, entropy_bits):
        assert entropy_bits([Fraction(1, 8)] * 8) == pytest.approx(3.0)
        assert entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_blahut_arimoto_no_error_channel(self, channel_laws):
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        cap, probs = oracle.blahut_arimoto(channel_laws(params), tol=1e-9)
        assert cap == pytest.approx(math.log2(5), abs=1e-6)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0}, {"max_iter": 3.5}, {"max_iter": True},
            {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-9}, {"tol": True}, {"tol": "1e-9"},
            {"start": [1.0] * 15}, {"start": [-1.0] + [1.0] * 15},
            {"start": [math.nan] + [1.0] * 15}, {"start": [0.0] * 16},
        ],
        ids=[
            "max_iter=0", "max_iter=3.5", "max_iter=True", "tol=nan", "tol=0", "tol<0",
            "tol=True", "tol=str", "start-too-short", "start-negative", "start-nan",
            "start-all-zero",
        ],
    )
    def test_blahut_arimoto_refuses_bad_settings(self, kwargs, channel_laws):
        """max_iter=0 used to fail on an unbound bound, max_iter=3.5 in range()
        with a bare TypeError, a NaN or non-positive tol ran silently to the
        cap, tol=True ran as a 1-bit tolerance and tol="1e-9" raised a bare
        TypeError.  A start needs one finite, non-negative weight for each of
        the law's 16 inputs and some positive mass."""
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        with pytest.raises(ValueError):
            oracle.blahut_arimoto(channel_laws(params), **kwargs)

    def test_blahut_arimoto_logs_passes_and_bracket(self, caplog, channel_laws):
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        with caplog.at_level(logging.INFO, logger="gammacap.oracle"):
            oracle.blahut_arimoto(channel_laws(params))
        (record,) = [r for r in caplog.records if r.name == "gammacap.oracle"]
        assert record.levelno == logging.INFO
        found = re.fullmatch(
            r"Blahut-Arimoto: 16 inputs, passes=2, bracket upper - lower = (\S+) bits",
            record.getMessage(),
        )
        assert found and 0.0 <= float(found[1]) <= 1e-9
