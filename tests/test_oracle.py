"""Self-checks for the enumeration oracle's own primitives."""

import itertools
import logging
import math
import random
import re
from fractions import Fraction

import pytest

from gammacap import oracle
from gammacap.channel import ChannelParams, constant_rank_model, parse_error_model
from gammacap.exactcomb import qbinom
from gammacap.solver import maximize


def _mat_add(a, b, q):
    """Entrywise a + b mod q: the references below form X + B directly."""
    return tuple(tuple((x + y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


class TestLinearAlgebra:
    def test_rank_of_known_matrices(self):
        assert oracle.rank_of(((0, 0), (0, 0)), 2) == 0
        assert oracle.rank_of(((1, 0), (0, 1)), 2) == 2
        assert oracle.rank_of(((1, 1), (1, 1)), 2) == 1
        assert oracle.rank_of(((1, 2), (2, 1)), 3) == 1

    def test_rref_basis_is_canonical(self):
        basis = oracle.rref_basis([(1, 1, 0), (0, 1, 1)], 2)
        again = oracle.rref_basis([(1, 0, 1), (0, 1, 1)], 2)
        assert basis == again
        assert oracle.rref_basis(list(basis), 2) == basis

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_row_reduction_against_span_enumeration(self, q):
        """rank_of, rref_basis, _right_kernel and _intersect, which share one
        elimination, agree with the brute-force row span on random matrices
        up to 4 x 4, entries drawn outside 0..q-1 as well."""
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
            rank = oracle.rank_of(mat, q)
            assert q**rank == len(span(mat, ncols))
            basis = oracle.rref_basis(mat, q)
            assert len(basis) == rank and span(basis, ncols) == span(mat, ncols)
            leads = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert leads == sorted(set(leads))
            for i, lead in enumerate(leads):
                assert [row[lead] for row in basis] == [int(k == i) for k in range(rank)]
            kernel = oracle._right_kernel(mat, q, ncols)
            assert len(kernel) == ncols - rank == oracle.rank_of(kernel, q)
            assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in mat for v in kernel)
            other = oracle.rref_basis(random_matrix(ncols), q)
            meet = oracle._intersect(basis, other, q, ncols)
            assert span(meet, ncols) == span(basis, ncols) & span(other, ncols)


class TestEnumeration:
    def test_subspace_census_matches_qbinom(self):
        for q, m in ((2, 4), (3, 3)):
            subs = oracle.enumerate_subspaces(m, q)
            assert len(subs) == len(set(subs))
            for d in range(m + 1):
                assert sum(1 for s in subs if len(s) == d) == qbinom(m, d, q)

    def test_gl_census(self):
        for q, n in ((2, 2), (3, 2), (2, 3)):
            mats = list(oracle.enumerate_gl(n, q))
            assert len(mats) == oracle.count_gl(n, q)
            assert all(oracle.rank_of(mat, q) == n for mat in mats)

    def test_budget_refusals(self):
        with pytest.raises(oracle.BudgetExceededError):
            list(oracle.enumerate_matrices(5, 5, 2))
        with pytest.raises(oracle.BudgetExceededError):
            oracle.brute_f_functions(3, 3, 5)
        with pytest.raises(oracle.BudgetExceededError):
            oracle.build_channel(ChannelParams(2, 3, 3, constant_rank_model(0, 3, 3)))

    @pytest.mark.parametrize(
        "shape",
        [(2, 5, 5), (2, 5, 1), (2, 3, 3), (4, 1, 1), (3, 1, 2)],
        ids=["matrix-grid", "gl-grid", "channel", "not-prime", "within"],
    )
    def test_check_budgets_refuses_as_the_enumerations_do(self, shape):
        """check_budgets raises what brute_f_functions and then build_channel
        would raise, message included, and nothing for a shape within."""
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
        for reduce in (oracle.rank_of, oracle.rref_basis):
            with pytest.raises(ValueError, match="prime field"):
                reduce([[2, 1]], 4)


class TestChannelTable:
    def test_rows_are_exact_distributions(self, channel_tables):
        params = ChannelParams(2, 2, 2, parse_error_model("iid:t=1", 2, 2, 2))
        table = channel_tables(params)
        assert len(table) == 2 ** 4
        for row in table.values():
            assert sum(row.values()) == Fraction(1)

    def test_zero_input_delta_error_marginal(self, channel_tables):
        params = ChannelParams(2, 2, 2, parse_error_model("constant:t=1", 2, 2, 2))
        table = channel_tables(params)
        marginal = oracle.channel_output_rank_marginal(
            table, [Fraction(1), Fraction(0), Fraction(0)], 2
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
                return len(oracle.rref_basis(list(a) + list(b), 2))

            assert (len(U), len(V), len(W)) == (dU, dV, dW)
            assert len(U) + len(V) - join(U, V) == dUV
            assert len(U) + len(W) - join(U, W) == dUW
            assert len(V) + len(W) - join(V, W) == dVW
            assert oracle.rref_basis(list(W) + list(V), 2) == oracle.rref_basis(
                list(U) + list(V), 2
            )

    def test_unrealizable_profiles_return_none(self):
        assert oracle.realize_configuration((2, 1, 1, 1, 1, 1, 1), 3, 2) is None
        assert oracle.realize_configuration((1, 1, 1, 1, 1, 1, 1), 1, 2) is not None
        assert oracle.realize_configuration((2, 2, 2, 0, 0, 0, 0), 3, 2) is None


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


def _per_term_channel(params, inputs=None):
    """The channel law by one Fraction add per (X, B, A) term: the plain loop
    that the oracle's shared image tallies must reproduce.  ``inputs`` limits
    the rows built."""
    q, n, m = params.q, params.n, params.m
    gl = list(oracle.enumerate_gl(n, q))
    all_mats = list(oracle.enumerate_matrices(n, m, q))
    by_rank = {}
    for mat in all_mats:
        by_rank.setdefault(oracle.rank_of(mat, q), []).append(mat)
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
                    Y = oracle._mat_mul(A, Z, q)
                    row[Y] = row.get(Y, Fraction(0)) + w
        table[X] = row
    return table


def _per_v_f_functions(n, m, q, reps=3):
    """f0/f1/f2 with the whole B loop rerun for every (U, V) pair: the plain
    loop that the oracle's one tally per representative must reproduce."""
    mn = min(n, m)
    all_mats = list(oracle.enumerate_matrices(n, m, q))
    rowspace = {mat: oracle.rref_basis(mat, q) for mat in all_mats}
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
            h = len(oracle.rref_basis(list(U) + list(V), q)) - len(V)
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
    rank = {mat: oracle.rank_of(mat, q) for mat in outputs.union(table)}
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
    p = [1.0 / k] * k if start is None else [w / sum(start) for w in start]
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
        lower = sum(p[i] * d[i] for i in range(k))
        upper = max(d)
        if upper - lower <= tol:
            return (upper + lower) / 2.0, p
        z = [p[i] * 2.0 ** d[i] for i in range(k)]
        s = sum(z)
        p = [zi / s for zi in z]
    return (upper + lower) / 2.0, p


_SHAPE_IDS = [f"q{q}-n{n}-m{m}" for q, n, m in VERIFY_SHAPES + CI_SHAPES]


class TestAgainstPerTermReferences:
    """The oracle's shared tallies give exactly the tables of the plain loops."""

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_build_channel(self, shape, channel_tables):
        q, n, m = shape
        all_mats = list(oracle.enumerate_matrices(n, m, q))
        # The per-term law costs |GL| * q^(2nm) Fraction adds; at the CI
        # shapes it is built for the first and last input of every rank.
        inputs = None
        if shape in CI_SHAPES:
            by_rank = {}
            for X in all_mats:
                by_rank.setdefault(oracle.rank_of(X, q), []).append(X)
            inputs = [X for cls in by_rank.values() for X in (cls[0], cls[-1])]
        for params in _every_kind(q, n, m):
            got = channel_tables(params)
            assert list(got) == all_mats
            want = _per_term_channel(params, inputs)
            assert {X: got[X] for X in want} == want, params.error_dist

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_brute_f_functions(self, shape):
        q, n, m = shape
        got = oracle.brute_f_functions(n, m, q)
        want = _per_v_f_functions(n, m, q)
        for name in ("f0", "f1", "f2"):
            assert list(got[name].items()) == list(want[name].items()), name

    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_channel_output_rank_marginal(self, shape, channel_tables):
        q, n, m = shape
        k = min(n, m) + 1
        laws = [
            [Fraction(int(i == 0)) for i in range(k)],
            [Fraction(int(i == k - 1)) for i in range(k)],
            [Fraction(2 * i + 1, k * k) for i in range(k)],
        ]
        for params in _every_kind(q, n, m):
            table = channel_tables(params)
            for law in laws:
                got = oracle.channel_output_rank_marginal(table, law, q)
                assert got == _per_entry_marginal(table, law, q)


    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_blahut_arimoto(self, shape, channel_tables):
        # Most laws certify within the cap; the few slow ones (4 096
        # iterations at q5-n1-m3 with a full-rank error) are compared at it.
        q, n, m = shape
        for params in _every_kind(q, n, m):
            table = channel_tables(params)
            got = oracle.blahut_arimoto(table, tol=1e-9, max_iter=500)
            want = _dense_blahut_arimoto(table, tol=1e-9, max_iter=500)
            assert got == want, params.error_dist


def _rank_uniform_start(table, q, rank_probs):
    """One weight per input of ``table``: its rank's probability over the
    size of its rank class."""
    ranks = [oracle.rank_of(X, q) for X in table]
    sizes = {r: ranks.count(r) for r in set(ranks)}
    return [rank_probs[r] / sizes[r] for r in ranks]


class TestWarmStartedBlahutArimoto:
    @pytest.mark.parametrize("shape", VERIFY_SHAPES + CI_SHAPES, ids=_SHAPE_IDS)
    def test_rank_uniform_optimum_closes_in_one_pass(self, shape, channel_tables):
        """From the solver's optimum spread over each rank class, the sparse
        loop equals the dense one float for float, its first pass already
        brackets the capacity within 1e-9 bits, and the bracket's midpoint
        is the solver's capacity."""
        q, n, m = shape
        for params in _every_kind(q, n, m):
            table = channel_tables(params)
            res = maximize(params)
            start = _rank_uniform_start(table, q, res.optimal_input.as_floats())
            got = oracle.blahut_arimoto(table, start=start)
            assert got == _dense_blahut_arimoto(table, start=start), params.error_dist
            assert oracle.blahut_arimoto(table, max_iter=1, start=start) == got
            assert abs(got[0] - res.capacity_bits) <= 1e-9, params.error_dist


def _per_entry_rank_kernel(table, q):
    """K[rx][ry] by one Fraction add per P(Y|X), the class size divided out
    of every entry."""
    rank = {mat: oracle.rank_of(mat, q) for row in table.values() for mat in row}
    rank.update((X, oracle.rank_of(X, q)) for X in table)
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
    def test_matches_per_entry_reference(self, shape, channel_tables):
        q, n, m = shape
        for params in _every_kind(q, n, m):
            table = channel_tables(params)
            kernel = oracle.rank_kernel(table, oracle.table_ranks(table, q))
            assert kernel == _per_entry_rank_kernel(channel_tables(params), q)
            assert sorted(kernel) == list(range(min(n, m) + 1))
            assert all(sum(row) == 1 for row in kernel.values())


class TestDiscardedWork:
    def test_verify_ranks_each_table_matrix_once(self, monkeypatch, capsys):
        """verify used to rank every input and output matrix of the channel
        table again for each of its three trial input laws."""
        from gammacap import cli

        reduced = []
        built = []
        build, reduce = oracle.build_channel, oracle._rref

        def recording_build(params):
            table = build(params)
            built.append(table)
            return table

        def recording_reduce(vectors, q):
            if built:
                reduced.append(tuple(map(tuple, vectors)))
            return reduce(vectors, q)

        monkeypatch.setattr(oracle, "build_channel", recording_build)
        # rank_of and rref_basis both reduce by _rref.
        monkeypatch.setattr(oracle, "_rref", recording_reduce)
        code = cli.main(["verify", "--q", "2", "--n", "2", "--m", "2", "--error", "iid:t=1"])
        capsys.readouterr()
        assert code == 0 and len(built) == 1
        assert reduced and len(reduced) == len(set(reduced)) <= len(built[0])

    def test_brute_f_functions_skips_full_classes(self, monkeypatch):
        """U+V used to be reduced for each of the 4 096 subspace pairs at
        (n, m, q) = (1, 6, 2), 4 160 eliminations with the 64 row spaces,
        though at most 3 pairs per class (u, v, h) are kept.  Each pair the
        plain loop keeps must still be reduced and read."""
        n, m, q = 1, 6, 2
        reduced = []
        reduce = oracle.rref_basis

        def recording(vectors, q):
            reduced.append(tuple(map(tuple, vectors)))
            return reduce(vectors, q)

        monkeypatch.setattr(oracle, "rref_basis", recording)
        oracle.brute_f_functions(n, m, q)
        monkeypatch.undo()
        assert len(reduced) <= 400
        subspaces = [s for s in oracle.enumerate_subspaces(m, q) if len(s) <= min(n, m)]
        kept, seen = [], {}
        for U in subspaces:
            for V in subspaces:
                key3 = (len(U), len(V), len(reduce(U + V, q)) - len(V))
                if seen.get(key3, 0) < 3:
                    seen[key3] = seen.get(key3, 0) + 1
                    kept.append(U + V)
        assert set(kept) <= set(reduced)


class TestEntropyAndBlahutArimoto:
    def test_entropy_bits(self):
        assert oracle.entropy_bits([Fraction(1, 8)] * 8) == pytest.approx(3.0)
        assert oracle.entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_blahut_arimoto_no_error_channel(self, channel_tables):
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        cap, probs = oracle.blahut_arimoto(channel_tables(params), tol=1e-9)
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
    def test_blahut_arimoto_refuses_bad_settings(self, kwargs, channel_tables):
        """max_iter=0 used to fail on an unbound bound, max_iter=3.5 in range()
        with a bare TypeError, a NaN or non-positive tol ran silently to the
        cap, tol=True ran as a 1-bit tolerance and tol="1e-9" raised a bare
        TypeError.  A start needs one finite, non-negative weight for each of
        the table's 16 inputs and some positive mass."""
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        with pytest.raises(ValueError):
            oracle.blahut_arimoto(channel_tables(params), **kwargs)

    def test_blahut_arimoto_logs_passes_and_bracket(self, caplog, channel_tables):
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        with caplog.at_level(logging.INFO, logger="gammacap.oracle"):
            oracle.blahut_arimoto(channel_tables(params))
        (record,) = [r for r in caplog.records if r.name == "gammacap.oracle"]
        assert record.levelno == logging.INFO
        found = re.fullmatch(
            r"Blahut-Arimoto: 16 inputs, passes=2, bracket upper - lower = (\S+) bits",
            record.getMessage(),
        )
        assert found and 0.0 <= float(found[1]) <= 1e-9
