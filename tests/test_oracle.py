"""Self-checks for the enumeration oracle's own primitives."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gammacap import oracle
from gammacap.channel import ChannelParams, constant_rank_model, parse_error_model
from gammacap.exactcomb import qbinom


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


class TestEntropyAndBlahutArimoto:
    def test_entropy_bits(self):
        assert oracle.entropy_bits([Fraction(1, 8)] * 8) == pytest.approx(3.0)
        assert oracle.entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_blahut_arimoto_no_error_channel(self, channel_tables):
        params = ChannelParams(2, 2, 2, constant_rank_model(0, 2, 2))
        cap, probs = oracle.blahut_arimoto(channel_tables(params), tol=1e-9)
        assert cap == pytest.approx(math.log2(5), abs=1e-6)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
