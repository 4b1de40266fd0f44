"""Exact combinatorics layer: Gaussian binomials and rank-class counts.

Every closed form here is checked against direct enumeration over small
fields, where enumeration is feasible, and against classical identities
otherwise.
"""

import pytest

from gammacap import oracle
from gammacap.exactcomb import (
    count_rank_matrices,
    is_prime_power,
    qbinom,
    qbinom_ext,
    validate_field_order,
)


class TestFieldOrder:
    def test_accepts_prime_powers(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 121):
            assert validate_field_order(q) == q
            assert is_prime_power(q)

    def test_rejects_non_prime_powers(self):
        for q in (0, 1, 6, 10, 12, 15, 100):
            assert not is_prime_power(q)
            with pytest.raises(ValueError):
                validate_field_order(q)


class TestQbinom:
    def test_known_values(self):
        assert qbinom(2, 1, 2) == 3
        assert qbinom(3, 1, 3) == 13
        assert qbinom(4, 2, 2) == 35
        assert qbinom(0, 0, 2) == 1

    def test_matches_subspace_enumeration(self):
        """qbinom(m, d) equals the number of d-dim subspaces of F_q^m."""
        for q, m_max in ((2, 4), (3, 3)):
            for m in range(m_max + 1):
                subs = oracle.enumerate_subspaces(m, q)
                for d in range(m + 1):
                    assert qbinom(m, d, q) == sum(1 for s in subs if len(s) == d)

    def test_symmetry_and_pascal(self):
        for q in (2, 3, 5):
            for m in range(1, 7):
                for d in range(m + 1):
                    assert qbinom(m, d, q) == qbinom(m, m - d, q)
                    if d >= 1:
                        lhs = qbinom(m, d, q)
                        rhs = qbinom(m - 1, d - 1, q) + q**d * qbinom(m - 1, d, q)
                        assert lhs == rhs

    def test_domain(self):
        assert qbinom(2, 5, 2) == 0
        with pytest.raises(ValueError):
            qbinom(-1, 0, 2)
        with pytest.raises(ValueError):
            qbinom(2, -1, 2)
        assert qbinom_ext(2, -1, 2) == 0
        assert qbinom_ext(-1, 0, 2) == 0


class TestRankMatrixCounts:
    def test_matches_enumeration(self):
        for q, n, m in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2)):
            census = {}
            for mat in oracle.enumerate_matrices(n, m, q):
                r = oracle.rank_of(mat, q)
                census[r] = census.get(r, 0) + 1
            for r in range(min(n, m) + 1):
                assert count_rank_matrices(n, m, r, q) == census.get(r, 0)

    def test_total_is_whole_space(self):
        for q, n, m in ((2, 3, 4), (3, 2, 4), (5, 3, 3)):
            total = sum(
                count_rank_matrices(n, m, r, q) for r in range(min(n, m) + 1)
            )
            assert total == q ** (n * m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_rank_matrices(2, 2, -1, 2)
