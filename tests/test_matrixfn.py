"""Matrix-counting functions versus exhaustive enumeration.

The layered subspace counts (f_small, g_count, h_count, l_count), the
subspace-pair counts (c_count, c_prime) and the three matrix counts
(f0, f1, f2) are all compared against the enumeration oracle on small
fields, where every closed form can be checked case by case.
"""

import itertools
import random

import pytest

from gammacap import matrixfn, oracle
from gammacap.exactcomb import qbinom
from gammacap.matrixfn import (
    DimProfile1,
    DimProfile2,
    _meet_count,
    _phi,
    c_count,
    c_prime,
    f0,
    f1,
    f2,
    f_small,
    g_count,
    h_count,
    l_count,
)


def _overlapping_pair(dU, dV, dUV, m):
    """Bases of (U, V) in F_q^m with dim(U cap V) = dUV, coordinate-aligned."""
    assert dUV <= min(dU, dV) and dU + dV - dUV <= m
    u = tuple(tuple(1 if j == c else 0 for j in range(m)) for c in range(dU))
    v = tuple(
        tuple(1 if j == c else 0 for j in range(m))
        for c in range(dU - dUV, dU - dUV + dV)
    )
    return u, v


def _pruned_d2(p1):
    """All d2 profiles not excluded by the simple dimension bounds."""
    for dVp in range(p1.dV + 1):
        for dWp in range(p1.dW + 1):
            for dUVp in range(min(p1.dUV, dVp) + 1):
                for dUWp in range(min(p1.dUW, dWp) + 1):
                    for dVWp in range(min(p1.dVW, dWp) + 1):
                        for dWVp in range(min(p1.dVW, dVp) + 1):
                            for dVpWp in range(min(dVp, dWp) + 1):
                                for dUVWp in range(min(p1.dUVW, dUWp, dVWp) + 1):
                                    for dUWVp in range(
                                        min(p1.dUVW, dUVp, dWVp) + 1
                                    ):
                                        for dUVpWp in range(
                                            min(dUVWp, dUWVp, dVpWp) + 1
                                        ):
                                            yield DimProfile2(
                                                dVp,
                                                dWp,
                                                dUVp,
                                                dUWp,
                                                dVWp,
                                                dWVp,
                                                dVpWp,
                                                dUVWp,
                                                dUWVp,
                                                dUVpWp,
                                            )


def _realizable_profiles(m):
    """All d1 profiles admitting a configuration with W + V = U + V."""
    found = []
    for dU in range(m + 1):
        for dV in range(m + 1):
            for dW in range(m + 1):
                for dUV in range(min(dU, dV) + 1):
                    if dU + dV - dUV > m:
                        continue
                    for dUW in range(min(dU, dW) + 1):
                        for dVW in range(min(dV, dW) + 1):
                            for dUVW in range(min(dUV, dUW, dVW) + 1):
                                d1 = (dU, dV, dW, dUV, dUW, dVW, dUVW)
                                if oracle.realize_configuration(d1, m, 2):
                                    found.append(d1)
    return found


class TestLayeredCounts:
    """f_small/g_count/h_count/l_count against enumerated meet censuses."""

    def test_l_count_matches_enumeration(self):
        configs = [
            (2, 1, 1, 0, 2),
            (2, 1, 1, 0, 3),
            (2, 2, 1, 1, 3),
            (2, 2, 2, 1, 3),
            (2, 2, 2, 0, 4),
            (3, 1, 1, 0, 2),
            (3, 2, 1, 0, 3),
        ]
        for q, dU, dV, dUV, m in configs:
            u, v = _overlapping_pair(dU, dV, dUV, m)
            census = oracle.subspace_counts(m, q, u, v)
            for dW in range(m + 1):
                for dUW in range(dW + 1):
                    for dVW in range(dW + 1):
                        for dUVW in range(min(dUW, dVW) + 1):
                            got = l_count(m, dU, dV, dW, dUV, dUW, dVW, dUVW, q)
                            want = census.get((dW, dUW, dVW, dUVW), 0)
                            assert got == want, (q, dU, dV, dUV, m, dW, dUW, dVW, dUVW)

    def test_h_count_is_ambient_restriction(self):
        """With ambient exactly U + V, l_count collapses to h_count."""
        for q in (2, 3):
            for dU in range(3):
                for dV in range(3):
                    for dUV in range(min(dU, dV) + 1):
                        m = dU + dV - dUV
                        for dW in range(m + 1):
                            for dUW in range(dW + 1):
                                for dVW in range(dW + 1):
                                    for dUVW in range(min(dUW, dVW) + 1):
                                        assert l_count(
                                            m, dU, dV, dW, dUV, dUW, dVW, dUVW, q
                                        ) == h_count(dU, dV, dW, dUV, dUW, dVW, dUVW, q)

    def test_h_reduces_to_g_and_f_small(self):
        for q in (2, 3):
            for dU in range(4):
                for dV in range(4):
                    for dW in range(dU + dV + 1):
                        for dUW in range(min(dU, dW) + 1):
                            for dVW in range(min(dV, dW) + 1):
                                assert h_count(
                                    dU, dV, dW, 0, dUW, dVW, 0, q
                                ) == g_count(dU, dV, dW, dUW, dVW, q)
                        assert g_count(dU, dV, dW, 0, 0, q) == f_small(dU, dV, dW, q)

    def test_l_avoiding_line(self):
        """One line of F_2^2 avoids two fixed distinct lines: the diagonal."""
        assert l_count(2, 1, 1, 1, 0, 0, 0, 0, 2) == 1

    def test_l_partition_identity(self):
        """Summing over all meet profiles counts every dW-subspace once."""
        for q, dU, dV, dUV, m in ((2, 2, 1, 0, 4), (3, 1, 1, 1, 3)):
            for dW in range(m + 1):
                total = sum(
                    l_count(m, dU, dV, dW, dUV, dUW, dVW, dUVW, q)
                    for dUW in range(dW + 1)
                    for dVW in range(dW + 1)
                    for dUVW in range(min(dUW, dVW) + 1)
                )
                assert total == qbinom(m, dW, q)


class TestPairCounts:
    """c_count against enumerated (V', W') pair censuses."""

    def test_full_grid_m2_q2(self):
        for d1 in _realizable_profiles(2):
            table = oracle.pair_counts(d1, 2, 2)
            assert table is not None
            p1 = DimProfile1(*d1)
            box = set(_pruned_d2(p1))
            assert set(table) <= box
            for d2 in box:
                assert c_count(d1, d2, 2, 2) == table.get(tuple(d2), 0), (d1, d2)

    def test_sampled_profiles_larger_ambients(self):
        rng = random.Random(20260818)
        for q, m, picks in ((2, 3, 4), (3, 2, 3)):
            profiles = []
            for dU in range(m + 1):
                for dV in range(m + 1):
                    for dW in range(m + 1):
                        for dUV in range(min(dU, dV) + 1):
                            if dU + dV - dUV > m:
                                continue
                            for dUW in range(min(dU, dW) + 1):
                                for dVW in range(min(dV, dW) + 1):
                                    for dUVW in range(min(dUV, dUW, dVW) + 1):
                                        profiles.append(
                                            (dU, dV, dW, dUV, dUW, dVW, dUVW)
                                        )
            rng.shuffle(profiles)
            checked = 0
            for d1 in profiles:
                table = oracle.pair_counts(d1, m, q)
                if table is None:
                    continue
                p1 = DimProfile1(*d1)
                box = set(_pruned_d2(p1))
                assert set(table) <= box
                for d2 in box:
                    assert c_count(d1, d2, m, q) == table.get(tuple(d2), 0), (d1, d2)
                checked += 1
                if checked == picks:
                    break
            assert checked == picks

    def test_unrealizable_profile_counts_zero(self):
        """Profiles violating the span condition admit no pairs at all.

        For (0, 2, 1, 0, 0, 0, 0), a line W off a plane V with U = 0, the
        recursion alone gives c_prime(..., 1, 0, 0) = 3, so c_prime must
        check realizability at entry."""
        for d1 in ((2, 1, 1, 1, 1, 1, 1), (0, 2, 1, 0, 0, 0, 0)):
            assert oracle.realize_configuration(d1, 3, 2) is None
            for d2 in _pruned_d2(DimProfile1(*d1)):
                assert c_count(d1, d2, 3, 2) == 0, (d1, d2)
            for coarse in itertools.product(range(4), repeat=3):
                assert c_prime(*d1, *coarse, 3, 2) == 0, (d1, coarse)

    def test_triple_overcount_profile_kept(self):
        """Three distinct lines of F_2^2: the naive seven-term alternating
        dimension estimate exceeds the ambient dimension, yet exactly one
        (V', W') = (V, W) pair exists and must be counted."""
        d1 = (1, 1, 1, 0, 0, 0, 0)
        d2 = DimProfile2(1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
        assert c_count(d1, tuple(d2), 2, 2) == 1
        table = oracle.pair_counts(d1, 2, 2)
        assert table[tuple(d2)] == 1

    def test_shrinking_can_raise_alternating_sum(self):
        """Passing to subspaces V' of V, W' of W may increase the seven-term
        alternating sum, so it cannot be used as a monotone feasibility gate;
        the enumerated count for this profile is positive."""
        d1 = (1, 2, 2, 1, 1, 2, 1)
        d2 = DimProfile2(1, 1, 0, 0, 1, 1, 0, 0, 0, 0)
        got = c_count(d1, tuple(d2), 2, 2)
        assert got == 2
        table = oracle.pair_counts(d1, 2, 2)
        assert table[tuple(d2)] == 2

    def test_infeasible_pairs_count_zero(self):
        """The last two profiles put dim(U cap V' cap W') above
        dim(V' cap W') = 0; the recursion alone counts one pair for each, so
        c_count must reject them at entry."""
        d1 = (1, 1, 1, 0, 0, 0, 0)
        too_big = DimProfile2(2, 1, 0, 0, 0, 0, 0, 0, 0, 0)
        assert c_count(d1, too_big, 2, 2) == 0
        meet_above = DimProfile2(1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
        assert c_count(d1, meet_above, 2, 2) == 0
        assert c_count((0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 1, 2) == 0
        assert c_count((1, 1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 0, 1, 0, 0, 1, 1), 1, 2) == 0


class TestPairCountAggregates:
    def test_c_prime_two_line_cases(self):
        """With U = V = W = F_2^2: distinct line pairs span, equal ones don't."""
        assert c_prime(2, 2, 2, 2, 2, 2, 2, 1, 1, 0, 2, 2) == 6
        assert c_prime(2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2) == 0

    def test_c_prime_matches_enumerated_marginals(self):
        """c_prime sums c_count's terms without its entry checks, so every
        realizable profile at m = 2, q = 2 is compared, plus two others, on
        every (dV', dW', dV'W') up to m + 1, zero marginals included."""
        cases = [(d1, 2, 2) for d1 in _realizable_profiles(2)]
        cases += [((1, 2, 1, 1, 0, 1, 0), 3, 2), ((1, 1, 1, 1, 1, 1, 1), 2, 3)]
        for d1, m, q in cases:
            table = oracle.pair_counts(d1, m, q)
            assert table is not None
            marginals = {}
            for key, cnt in table.items():
                coarse = (key[0], key[1], key[6])
                marginals[coarse] = marginals.get(coarse, 0) + cnt
            for coarse in itertools.product(range(m + 2), repeat=3):
                got = c_prime(*d1, *coarse, m, q)
                assert got == marginals.get(coarse, 0), (d1, m, q, coarse)


class TestMeetCount:
    """Subspaces of an N-space by their meet with a fixed k-space."""

    def test_meet_dimensions_partition_all_subspaces(self):
        for q in (2, 3, 4):
            for N in range(9):
                for k in range(N + 1):
                    for d in range(N + 1):
                        total = sum(
                            _meet_count(N, k, d, a, q) for a in range(min(k, d) + 1)
                        )
                        assert total == qbinom(N, d, q), (N, k, d, q)

    @pytest.mark.parametrize("q, max_n", [(2, 4), (3, 3)])
    def test_matches_enumeration(self, q, max_n):
        for N in range(max_n + 1):
            spaces = oracle.enumerate_subspaces(N, q)
            for k in range(N + 1):
                fixed = oracle.enumerate_subspaces(N, q, k)[-1]
                counts = {}
                for b in spaces:
                    d = len(b)
                    meet = k + d - len(oracle.rref_basis(list(fixed) + list(b), q))
                    counts[d, meet] = counts.get((d, meet), 0) + 1
                for d in range(N + 1):
                    for a in range(min(k, d) + 1):
                        assert _meet_count(N, k, d, a, q) == counts.get((d, a), 0)


def _f1_per_call_mobius(u, v, h, r, n, m, q):
    """f1 with its Moebius coefficients recomputed on every call."""
    mn = min(n, m)
    if u > mn or v > mn or r > mn:
        return 0
    if h > u or v + h > m or v < u - h or r < h or r > v + h:
        return 0
    duv = u - h
    total = 0
    for w in range(v + 1):
        sign = (-1) ** ((v - w) % 2)
        mob = q ** ((v - w) * (v - w - 1) // 2)
        for a in range(max(0, w - (v - duv)), min(w, duv) + 1):
            phi = _phi(n, m, w, u - a, r, q)
            if phi == 0:
                continue
            total += sign * mob * _meet_count(v, duv, w, a, q) * phi
    return total


class TestF1TermTable:
    """f1 reads its Moebius coefficients from a bounded table keyed on
    (dim V, dim(U cap V), q); the counts must not change."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_per_call_mobius_sum(self, q):
        uncached_f1 = matrixfn._f1.__wrapped__
        for n in range(1, 7):
            for m in range(1, 7):
                ranks = range(min(n, m) + 2)
                for u in ranks:
                    for v in ranks:
                        for h in range(u + 1):
                            for r in ranks:
                                want = _f1_per_call_mobius(u, v, h, r, n, m, q)
                                assert uncached_f1(u, v, h, r, n, m, q) == want

    def test_table_is_bounded(self):
        assert matrixfn._f1_terms.cache_info().maxsize == 128


class TestRowSpaceCount:
    def test_dual_formula_small(self):
        """f0's product form equals the Moebius alternating sum
        sum_v (-1)^(u-v) q^(nv + C(u-v,2)) qbinom(u, v)."""
        for q in (2, 3):
            for n in range(1, 6):
                for m in range(1, 6):
                    for u in range(min(n, m) + 1):
                        alternating = sum(
                            (-1) ** (u - v)
                            * q ** (n * v + (u - v) * (u - v - 1) // 2)
                            * qbinom(u, v, q)
                            for v in range(u + 1)
                        )
                        assert f0(u, n, m, q) == alternating

    def test_fixed_values(self):
        assert f0(0, 3, 3, 2) == 1
        assert f0(2, 2, 2, 2) == 6

    def test_rejects_overlarge_rowspace(self):
        with pytest.raises(ValueError):
            f0(3, 2, 3, 2)


class TestMatrixCountsVsOracle:
    def test_f_functions_match_enumeration(self, brute_tables):
        tables = brute_tables(2, 2, 2)
        for u, want in tables["f0"].items():
            assert f0(u, 2, 2, 2) == want
        for (u, v, h, r), want in tables["f1"].items():
            assert f1(u, v, h, r, 2, 2, 2) == want, (u, v, h, r)
        for (r, rx, rb), want in tables["f2"].items():
            assert f2(r, rx, rb, 2, 2, 2) == want, (r, rx, rb)

    def test_f1_zero_outside_table(self, brute_tables):
        """Arguments reachable by no configuration must count zero."""
        tables = brute_tables(2, 2, 2)
        for u in range(3):
            for v in range(3):
                for h in range(3):
                    for r in range(3):
                        if (u, v, h, r) not in tables["f1"]:
                            assert f1(u, v, h, r, 2, 2, 2) == 0

    def test_f1_zero_when_rank_below_quotient(self):
        assert f1(1, 1, 1, 0, 3, 3, 2) == 0

    def test_f2_fixed_values(self):
        assert f2(1, 1, 0, 2, 2, 2) == 1
        assert f2(1, 0, 1, 2, 2, 2) == 9

    def test_output_error_swap_symmetry(self):
        """f2 is symmetric in (output rank, error rank), not in
        (input rank, error rank); the class-size-weighted swap of the
        input slot holds instead."""
        from gammacap.exactcomb import count_rank_matrices

        assert f2(1, 0, 1, 2, 2, 2) != f2(1, 1, 0, 2, 2, 2)
        for n, m, q in ((2, 2, 2), (2, 3, 2), (2, 2, 3)):
            mn = min(n, m)
            for r in range(mn + 1):
                for rx in range(mn + 1):
                    for rb in range(mn + 1):
                        assert f2(r, rx, rb, n, m, q) == f2(rb, rx, r, n, m, q)
                        lhs = count_rank_matrices(n, m, rx, q) * f2(r, rx, rb, n, m, q)
                        rhs = count_rank_matrices(n, m, rb, q) * f2(r, rb, rx, n, m, q)
                        assert lhs == rhs

    def test_negative_arguments_raise(self):
        with pytest.raises(ValueError):
            f1(1, 1, -1, 1, 2, 2, 2)
        with pytest.raises(ValueError):
            f2(1, -1, 1, 2, 2, 2)


class TestPartitionIdentities:
    def test_f2_partitions_rank_class(self):
        from gammacap.exactcomb import count_rank_matrices

        for n, m, q in ((2, 2, 2), (3, 3, 2), (2, 2, 3), (3, 4, 2)):
            mn = min(n, m)
            for rx in range(mn + 1):
                for rb in range(mn + 1):
                    total = sum(f2(r, rx, rb, n, m, q) for r in range(mn + 1))
                    assert total == count_rank_matrices(n, m, rb, q)

    def test_f0_partitions_whole_space(self):
        for n, m, q in ((2, 2, 2), (3, 3, 2), (2, 2, 3), (4, 3, 3)):
            total = sum(
                qbinom(m, u, q) * f0(u, n, m, q) for u in range(min(n, m) + 1)
            )
            assert total == q ** (n * m)
