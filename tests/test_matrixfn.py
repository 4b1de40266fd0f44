"""Matrix-counting functions versus exhaustive enumeration.

The subspace count with prescribed meets (_l_count), the subspace-pair
count c_prime and the three matrix counts (f0, f1, f2) are all compared
against the enumeration oracle on small fields, where every closed form can
be checked case by case; c_prime is also pinned at ambient dimensions 6 to
8, beyond the oracle's reach.
"""

import dataclasses
import hashlib
import itertools
import random
import types

import pytest

import reference
from gammacap import matrixfn, oracle, solver
from gammacap.channel import ChannelParams, parse_error_model
from gammacap.exactcomb import _falling, count_rank_matrices, qbinom, qbinom_ext
from gammacap.matrixfn import _l_count, _meet_count, c_prime, f0, f1, f2


def _phi(n, m, w, s, r, q):
    """Rank-r n x m matrices with a fixed rank-s image in the quotient of
    F_q^m by a w-space, in closed form: q^(s(w - (r - s))) [w, r - s]_q
    prod_{s <= i < r} (q^n - q^i), 0 outside r - s <= w <= m - s."""
    if s < 0 or r < s or r > s + w or s > m - w:
        return 0
    return q ** (s * (w - (r - s))) * qbinom_ext(w, r - s, q) * _falling(n, r - s, q, s)


def _overlapping_pair(dU, dV, dUV, m):
    """Bases of (U, V) in F_q^m with dim(U cap V) = dUV, coordinate-aligned."""
    assert dUV <= min(dU, dV) and dU + dV - dUV <= m
    u = tuple(tuple(1 if j == c else 0 for j in range(m)) for c in range(dU))
    v = tuple(
        tuple(1 if j == c else 0 for j in range(m))
        for c in range(dU - dUV, dU - dUV + dV)
    )
    return u, v


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
    """_l_count against enumerated meet censuses."""

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
            census = reference.subspace_counts(m, q, u, v)
            for dW in range(m + 1):
                for dUW in range(dW + 1):
                    for dVW in range(dW + 1):
                        for dUVW in range(min(dUW, dVW) + 1):
                            got = _l_count(m, dU, dV, dW, dUV, dUW, dVW, dUVW, q)
                            want = census.get((dW, dUW, dVW, dUVW), 0)
                            assert got == want, (q, dU, dV, dUV, m, dW, dUW, dVW, dUVW)

    def test_l_avoiding_line(self):
        """One line of F_2^2 avoids two fixed distinct lines: the diagonal."""
        assert _l_count(2, 1, 1, 1, 0, 0, 0, 0, 2) == 1

    def test_l_partition_identity(self):
        """Summing over all meet profiles counts every dW-subspace once."""
        for q, dU, dV, dUV, m in ((2, 2, 1, 0, 4), (3, 1, 1, 1, 3)):
            for dW in range(m + 1):
                total = sum(
                    _l_count(m, dU, dV, dW, dUV, dUW, dVW, dUVW, q)
                    for dUW in range(dW + 1)
                    for dVW in range(dW + 1)
                    for dUVW in range(min(dUW, dVW) + 1)
                )
                assert total == qbinom(m, dW, q)


def _sampled_profiles(q, m, picks, rng):
    """The first ``picks`` realizable profiles of a seeded shuffle of every
    profile whose U + V fits in F_q^m."""
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
                                profiles.append((dU, dV, dW, dUV, dUW, dVW, dUVW))
    rng.shuffle(profiles)
    found = [d1 for d1 in profiles if oracle.realize_configuration(d1, m, q)]
    assert len(found) >= picks
    return [(d1, m, q) for d1 in found[:picks]]


# c_prime at ambient dimensions 6 to 8, recorded from the earlier
# implementation that summed a ten-entry profile recursion over seven
# nested loops: (profile, m, q, the triple with the largest count, that
# count, the sum over every triple).
C_PRIME_PINS = [
    ((4, 5, 4, 2, 2, 2, 1), 8, 2, (4, 3, 0), 160, 438),
    ((4, 4, 4, 2, 2, 2, 1), 7, 3, (3, 3, 0), 891, 1153),
    ((3, 4, 3, 1, 1, 1, 0), 6, 4, (3, 3, 0), 48, 114),
    ((3, 4, 4, 1, 2, 2, 1), 8, 3, (3, 3, 0), 729, 1454),
    ((4, 5, 4, 3, 2, 3, 2), 7, 2, (3, 3, 0), 704, 1803),
    ((4, 4, 2, 2, 1, 0, 0), 7, 4, (4, 2, 0), 1, 2),
    ((4, 5, 3, 2, 1, 1, 1), 8, 2, (4, 3, 0), 16, 34),
    ((3, 4, 4, 0, 1, 1, 0), 8, 3, (3, 3, 0), 54, 92),
    ((4, 5, 3, 3, 2, 2, 1), 6, 2, (4, 2, 0), 88, 276),
    ((3, 4, 4, 1, 2, 2, 0), 6, 3, (3, 3, 0), 648, 1382),
    ((1, 5, 3, 0, 0, 2, 0), 6, 4, (3, 1, 0), 5712, 9351),
    ((3, 5, 3, 2, 2, 2, 1), 7, 3, (3, 2, 0), 1431, 3702),
    ((4, 5, 4, 2, 3, 2, 2), 8, 4, (3, 3, 0), 25600, 55851),
    ((3, 4, 3, 1, 0, 1, 0), 6, 2, (4, 2, 0), 4, 13),
]


class TestPairCountAggregates:
    """c_prime against enumerated (V', W') pair censuses and pinned values."""

    def test_c_prime_two_line_cases(self):
        """With U = V = W = F_2^2: distinct line pairs span, equal ones don't."""
        assert c_prime(2, 2, 2, 2, 2, 2, 2, 1, 1, 0, 2, 2) == 6
        assert c_prime(2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2) == 0

    def test_c_prime_matches_enumerated_marginals(self):
        """Every realizable profile at m = 2, q = 2, two more, and seeded
        samples at q = 2, m = 3 and q = 3, m = 2, on every (dV', dW', dV'W')
        up to m + 1, zero marginals included.

        The m = 2 grid holds two profiles that defeat the seven-term
        alternating dimension estimate as a feasibility gate: three distinct
        lines (1, 1, 1, 0, 0, 0, 0), where the estimate exceeds the ambient
        dimension yet (V', W') = (V, W) is a pair, and (1, 2, 2, 1, 1, 2, 1),
        where passing to subspaces raises the estimate yet four line pairs
        exist."""
        cases = [(d1, 2, 2) for d1 in _realizable_profiles(2)]
        cases += [((1, 2, 1, 1, 0, 1, 0), 3, 2), ((1, 1, 1, 1, 1, 1, 1), 2, 3)]
        rng = random.Random(20260818)
        for q, m, picks in ((2, 3, 4), (3, 2, 3)):
            cases += _sampled_profiles(q, m, picks, rng)
        assert ((1, 1, 1, 0, 0, 0, 0), 2, 2) in cases
        assert ((1, 2, 2, 1, 1, 2, 1), 2, 2) in cases
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

    @pytest.mark.parametrize("d1, m, q, top, top_count, total", C_PRIME_PINS)
    def test_c_prime_pinned_larger_ambients(self, d1, m, q, top, top_count, total):
        counts = {
            (a, b, c): c_prime(*d1, a, b, c, m, q)
            for a in range(d1[1] + 1)
            for b in range(d1[2] + 1)
            for c in range(min(a, b) + 1)
        }
        assert counts[top] == top_count == max(counts.values())
        assert sum(counts.values()) == total

    def test_unrealizable_profile_counts_zero(self):
        """Profiles violating the span condition admit no pairs at all.

        For (0, 2, 1, 0, 0, 0, 0), a line W off a plane V with U = 0, the
        sum over V' alone gives c_prime(..., 1, 0, 0) = 3, so c_prime must
        check realizability at entry."""
        for d1 in ((2, 1, 1, 1, 1, 1, 1), (0, 2, 1, 0, 0, 0, 0)):
            assert oracle.realize_configuration(d1, 3, 2) is None
            for coarse in itertools.product(range(4), repeat=3):
                assert c_prime(*d1, *coarse, 3, 2) == 0, (d1, coarse)


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
                    meet = k + d - len(reference.rref_basis(list(fixed) + list(b), q))
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
    """f1 reads its Moebius coefficients from a table keyed on
    (dim V, dim(U cap V), q); the counts must not change."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_per_call_mobius_sum(self, q):
        """Read through the public f1, whose guards answer the ranks up to
        min(n, m) + 1 and the keys outside its band; _f1 checks none."""
        for n in range(1, 7):
            for m in range(1, 7):
                ranks = range(min(n, m) + 2)
                for u in ranks:
                    for v in ranks:
                        for h in range(u + 1):
                            for r in ranks:
                                want = _f1_per_call_mobius(u, v, h, r, n, m, q)
                                assert matrixfn.f1(u, v, h, r, n, m, q) == want

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_table_matches_meet_counts(self, q):
        """Each coefficient is (-1)^(v-w) q^C(v-w,2) _meet_count(v, duv, w, a),
        for every v <= 16 and duv <= v, at the benchmark's fields."""
        for v in range(17):
            for duv in range(v + 1):
                want = tuple(
                    tuple(
                        (w, (-1) ** (v - w) * q ** ((v - w) * (v - w - 1) // 2)
                         * _meet_count(v, duv, w, a, q))
                        for w in range(a, a + v - duv + 1)
                    )
                    for a in range(duv + 1)
                )
                assert matrixfn._f1_terms.__wrapped__(v, duv, q) == want, (v, duv)

    def test_workspace_misses_once_per_key(self):
        """The workspace asks _f1 only for dim U >= dim V, so a key is
        (v, dim(U cap V)) with v = min(dim U, dim V), and U + V fits in
        F_q^m: 2v - dim(U cap V) <= m.  A 17-rank workspace with a
        full-support error law reads all 81 such keys with v <= 16, and the
        workspace of a second, equal channel misses none of them."""
        params = ChannelParams(2, 16, 16, parse_error_model("iid:t=16", 2, 16, 16))
        keys = [(v, duv) for v in range(17) for duv in range(v + 1) if 2 * v - duv <= 16]
        assert len(keys) == 81
        for cached in (matrixfn._f1_terms, matrixfn._f1):
            cached.cache_clear()
        solver._workspace(params)
        info = matrixfn._f1_terms.cache_info()
        assert info.misses == info.currsize == len(keys)
        matrixfn._f1.cache_clear()
        solver._workspace(dataclasses.replace(params))
        assert matrixfn._f1_terms.cache_info().misses == info.misses


def _f1_unpruned(u, v, h, r, n, m, q):
    """f1 as the full Moebius sum, guarded only by the dimensions of U, V."""
    if max(u, v, r) > min(n, m) or h > u or v + h > m or v < u - h:
        return 0
    duv = u - h
    return sum(
        (-1) ** (v - w) * q ** ((v - w) * (v - w - 1) // 2)
        * _meet_count(v, duv, w, a, q) * _phi(n, m, w, u - a, r, q)
        for w in range(v + 1)
        for a in range(max(0, w - (v - duv)), min(w, duv) + 1)
    )


class TestF1Mirror:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_f1_mirror_identity(self, q):
        """f0(u) f1(u, v, h; r) = f0(v) f1(v, u, v - u + h; r): both sides
        count the pairs (M, Y) with row M = U, row Y = V and rank(Y - M) = r.
        h_r credits a mirror class by it; here each side is its own sum."""
        nonzero = 0
        for n in range(1, 8):
            for m in range(1, 8):
                ranks = range(min(n, m) + 1)
                for u, v, r in itertools.product(ranks, repeat=3):
                    for h in range(max(0, u - v), u + 1):
                        lhs = f0(u, n, m, q) * _f1_unpruned(u, v, h, r, n, m, q)
                        rhs = f0(v, n, m, q) * _f1_unpruned(v, u, v - u + h, r, n, m, q)
                        assert lhs == rhs, (u, v, h, r, n, m)
                        nonzero += lhs != 0
        assert nonzero


class TestF1AboveDiagonal:
    """The public f1 and f2 on the keys with dim U < dim V and rX < r, which
    the capacity path never asks for: one Moebius sum over the subspaces of
    V gives them, pinned by value."""

    DIGEST = "33de13380e505138fa2a369e3f65e86b771e39b28812076319b4f6527e141170"

    def test_values_digest(self):
        """f1 for every u < v, h and r, then f2 for every rx < r and rb, at
        three shapes, as one SHA-256 of the lines "{key}:{value}\n"."""
        lines = []
        for q, n, m in ((3, 10, 12), (16, 8, 8), (2, 16, 24)):
            ranks = range(min(n, m) + 1)
            for u, v in itertools.combinations(ranks, 2):
                for h, r in itertools.product(range(u + 1), ranks):
                    lines.append(f"{q},{n},{m},{u},{v},{h},{r}:{f1(u, v, h, r, n, m, q)}\n")
            for r in ranks:
                for rx, rb in itertools.product(range(r), ranks):
                    lines.append(f"f2 {q},{n},{m},{r},{rx},{rb}:{f2(r, rx, rb, n, m, q)}\n")
        assert len(lines) == 20613
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == self.DIGEST

    @pytest.mark.parametrize("u,v,h,r", [
        (2, 40, 2, 40), (5, 60, 3, 61), (17, 47, 9, 50), (0, 64, 0, 64), (31, 33, 2, 20),
    ])
    def test_mirror_identity_at_the_largest_shape(self, u, v, h, r):
        """f0(u) f1(u, v, h; r) = f0(v) f1(v, u, v - u + h; r) != 0 at
        (2, 64, 64), where each side is its own Moebius sum."""
        n = m = 64
        lhs = f0(u, n, m, 2) * f1(u, v, h, r, n, m, 2)
        assert lhs == f0(v, n, m, 2) * f1(v, u, v - u + h, r, n, m, 2) != 0


class TestSupportBands:
    """rank(X + B) is a metric, so f2 vanishes unless |r - rX| <= rB <= r + rX;
    f1 vanishes unless max(h, v + h - u) <= r <= v + h, since row B lies in
    U + V, U <= V + row B and V <= U + row B.  The unpruned sums must be 0
    outside the bands and equal the pruned f1, f2 inside them."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_f1_band(self, q):
        outside = 0
        for n in range(1, 8):
            for m in range(1, 8):
                ranks = range(min(n, m) + 1)
                for u, v, r in itertools.product(ranks, repeat=3):
                    for h in range(u + 1):
                        want = _f1_unpruned(u, v, h, r, n, m, q)
                        if not max(h, v + h - u) <= r <= v + h:
                            assert want == 0, (u, v, h, r, n, m)
                            outside += 1
                        assert f1(u, v, h, r, n, m, q) == want
        assert outside

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_f2_band(self, q):
        outside = 0
        for n in range(1, 8):
            for m in range(1, 8):
                ranks = range(min(n, m) + 1)
                for r, rx, rb in itertools.product(ranks, repeat=3):
                    want = sum(
                        _meet_count(m, rx, r, hp, q)
                        * _f1_unpruned(rx, r, rx - hp, rb, n, m, q)
                        for hp in range(max(0, r + rx - m), min(r, rx) + 1)
                    )
                    if not abs(r - rx) <= rb <= r + rx:
                        assert want == 0, (r, rx, rb, n, m)
                        outside += 1
                    assert f2(r, rx, rb, n, m, q) == want
        assert outside


class TestPhiRows:
    """f1 reads its phi counts from one block per (n, m, r, q): row s of the
    block, for s = 0..r, is indexed by w = 0..m - s."""

    @pytest.mark.parametrize("q", [2, 3, 16])
    @pytest.mark.parametrize("n, m", [(3, 6), (6, 3), (5, 5)])
    def test_rows_match_closed_form(self, q, n, m):
        edges = 0
        for r in range(min(n, m) + 1):
            block = matrixfn._phi_block.__wrapped__(n, m, r, q)
            assert len(block) == r + 1
            for s, row in enumerate(block):
                assert row == tuple(_phi(n, m, w, s, r, q) for w in range(m - s + 1))
                # The last entry is the edge w = m - s.
                edges += row[-1] != 0
        assert edges

    def test_block_table_is_bounded_and_holds_a_full_channel(self):
        """A (2,64,64) channel's f1 sums read the blocks r = 0..64, 65 of
        them holding 2 145 rows; all fit at once, so a second pass reads
        every block again without a miss."""
        table = matrixfn._phi_block
        assert table.cache_info().maxsize is not None
        keys = [(64, 64, r, 2) for r in range(65)]
        table.cache_clear()
        try:
            assert sum(len(table(*key)) for key in keys) == 2145
            for key in keys:
                table(*key)
            info = table.cache_info()
            assert info.misses == info.currsize == len(keys)
        finally:
            table.cache_clear()


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
    def test_f_functions_match_enumeration(self):
        tables = oracle.brute_f_functions(2, 2, 2)
        for u, want in tables["f0"].items():
            assert f0(u, 2, 2, 2) == want
        for (u, v, h, r), want in tables["f1"].items():
            assert f1(u, v, h, r, 2, 2, 2) == want, (u, v, h, r)
        for (r, rx, rb), want in tables["f2"].items():
            assert f2(r, rx, rb, 2, 2, 2) == want, (r, rx, rb)

    def test_f1_zero_outside_table(self):
        """Arguments reachable by no configuration must count zero."""
        tables = oracle.brute_f_functions(2, 2, 2)
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


class TestDelsarteIntersectionNumbers:
    """f2(r, rX, rB) counts the rank-rB matrices B with rank(X + B) = r for
    one X of rank rX: the intersection number of the bilinear forms scheme,
    N_rB times reference.rho_given_ranks, which reads Delsarte's eigenvalues
    and no count of matrixfn.  Every field of the capacity benchmark at
    n, m <= 5, and four shapes past the oracle with e > d or d = 8."""

    SHAPES = [
        (q, n, m)
        for q in (2, 3, 4, 5, 7, 8, 9, 16)
        for n, m in itertools.product(range(1, 6), repeat=2)
    ] + [(16, 3, 7), (16, 7, 3), (2, 8, 8), (3, 6, 9)]

    def test_f2_is_the_intersection_number(self):
        cases = 0
        for q, n, m in self.SHAPES:
            shape = types.SimpleNamespace(q=q, n=n, m=m)
            for r, rx, rb in itertools.product(range(min(n, m) + 1), repeat=3):
                count = count_rank_matrices(n, m, rb, q)
                want = count * reference.rho_given_ranks(r, rx, rb, shape)
                assert f2(r, rx, rb, n, m, q) == want, (q, n, m, r, rx, rb)
                cases += 1
        assert cases == 10576


class TestPartitionIdentities:
    def test_f2_partitions_rank_class(self):
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
