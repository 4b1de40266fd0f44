"""Exact combinatorics layer: Gaussian binomials and rank-class counts.

Every closed form here is checked against direct enumeration over small
fields, where enumeration is feasible, and against classical identities
otherwise.
"""

import enum
import hashlib
from fractions import Fraction

import pytest

import reference
from gammacap import channel, exactcomb, matrixfn, oracle
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

    def test_agrees_with_a_sieve_below_2_to_the_15(self):
        """q is a prime power iff dividing out its least prime factor
        leaves 1; the sieve of least prime factors is the reference."""
        size = 1 << 15
        least = list(range(size))
        for p in range(2, 182):
            if least[p] == p:
                for k in range(p * p, size, p):
                    if least[k] == k:
                        least[k] = p
        decide = is_prime_power.__wrapped__
        for q in range(size):
            want = q >= 2
            if want:
                p, rest = least[q], q
                while rest % p == 0:
                    rest //= p
                want = rest == 1
            assert decide(q) == want, q

    @pytest.mark.parametrize(
        "q, want",
        [
            (2**61 - 1, True),
            ((2**31 - 1) ** 2, True),
            (2**100, True),
            ((2**61 - 1) * (2**31 - 1), False),
        ],
        ids=["mersenne-61", "square-of-mersenne-31", "2^100", "two-mersenne-primes"],
    )
    def test_large_field_orders_answer_at_once(self, q, want):
        """Trial division up to sqrt(q) would run for hours on these."""
        assert is_prime_power.__wrapped__(q) is want

    @pytest.mark.parametrize(
        "q", [2**127 - 1, (2**89 - 1) ** 2], ids=["mersenne-127", "square-of-mersenne-89"]
    )
    def test_refuses_a_prime_root_it_cannot_certify(self, q):
        """Miller-Rabin on the bases is exact only below about 3.3e24; a prime
        root above that is refused at once rather than trial-divided, which
        would not end."""
        bound = "exact only below 3317044064679887385961981"
        with pytest.raises(ValueError, match=f"cannot certify .* {bound}"):
            is_prime_power.__wrapped__(q)
        with pytest.raises(ValueError, match="cannot certify"):
            validate_field_order(q)


class TestEntryChecks:
    """f1 and f2 check their arguments on every call; the checks take a fast
    path for plain in-range ints and word their errors as before."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "{} must be an int, got True"),
            (3.0, "{} must be an int, got 3.0"),
            ("3", "{} must be an int, got '3'"),
            (-1, "{} must be non-negative, got -1"),
            (65, "{} = 65 exceeds MAX_DIMENSION = 64"),
        ],
    )
    def test_error_messages(self, bad, message):
        """A bad value in any dimension of f1 or f2 fails the fast path and
        raises the message of the full checks."""
        for fn, good, names in (
            (matrixfn.f1, [1, 1, 0, 1, 3, 3, 2], ("u", "v", "h", "r", "n", "m")),
            (matrixfn.f2, [1, 1, 0, 3, 3, 2], ("r", "rX", "rB", "n", "m")),
        ):
            for i, name in enumerate(names):
                args = list(good)
                args[i] = bad
                with pytest.raises(ValueError) as err:
                    fn(*args)
                assert str(err.value) == message.format(name), (fn.__name__, name)

    @pytest.mark.parametrize(
        "q, message",
        [
            (6, "field order must be a prime power >= 2, got 6"),
            (1, "field order must be a prime power >= 2, got 1"),
            (True, "field order must be an int, got True"),
            (4.0, "field order must be an int, got 4.0"),
        ],
    )
    def test_bad_field_order_keeps_its_message(self, q, message):
        for call in (
            lambda: matrixfn.f1(1, 1, 0, 1, 3, 3, q),
            lambda: matrixfn.f2(1, 1, 0, 3, 3, q),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_first_bad_argument_is_reported(self):
        with pytest.raises(ValueError, match="^h must be non-negative, got -2$"):
            matrixfn.f1(1, 1, -2, 99, 3, 3, 2)

    def test_int_subclasses_and_raised_bound_still_pass(self, monkeypatch):
        class Dim(enum.IntEnum):
            THREE = 3

        assert matrixfn.f2(1, 1, 0, Dim.THREE, 3, 2) == matrixfn.f2(1, 1, 0, 3, 3, 2)
        monkeypatch.setattr(exactcomb, "MAX_DIMENSION", 70)
        assert count_rank_matrices(65, 1, 1, 2) == 2**65 - 1

    def test_field_order_check_is_memoized(self):
        is_prime_power.cache_clear()
        for _ in range(3):
            matrixfn.f1(1, 1, 0, 1, 2, 2, 4)
        info = is_prime_power.cache_info()
        assert info.misses == 1 and info.hits >= 2
        with pytest.raises(ValueError, match="prime power >= 2, got 6"):
            matrixfn.f1(1, 1, 0, 1, 2, 2, 6)


class TestArgumentCheckDigest:
    """Every public entry that checks its arguments, called with each bad
    value in each checked position and under each field order.  The lines
    (entry, field order, position, value, then the answer or the exception
    type and message) are pinned as one SHA-256: a change to a message, to
    the name a message gives, or to the order of the checks moves it."""

    BAD = (True, -1, 65, 3.0, "3", None, 5)
    FIELDS = (2, 6, True, 4.0, None)
    DIGEST = "ac850fb07ad72f40ea8c6b1f98706f6da3cb48425c4e44ff9a06562732873f8d"

    @staticmethod
    def _entries():
        """(name, function, good arguments, checked positions, index of q)."""
        law = channel.RankDistribution([Fraction(1), Fraction(0), Fraction(0)])
        half = Fraction(1, 2)
        return [
            ("qbinom", qbinom, (3, 1, 2), range(2), 2),
            ("count_rank_matrices", count_rank_matrices, (3, 3, 1, 2), range(3), 3),
            ("f0", matrixfn.f0, (1, 3, 3, 2), range(3), 3),
            ("f1", matrixfn.f1, (1, 1, 0, 1, 3, 3, 2), range(6), 6),
            ("f2", matrixfn.f2, (1, 1, 0, 3, 3, 2), range(5), 5),
            ("c_prime", matrixfn.c_prime, (1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 2, 2), range(11), 11),
            ("ChannelParams", channel.ChannelParams, (2, 2, 2, law), (1, 2), 0),
            ("constant_rank_model", channel.constant_rank_model, (1, 3, 3), range(3), None),
            ("iid_vectors_model", channel.iid_vectors_model, (1, 2, 3, 3), (0, 2, 3), 1),
            (
                "binomial_packets_model", channel.binomial_packets_model,
                (1, half, 2, 3, 3), (0, 3, 4), 2,
            ),
            ("empirical_model", channel.empirical_model, ([Fraction(1)], 3, 3), (1, 2), None),
        ]

    @classmethod
    def lines(cls):
        out = []
        for name, fn, good, positions, q_at in cls._entries():
            for q in cls.FIELDS if q_at is not None else (None,):
                base = list(good)
                if q_at is not None:
                    base[q_at] = q
                for i, value in [(None, None)] + [(i, v) for i in positions for v in cls.BAD]:
                    args = list(base)
                    if i is not None:
                        args[i] = value
                    try:
                        outcome = repr(fn(*args))
                    except Exception as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                    out.append(f"{name} q={q!r} at={i} value={value!r}: {outcome}")
        return out

    def test_messages_digest(self):
        text = "\n".join(self.lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


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

    @pytest.mark.parametrize("q", [2, 5, 256])
    def test_recurrence_matches_product_form_up_to_max_dimension(self, q):
        """qbinom_ext fills its cache by the q-Pascal rule; the reference
        divides the product form prod_{i<d} (q^(m-i) - 1)/(q^(i+1) - 1)."""
        for m in range(exactcomb.MAX_DIMENSION + 1):
            for d in range(m + 1):
                assert qbinom_ext(m, d, q) == reference._gauss(m, d, q), (m, d)

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
                r = reference.rank_of(mat, q)
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
