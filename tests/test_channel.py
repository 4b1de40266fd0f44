"""Channel law, conditional entropy and error models versus the oracle."""

import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import reference
from gammacap import channel, matrixfn, oracle, solver
from gammacap.channel import (
    ChannelParams,
    RankDistribution,
    binomial_packets_model,
    conditional_entropy,
    constant_rank_model,
    empirical_model,
    h_r,
    iid_vectors_model,
    log2_exact,
    mutual_information,
    output_entropy,
    output_rank_distribution,
    parse_error_model,
    rank_class_size,
    rho_avg,
)
from gammacap.exactcomb import _falling, count_rank_matrices, qbinom, qbinom_ext
from gammacap.matrixfn import f0, f1, f2


def _params(q, n, m, spec):
    return ChannelParams(q, n, m, parse_error_model(spec, q, n, m))


def _oracle_mutual_information(law, input_rank_probs, q):
    """I(X; Y) for a rank-then-uniform input, straight from the law."""
    by_rank = {}
    for x, mat in enumerate(law.matrices):
        by_rank.setdefault(reference.rank_of(mat, q), []).append(x)
    weights = {}
    for r, p in enumerate(input_rank_probs):
        if p == 0:
            continue
        for x in by_rank[r]:
            weights[x] = Fraction(p) / len(by_rank[r])
    rows = {
        x: {y: Fraction(num, law.den) for y, num in law.rows[x].items()} for x in weights
    }
    marginal = {}
    for x, w in weights.items():
        for y, pr in rows[x].items():
            marginal[y] = marginal.get(y, Fraction(0)) + w * pr
    total = 0.0
    for x, w in weights.items():
        for y, pr in rows[x].items():
            if pr:
                total += float(w * pr) * log2_exact(pr / marginal[y])
    return total


def _rho_avg_every_rank(r, rx, params):
    """rho_avg summed over every error rank, zero-probability ones included."""
    return sum(
        params.error_dist[rb] * reference.rho_given_ranks(r, rx, rb, params)
        for rb in range(params.rank_count)
    )


def _h_r_every_rank(r, params):
    """h_r with each p(v, h) summed over every error rank, in the float
    operation order of the channel module."""
    q, n, m, mn = params.q, params.n, params.m, params.max_rank
    total = 0.0
    for v in range(mn + 1):
        for h in range(max(0, r - v), r + 1):
            if v + h > m:
                continue
            weight = (
                q ** ((v - r + h) * h)
                * qbinom_ext(m - r, v - r + h, q)
                * qbinom_ext(r, r - h, q)
            )
            if weight == 0:
                continue
            p_vh = 0
            for rb in range(h, min(mn, v + h) + 1):
                p = params.error_dist[rb]
                p = Fraction(p) if isinstance(p, (int, Fraction)) else p
                p_vh += p * f1(r, v, h, rb, n, m, q) / count_rank_matrices(n, m, rb, q)
            if p_vh == 0:
                continue
            total += float(weight * p_vh) * (
                log2_exact(f0(v, n, m, q)) - log2_exact(p_vh)
            )
    return total


def _rho_avg_exact_weights(r, rx, params):
    """rho_avg as a sum of per-rank Fraction terms P(rB) f2 / N_rB over every
    error rank (a float P(rB) converted exactly), rounded once for a float
    law."""
    total = sum(
        Fraction(params.error_dist[rb]) * reference.rho_given_ranks(r, rx, rb, params)
        for rb in range(params.rank_count)
    )
    return total if params.error_dist.is_exact else float(total)


def _h_r_exact_weights(r, params):
    """h_r with each p(v, h) a sum of per-rank Fraction terms over every
    error rank, in the float operation order of the channel module."""
    q, n, m, mn = params.q, params.n, params.m, params.max_rank
    total = 0.0
    for v in range(mn + 1):
        for h in range(max(0, r - v), r + 1):
            weight = (
                q ** ((v - r + h) * h)
                * qbinom_ext(m - r, v - r + h, q)
                * qbinom_ext(r, r - h, q)
            )
            if v + h > m or weight == 0:
                continue
            p_vh = sum(
                Fraction(params.error_dist[rb])
                * Fraction(f1(r, v, h, rb, n, m, q), count_rank_matrices(n, m, rb, q))
                for rb in range(h, min(mn, v + h) + 1)
            )
            if p_vh == 0:
                continue
            total += float(weight * p_vh) * (
                log2_exact(f0(v, n, m, q)) - log2_exact(p_vh)
            )
    return total


class TestRankDistribution:
    def test_exact_sum_enforced(self):
        with pytest.raises(ValueError):
            RankDistribution([Fraction(1, 2), Fraction(1, 3)])
        RankDistribution([Fraction(1, 2), Fraction(1, 2)])

    @pytest.mark.parametrize(
        "probs, shown",
        [
            ([Fraction(1, 2), Fraction(1, 3)], "5/6"),
            ([Fraction(1, 10**5000), Fraction(1)], "1 + 1E-5000"),
            ([Fraction(1, 3 * 10**40)] * 2, "1 - 1.00000"),
            ([Fraction(10**50, 3)], "1 + 3.33333E+49"),
        ],
        ids=["short", "5000-digits", "near-zero", "large"],
    )
    def test_exact_sum_message_is_bounded(self, probs, shown):
        """A sum of 5 001 digits was put in the message by str(), which
        raised the interpreter's 4 300-digit limit in its place; a sum past
        40 digits is shown as its distance from 1."""
        with pytest.raises(ValueError) as refused:
            RankDistribution(probs)
        assert str(refused.value) == f"exact probabilities sum to {shown}, not 1"

    def test_float_sum_tolerance(self):
        RankDistribution([0.5, 0.5 + 1e-13])
        with pytest.raises(ValueError):
            RankDistribution([0.5, 0.6])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            RankDistribution([])
        with pytest.raises(ValueError):
            RankDistribution([Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(ValueError):
            RankDistribution([True, 0])
        with pytest.raises(ValueError):
            RankDistribution(["0.5", "0.5"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        """nan < 0 and abs(nan - 1) > tol are both false, so only an
        explicit check keeps a NaN out of the law."""
        with pytest.raises(ValueError, match="entry 0 is not finite"):
            RankDistribution([bad, 1.0])

    def test_float_sum_is_added_left_to_right(self):
        """Left to right this law sums to 1 + 9.9987e-13, within 1e-12; the
        built-in sum() of CPython 3.12 and later rounds it to 1 + 1.0001e-12
        and would refuse it on those interpreters only."""
        law = [
            0.030495861676009747, 0.1846989335994773, 0.24396288079498224,
            0.02780609071053083, 0.06650804877860916, 0.24417303849309605,
            0.12137416893409349, 0.08098097701420123,
        ]
        assert abs(math.fsum(law) - 1) > 1e-12
        assert RankDistribution(law).probs == tuple(law)

    def test_nan_error_law_is_refused_up_front(self):
        with pytest.raises(ValueError, match="entry 0 is not finite"):
            empirical_model([math.nan, 1.0], 1, 1)

    def test_accessors(self):
        dist = RankDistribution([Fraction(1, 4), Fraction(3, 4)])
        assert dist.is_exact
        assert dist.max_rank == 1
        assert len(dist) == 2
        assert dist[1] == Fraction(3, 4)
        assert dist.as_floats() == (0.25, 0.75)

    def test_exactness_is_fixed_at_construction(self, monkeypatch):
        """is_exact is a stored field outside repr, equality and hash, so
        rho_avg reads it without rescanning the law."""
        exact = RankDistribution([Fraction(1, 4), Fraction(3, 4)])
        floats = RankDistribution([0.25, 0.75])
        assert exact.is_exact and not floats.is_exact
        assert repr(exact) == "RankDistribution(probs=(Fraction(1, 4), Fraction(3, 4)))"
        assert exact == floats and hash(exact) == hash(floats)
        params = ChannelParams(2, 2, 2, RankDistribution([Fraction(1, 2), 0, Fraction(1, 2)]))
        calls = []
        monkeypatch.setattr(channel, "_is_exact", lambda v: calls.append(v) or True)
        assert isinstance(rho_avg(1, 1, params), Fraction)
        assert calls == []


class TestChannelParams:
    def test_validates_shape_against_error_length(self):
        with pytest.raises(ValueError):
            ChannelParams(2, 2, 2, RankDistribution([Fraction(1), Fraction(0)]))

    def test_validates_field_order(self):
        with pytest.raises(ValueError):
            ChannelParams(6, 2, 2, constant_rank_model(0, 2, 2))


class TestTransitionLaw:
    def test_rank_class_sizes(self):
        params = _params(2, 2, 2, "constant:t=0")
        for r in range(3):
            assert rank_class_size(params, r) == count_rank_matrices(2, 2, r, 2)

    def test_rho_rows_sum_to_one(self):
        params = _params(2, 3, 2, "constant:t=0")
        for rx in range(3):
            for rb in range(3):
                total = sum(
                    reference.rho_given_ranks(r, rx, rb, params) for r in range(3)
                )
                assert total == 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: h_r(True, p), "r must be an int, got True"),
            (lambda p: h_r(4, p), "r = 4 exceeds min(n, m) = 3"),
            (lambda p: rho_avg(0, -1, p), "rX must be non-negative, got -1"),
            (lambda p: rho_avg(0, 4, p), "rX = 4 exceeds min(n, m) = 3"),
            (lambda p: rank_class_size(p, 65), "r = 65 exceeds MAX_DIMENSION = 64"),
        ],
        ids=["bool", "above-min", "negative", "rX-above-min", "above-max-dimension"],
    )
    def test_rank_argument_messages(self, call, message):
        with pytest.raises(ValueError) as refused:
            call(_params(2, 3, 3, "iid:t=1"))
        assert str(refused.value) == message

    def test_rho_avg_mixes_error_ranks(self):
        params = _params(2, 2, 2, "binomial:T=2,p=0.3")
        for rx in range(3):
            for r in range(3):
                assert rho_avg(r, rx, params) == _rho_avg_every_rank(r, rx, params)


class TestOutputRankLaw:
    def test_matches_oracle_exactly(self, channel_laws):
        params = _params(2, 2, 2, "iid:t=1")
        probs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        want = oracle.channel_output_rank_marginal(channel_laws(params), probs)
        got = output_rank_distribution(RankDistribution(probs), params)
        for r in range(3):
            assert got[r] == want[r]

    def test_is_linear_in_input(self):
        params = _params(2, 2, 2, "binomial:T=2,p=0.3")
        a = RankDistribution([Fraction(1), Fraction(0), Fraction(0)])
        b = RankDistribution([Fraction(0), Fraction(1, 4), Fraction(3, 4)])
        lam = Fraction(2, 5)
        mixed = RankDistribution(
            [lam * a[r] + (1 - lam) * b[r] for r in range(3)]
        )
        out_a = output_rank_distribution(a, params)
        out_b = output_rank_distribution(b, params)
        out_m = output_rank_distribution(mixed, params)
        for r in range(3):
            assert out_m[r] == lam * out_a[r] + (1 - lam) * out_b[r]

    @pytest.mark.parametrize(
        "law", [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [0.5, 0.3, 0.2]]
    )
    def test_zero_input_ranks_cost_nothing(self, monkeypatch, law):
        """A point-mass input needs one kernel column, k rho_avg calls, and
        skipping the other columns changes no value, exact or float."""
        params = ChannelParams(2, 3, 2, empirical_model(law, 3, 2))
        k = params.rank_count
        inputs = [
            RankDistribution([Fraction(0), Fraction(1), Fraction(0)]),
            RankDistribution([0.0, 0.25, 0.75]),
        ]
        every_column = [
            [sum(x[rx] * rho_avg(r, rx, params) for rx in range(k)) for r in range(k)]
            for x in inputs
        ]
        calls = []

        def counting(r, rx, p):
            calls.append((r, rx))
            return rho_avg(r, rx, p)

        monkeypatch.setattr(channel, "rho_avg", counting)
        output_rank_distribution(inputs[0], params)
        assert sorted(calls) == [(r, 1) for r in range(k)]
        for x, want in zip(inputs, every_column):
            got = list(output_rank_distribution(x, params).probs)
            assert [type(p) for p in got] == [type(p) for p in want]
            assert got == want

    def test_delta_input_delta_error(self):
        """A zero input under exactly-t errors outputs rank t surely."""
        params = _params(2, 2, 2, "constant:t=1")
        out = output_rank_distribution(
            RankDistribution([Fraction(1), Fraction(0), Fraction(0)]), params
        )
        assert tuple(out.probs) == (Fraction(0), Fraction(1), Fraction(0))


class TestConditionalEntropy:
    def test_h_r_matches_oracle_rows(self, channel_laws, row_entropy_bits):
        """Per-rank conditional output entropy vs direct row entropy."""
        for spec in ("constant:t=1", "iid:t=1", "iid:t=2", "binomial:T=2,p=0.3"):
            params = _params(2, 2, 2, spec)
            law = channel_laws(params)
            for r in range(3):
                want = row_entropy_bits(law, law.ranks.index(r))
                assert h_r(r, params) == pytest.approx(want, abs=1e-10), (spec, r)

    def test_output_classes_outside_input_span(self, channel_laws, row_entropy_bits):
        """Errors can move the output row space off the input row space
        entirely; dropping those classes loses entropy.  Regression pin:
        rank-1 input under an exactly-one-error model sits above 3.9 bits,
        while a summation truncated to the input span gives about 3.56."""
        params = _params(2, 2, 2, "constant:t=1")
        value = h_r(1, params)
        assert value > 3.9
        law = channel_laws(params)
        assert value == pytest.approx(row_entropy_bits(law, law.ranks.index(1)), abs=1e-10)

    def test_no_error_reduction_is_exact(self):
        for q, n, m in ((2, 2, 2), (2, 3, 3), (3, 2, 2)):
            params = _params(q, n, m, "constant:t=0")
            for r in range(min(n, m) + 1):
                assert h_r(r, params) == log2_exact(Fraction(f0(r, n, m, q)))

    def test_conditional_entropy_averages_h_r(self):
        params = _params(2, 2, 2, "iid:t=1")
        dist = RankDistribution([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        want = sum(float(dist[r]) * h_r(r, params) for r in range(3))
        assert conditional_entropy(dist, params) == pytest.approx(want, abs=1e-14)


class TestMutualInformation:
    def test_matches_oracle(self, channel_laws):
        cases = [
            ("constant:t=1", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
            ("iid:t=1", [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]),
            ("binomial:T=2,p=0.3", [Fraction(0), Fraction(1), Fraction(0)]),
        ]
        for spec, probs in cases:
            params = _params(2, 2, 2, spec)
            want = _oracle_mutual_information(channel_laws(params), probs, 2)
            got = mutual_information(RankDistribution(probs), params)
            assert got == pytest.approx(want, abs=1e-10), spec

    def test_same_bits_on_every_interpreter(self):
        """H(Y | X) adds its terms left to right from 0.0; a compensated sum,
        such as sum() from Python 3.12 on, ends 4 ulps higher here."""
        params = _params(3, 4, 5, "binomial:T=3,p=0.2")
        uniform = RankDistribution(reference.uniform_rank_distribution(4, 5))
        value = mutual_information(uniform, params)
        assert value.hex() == "0x1.75fe0fd741668p+2"

    def test_decomposition(self):
        params = _params(2, 2, 2, "iid:t=2")
        dist = RankDistribution([Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)])
        lhs = mutual_information(dist, params)
        rhs = output_entropy(dist, params) - conditional_entropy(dist, params)
        assert lhs == pytest.approx(rhs, abs=1e-14)


_STALL_CHANNEL = (2, 16, 16, "binomial:T=4,p=0.1")


class TestSupportPruning:
    """Law sums skip error ranks of probability 0; their terms are exact
    zeros, so nothing may change."""

    @pytest.mark.parametrize("shape", [(2, 5, 7), (3, 4, 4), (5, 3, 6)])
    @pytest.mark.parametrize(
        "spec", ["constant:t=2", "iid:t=2", "binomial:T=3,p=0.2", "empirical:1/4,0,0,3/4"]
    )
    def test_exact_laws_match_every_rank_sum(self, shape, spec):
        params = _params(*shape, spec)
        for r in range(params.rank_count):
            assert h_r(r, params) == _h_r_every_rank(r, params)
            for rx in range(params.rank_count):
                assert rho_avg(r, rx, params) == _rho_avg_every_rank(r, rx, params)

    def test_float_law_matches_every_rank_sum(self):
        params = ChannelParams(2, 5, 7, empirical_model([0.25, 0.0, 0.0, 0.75], 5, 7))
        for r in range(params.rank_count):
            assert h_r(r, params) == pytest.approx(_h_r_every_rank(r, params), abs=1e-12)
            for rx in range(params.rank_count):
                want = _rho_avg_every_rank(r, rx, params)
                assert rho_avg(r, rx, params) == pytest.approx(want, abs=1e-12)

    def test_float_law_beyond_float_range(self):
        """Rank classes of a 33 x 33 binary matrix pass 2^1024, so a float
        weight P(rB) / N_rB would overflow."""
        law = empirical_model([0.5] + [0.0] * 32 + [0.5], 33, 33)
        params = ChannelParams(2, 33, 33, law)
        assert rho_avg(0, 0, params) == 0.5
        assert rho_avg(33, 0, params) == 0.5

    @pytest.mark.parametrize(
        "params",
        [
            _params(2, 5, 7, "binomial:T=3,p=0.2"),
            _params(3, 4, 4, "empirical:1/4,0,0,3/4"),
            ChannelParams(2, 5, 7, empirical_model([0.1, 0.0, 0.3, 0.6], 5, 7)),
            ChannelParams(3, 6, 4, empirical_model([0.0, 1 / 3, 0.0, 0.2, 7 / 15], 6, 4)),
        ],
        ids=["exact", "exact-sparse", "float", "float-thirds"],
    )
    def test_common_denominator_is_bit_identical(self, params):
        """Numerators over one denominator give the same Fraction, and the
        same rounded float, as per-rank Fraction weights."""
        ranks = range(params.rank_count)
        for r in ranks:
            assert float.hex(h_r(r, params)) == float.hex(_h_r_exact_weights(r, params))
            for rx in ranks:
                got, want = rho_avg(r, rx, params), _rho_avg_exact_weights(r, rx, params)
                assert type(got) is type(want)
                assert got == want
                if isinstance(want, float):
                    assert float.hex(got) == float.hex(want)

    def test_float_output_entropy_beyond_float_range(self):
        """N_16 of a 16 x 64 matrix over F_256 passes 2^1024, and output_entropy
        used to divide a float output probability by it, which overflowed."""
        float_law = empirical_model([0.5, 0.5] + [0.0] * 15, 16, 64)
        float_params = ChannelParams(256, 16, 64, float_law)
        float_input = RankDistribution([0.0] * 16 + [1.0])
        exact_law = empirical_model([Fraction(1, 2)] * 2 + [Fraction(0)] * 15, 16, 64)
        exact_params = ChannelParams(256, 16, 64, exact_law)
        exact_input = RankDistribution([Fraction(0)] * 16 + [Fraction(1)])
        assert output_entropy(exact_input, exact_params) == 8192.0
        for entropy in (output_entropy, mutual_information):
            want = entropy(exact_input, exact_params)
            got = entropy(float_input, float_params)
            assert got == pytest.approx(want, rel=1e-12, abs=0), entropy.__name__

    def test_common_denominator_beyond_float_range(self):
        law = empirical_model([0.5] + [0.0] * 32 + [0.5], 33, 33)
        params = ChannelParams(2, 33, 33, law)
        for r in (0, 1, 32, 33):
            want = _rho_avg_exact_weights(r, 0, params)
            assert float.hex(rho_avg(r, 0, params)) == float.hex(want)

    def test_workspace_calls_no_zero_weight_rank(self, monkeypatch):
        params = _params(*_STALL_CHANNEL)
        error_ranks = []

        def recording(fn, rank_arg):
            def wrapper(*args):
                error_ranks.append(args[rank_arg])
                return fn(*args)

            return wrapper

        monkeypatch.setattr(channel, "f1", recording(channel.f1, 3))
        monkeypatch.setattr(channel, "f2", recording(channel.f2, 2))
        solver._workspace(params)
        assert error_ranks
        assert all(params.error_dist[rb] != 0 for rb in error_ranks)

    @pytest.mark.parametrize(
        "channel_args",
        [
            _STALL_CHANNEL,
            (3, 6, 10, "iid:t=3"),
            (5, 11, 11, "constant:t=8"),
            (2, 5, 7, "empirical:1/8,1/8,1/8,1/8,1/8,3/8"),
            (16, 9, 12, "constant:t=1"),
            (16, 16, 16, "empirical:2/22,0/22,5/22,5/22,1/22,3/22,6/22"),
        ],
        ids=lambda args: ",".join(map(str, args)),
    )
    def test_law_sums_ask_only_for_nonzero_counts(self, monkeypatch, channel_args):
        """h_r and rho_avg sum f1 and f2 over the rank-distance bands only;
        every count outside them is 0, so none may be asked for."""
        params = _params(*channel_args)
        values = []

        def recording(fn):
            def wrapper(*args):
                values.append(fn(*args))
                return values[-1]

            return wrapper

        monkeypatch.setattr(channel, "f1", recording(channel.f1))
        monkeypatch.setattr(channel, "f2", recording(channel.f2))
        for r in range(params.rank_count):
            h_r(r, params)
            for rx in range(params.rank_count):
                rho_avg(r, rx, params)
        assert values
        assert 0 not in values

    def test_f2_calls_f1_only_at_nonzero_meet_counts(self, monkeypatch):
        """Each f1 term of f2 is weighted by the number of target row spaces
        meeting row X in dimension rX - h; where that number is 0, f1 must
        not be asked (it would fill f1's cache with unused entries)."""
        calls = []
        original = matrixfn._f1

        def recording(u, v, h, r, n, m, q):
            calls.append((u, v, h, n, m, q))
            return original(u, v, h, r, n, m, q)

        monkeypatch.setattr(matrixfn, "_f1", recording)
        for q, n, m in ((2, 2, 3), (2, 5, 3), (3, 4, 4), (2, 3, 6), (3, 6, 2)):
            mn = min(n, m)
            for r in range(mn + 1):
                for rx in range(mn + 1):
                    for rb in range(mn + 1):
                        f2(r, rx, rb, n, m, q)
        assert calls
        for rx, r, h, n, m, q in calls:
            assert matrixfn._meet_count(m, rx, r, rx - h, q) != 0


# Catalogue channels with one, nine (a gap at rank 3) and five supported
# error ranks, a float law with gaps, and a law supported on every rank.
_PRUNED_CHANNELS = [
    pytest.param(_params(*args), id=",".join(map(str, args)))
    for args in (
        (7, 13, 14, "constant:t=7"),
        (9, 11, 9, "empirical:6/29,2/29,3/29,0/29,3/29,2/29,1/29,1/29,7/29,4/29"),
        _STALL_CHANNEL,
        (2, 10, 12, "iid:t=10"),
    )
] + [
    pytest.param(
        ChannelParams(3, 6, 4, empirical_model([0.0, 0.3, 0.0, 0.2, 0.5], 6, 4)),
        id="3,6,4,float",
    )
]


class TestWorkspacePruning:
    """The workspace walks only the h_r classes and kernel entries that a
    supported error rank reaches; every value stays bit-identical."""

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_bit_identical_to_unpruned_build(self, params):
        """The references walk every (v, h) class and every kernel entry,
        summing Fraction weights over every error rank."""
        ranks = range(params.rank_count)
        ws = solver._Workspace(params)
        assert [float.hex(h) for h in ws.h_vec] == [
            float.hex(_h_r_exact_weights(r, params)) for r in ranks
        ]
        kernel = [
            [float(_rho_avg_exact_weights(ry, rx, params)) for rx in ranks] for ry in ranks
        ]
        assert [[(a, float.hex(t)) for a, t in row] for row in ws.rows] == [
            [(rx, float.hex(t)) for rx, t in enumerate(row) if t] for row in kernel
        ]
        assert [[(a, float.hex(t)) for a, t in col] for col in ws.columns] == [
            [(ry, float.hex(t)) for ry, t in enumerate(col) if t] for col in zip(*kernel)
        ]

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_kernel_asks_only_for_reachable_entries(self, monkeypatch, params):
        """rho_avg(ry, rx) is asked only where a supported error rank lies in
        |ry - rx| <= rB <= ry + rx.  For an exact law it is asked for exactly
        those entries with ry <= rx, the kernel's reversibility giving the
        rest; a float law is asked for every one.  Each entry skipped is
        exactly 0 or has its transpose asked for."""
        requested = []

        def recording(ry, rx, p):
            requested.append((ry, rx))
            return rho_avg(ry, rx, p)

        monkeypatch.setattr(solver, "rho_avg", recording)
        solver._Workspace(params)
        support = [rb for rb, _ in params.support]
        ranks = range(params.rank_count)
        in_band = {
            (ry, rx) for ry, rx in itertools.product(ranks, ranks)
            if any(abs(ry - rx) <= rb <= ry + rx for rb in support)
        }
        if params.error_dist.is_exact:
            assert sorted(requested) == sorted((ry, rx) for ry, rx in in_band if ry <= rx)
        else:
            assert sorted(requested) == sorted(in_band)
        skipped = set(itertools.product(ranks, ranks)) - set(requested)
        assert all(
            rho_avg(ry, rx, params) == 0 or (rx, ry) in requested for ry, rx in skipped
        )
        if len(support) < params.rank_count:
            assert skipped - in_band


class TestClassStore:
    """h_r keeps each class numerator per mirror pair and log2 f0(v) per rank
    in the channel's store; every answer keeps its bits."""

    @staticmethod
    def _record(monkeypatch):
        calls = {"f0": [], "f1": []}

        def recording(name, fn):
            def wrapper(*args):
                calls[name].append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(channel, "f0", recording("f0", channel.f0))
        monkeypatch.setattr(channel, "f1", recording("f1", channel.f1))
        return calls

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_each_count_is_asked_once(self, monkeypatch, params):
        params = dataclasses.replace(params)
        calls = self._record(monkeypatch)
        for r in range(params.rank_count):
            h_r(r, params)
        assert calls["f1"]
        assert all(u >= v for u, v, *_ in calls["f1"])
        f1_keys = [args[:4] for args in calls["f1"]]
        assert len(f1_keys) == len(set(f1_keys))
        ranks = [args[0] for args in calls["f0"]]
        assert len(ranks) == len(set(ranks))

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_second_call_reads_the_store(self, monkeypatch, params):
        params = dataclasses.replace(params)
        first = [float.hex(h_r(r, params)) for r in range(params.rank_count)]
        calls = self._record(monkeypatch)
        assert [float.hex(h_r(r, params)) for r in range(params.rank_count)] == first
        assert calls == {"f0": [], "f1": []}

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_equal_channel_starts_empty(self, params):
        """An equal or replaced channel shares neither the store nor the
        solver workspace, and gives the same bits."""
        ranks = range(params.rank_count)
        want = [float.hex(h_r(r, params)) for r in ranks]
        result = repr(solver.maximize(params))
        assert params._numerators and params._log_f0 and params._workspace is not None
        equal = ChannelParams(params.q, params.n, params.m, params.error_dist)
        for fresh in (equal, dataclasses.replace(params)):
            assert fresh == params and hash(fresh) == hash(params)
            assert repr(fresh) == repr(params)
            assert fresh._numerators == {} and fresh._log_f0 == {}
            assert fresh._workspace is None
            assert [float.hex(h_r(r, fresh)) for r in ranks] == want
            assert repr(solver.maximize(fresh)) == result
            assert fresh._workspace is not params._workspace


# Channels beyond the oracle's budget with two, one and four supported error ranks.
_KERNEL_CHANNELS = (
    (2, 12, 12, "iid:t=1"),
    (3, 12, 14, "constant:t=2"),
    (16, 12, 12, "binomial:T=3,p=0.2"),
)


class TestExactLawAtScale:
    """Exact-law identities beyond the oracle's enumeration budget."""

    def test_partition_identity(self):
        q, n, m, _ = _STALL_CHANNEL
        params = _params(*_STALL_CHANNEL)
        ranks = range(params.rank_count)
        for rb in ranks:
            if params.error_dist[rb] == 0:
                continue
            for rx in ranks:
                total = sum(f2(r, rx, rb, n, m, q) for r in ranks)
                assert total == count_rank_matrices(n, m, rb, q)

    def test_kernel_columns_sum_to_one(self):
        params = _params(*_STALL_CHANNEL)
        ranks = range(params.rank_count)
        for rx in ranks:
            assert sum(rho_avg(r, rx, params) for r in ranks) == 1

    @pytest.mark.parametrize(
        "channel_args", _KERNEL_CHANNELS, ids=lambda args: ",".join(map(str, args))
    )
    def test_every_kernel_column_sums_to_one(self, channel_args):
        params = _params(*channel_args)
        ranks = range(params.rank_count)
        for rx in ranks:
            assert sum(rho_avg(ry, rx, params) for ry in ranks) == 1, rx

    @pytest.mark.parametrize(
        "channel_args", _KERNEL_CHANNELS, ids=lambda args: ",".join(map(str, args))
    )
    def test_kernel_is_reversible(self, channel_args):
        """P(X + B = Y) depends on rank(Y - X) only, so it is symmetric in
        X and Y, and summed over the rank classes it gives
        N_rx T(ry | rx) = N_ry T(rx | ry) for T(ry | rx) = rho_avg(ry, rx)."""
        params = _params(*channel_args)
        ranks = range(params.rank_count)
        size = [rank_class_size(params, r) for r in ranks]
        for rx in ranks:
            for ry in ranks:
                assert size[rx] * rho_avg(ry, rx, params) == size[ry] * rho_avg(
                    rx, ry, params
                ), (rx, ry)

    def test_mutual_information_matches_solver_objective(self):
        params = _params(*_STALL_CHANNEL)
        uniform = RankDistribution(reference.uniform_rank_distribution(params.n, params.m))
        assert mutual_information(uniform, params) == pytest.approx(
            solver.objective(uniform, params), abs=1e-9
        )


def _all_tuples(q, dim, t):
    """Every t-tuple of vectors from F_q^dim."""
    tuples = [()]
    vectors = [
        tuple((idx // q**j) % q for j in range(dim)) for idx in range(q**dim)
    ]
    for _ in range(t):
        tuples = [prefix + (vec,) for prefix in tuples for vec in vectors]
    return tuples


class TestIidRankLaw:
    def test_matches_enumeration(self):
        """Every t-tuple of vectors in F_q^m, tallied by the dimension it
        spans, against the iid law scaled by q^(tm); n = 3 >= t leaves
        zeros above min(t, m) for the law to get right."""
        n = 3
        for q in (2, 3):
            for m in range(1, 4):
                for t in range(n + 1):
                    if q ** (m * t) > 2**12:
                        continue
                    tally = [0] * (min(n, m) + 1)
                    for tup in _all_tuples(q, m, t):
                        tally[len(reference.rref_basis(list(tup), q))] += 1
                    law = iid_vectors_model(t, q, n, m)
                    assert [p * q ** (m * t) for p in law.probs] == tally, (q, m, t)

    def test_inclusion_exclusion_identity(self):
        """The t-tuples spanning a fixed r-space, by inclusion-exclusion
        over the subspaces they span, sum_j (-1)^(r-j) q^(C(r-j,2))
        qbinom(r, j) q^(jt), equal the falling product
        prod_{i<r} (q^t - q^i); times qbinom(m, r) that is N_r(t x m)."""
        for q in (2, 3, 4, 5):
            for t in range(7):
                for r in range(7):
                    alternating = sum(
                        (-1) ** (r - j)
                        * q ** ((r - j) * (r - j - 1) // 2 + j * t)
                        * qbinom(r, j, q)
                        for j in range(r + 1)
                    )
                    assert alternating == _falling(t, r, q), (q, t, r)

    def test_binomial_is_the_mixture_of_iid_laws(self):
        for q, n, m, big_t, p in (
            (2, 3, 3, 3, Fraction(1, 10)),
            (3, 4, 2, 4, Fraction(3, 10)),
            (5, 2, 5, 2, Fraction(1, 2)),
        ):
            want = [Fraction(0)] * (min(n, m) + 1)
            for t in range(big_t + 1):
                weight = math.comb(big_t, t) * p**t * (1 - p) ** (big_t - t)
                for r, prob in enumerate(iid_vectors_model(t, q, n, m).probs):
                    want[r] += weight * prob
            assert list(binomial_packets_model(big_t, p, q, n, m).probs) == want


class TestSpanningTuples:
    """The t-tuples spanning all of F_q^r number prod_{i<r} (q^t - q^i);
    the iid law is that count over q^(rt) at r = m."""

    def test_zero_dimensional_space(self):
        for t in range(4):
            assert _falling(t, 0, 2) == 1
            # Only the zero tuple spans {0} in F_2^2.
            assert iid_vectors_model(t, 2, 3, 2).probs[0] == Fraction(1, 4**t)

    def test_zero_above_tuple_count(self):
        assert _falling(1, 2, 2) == 0
        assert iid_vectors_model(1, 2, 2, 2).probs[2] == 0


class TestErrorModels:
    def test_constant(self):
        dist = constant_rank_model(1, 2, 3)
        assert tuple(dist.probs) == (Fraction(0), Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            constant_rank_model(3, 2, 3)

    def test_iid_vectors_exact_values(self):
        dist = iid_vectors_model(1, 2, 2, 2)
        assert tuple(dist.probs) == (Fraction(1, 4), Fraction(3, 4), Fraction(0))
        dist = iid_vectors_model(2, 2, 2, 2)
        assert tuple(dist.probs) == (
            Fraction(1, 16),
            Fraction(9, 16),
            Fraction(6, 16),
        )

    def test_iid_vectors_sum_to_one_without_renormalizing(self):
        for q, n, m, t in ((2, 3, 3, 3), (3, 2, 4, 2), (2, 4, 2, 4)):
            dist = iid_vectors_model(t, q, n, m)
            assert sum(dist.probs) == 1

    def test_iid_rejects_more_vectors_than_rows(self):
        with pytest.raises(ValueError):
            iid_vectors_model(3, 2, 2, 3)

    def test_binomial_mixture_value(self):
        dist = binomial_packets_model(2, Fraction(3, 10), 2, 2, 2)
        assert dist[0] == Fraction(961, 1600)
        assert dist[1] == Fraction(117, 320)
        assert dist[2] == Fraction(27, 800)

    def test_binomial_rejections(self):
        with pytest.raises(ValueError):
            binomial_packets_model(3, Fraction(1, 2), 2, 2, 3)
        with pytest.raises(ValueError):
            binomial_packets_model(2, Fraction(11, 10), 2, 2, 2)
        with pytest.raises(ValueError):
            binomial_packets_model(2, -0.1, 2, 2, 2)

    def test_empirical_pads_and_validates(self):
        dist = empirical_model([Fraction(1)], 3, 3)
        assert tuple(dist.probs) == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        with pytest.raises(ValueError):
            empirical_model([Fraction(1, 2)] * 5, 2, 2)
        with pytest.raises(ValueError):
            empirical_model([Fraction(1, 2), Fraction(1, 3)], 2, 2)

    def test_uniform_rank_distribution(self):
        dist = RankDistribution(reference.uniform_rank_distribution(2, 3))
        assert tuple(dist.probs) == (Fraction(1, 3),) * 3


class TestErrorModelGrammar:
    def test_kinds_parse_to_model_builders(self):
        assert parse_error_model("constant:t=2", 2, 3, 3) == constant_rank_model(
            2, 3, 3
        )
        assert parse_error_model("iid:t=2", 2, 2, 2) == iid_vectors_model(2, 2, 2, 2)
        assert parse_error_model(
            "binomial:T=2,p=0.3", 2, 2, 2
        ) == binomial_packets_model(2, Fraction(3, 10), 2, 2, 2)
        assert parse_error_model("empirical:0.5,0.25,0.25", 2, 2, 2) == empirical_model(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 2, 2
        )

    def test_decimals_parse_exactly(self):
        dist = parse_error_model("binomial:T=1,p=0.1", 2, 2, 2)
        assert dist.is_exact
        mixture_zero = Fraction(9, 10) + Fraction(1, 10) * Fraction(1, 4)
        assert dist[0] == mixture_zero

    def test_rejections(self):
        bad = [
            "wibble:t=1",
            "constant",
            "constant:t=1,t=2",
            "constant:x=1",
            "constant:t=one",
            "iid:t=-1",
            "iid:t=5",
            "binomial:T=2",
            "binomial:p=0.5",
            "binomial:T=2,p=1.5",
            "empirical:0.5,0.6",
            "empirical:",
            "empirical:0.5,0.3,0.1,0.2",
            "empirical:1/0",
        ]
        for spec in bad:
            with pytest.raises(ValueError):
                parse_error_model(spec, 2, 2, 2)


class TestLawDigest:
    """Every exact law that the four builders and parse_error_model give on
    a grid of fields and shapes, each entry with its type, and qbinom_ext on
    and around its range, pinned as one SHA-256: a builder that reaches its
    law another way must give the same entries, not only equal ones."""

    FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 256)
    PACKET_PROBABILITIES = (0, Fraction(1, 10), Fraction(1, 2), 1)
    DIGEST = "47ab5899f1c78319967f20593057649d80a87fa8745506ffbf9fc51e76bbe1f6"

    @classmethod
    def lines(cls):
        def entries(law):
            return " ".join(f"{type(p).__name__}:{p}" for p in law.probs)

        out = []
        for q in cls.FIELDS:
            for n, m in itertools.product(range(7), repeat=2):
                ranks = range(min(n, m) + 1)
                built = [(f"constant {r}", constant_rank_model(r, n, m)) for r in ranks]
                built += [(f"iid {t}", iid_vectors_model(t, q, n, m)) for t in range(n + 1)]
                built += [
                    (f"binomial {t} {p}", binomial_packets_model(t, p, q, n, m))
                    for t in range(n + 1)
                    for p in cls.PACKET_PROBABILITIES
                ]
                specs = [f"constant:t={r}" for r in ranks]
                specs += [f"iid:t={t}" for t in range(n + 1)]
                specs += [f"binomial:T={t},p=0.1" for t in range(n + 1)]
                built += [(spec, parse_error_model(spec, q, n, m)) for spec in specs]
                out += [f"q={q} n={n} m={m} {name}: {entries(law)}" for name, law in built]
            out += [
                f"qbinom_ext({a}, {d}, {q}) = {qbinom_ext(a, d, q)!r}"
                for a, d in itertools.product(range(-1, 13), repeat=2)
            ]
        return out

    def test_laws_digest(self):
        text = "\n".join(self.lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
