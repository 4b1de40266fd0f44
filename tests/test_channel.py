"""Channel law, conditional entropy and error models versus the oracle."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
from fractions import Fraction

import pytest

import reference
from gammacap import channel, cli, matrixfn, oracle, solver
from gammacap.channel import (
    ChannelParams,
    RankDistribution,
    binomial_packets_model,
    constant_rank_model,
    empirical_model,
    h_r,
    iid_vectors_model,
    output_rank_distribution,
    parse_error_model,
    rank_class_size,
    rho_avg,
)
from gammacap.exactcomb import (
    MAX_DIMENSION, _check_args, _falling, count_rank_matrices, qbinom, qbinom_ext,
)
from gammacap.matrixfn import f0, f1, f2
from reference import benchmark_catalogue, log2_exact


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
        x: {y: Fraction(num, law.den) for y, num in law.rows[law.class_of[x]].items()}
        for x in weights
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


def _kernel(params):
    """rho_avg's exact kernel as Fractions, T[ry][rx] = T(ry | rx)."""
    columns = [[Fraction(num, den) for num in nums] for nums, den in rho_avg(params)]
    return [list(row) for row in zip(*columns)]


def _rho_avg_exact_weights(r, rx, params):
    """rho_avg as a sum of per-rank Fraction terms P(rB) f2 / N_rB over every
    error rank (a float P(rB) converted exactly)."""
    return sum(
        Fraction(params.error_dist[rb]) * reference.rho_given_ranks(r, rx, rb, params)
        for rb in range(params.rank_count)
    )


def _h_r_exact_weights(r, params):
    """Entry r of h_r, with each p(v, h) a sum of per-rank Fraction terms over
    every error rank, in the float operation order of the channel module."""
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

    def test_exactness_is_fixed_at_construction(self):
        """is_exact is a stored field outside repr, equality and hash, and
        output_rank_distribution, its one reader, follows the stored flag
        without rescanning the law: flipped after construction, it turns
        the output float for an exact law and exact for a float one."""
        exact = RankDistribution([Fraction(1, 4), Fraction(3, 4)])
        floats = RankDistribution([0.25, 0.75])
        assert exact.is_exact and not floats.is_exact
        assert repr(exact) == "RankDistribution(probs=(Fraction(1, 4), Fraction(3, 4)))"
        assert exact == floats and hash(exact) == hash(floats)
        inputs = RankDistribution([Fraction(1, 2), Fraction(1, 2), 0])
        for law in ([Fraction(1, 2), 0, Fraction(1, 2)], [0.5, 0.0, 0.5]):
            params = ChannelParams(2, 2, 2, RankDistribution(law))
            stored = params.error_dist.is_exact
            assert output_rank_distribution(inputs, params).is_exact is stored
            object.__setattr__(params.error_dist, "is_exact", not stored)
            assert output_rank_distribution(inputs, params).is_exact is not stored


class TestChannelParams:
    def test_validates_shape_against_error_length(self):
        with pytest.raises(ValueError):
            ChannelParams(2, 2, 2, RankDistribution([Fraction(1), Fraction(0)]))

    def test_validates_field_order(self):
        with pytest.raises(ValueError):
            ChannelParams(6, 2, 2, constant_rank_model(0, 2, 2))

    @pytest.mark.parametrize("law", [(0.5, 0.9, 0.0), [0.5, -0.5, 1.0]], ids=["tuple", "list"])
    def test_error_law_must_be_a_rank_distribution(self, law):
        """A bare sequence is never validated as a law: (0.5, 0.9, 0.0)
        would run a whole solve before its output law failed to sum to 1,
        and a negative entry would reach math.log2."""
        message = f"must be a RankDistribution, got {type(law).__name__}"
        with pytest.raises(TypeError, match=message):
            solver.maximize(ChannelParams(2, 2, 2, law))


class TestTransitionLaw:
    def test_rank_class_sizes(self):
        params = _params(2, 2, 2, "constant:t=0")
        assert rank_class_size(params) == tuple(count_rank_matrices(2, 2, r, 2) for r in range(3))

    def test_class_sizes_counted_once_while_params_are_built(self, monkeypatch):
        """ChannelParams counts each class size N_r once; the workspace,
        rho_avg and the output laws read them and count none again."""
        calls = []
        count = channel.count_rank_matrices
        monkeypatch.setattr(
            channel, "count_rank_matrices", lambda *args: calls.append(args) or count(*args)
        )
        q, n, m = 3, 5, 4
        params = ChannelParams(q, n, m, empirical_model([Fraction(1, 5)] * 5, n, m))
        k = params.rank_count
        assert calls == [(n, m, r, q) for r in range(k)]
        calls.clear()
        solver._Workspace(params)
        rho_avg(params)
        for probs in ([1] + [0] * (k - 1), [0] * (k - 1) + [1], [Fraction(1, k)] * k):
            output_rank_distribution(RankDistribution(probs), params)
        assert calls == []

    def test_rho_rows_sum_to_one(self):
        params = _params(2, 3, 2, "constant:t=0")
        for rx in range(3):
            for rb in range(3):
                total = sum(
                    reference.rho_given_ranks(r, rx, rb, params) for r in range(3)
                )
                assert total == 1

    def test_rho_avg_mixes_error_ranks(self):
        params = _params(2, 2, 2, "binomial:T=2,p=0.3")
        kernel = _kernel(params)
        for rx in range(3):
            for r in range(3):
                assert kernel[r][rx] == _rho_avg_exact_weights(r, rx, params)


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
        """A point-mass input needs one kernel column: every f2 count asked
        for is one of that column's, and each of its in-band counts is asked
        once.  Skipping the other columns changes no value, exact or float."""
        params = ChannelParams(2, 3, 2, empirical_model(law, 3, 2))
        k = params.rank_count
        inputs = [
            RankDistribution([Fraction(0), Fraction(1), Fraction(0)]),
            RankDistribution([0.0, 0.25, 0.75]),
        ]
        kernel = _kernel(params)
        rho = (lambda t: t) if params.error_dist.is_exact else float
        every_column = [
            [sum(x[rx] * rho(kernel[r][rx]) for rx in range(k)) for r in range(k)]
            for x in inputs
        ]
        calls = []

        def counting(a, b, rb, *shape):
            calls.append((a, b, rb))
            return f2(a, b, rb, *shape)

        monkeypatch.setattr(channel, "f2", counting)
        # _joint keeps nothing on a channel, so an equal fresh channel asks
        # for the same counts as params would.
        params = ChannelParams(2, 3, 2, empirical_model(law, 3, 2))
        output_rank_distribution(inputs[0], params)
        assert sorted(calls) == sorted(
            (min(r, 1), max(r, 1), rb)
            for r in range(k) for rb, _ in params.support if abs(r - 1) <= rb <= r + 1
        )
        for x, want in zip(inputs, every_column):
            got = list(output_rank_distribution(x, params).probs)
            assert [type(p) for p in got] == [type(p) for p in want]
            assert got == want

    def test_full_support_input_computes_each_pair_once(self, monkeypatch):
        """The numerators are symmetric, so a full-support input asks f2 for
        the pairs a <= b only, k(k + 1) / 2 of them, not k^2: every such pair
        is asked for, and each count f2(a, b, rB) once."""
        params = _params(2, 5, 4, "empirical:1/5,1/5,1/5,1/5,1/5")
        k = params.rank_count
        uniform = RankDistribution([Fraction(1, k)] * k)
        want = output_rank_distribution(uniform, params)
        calls = []

        def counting(a, b, rb, *shape):
            calls.append((a, b, rb))
            return f2(a, b, rb, *shape)

        monkeypatch.setattr(channel, "f2", counting)
        # _joint keeps nothing on a channel, so an equal fresh channel asks
        # for the same counts as params would.
        params = _params(2, 5, 4, "empirical:1/5,1/5,1/5,1/5,1/5")
        assert output_rank_distribution(uniform, params) == want
        assert len(set(calls)) == len(calls)
        pairs = sorted({(a, b) for a, b, _ in calls})
        assert pairs == [(a, b) for a in range(k) for b in range(a, k)]

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
            want = [row_entropy_bits(law, law.ranks.index(r)) for r in range(3)]
            assert h_r(params) == pytest.approx(want, abs=1e-10), spec

    def test_output_classes_outside_input_span(self, channel_laws, row_entropy_bits):
        """Errors can move the output row space off the input row space
        entirely; dropping those classes loses entropy.  Regression pin:
        rank-1 input under an exactly-one-error model sits above 3.9 bits,
        while a summation truncated to the input span gives about 3.56."""
        params = _params(2, 2, 2, "constant:t=1")
        value = h_r(params)[1]
        assert value > 3.9
        law = channel_laws(params)
        assert value == pytest.approx(row_entropy_bits(law, law.ranks.index(1)), abs=1e-10)

    def test_no_error_reduction_is_exact(self):
        for q, n, m in ((2, 2, 2), (2, 3, 3), (3, 2, 2)):
            params = _params(q, n, m, "constant:t=0")
            ranks = range(min(n, m) + 1)
            assert h_r(params) == tuple(log2_exact(Fraction(f0(r, n, m, q))) for r in ranks)

    def test_conditional_entropy_averages_h_r(self, conditional_entropy):
        params = _params(2, 2, 2, "iid:t=1")
        dist = RankDistribution([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        want = sum(float(dist[r]) * h for r, h in enumerate(h_r(params)))
        assert conditional_entropy(dist, params) == pytest.approx(want, abs=1e-14)


class TestMutualInformation:
    def test_matches_oracle(self, channel_laws, mutual_information):
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

    def test_same_bits_on_every_interpreter(self, mutual_information):
        """H(Y | X) adds its terms left to right from 0.0; a compensated sum,
        such as sum() from Python 3.12 on, ends 4 ulps higher here.  The
        solver's own assembly gives the same bits."""
        params = _params(3, 4, 5, "binomial:T=3,p=0.2")
        uniform = RankDistribution(reference.uniform_rank_distribution(4, 5))
        value = mutual_information(uniform, params)
        assert value.hex() == "0x1.75fe0fd741668p+2"
        assert solver.objective(uniform, params).hex() == "0x1.75fe0fd741668p+2"

    def test_decomposition(self, mutual_information, output_entropy, conditional_entropy):
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
        ranks = range(params.rank_count)
        assert h_r(params) == tuple(_h_r_exact_weights(r, params) for r in ranks)
        kernel = _kernel(params)
        for r in ranks:
            for rx in ranks:
                assert kernel[r][rx] == _rho_avg_exact_weights(r, rx, params)

    def test_float_law_matches_every_rank_sum(self):
        params = ChannelParams(2, 5, 7, empirical_model([0.25, 0.0, 0.0, 0.75], 5, 7))
        ranks = range(params.rank_count)
        assert [float.hex(h) for h in h_r(params)] == [
            float.hex(_h_r_exact_weights(r, params)) for r in ranks
        ]
        kernel = _kernel(params)
        for r in ranks:
            for rx in ranks:
                assert kernel[r][rx] == _rho_avg_exact_weights(r, rx, params)

    def test_float_law_beyond_float_range(self):
        """Rank classes of a 33 x 33 binary matrix pass 2^1024, so a float
        weight P(rB) / N_rB would overflow."""
        law = empirical_model([0.5] + [0.0] * 32 + [0.5], 33, 33)
        params = ChannelParams(2, 33, 33, law)
        kernel = _kernel(params)
        assert kernel[0][0] == kernel[33][0] == 0.5

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
        """Numerators over one denominator give the same Fraction as per-rank
        Fraction weights, for a float law too."""
        ranks = range(params.rank_count)
        assert [float.hex(h) for h in h_r(params)] == [
            float.hex(_h_r_exact_weights(r, params)) for r in ranks
        ]
        for rx, (nums, den) in enumerate(rho_avg(params)):
            assert den == params.denominator * count_rank_matrices(
                params.n, params.m, rx, params.q
            )
            for r in ranks:
                assert all(type(v) is int for v in (nums[r], den))
                assert Fraction(nums[r], den) == _rho_avg_exact_weights(r, rx, params)

    def test_float_output_entropy_beyond_float_range(self, output_entropy, mutual_information):
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
        kernel = _kernel(params)
        for r in (0, 1, 32, 33):
            assert kernel[r][0] == _rho_avg_exact_weights(r, 0, params)

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
        h_r(params)
        rho_avg(params)
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
# error ranks, a law supported on every rank, and two float laws: one with
# gaps and one supported on every rank.
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
    ),
    pytest.param(
        ChannelParams(16, 12, 14, empirical_model([k / 91 for k in range(1, 14)], 12, 14)),
        id="16,12,14,float-full",
    ),
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
        """The entry (ry, rx) asks f2 only for the supported error ranks in
        |ry - rx| <= rB <= ry + rx, and only for ry <= rx, each count once,
        exact and float laws alike: the kernel's reversibility gives the
        rest.  Each entry skipped is exactly 0 or has its transpose asked
        for."""
        calls = []

        def recording(ry, rx, rb, *shape):
            calls.append((ry, rx, rb))
            return f2(ry, rx, rb, *shape)

        monkeypatch.setattr(channel, "f2", recording)
        solver._Workspace(params)
        support = [rb for rb, _ in params.support]
        ranks = range(params.rank_count)
        in_band = {
            (ry, rx) for ry, rx in itertools.product(ranks, ranks)
            if any(abs(ry - rx) <= rb <= ry + rx for rb in support)
        }
        assert sorted(calls) == sorted(
            (ry, rx, rb) for ry, rx in in_band if ry <= rx
            for rb in support if abs(ry - rx) <= rb <= ry + rx
        )
        requested = {(ry, rx) for ry, rx, _ in calls}
        skipped = set(itertools.product(ranks, ranks)) - requested
        kernel = _kernel(params)
        assert all(kernel[ry][rx] == 0 or (rx, ry) in requested for ry, rx in skipped)
        if len(support) < params.rank_count:
            assert skipped - in_band


class TestClassStore:
    """h_r forms each class numerator once per mirror pair and takes
    log2 f0(v) once per rank, and keeps nothing between calls or on the
    channel; every answer keeps its bits."""

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
        """A second call asks for the same counts again, in the same order,
        and gives the same bits: nothing is kept between calls."""
        calls = self._record(monkeypatch)
        first = [float.hex(h) for h in h_r(params)]
        assert calls["f1"]
        assert all(u >= v for u, v, *_ in calls["f1"])
        f1_keys = [args[:4] for args in calls["f1"]]
        assert len(f1_keys) == len(set(f1_keys))
        ranks = [args[0] for args in calls["f0"]]
        assert len(ranks) == len(set(ranks))
        asked = {name: list(args) for name, args in calls.items()}
        assert [float.hex(h) for h in h_r(params)] == first
        assert calls == {name: args + args for name, args in asked.items()}

    @pytest.mark.parametrize("params", _PRUNED_CHANNELS)
    def test_equal_channel_starts_empty(self, params):
        """An equal or replaced channel does not share the solver workspace,
        and gives the same bits."""
        want = [float.hex(h) for h in h_r(params)]
        result = repr(solver.maximize(params))
        assert params._workspace is not None
        equal = ChannelParams(params.q, params.n, params.m, params.error_dist)
        for fresh in (equal, dataclasses.replace(params)):
            assert fresh == params and hash(fresh) == hash(params)
            assert repr(fresh) == repr(params)
            assert fresh._workspace is None
            assert [float.hex(h) for h in h_r(fresh)] == want
            assert repr(solver.maximize(fresh)) == result
            assert fresh._workspace is not params._workspace

    # Recorded before h_r came to walk each mirror pair once.
    LARGE_SHAPES = {
        # 41 ranks.
        (2, 40, 40, "constant:t=20"):
            "78033cf0e0233d117ec4753ef818fd0b869aed888dfb2bfb41c8cb96a0ad2fb8",
        # 65 ranks: mirror factors f0(u) / f0(v) over 64 ranks.
        (2, 64, 64, "constant:t=3"):
            "79ccba813a98a1c47630187110db41f0d796ace239ee18c0a3611d412874dd2b",
        # Class weights past the float range.
        (256, 16, 64, "binomial:T=4,p=0.1"):
            "56d3a0f4ff78cf1542fe324fbe3486bd1cc2ab15a2148540d829d87967a4385d",
    }

    def test_large_shapes_keep_their_bits(self):
        """h_r past the catalogue's 25 ranks, as the SHA-256 of its
        newline-joined float.hex entries."""
        digests = {
            args: hashlib.sha256(
                "\n".join(float.hex(h) for h in h_r(_params(*args))).encode()
            ).hexdigest()
            for args in self.LARGE_SHAPES
        }
        assert digests == self.LARGE_SHAPES


# Channels beyond the oracle's budget with two, one and four supported error ranks.
_KERNEL_CHANNELS = (
    (2, 12, 12, "iid:t=1"),
    (3, 12, 14, "constant:t=2"),
    (16, 12, 12, "binomial:T=3,p=0.2"),
)

# The catalogue, and the uniform-matrix law at d = 24, which supports every
# error rank.
_CATALOGUE = benchmark_catalogue() + ((2, 24, 24, "iid:t=24"),)


class TestExactLawAtScale:
    """Exact-law identities beyond the oracle's enumeration budget."""

    @pytest.mark.parametrize(
        "channel_args", _CATALOGUE, ids=lambda args: ",".join(map(str, args))
    )
    def test_kernel_band_and_class_sizes(self, channel_args):
        """rho_avg's column rx is integer numerators over D N_rx; an entry
        whose band |ry - rx| <= rB <= ry + rx holds no supported error rank
        is 0, since rank is a metric; and the class sizes add to q^(nm)."""
        params = _params(*channel_args)
        q, n, m = params.q, params.n, params.m
        sizes = rank_class_size(params)
        assert sum(sizes) == q ** (n * m)
        support = [rb for rb, _ in params.support]
        for rx, (nums, den) in enumerate(rho_avg(params)):
            assert den == params.denominator * sizes[rx]
            for ry, num in enumerate(nums):
                assert type(num) is int
                if not any(abs(ry - rx) <= rb <= ry + rx for rb in support):
                    assert num == 0, (ry, rx)

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

    @pytest.mark.parametrize(
        "channel_args",
        _KERNEL_CHANNELS + _CATALOGUE,
        ids=lambda args: ",".join(map(str, args)),
    )
    def test_every_kernel_column_sums_to_one(self, channel_args):
        params = _params(*channel_args)
        for rx, (nums, den) in enumerate(rho_avg(params)):
            assert sum(nums) == den, rx

    @pytest.mark.parametrize(
        "channel_args",
        _KERNEL_CHANNELS + _CATALOGUE,
        ids=lambda args: ",".join(map(str, args)),
    )
    def test_kernel_is_reversible(self, channel_args):
        """P(X + B = Y) depends on rank(Y - X) only, so it is symmetric in
        X and Y, and summed over the rank classes it gives
        N_rx T(ry | rx) = N_ry T(rx | ry).  T is taken straight from f2 for
        every ry and rx, so the r > rX route of f2 (and _f1's sums with
        u < v) is checked against the r <= rX one; rho_avg, which computes
        only ry <= rx, must give every entry of it."""
        params = _params(*channel_args)
        q, n, m = params.q, params.n, params.m
        ranks = range(params.rank_count)

        def direct(ry, rx):
            return Fraction(
                sum(
                    c * f2(ry, rx, rb, n, m, q)
                    for rb, c in params.support
                    if abs(ry - rx) <= rb <= ry + rx
                ),
                params.denominator,
            )

        size, kernel = rank_class_size(params), _kernel(params)
        for rx in ranks:
            for ry in ranks:
                assert kernel[ry][rx] == direct(ry, rx), (ry, rx)
                assert size[rx] * direct(ry, rx) == size[ry] * direct(rx, ry), (rx, ry)

    def test_mutual_information_matches_solver_objective(self, mutual_information):
        params = _params(*_STALL_CHANNEL)
        uniform = RankDistribution(reference.uniform_rank_distribution(params.n, params.m))
        assert mutual_information(uniform, params) == pytest.approx(
            solver.objective(uniform, params), abs=1e-9
        )


# Capacity rounds 0-3 and verify rounds 0-3, which hold every verify shape,
# each distinct channel once.
_VERIFY_CATALOGUE = tuple(dict.fromkeys(benchmark_catalogue("verify", rounds=(0, 1, 2, 3))))
_OUTPUT_LAW_CHANNELS = tuple(
    dict.fromkeys(benchmark_catalogue(rounds=(0, 1, 2, 3)) + _VERIFY_CATALOGUE)
)


def _trial_inputs(k):
    """The rank-0, top-rank and uniform input laws that verify pushes through
    the channel, and one empirical law with every rank in it."""
    return [
        [Fraction(int(i == 0)) for i in range(k)],
        [Fraction(int(i == k - 1)) for i in range(k)],
        [Fraction(1, k)] * k,
        [Fraction(2 * i + 1, k * k) for i in range(k)],
    ]


class TestExactSumsAgainstFractionReference:
    """The exact output law and rank marginal add integer numerators over one
    denominator; the reference adds Fraction by Fraction, through Delsarte's
    eigenvalues or an enumerated rank kernel, and gets the same Fractions."""

    @pytest.mark.parametrize(
        "channel_args", _OUTPUT_LAW_CHANNELS, ids=lambda args: ",".join(map(str, args))
    )
    def test_output_law_matches_reference(self, channel_args):
        params = _params(*channel_args)
        for probs in _trial_inputs(params.rank_count):
            got = output_rank_distribution(RankDistribution(probs), params).probs
            want = reference.output_rank_law(probs, params.error_dist.probs, params)
            assert [type(p) for p in got] == [Fraction] * params.rank_count
            assert list(got) == want, probs

    @pytest.mark.parametrize(
        "channel_args", _VERIFY_CATALOGUE, ids=lambda args: ",".join(map(str, args))
    )
    def test_rank_marginal_matches_reference(self, channel_args, channel_laws):
        params = _params(*channel_args)
        kernel = oracle.rank_kernel(channel_laws(params))
        for probs in _trial_inputs(params.rank_count):
            got = oracle.rank_marginal(kernel, probs)
            assert got == reference.rank_marginal(kernel, probs), probs
            assert got == reference.output_rank_law(probs, params.error_dist.probs, params)

    def test_float_law_or_float_input_gives_floats(self):
        """Only an exact law with an exact input takes the integer sums; a
        float law, or an exact law with a float or mixed input, divides
        each kernel entry once in floats and gives floats."""
        exact_law = _params(2, 2, 2, "iid:t=1")
        float_law = ChannelParams(2, 2, 2, RankDistribution([0.5, 0.25, 0.25]))
        exact = RankDistribution([Fraction(1, 3)] * 3)
        floats = RankDistribution([0.25, 0.25, 0.5])
        mixed = RankDistribution([Fraction(1, 2), 0.5, Fraction(0)])
        for params, x in (
            (float_law, exact), (float_law, floats), (exact_law, floats), (exact_law, mixed),
        ):
            out = output_rank_distribution(x, params)
            assert not out.is_exact
            assert [type(p) for p in out.probs] == [float] * 3

    @pytest.mark.parametrize("sign, shown", [(1, "+"), (-1, "-")])
    def test_law_off_by_a_tiny_amount_is_refused(self, sign, shown):
        off = Fraction(sign, 10**50)
        with pytest.raises(ValueError) as refused:
            RankDistribution([Fraction(1, 3), Fraction(2, 3) + off])
        assert str(refused.value) == f"exact probabilities sum to 1 {shown} 1E-50, not 1"


class TestCatalogueWorkspace:
    """The workspace builds of the benchmark catalogue (capacity rounds 0 and
    1, 33 channels): every float pinned, and the counts they ask for at the
    channel's matrixfn and exactcomb boundary fixed.  This class alone pins
    both: tests/test_solver.py's six slow workspaces are among the 33."""

    CHANNELS = benchmark_catalogue()
    # Recorded before the count loops of h_r, f1 and f2 were last rewritten.
    DIGEST = "e2804d4db4d6bb454f98477f2d44b95d47c313e76c92e80ac2a3512ef61a4c3f"

    def test_workspace_hex_digest(self):
        """h, rows, columns and log class sizes in hex."""
        texts = []
        for channel_args in self.CHANNELS:
            ws = solver._Workspace(_params(*channel_args))
            texts.append(repr((
                [h.hex() for h in ws.h_vec],
                [[(a, t.hex()) for a, t in row] for row in ws.rows],
                [[(ry, t.hex()) for ry, t in col] for col in ws.columns],
                [x.hex() for x in ws.log_class],
            )))
        assert len(texts) == 33
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == self.DIGEST

    def test_boundary_calls(self, monkeypatch):
        """The benchmark's tracer wraps channel.f0, f1, f2 and
        count_rank_matrices and reads the error rank at argument 3 of f1 and
        2 of f2: the channel and its workspace must be built through those
        names, as often as before, and call f1 and f2 only at supported
        error ranks.  The benchmark's CI step greps the same four totals."""
        calls = {"f0": 0, "f1": 0, "f2": 0, "count_rank_matrices": 0}
        ranks = []

        def counting(name, rank_arg):
            fn = getattr(channel, name)

            def wrapper(*args):
                calls[name] += 1
                if rank_arg is not None:
                    ranks.append(args[rank_arg])
                return fn(*args)

            return wrapper

        monkeypatch.setattr(channel, "f0", counting("f0", None))
        monkeypatch.setattr(channel, "f1", counting("f1", 3))
        monkeypatch.setattr(channel, "f2", counting("f2", 2))
        monkeypatch.setattr(channel, "count_rank_matrices", counting("count_rank_matrices", None))
        for channel_args in self.CHANNELS:
            params = _params(*channel_args)
            ranks.clear()
            solver._Workspace(params)
            assert set(ranks) <= {rb for rb, _ in params.support}, channel_args
        # count_rank_matrices: 265 class sizes while ChannelParams is built,
        # and 105 in the iid and binomial error laws that _params parses.
        assert calls == {"f0": 265, "f1": 3054, "f2": 1627, "count_rank_matrices": 370}


class TestChecksOncePerChannel:
    """channel calls the unchecked kernels of the counts under their public
    names f0, f1, f2 and count_rank_matrices: ChannelParams validates q, n
    and m, and every rank passed comes from a loop bounded by the channel's
    rank count.  So every call must pass the public function's own argument
    check, here run first by a checker around each name.  How often the
    workspace builds call each name is pinned in TestCatalogueWorkspace
    alone."""

    CHANNELS = benchmark_catalogue()
    CHECKS = {
        "f0": "u n m",
        "f1": "u v h r n m",
        "f2": "r rX rB n m",
        "count_rank_matrices": "n m r",
    }

    @classmethod
    def _install_checkers(cls, monkeypatch):
        calls = dict.fromkeys(cls.CHECKS, 0)

        def checker(name, names):
            kernel = getattr(channel, name)

            def wrapper(*args):
                *values, q = args
                _check_args(q, names, *values)
                if name == "f0" and values[0] > min(values[1:]):
                    raise ValueError(f"u = {values[0]} exceeds min(n, m)")
                calls[name] += 1
                return kernel(*args)

            return wrapper

        for name, names in cls.CHECKS.items():
            monkeypatch.setattr(channel, name, checker(name, names))
        return calls

    def test_every_count_gets_checked_arguments(self, monkeypatch):
        calls = self._install_checkers(monkeypatch)
        for channel_args in self.CHANNELS:
            solver._Workspace(_params(*channel_args))
        assert all(calls.values()), calls

        calls.update(dict.fromkeys(calls, 0))
        for channel_args in self.CHANNELS:
            params = _params(*channel_args)
            k = params.rank_count
            for probs in ([0] * (k - 1) + [1], [Fraction(1, k)] * k):
                output_rank_distribution(RankDistribution(probs), params)
        # Each law forms its own columns: the top-rank law its one column,
        # the uniform law every entry once, so the top-rank column twice.
        assert calls == {"f0": 0, "f1": 0, "f2": 1892, "count_rank_matrices": 370}

        calls.update(dict.fromkeys(calls, 0))
        for spec in ("constant:t=2", "iid:t=3", "binomial:T=3,p=0.1", "empirical:1/2,1/4,1/4"):
            parse_error_model(spec, 5, 6, 7)
        assert calls == {"f0": 0, "f1": 0, "f2": 0, "count_rank_matrices": 14}

    # The range and band that the public f0, f1, f2 and count_rank_matrices
    # check on entry, with the dimensions' sign and bound; their kernels
    # check nothing.
    IN_BAND = {
        "f0": lambda u, n, m: u <= min(n, m),
        "f1": lambda u, v, h, r, n, m: (
            max(u, v, r) <= min(n, m) and h <= u and v + h <= m and u - h <= v
            and max(h, v + h - u) <= r <= v + h
        ),
        "f2": lambda r, rX, rB, n, m: (
            max(r, rX, rB) <= min(n, m) and abs(r - rX) <= rB <= r + rX
        ),
        "count_rank_matrices": lambda n, m, r: r <= min(n, m),
        "meet_count": lambda N, k, d, a: 0 <= a <= min(d, k) and d - a <= N - k,
    }

    def test_every_kernel_call_is_in_band(self, monkeypatch):
        """The kernels hold no range guard, so the workspace builds and an
        output law must ask each of them only for what its public function
        would pass on: channel's f0, f1, f2 and count_rank_matrices,
        h_r's class weights meet_count, and matrixfn._f1 and _meet_count,
        which _f2 reads, each in its range and band."""
        calls, outside = {}, []

        def in_band(module, attr, band):
            kernel = getattr(module, attr)
            calls[attr] = 0

            def wrapper(*args):
                *values, q = args
                calls[attr] += 1
                if min(values) < 0 or max(values) > MAX_DIMENSION or not band(*values):
                    outside.append((attr, args))
                return kernel(*args)

            monkeypatch.setattr(module, attr, wrapper)

        for name, band in self.IN_BAND.items():
            in_band(channel, name, band)
        in_band(matrixfn, "_f1", self.IN_BAND["f1"])
        in_band(matrixfn, "_meet_count", self.IN_BAND["meet_count"])
        for channel_args in self.CHANNELS:
            solver._Workspace(_params(*channel_args))
        built = dict(calls)
        params = _params(2, 24, 24, "iid:t=24")
        output_rank_distribution(RankDistribution([Fraction(1, 25)] * 25), params)
        assert outside == []
        assert all(built.values()), built
        # The output law adds 25 class sizes for its error law and 25 for
        # its ChannelParams, and 4 147 f2 calls for its 325 kernel entries.
        assert {name: calls[name] - built[name] for name in self.CHECKS} == {
            "f0": 0, "f1": 0, "f2": 4147, "count_rank_matrices": 50,
        }
        # h_r reads one class weight per class it adds, and _f2 one meet
        # count per _f1 term.
        assert {name: calls[name] for name in ("_f1", "meet_count", "_meet_count")} == {
            "_f1": 18433, "meet_count": 2751, "_meet_count": 18433,
        }


class TestBenchmarkAnswerBits:
    """Every answer of the benchmark's capacity rounds 0-13 (225 channels)
    and verify rounds 0-3 (64 shapes) at seed 1, pinned by one SHA-256 per
    workload: a change that keeps these digests keeps every answer's bits,
    on each CPython the tests run on."""

    # Both recorded before ChannelParams came to count the class sizes.
    CAPACITY_DIGEST = "2e656fa0153eac732b096f850bc1182e39155ba9310a622aab00c7fee4972bad"
    VERIFY_DIGEST = "a7128f25302599d9792fc573ce979ad4b7289dc54e522eb9521d97d0cbe510ca"

    def test_capacity_answers(self):
        """repr of each CapacityResult at the benchmark's tolerance and cap."""
        texts = [
            repr(solver.maximize(_params(*args), solver.SolverConfig(1e-9, 500)))
            for args in benchmark_catalogue("capacity", range(14))
        ]
        assert len(texts) == 225
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == self.CAPACITY_DIGEST

    def test_verify_reports(self):
        """Exit code and stdout of each in-process cli verify, as the
        benchmark's verify workload runs it."""
        texts = []
        for q, n, m, spec in benchmark_catalogue("verify", range(4)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(
                    ["verify", "--q", str(q), "--n", str(n), "--m", str(m), "--error", spec]
                )
            texts.append(f"{code}\n{out.getvalue()}")
        assert len(texts) == 64
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == self.VERIFY_DIGEST


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

    @pytest.mark.parametrize(
        "p, shown",
        [(True, "True"), (float("nan"), "nan"), (float("inf"), "inf"), ("0.5", "'0.5'")],
        ids=["bool", "nan", "inf", "str"],
    )
    def test_binomial_refuses_a_p_that_is_not_a_number(self, p, shown):
        """p is an int that is not a bool, a Fraction or a finite float, as
        a RankDistribution entry is: True is not read as 1, and nan, inf and
        a string get this refusal, not Fraction's or a comparison's."""
        with pytest.raises(ValueError) as refused:
            binomial_packets_model(2, p, 2, 2, 2)
        assert str(refused.value) == (
            "packet corruption probability must be an int, a Fraction or a finite "
            f"float, got {shown}"
        )

    @pytest.mark.parametrize(
        "p, shown",
        [
            (Fraction(11, 10), "11/10"),
            (Fraction(10**100000), "1.00000E+100000"),
            (-Fraction(10**100000), "-1.00000E+100000"),
            (Fraction(10**60 + 1, 10**20), "1.00000E+40"),
        ],
        ids=["short", "huge", "huge-negative", "ratio"],
    )
    def test_binomial_refusal_names_p_within_the_digit_limit(self, p, shown):
        """str() of a p past the interpreter's 4 300-digit limit raised that
        limit's message in place of this refusal; past 40 digits p is shown
        to 6 significant digits, as the sum check shows its distance."""
        with pytest.raises(ValueError) as refused:
            binomial_packets_model(1, p, 2, 2, 2)
        assert str(refused.value) == f"packet corruption probability {shown} not in [0, 1]"

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
