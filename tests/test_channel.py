"""Channel law, conditional entropy and error models versus the oracle."""

import math
from fractions import Fraction

import pytest

from gammacap import channel, matrixfn, oracle, solver
from gammacap.channel import (
    ChannelParams,
    RankDistribution,
    binomial_packets_model,
    conditional_entropy,
    constant_rank_model,
    count_spanning_tuples,
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
    rho_given_ranks,
    uniform_rank_distribution,
)
from gammacap.exactcomb import count_rank_matrices, qbinom_ext
from gammacap.matrixfn import f0, f1, f2


def _params(q, n, m, spec):
    return ChannelParams(q, n, m, parse_error_model(spec, q, n, m))


def _oracle_mutual_information(table, input_rank_probs, q):
    """I(X; Y) for a rank-then-uniform input, straight from the table."""
    by_rank = {}
    for x in table:
        by_rank.setdefault(oracle.rank_of(x, q), []).append(x)
    weights = {}
    for r, p in enumerate(input_rank_probs):
        if p == 0:
            continue
        for x in by_rank[r]:
            weights[x] = Fraction(p) / len(by_rank[r])
    marginal = {}
    for x, w in weights.items():
        for y, pr in table[x].items():
            marginal[y] = marginal.get(y, Fraction(0)) + w * pr
    total = 0.0
    for x, w in weights.items():
        for y, pr in table[x].items():
            if pr:
                total += float(w * pr) * log2_exact(pr / marginal[y])
    return total


def _rho_avg_every_rank(r, rx, params):
    """rho_avg summed over every error rank, zero-probability ones included."""
    return sum(
        params.error_dist[rb] * rho_given_ranks(r, rx, rb, params)
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
            total += weight * float(p_vh) * (
                log2_exact(f0(v, n, m, q)) - log2_exact(p_vh)
            )
    return total


def _rho_avg_exact_weights(r, rx, params):
    """rho_avg as a sum of per-rank Fraction terms P(rB) f2 / N_rB over every
    error rank (a float P(rB) converted exactly), rounded once for a float
    law."""
    total = sum(
        Fraction(params.error_dist[rb]) * rho_given_ranks(r, rx, rb, params)
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
            total += weight * float(p_vh) * (
                log2_exact(f0(v, n, m, q)) - log2_exact(p_vh)
            )
    return total


class TestRankDistribution:
    def test_exact_sum_enforced(self):
        with pytest.raises(ValueError):
            RankDistribution([Fraction(1, 2), Fraction(1, 3)])
        RankDistribution([Fraction(1, 2), Fraction(1, 2)])

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
                total = sum(rho_given_ranks(r, rx, rb, params) for r in range(3))
                assert total == 1

    def test_rho_avg_mixes_error_ranks(self):
        params = _params(2, 2, 2, "binomial:T=2,p=0.3")
        for rx in range(3):
            for r in range(3):
                assert rho_avg(r, rx, params) == _rho_avg_every_rank(r, rx, params)


class TestOutputRankLaw:
    def test_matches_oracle_exactly(self, channel_tables):
        params = _params(2, 2, 2, "iid:t=1")
        table = channel_tables(params)
        probs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        want = oracle.channel_output_rank_marginal(table, probs, 2)
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
    def test_h_r_matches_oracle_rows(self, channel_tables):
        """Per-rank conditional output entropy vs direct row entropy."""
        for spec in ("constant:t=1", "iid:t=1", "iid:t=2", "binomial:T=2,p=0.3"):
            params = _params(2, 2, 2, spec)
            table = channel_tables(params)
            for r in range(3):
                x = next(x for x in table if oracle.rank_of(x, 2) == r)
                want = oracle.row_entropy_bits(table[x])
                assert h_r(r, params) == pytest.approx(want, abs=1e-10), (spec, r)

    def test_output_classes_outside_input_span(self, channel_tables):
        """Errors can move the output row space off the input row space
        entirely; dropping those classes loses entropy.  Regression pin:
        rank-1 input under an exactly-one-error model sits above 3.9 bits,
        while a summation truncated to the input span gives about 3.56."""
        params = _params(2, 2, 2, "constant:t=1")
        value = h_r(1, params)
        assert value > 3.9
        table = channel_tables(params)
        x = next(x for x in table if oracle.rank_of(x, 2) == 1)
        assert value == pytest.approx(oracle.row_entropy_bits(table[x]), abs=1e-10)

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
    def test_matches_oracle(self, channel_tables):
        cases = [
            ("constant:t=1", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
            ("iid:t=1", [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]),
            ("binomial:T=2,p=0.3", [Fraction(0), Fraction(1), Fraction(0)]),
        ]
        for spec, probs in cases:
            params = _params(2, 2, 2, spec)
            table = channel_tables(params)
            want = _oracle_mutual_information(table, probs, 2)
            got = mutual_information(RankDistribution(probs), params)
            assert got == pytest.approx(want, abs=1e-10), spec

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
        solver._workspace.cache_clear()
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

    def test_mutual_information_matches_solver_objective(self):
        params = _params(*_STALL_CHANNEL)
        uniform = uniform_rank_distribution(params.n, params.m)
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


class TestSpanningTuples:
    def test_matches_enumeration(self):
        """Tuples spanning all of F_q^r, counted directly."""
        for q in (2, 3):
            for r in range(1, 3):
                for t in range(4):
                    want = sum(
                        1
                        for tup in _all_tuples(q, r, t)
                        if len(oracle.rref_basis(list(tup), q)) == r
                    )
                    assert count_spanning_tuples(t, r, q) == want

    def test_zero_dimensional_space(self):
        for t in range(4):
            assert count_spanning_tuples(t, 0, 2) == 1

    def test_zero_above_tuple_count(self):
        assert count_spanning_tuples(1, 2, 2) == 0


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
        dist = uniform_rank_distribution(2, 3)
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
        ]
        for spec in bad:
            with pytest.raises(ValueError):
                parse_error_model(spec, 2, 2, 2)
