"""Session-cached channel laws shared across test modules, the oracle's
memo reset, and the entropy references.

Building a full channel law is the expensive part of the oracle
cross-checks, and several test modules need the same channels, so each law
is cached for the whole session.  Two memos keep what depends on the
shape alone for the life of the process: the oracle's GL image classes,
with the sum classes of the error matrices a law has supported, and
verify's matrix-function verdicts; ``cold_oracle`` empties both around a
test that must see them enumerated afresh.  The oracle's f-tables are
enumerated on every call and kept nowhere.

The mutual information of a rank-uniform input is also assembled here, as
H(Y) from the output rank law less H(Y | X) from h_r: a second route to the
number that solver.objective takes from its workspace.
"""

import math
from fractions import Fraction

import pytest

from gammacap import cli, oracle
from gammacap.channel import h_r, ordered_sum, output_rank_distribution, rank_class_size
from reference import log2_exact


def clear_oracle_memo():
    """Empty the oracle's per-shape memo and verify's matrix-function
    verdicts, so the next call enumerates and checks afresh."""
    oracle._gl_images.cache_clear()
    cli._matrix_function_verdict.cache_clear()


@pytest.fixture
def cold_oracle():
    """The per-shape memos emptied before the test and again after it, so a
    mutant installed by the test meets a cold memo and leaves nothing
    behind."""
    clear_oracle_memo()
    yield clear_oracle_memo
    clear_oracle_memo()


@pytest.fixture(scope="session")
def channel_laws():
    """Factory: ChannelParams -> cached exact channel law (oracle.ChannelLaw)."""
    cache = {}

    def get(params):
        if params not in cache:
            cache[params] = oracle.build_channel(params)
        return cache[params]

    return get


def _entropy_bits(probs):
    total = 0.0
    for p in probs:
        if p != 0:
            total -= float(p) * log2_exact(p)
    return total


@pytest.fixture(scope="session")
def entropy_bits():
    """Shannon entropy in bits of an iterable of exact or float probabilities."""
    return _entropy_bits


@pytest.fixture(scope="session")
def row_entropy_bits():
    """Factory: (ChannelLaw, input index x) -> entropy in bits of P(. | X_x)."""

    def get(law, x):
        return _entropy_bits(Fraction(num, law.den) for num in law.rows[law.class_of[x]].values())

    return get


def _conditional_entropy(input_ranks, params):
    """H(Y | X) in bits; depends on the input only through its ranks."""
    if len(input_ranks) != params.rank_count:
        raise ValueError("input distribution length mismatch")
    h_vec = h_r(params)
    return ordered_sum(
        float(input_ranks[r]) * h_vec[r]
        for r in range(params.rank_count)
        if input_ranks[r] != 0
    )


def _output_entropy(input_ranks, params):
    """H(Y) in bits for an input uniform on each rank class.

    Y is then uniform within each rank class as well, so
    H(Y) = -sum_r R_Y(r) log2(R_Y(r) / N_r) with N_r the class size.  For
    a float R_Y(r) the log is taken as log2 R_Y(r) - log2 N_r, since N_r can
    pass the float range and math.log2 takes the int as it is.
    """
    out = output_rank_distribution(input_ranks, params)
    total = 0.0
    for p, size in zip(out.probs, rank_class_size(params)):
        if p == 0:
            continue
        if isinstance(p, float):
            log_ratio = math.log2(p) - math.log2(size)
        else:
            log_ratio = log2_exact(Fraction(p, size))
        total -= float(p) * log_ratio
    return total


def _mutual_information(input_ranks, params):
    """I(X; Y) in bits for an input uniform on each rank class."""
    return _output_entropy(input_ranks, params) - _conditional_entropy(input_ranks, params)


@pytest.fixture(scope="session")
def conditional_entropy():
    """(RankDistribution, ChannelParams) -> H(Y | X) in bits."""
    return _conditional_entropy


@pytest.fixture(scope="session")
def output_entropy():
    """(RankDistribution, ChannelParams) -> H(Y) in bits, rank-uniform input."""
    return _output_entropy


@pytest.fixture(scope="session")
def mutual_information():
    """(RankDistribution, ChannelParams) -> I(X; Y) in bits, rank-uniform input."""
    return _mutual_information
