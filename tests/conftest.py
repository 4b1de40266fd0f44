"""Session-cached enumeration tables shared across test modules, and the
entropy references that read them.

Building a brute-force f-function table or a full channel law is the
expensive part of the oracle cross-checks, and several test modules need
the same (n, m, q) instances, so both are cached for the whole session.
"""

import math
from fractions import Fraction

import pytest

from gammacap import oracle


@pytest.fixture(scope="session")
def brute_tables():
    """Factory: (n, m, q) -> cached brute-force f0/f1/f2 tables."""
    cache = {}

    def get(n, m, q):
        key = (n, m, q)
        if key not in cache:
            cache[key] = oracle.brute_f_functions(n, m, q)
        return cache[key]

    return get


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
        if p == 0:
            continue
        if isinstance(p, Fraction):
            logp = math.log2(p.numerator) - math.log2(p.denominator)
            total -= float(p) * logp
        else:
            total -= p * math.log2(p)
    return total


@pytest.fixture(scope="session")
def entropy_bits():
    """Shannon entropy in bits of an iterable of exact or float probabilities."""
    return _entropy_bits


@pytest.fixture(scope="session")
def row_entropy_bits():
    """Factory: (ChannelLaw, input index x) -> entropy in bits of P(. | X_x)."""

    def get(law, x):
        return _entropy_bits(Fraction(num, law.den) for num in law.rows[x].values())

    return get
