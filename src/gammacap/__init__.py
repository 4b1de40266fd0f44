"""Exact capacity toolkit for finite-field matrix channels.

The channel multiplies an input matrix, perturbed by a random additive
error of prescribed rank law, by a uniformly random invertible matrix.
This package computes its capacity exactly: the matrix-counting functions
are evaluated in exact integer arithmetic, the channel law in exact
rational arithmetic, and the capacity by a certified-gap concave solver
over input rank distributions.  An independent brute-force oracle
(``gammacap.oracle``) re-derives everything by enumeration on small fields
so the closed forms are testable rather than trusted.
"""

from .exactcomb import count_rank_matrices, is_prime_power, qbinom, validate_field_order
from .matrixfn import c_prime, f0, f1, f2
from .channel import (
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
from .solver import CapacityResult, SolverConfig, gradient, maximize, objective

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "ChannelParams",
    "RankDistribution",
    "SolverConfig",
    "binomial_packets_model",
    "c_prime",
    "constant_rank_model",
    "count_rank_matrices",
    "empirical_model",
    "f0",
    "f1",
    "f2",
    "gradient",
    "h_r",
    "iid_vectors_model",
    "is_prime_power",
    "maximize",
    "objective",
    "output_rank_distribution",
    "parse_error_model",
    "qbinom",
    "rank_class_size",
    "rho_avg",
    "validate_field_order",
    "__version__",
]
