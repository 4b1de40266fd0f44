"""Channel model: rank distributions, error models, transition law, entropies.

The channel takes an input matrix X in F_q^{n x m}, adds a random error
matrix B whose rank follows a prescribed distribution (uniform within each
rank class), and multiplies by a uniform invertible A: the receiver sees
A(X + B).  Everything observable about the law depends on X only through
rank(X), so the model works with distributions over ranks 0..min(n, m).

Probabilities derived from counts are exact `fractions.Fraction` values;
entropies are evaluated in bits at the last step.  The 0*log(0) = 0
convention applies throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .exactcomb import (
    count_rank_matrices,
    qbinom,
    qbinom_ext,
    validate_field_order,
    _check_dims,
)
from .matrixfn import f0, f1, f2

Numeric = Union[int, float, Fraction]

_SUM_TOLERANCE = 1e-12


def log2_exact(x: Numeric) -> float:
    """log2 for Fractions, ints and floats without overflowing to inf.

    Big integers and ratios of big integers (counts reach q^(nm)) exceed
    float range; math.log2 handles arbitrary ints exactly, so a Fraction's
    log is taken as log2(numerator) - log2(denominator).
    """
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def _is_exact(value: Numeric) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RankDistribution:
    """Probability distribution over matrix ranks 0..len(probs)-1.

    Entries are exact rationals when built from counts and floats otherwise.
    Every entry must be finite and non-negative.  An all-exact distribution
    must sum to exactly 1; a float-bearing one to 1 within 1e-12.
    """

    probs: Tuple[Numeric, ...]
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __init__(self, probs: Iterable[Numeric]):
        object.__setattr__(self, "probs", tuple(probs))
        if not self.probs:
            raise ValueError("rank distribution must have at least one entry")
        for i, p in enumerate(self.probs):
            if isinstance(p, bool) or not isinstance(p, (int, float, Fraction)):
                raise ValueError(f"entry {i} is not a number: {p!r}")
            if isinstance(p, float) and not math.isfinite(p):
                raise ValueError(f"entry {i} is not finite: {p}")
            if p < 0:
                raise ValueError(f"entry {i} is negative: {p}")
        total = sum(self.probs)
        object.__setattr__(self, "is_exact", all(_is_exact(p) for p in self.probs))
        if self.is_exact:
            if total != 1:
                raise ValueError(f"exact probabilities sum to {total}, not 1")
        elif abs(total - 1) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")

    @property
    def max_rank(self) -> int:
        return len(self.probs) - 1

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, rank: int) -> Numeric:
        return self.probs[rank]

    def as_floats(self) -> Tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


@dataclass(frozen=True)
class ChannelParams:
    """Field order, matrix shape and error rank distribution of a channel.

    ``support`` holds (rB, c_rB) for every error rank rB of positive
    probability: the weight P(rB) / N_rB (N_rB the rank class size) is the
    integer numerator c_rB over the common denominator ``denominator``, the
    lcm of the weights' denominators.  Law sums run over it only, since a
    term of probability 0 is an exact zero, and add integers before making
    one Fraction.  Weights are exact even for a float law (a float converts
    exactly), since a float P(rB) / N_rB overflows once N_rB leaves the
    float range.
    """

    q: int
    n: int
    m: int
    error_dist: RankDistribution
    support: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_field_order(self.q)
        _check_dims(n=self.n, m=self.m)
        if len(self.error_dist) != self.rank_count:
            raise ValueError(
                f"error distribution has {len(self.error_dist)} entries, "
                f"need min(n, m) + 1 = {self.rank_count}"
            )
        weights = [
            (rB, Fraction(p) / count_rank_matrices(self.n, self.m, rB, self.q))
            for rB, p in enumerate(self.error_dist)
            if p != 0
        ]
        denominator = math.lcm(*(w.denominator for _, w in weights))
        support = tuple(
            (rB, w.numerator * (denominator // w.denominator)) for rB, w in weights
        )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "denominator", denominator)

    @property
    def max_rank(self) -> int:
        return min(self.n, self.m)

    @property
    def rank_count(self) -> int:
        return self.max_rank + 1


def _check_rank(params: ChannelParams, **ranks: int) -> None:
    _check_dims(**ranks)
    for name, value in ranks.items():
        if value > params.max_rank:
            raise ValueError(
                f"{name} = {value} exceeds min(n, m) = {params.max_rank}"
            )


def rank_class_size(params: ChannelParams, r: int) -> int:
    """Number of n x m matrices of rank r over F_q."""
    _check_rank(params, r=r)
    return count_rank_matrices(params.n, params.m, r, params.q)


def rho_given_ranks(r: int, rX: int, rB: int, params: ChannelParams) -> Fraction:
    """P(rank(X+B) = r) for fixed rank(X) = rX and B uniform of rank rB."""
    _check_rank(params, r=r, rX=rX, rB=rB)
    q, n, m = params.q, params.n, params.m
    return Fraction(f2(r, rX, rB, n, m, q), count_rank_matrices(n, m, rB, q))


def rho_avg(r: int, rX: int, params: ChannelParams) -> Numeric:
    """P(rank(X+B) = r) for fixed rank(X) = rX, averaged over error ranks.

    Exact for an exact error law, a float otherwise.  Rank is a metric
    (|rank X - rank B| <= rank(X+B) <= rank X + rank B), so f2 is 0 unless
    |r - rX| <= rB <= r + rX and the sum runs over those error ranks only.
    """
    _check_rank(params, r=r, rX=rX)
    q, n, m = params.q, params.n, params.m
    total = Fraction(
        sum(
            c * f2(r, rX, rB, n, m, q)
            for rB, c in params.support
            if abs(r - rX) <= rB <= r + rX
        ),
        params.denominator,
    )
    return total if params.error_dist.is_exact else float(total)


def output_rank_distribution(
    input_ranks: RankDistribution, params: ChannelParams
) -> RankDistribution:
    """Rank distribution of the channel output A(X+B).

    A is invertible so rank(Y) = rank(X+B); the output law is the input law
    pushed through the rank transition kernel.  Input ranks of probability 0
    are skipped: their terms are exact zeros.
    """
    if len(input_ranks) != params.rank_count:
        raise ValueError(
            f"input distribution has {len(input_ranks)} entries, "
            f"need {params.rank_count}"
        )
    support = [(rX, p) for rX, p in enumerate(input_ranks.probs) if p != 0]
    return RankDistribution(
        sum(p * rho_avg(r, rX, params) for rX, p in support)
        for r in range(params.rank_count)
    )


def h_r(r: int, params: ChannelParams) -> float:
    """Output entropy H(A(M+B)) in bits for a fixed input M of rank r.

    The sum runs over row-space classes of the output, labelled by
    (v, h) = (dim V, dim((U+V)/V)) against U = row(M): each class holds
    weight-many spaces V, each reached with the same probability p(v, h),
    and conditioned on row(A(M+B)) = V the output is uniform over the
    f0(v) matrices with that row space.  A class is reached only by error
    ranks max(h, v + h - r) <= rB <= v + h: row B lies in U + V, while
    U <= V + row B and V <= U + row B; f1 is 0 for every other rB.
    """
    _check_rank(params, r=r)
    q, n, m = params.q, params.n, params.m
    total = 0.0
    for v in range(params.max_rank + 1):
        log_count_v = None
        # h = dim((U+V)/V) runs from max(0, r-v) (forced by
        # dim(U cap V) <= v) up to r, with v + h <= m; every such class
        # has positive weight.
        for h in range(max(0, r - v), min(r, m - v) + 1):
            numerator = sum(
                c * f1(r, v, h, rB, n, m, q)
                for rB, c in params.support
                if max(h, v + h - r) <= rB <= v + h
            )
            if numerator == 0:
                continue
            weight = (
                q ** ((v - r + h) * h)
                * qbinom_ext(m - r, v - r + h, q)
                * qbinom_ext(r, r - h, q)
            )
            p_vh = Fraction(numerator, params.denominator)
            if log_count_v is None:
                log_count_v = log2_exact(f0(v, n, m, q))
            total += weight * float(p_vh) * (log_count_v - log2_exact(p_vh))
    return total


def conditional_entropy(
    input_ranks: RankDistribution, params: ChannelParams
) -> float:
    """H(Y | X) in bits; depends on the input only through its ranks."""
    if len(input_ranks) != params.rank_count:
        raise ValueError("input distribution length mismatch")
    return sum(
        float(input_ranks[r]) * h_r(r, params)
        for r in range(params.rank_count)
        if input_ranks[r] != 0
    )


def output_entropy(input_ranks: RankDistribution, params: ChannelParams) -> float:
    """H(Y) in bits for an input uniform on each rank class.

    Y is then uniform within each rank class as well, so
    H(Y) = -sum_r R_Y(r) log2(R_Y(r) / N_r) with N_r the class size.
    """
    out = output_rank_distribution(input_ranks, params)
    total = 0.0
    for r in range(params.rank_count):
        p = out[r]
        if p == 0:
            continue
        ratio = (
            Fraction(p, rank_class_size(params, r))
            if _is_exact(p)
            else p / rank_class_size(params, r)
        )
        total -= float(p) * log2_exact(ratio)
    return total


def mutual_information(
    input_ranks: RankDistribution, params: ChannelParams
) -> float:
    """I(X; Y) in bits for an input uniform on each rank class."""
    return output_entropy(input_ranks, params) - conditional_entropy(
        input_ranks, params
    )


def count_spanning_tuples(t: int, r: int, q: int) -> int:
    """Ordered t-tuples of vectors spanning a fixed r-dimensional space.

    Inclusion-exclusion over the subspaces the tuple actually spans:
    sum_j (-1)^(r-j) q^(C(r-j,2)) qbinom(r,j) q^(jt).
    """
    _check_dims(t=t, r=r)
    validate_field_order(q)
    if r > t:
        return 0
    total = 0
    for j in range(r + 1):
        k = r - j
        term = q ** (k * (k - 1) // 2) * qbinom(r, j, q) * q ** (j * t)
        total += -term if k % 2 else term
    return total


def constant_rank_model(rank: int, n: int, m: int) -> RankDistribution:
    """Point mass: the error matrix always has the given rank."""
    _check_dims(rank=rank, n=n, m=m)
    if rank > min(n, m):
        raise ValueError(f"rank {rank} exceeds min(n, m) = {min(n, m)}")
    return RankDistribution(
        tuple(Fraction(1 if r == rank else 0) for r in range(min(n, m) + 1))
    )


def iid_vectors_model(num_vectors: int, q: int, n: int, m: int) -> RankDistribution:
    """Error rank distribution of num_vectors uniform i.i.d. rows.

    The rank is the dimension spanned by the random vectors in F_q^m:
    R(r) = qbinom(m, r) * count_spanning_tuples(t, r) / q^(mt).  The support
    never exceeds min(n, m, t) and the entries already sum to exactly 1, so
    no renormalization happens; num_vectors > n is rejected because an
    n x m error matrix cannot carry that many independent rows.
    """
    _check_dims(num_vectors=num_vectors, n=n, m=m)
    validate_field_order(q)
    if num_vectors > n:
        raise ValueError(
            f"num_vectors = {num_vectors} exceeds n = {n}; the error matrix "
            f"has only n rows"
        )
    t = num_vectors
    denom = q ** (m * t)
    probs = [
        Fraction(qbinom(m, r, q) * count_spanning_tuples(t, r, q), denom)
        for r in range(min(n, m, t) + 1)
    ]
    probs += [Fraction(0)] * (min(n, m) - min(n, m, t))
    return RankDistribution(probs)


def binomial_packets_model(
    num_packets: int, p: Numeric, q: int, n: int, m: int
) -> RankDistribution:
    """Mixture of iid_vectors models with Binomial(num_packets, p) count.

    Each of num_packets packets is corrupted independently with probability
    p; the corrupted packets contribute uniform i.i.d. error vectors.
    """
    _check_dims(num_packets=num_packets, n=n, m=m)
    validate_field_order(q)
    if isinstance(p, float):
        p = Fraction(str(p))
    if not 0 <= p <= 1:
        raise ValueError(f"packet corruption probability {p} not in [0, 1]")
    if num_packets > n:
        raise ValueError(
            f"num_packets = {num_packets} exceeds n = {n}; the error matrix "
            f"has only n rows"
        )
    probs = [Fraction(0)] * (min(n, m) + 1)
    for t in range(num_packets + 1):
        weight = (
            math.comb(num_packets, t) * p**t * (1 - p) ** (num_packets - t)
        )
        if weight == 0:
            continue
        component = iid_vectors_model(t, q, n, m)
        for r in range(len(probs)):
            probs[r] += weight * component[r]
    return RankDistribution(probs)


def empirical_model(probs: Sequence[Numeric], n: int, m: int) -> RankDistribution:
    """Validated pass-through of an explicit rank distribution.

    Shorter vectors are padded with zeros up to min(n, m) + 1 entries;
    longer ones are rejected, as are negative entries and vectors that do
    not sum to 1 (exactly for rational entries, within 1e-12 otherwise).
    """
    _check_dims(n=n, m=m)
    entries = list(probs)
    size = min(n, m) + 1
    if len(entries) > size:
        raise ValueError(
            f"distribution has {len(entries)} entries but ranks stop at "
            f"min(n, m) = {min(n, m)}"
        )
    pad = Fraction(0) if all(_is_exact(e) for e in entries) else 0.0
    entries += [pad] * (size - len(entries))
    return RankDistribution(entries)


def parse_error_model(spec: str, q: int, n: int, m: int) -> RankDistribution:
    """Build an error model from its compact text form.

    Grammar: ``kind`` optionally followed by ``:`` and arguments.

    - ``constant:t=2`` point mass at rank 2
    - ``iid:t=3`` three uniform i.i.d. error vectors
    - ``binomial:T=5,p=0.1`` Binomial(5, 0.1) corrupted packets
    - ``empirical:0.5,0.3,0.2`` explicit rank probabilities

    Decimal arguments are parsed exactly (0.1 means 1/10).
    """
    kind, _, argpart = spec.partition(":")
    kind = kind.strip()
    if kind == "empirical":
        if not argpart:
            raise ValueError("empirical model needs probabilities")
        values = [Fraction(tok.strip()) for tok in argpart.split(",")]
        return empirical_model(values, n, m)
    kwargs = {}
    if argpart:
        for tok in argpart.split(","):
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"malformed argument {tok!r} in {spec!r}")
            key = key.strip()
            if key in kwargs:
                raise ValueError(f"duplicate argument {key!r} in {spec!r}")
            kwargs[key] = val.strip()

    def _take_int(key: str) -> int:
        if key not in kwargs:
            raise ValueError(f"{kind} model needs {key}= in {spec!r}")
        try:
            return int(kwargs.pop(key))
        except ValueError:
            raise ValueError(f"{key} must be an integer in {spec!r}") from None

    if kind == "constant":
        t = _take_int("t")
        result = constant_rank_model(t, n, m)
    elif kind == "iid":
        t = _take_int("t")
        result = iid_vectors_model(t, q, n, m)
    elif kind == "binomial":
        big_t = _take_int("T")
        if "p" not in kwargs:
            raise ValueError(f"binomial model needs p= in {spec!r}")
        try:
            p = Fraction(kwargs.pop("p"))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"p must be a number in {spec!r}") from None
        result = binomial_packets_model(big_t, p, q, n, m)
    else:
        raise ValueError(
            f"unknown error model kind {kind!r}; expected constant, iid, "
            f"binomial or empirical"
        )
    if kwargs:
        raise ValueError(f"unknown arguments {sorted(kwargs)} in {spec!r}")
    return result


def uniform_rank_distribution(n: int, m: int) -> RankDistribution:
    """Uniform distribution over ranks 0..min(n, m)."""
    _check_dims(n=n, m=m)
    size = min(n, m) + 1
    return RankDistribution([Fraction(1, size)] * size)
