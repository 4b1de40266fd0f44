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

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple, Union

from .exactcomb import (
    count_rank_matrices,
    qbinom_ext,
    validate_field_order,
    _check_args,
    _falling,
    _NO_FIELD,
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


def ordered_sum(values: Iterable[Numeric]) -> Numeric:
    """Sum added left to right from 0; exact terms stay exact.  Float sums
    get the same bits on every CPython, where the built-in sum() of floats
    is compensated from 3.12 on."""
    total: Numeric = 0
    for value in values:
        total += value
    return total


def _sum_str(total: Union[int, Fraction]) -> str:
    """An exact sum as a short string: itself when its numerator and
    denominator are below 10**40, else 1 plus or minus its distance from 1
    to 6 significant digits.  str() of a Fraction with thousands of digits
    would raise the interpreter's int-to-str digit limit instead."""
    if max(total.numerator, total.denominator) < 10**40:
        return str(total)
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        excess = decimal.Decimal(total.numerator - total.denominator) / total.denominator
    return f"1 {'-' if excess < 0 else '+'} {abs(excess)}"


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
        total = ordered_sum(self.probs)
        object.__setattr__(self, "is_exact", all(_is_exact(p) for p in self.probs))
        if self.is_exact:
            if total != 1:
                raise ValueError(f"exact probabilities sum to {_sum_str(total)}, not 1")
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

    ``_numerators`` and ``_log_f0`` are :func:`h_r`'s store: the numerator
    sum_rB c_rB f1(u, v, h; rB) of a class by (u, v, h) with u >= v, and
    log2 f0(v) by v.  ``_workspace`` holds solver._workspace's tables.  All
    three start empty, fill on first use and are freed with the channel;
    like ``support`` they take no part in equality, hashing or repr.
    """

    q: int
    n: int
    m: int
    error_dist: RankDistribution
    support: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    _numerators: Dict[Tuple[int, int, int], int] = field(init=False, repr=False, compare=False)
    _log_f0: Dict[int, float] = field(init=False, repr=False, compare=False)
    _workspace: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_field_order(self.q)
        _check_args(_NO_FIELD, "n m", self.n, self.m)
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
        object.__setattr__(self, "_numerators", {})
        object.__setattr__(self, "_log_f0", {})

    @property
    def max_rank(self) -> int:
        return min(self.n, self.m)

    @property
    def rank_count(self) -> int:
        return self.max_rank + 1


def _check_rank(params: ChannelParams, *ranks: int) -> None:
    for name, value in zip(("r", "rX"), ranks):
        if type(value) is not int or not 0 <= value <= params.max_rank:
            _check_args(_NO_FIELD, name, value)
            if value > params.max_rank:
                raise ValueError(f"{name} = {value} exceeds min(n, m) = {params.max_rank}")


def rank_class_size(params: ChannelParams, r: int) -> int:
    """Number of n x m matrices of rank r over F_q."""
    _check_rank(params, r)
    return count_rank_matrices(params.n, params.m, r, params.q)


def rho_avg(r: int, rX: int, params: ChannelParams) -> Numeric:
    """P(rank(X+B) = r) for fixed rank(X) = rX, averaged over error ranks.

    Exact for an exact error law, a float otherwise.  Rank is a metric
    (|rank X - rank B| <= rank(X+B) <= rank X + rank B), so f2 is 0 unless
    |r - rX| <= rB <= r + rX and the sum runs over those error ranks only.
    """
    _check_rank(params, r, rX)
    q, n, m = params.q, params.n, params.m
    lo, hi = abs(r - rX), r + rX
    numerator = 0
    for rB, c in params.support:
        if lo <= rB <= hi:
            numerator += c * f2(r, rX, rB, n, m, q)
    total = Fraction(numerator, params.denominator)
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
        ordered_sum(p * rho_avg(r, rX, params) for rX, p in support)
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
    U <= V + row B and V <= U + row B; f1 is 0 for every other rB.  So only
    the classes whose band meets [lo, hi], the least and greatest supported
    error ranks, are walked, and a class whose band falls in a gap of the
    support is skipped as an exact zero.

    The class numerator sum_rB c_rB f1(r, v, h; rB) is taken for v <= r as
    it stands and for v > r by the mirror identity, as the integer
    f0(v) / f0(r) times the numerator of (v, r, v - r + h), whose band is
    the same.  So h_r asks f1 only for u >= v, each numerator once per
    mirror pair and channel, and log2 f0(v) once per rank and channel: both
    are kept in the channel's store.
    """
    _check_rank(params, r)
    q, n, m = params.q, params.n, params.m
    support, denominator = params.support, params.denominator
    lo, hi = support[0][0], support[-1][0]
    numerators, log_f0 = params._numerators, params._log_f0
    # The class weight q^((v - r + h) h) [m - r, v - r + h]_q [r, r - h]_q:
    # its two Gaussian binomials by j = v - r + h and by h.
    outer = [qbinom_ext(m - r, j, q) for j in range(m - r + 1)]
    inner = [qbinom_ext(r, r - h, q) for h in range(r + 1)]
    total = 0.0
    for v in range(params.max_rank + 1):
        # h = dim((U+V)/V) is at least r - v (dim(U cap V) <= v) and at most
        # r, with v + h <= m; every such class has positive weight.  The band
        # meets [lo, hi] iff lo <= v + h, h <= hi and v + h - r <= hi.
        h_lo, h_hi = max(0, r - v, lo - v), min(r, m - v, hi, hi + r - v)
        if h_lo > h_hi:
            continue
        mirror = _falling(n, v - r, q, r) if v > r else 1
        log_f0_v = log_f0.get(v)
        for h in range(h_lo, h_hi + 1):
            key = (r, v, h) if v <= r else (v, r, v - r + h)
            numerator = numerators.get(key)
            if numerator is None:
                # The band of (r, v, h), which its mirror shares.
                numerator, band_lo = 0, max(h, v + h - r)
                for rB, c in support:
                    if band_lo <= rB <= v + h:
                        numerator += c * f1(*key, rB, n, m, q)
                numerators[key] = numerator
            if numerator == 0:
                continue
            if log_f0_v is None:
                log_f0_v = log_f0[v] = log2_exact(f0(v, n, m, q))
            numerator *= mirror
            j = v - r + h
            weight = q ** (j * h) * outer[j] * inner[h]
            # log2 p(v, h) in lowest terms: the bits of log2_exact on the
            # reduced Fraction, which is never built.  The class mass
            # weight * p(v, h) by one correctly rounded integer division:
            # weight alone can pass the float range.
            g = math.gcd(numerator, denominator)
            log_p_vh = math.log2(numerator // g) - math.log2(denominator // g)
            mass = (weight * numerator) / denominator
            total += mass * (log_f0_v - log_p_vh)
    return total


def conditional_entropy(
    input_ranks: RankDistribution, params: ChannelParams
) -> float:
    """H(Y | X) in bits; depends on the input only through its ranks."""
    if len(input_ranks) != params.rank_count:
        raise ValueError("input distribution length mismatch")
    return ordered_sum(
        float(input_ranks[r]) * h_r(r, params)
        for r in range(params.rank_count)
        if input_ranks[r] != 0
    )


def output_entropy(input_ranks: RankDistribution, params: ChannelParams) -> float:
    """H(Y) in bits for an input uniform on each rank class.

    Y is then uniform within each rank class as well, so
    H(Y) = -sum_r R_Y(r) log2(R_Y(r) / N_r) with N_r the class size.  For
    a float R_Y(r) the log is taken as log2 R_Y(r) - log2 N_r, since N_r can
    pass the float range and math.log2 takes the int as it is.
    """
    out = output_rank_distribution(input_ranks, params)
    total = 0.0
    for r in range(params.rank_count):
        p = out[r]
        if p == 0:
            continue
        size = rank_class_size(params, r)
        if _is_exact(p):
            log_ratio = log2_exact(Fraction(p, size))
        else:
            log_ratio = math.log2(p) - math.log2(size)
        total -= float(p) * log_ratio
    return total


def mutual_information(
    input_ranks: RankDistribution, params: ChannelParams
) -> float:
    """I(X; Y) in bits for an input uniform on each rank class."""
    return output_entropy(input_ranks, params) - conditional_entropy(
        input_ranks, params
    )


def constant_rank_model(rank: int, n: int, m: int) -> RankDistribution:
    """Point mass: the error matrix always has the given rank."""
    _check_args(_NO_FIELD, "rank n m", rank, n, m)
    if rank > min(n, m):
        raise ValueError(f"rank {rank} exceeds min(n, m) = {min(n, m)}")
    return empirical_model([Fraction(0)] * rank + [Fraction(1)], n, m)


def iid_vectors_model(num_vectors: int, q: int, n: int, m: int) -> RankDistribution:
    """Error rank distribution of num_vectors uniform i.i.d. rows.

    The rank is that of a uniform t x m matrix, t = num_vectors:
    R(r) = N_r(t x m) / q^(mt), the binomial law with every one of t packets
    corrupted.  num_vectors > n is rejected because an n x m error matrix
    cannot carry that many independent rows.
    """
    _check_args(q, "num_vectors n m", num_vectors, n, m)
    if num_vectors > n:
        raise ValueError(
            f"num_vectors = {num_vectors} exceeds n = {n}; the error matrix "
            f"has only n rows"
        )
    return binomial_packets_model(num_vectors, 1, q, n, m)


def binomial_packets_model(
    num_packets: int, p: Numeric, q: int, n: int, m: int
) -> RankDistribution:
    """Mixture of iid_vectors models with Binomial(num_packets, p) count.

    Each of num_packets packets is corrupted independently with probability
    p; the corrupted packets contribute uniform i.i.d. error vectors, so
    R(r) = sum_t C(T, t) p^t (1-p)^(T-t) N_r(t x m) / q^(mt).
    """
    _check_args(q, "num_packets n m", num_packets, n, m)
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
        weight = Fraction(
            math.comb(num_packets, t) * p**t * (1 - p) ** (num_packets - t),
            q ** (m * t),
        )
        if weight == 0:
            continue
        for r in range(min(t, m) + 1):
            probs[r] += weight * count_rank_matrices(t, m, r, q)
    return RankDistribution(probs)


def empirical_model(probs: Sequence[Numeric], n: int, m: int) -> RankDistribution:
    """Validated pass-through of an explicit rank distribution.

    Shorter vectors are padded with zeros up to min(n, m) + 1 entries;
    longer ones are rejected, as are negative entries and vectors that do
    not sum to 1 (exactly for rational entries, within 1e-12 otherwise).
    """
    _check_args(_NO_FIELD, "n m", n, m)
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
        try:
            values = [Fraction(tok.strip()) for tok in argpart.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"probabilities must be numbers in {spec!r}") from None
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

