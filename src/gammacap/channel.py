"""Channel model: rank distributions, error models, transition law, entropies.

The channel takes an input matrix X in F_q^{n x m}, adds a random error
matrix B whose rank follows a prescribed distribution (uniform within each
rank class), and multiplies by a uniform invertible A: the receiver sees
A(X + B).  Everything observable about the law depends on X only through
rank(X), so the model works with distributions over ranks 0..min(n, m).

Probabilities derived from counts are exact `fractions.Fraction` values;
entropies are evaluated in bits at the last step.  The 0*log(0) = 0
convention applies throughout.  An exact sum adds integer numerators over
one common denominator and makes one Fraction per result entry: the error
weights of ChannelParams, rho_avg's kernel, output_rank_distribution for an
exact law and input, and the check that an exact RankDistribution sums to 1.

Outside text is checked where it enters, by _exact_numbers and _int_token,
against one grammar and one size rule before Fraction or int sees a token.
A refusal hands each value it names, raw, to exactcomb._excerpt, which
quotes an int by its digits at any size and anything else by its repr:
whole up to 60 characters, else its first 60 and its length.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

# qbinom_ext is unused here; perfbench/tracing.py counts calls through this name.
from .exactcomb import (
    qbinom_ext,
    validate_field_order,
    _check_args,
    _excerpt,
    _count_rank_matrices as count_rank_matrices,
    _NO_FIELD,
)
# Unchecked kernels: ChannelParams validates q, n and m; every rank is loop-bounded.
from .matrixfn import _f0 as f0, _f1 as f1, _f2 as f2, _meet_count as meet_count
from .matrixfn import _hold_shape

Numeric = Union[int, float, Fraction]
Kernel = Tuple[Tuple[Tuple[int, ...], int], ...]

_SUM_TOLERANCE = 1e-12
_SIX_DIGITS = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def ordered_sum(values: Iterable[Numeric]) -> Numeric:
    """Sum added left to right from 0; exact terms stay exact.  Float sums
    get the same bits on every CPython, where the built-in sum() of floats
    is compensated from 3.12 on."""
    total: Numeric = 0
    for value in values:
        total += value
    return total


def _short_str(value: Union[int, Fraction], near: int = 0) -> str:
    """An exact value as a short string: itself when its numerator and
    denominator are below 10**40, else near plus or minus its distance from
    near (the signed distance alone when near is 0), to 6 significant digits
    as decimal prints them, at any exponent.  str() of a Fraction with
    thousands of digits would raise the interpreter's int-to-str limit."""
    a, b = value.numerator, value.denominator
    if max(abs(a), b) < 10**40:
        return str(value)
    a -= near * b
    shown = str(_SIX_DIGITS.divide(abs(a), b))
    if near:
        return f"{near} {'-' if a < 0 else '+'} {shown}"
    return f"-{shown}" if a < 0 else shown


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
        exact = True
        for i, p in enumerate(self.probs):
            if isinstance(p, float):
                if not math.isfinite(p):
                    raise ValueError(f"entry {i} is not finite: {_excerpt(p)}")
                exact, negative = False, p < 0
            elif _is_exact(p):
                # A Fraction's sign is its numerator's: no Fraction comparison.
                negative = p.numerator < 0
            else:
                raise ValueError(f"entry {i} is not a number: {_excerpt(p)}")
            if negative:
                raise ValueError(f"entry {i} is negative: {_excerpt(p)}")
        object.__setattr__(self, "is_exact", exact)
        if exact:
            # Integer numerators over the lcm of the denominators, which sum
            # to it exactly when the law sums to 1; the Fraction total is
            # formed only to word a refusal.
            lcm = math.lcm(*(p.denominator for p in self.probs))
            total = sum(p.numerator * (lcm // p.denominator) for p in self.probs)
            if total != lcm:
                raise ValueError(
                    f"exact probabilities sum to {_short_str(Fraction(total, lcm), 1)}, not 1"
                )
        else:
            total = ordered_sum(self.probs)
            if abs(total - 1) > _SUM_TOLERANCE:
                raise ValueError(f"probabilities sum to {float(total)}, not 1")

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

    ``sizes`` holds the rank class sizes N_0, ..., N_min(n, m), each counted
    once per channel.  ``support`` holds (rB, c_rB) for every error rank rB
    of positive probability: the weight P(rB) / N_rB is the integer
    numerator c_rB over the common denominator ``denominator``, the lcm of
    the weights' denominators.  Law sums run over it only, since a term of
    probability 0 is an exact zero, and add integers before making one
    Fraction.  Weights are exact even for a float law (a float converts
    exactly), since a float P(rB) / N_rB overflows once N_rB leaves the
    float range.

    ``_workspace``, the one private slot, holds solver._workspace's tables
    from the channel's first use on; like ``sizes`` and ``support`` it takes
    no part in equality, hashing or repr.
    """

    q: int
    n: int
    m: int
    error_dist: RankDistribution
    sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    support: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    _workspace: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_field_order(self.q)
        _check_args(_NO_FIELD, "n m", self.n, self.m)
        if not isinstance(self.error_dist, RankDistribution):
            raise TypeError(
                f"error_dist must be a RankDistribution, got {type(self.error_dist).__name__}"
            )
        if len(self.error_dist) != self.rank_count:
            raise ValueError(
                f"error distribution has {len(self.error_dist)} entries, "
                f"need min(n, m) + 1 = {self.rank_count}"
            )
        q, n, m = self.q, self.n, self.m
        sizes = tuple(count_rank_matrices(n, m, r, q) for r in range(self.rank_count))
        weights = [(rB, Fraction(p) / sizes[rB]) for rB, p in enumerate(self.error_dist) if p != 0]
        denominator = math.lcm(*(w.denominator for _, w in weights))
        support = tuple(
            (rB, w.numerator * (denominator // w.denominator)) for rB, w in weights
        )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "denominator", denominator)

    @property
    def max_rank(self) -> int:
        return min(self.n, self.m)

    @property
    def rank_count(self) -> int:
        return self.max_rank + 1


def rank_class_size(params: ChannelParams) -> Tuple[int, ...]:
    """(N_0, ..., N_min(n, m)): the number of n x m matrices of each rank."""
    return params.sizes


def _joint(params: ChannelParams, ranks: Iterable[int]) -> List[List[Optional[int]]]:
    """The numerators J[ry][rx] = denominator * N_rx * T(ry | rx) of the
    columns rx in ``ranks``, each symmetric pair formed once per call.
    Column rx is row rx of J; entries of no column asked for are None.
    J is the caller's, so every call forms its columns afresh and nothing
    is kept on the channel.  The counts come from matrixfn's tables of the
    channel's shape (matrixfn._hold_shape).

    P(X + B = Y) depends on rank(Y - X) only, so the kernel is reversible,
    N_rx T(ry | rx) = N_ry T(rx | ry) (Delsarte's bilinear-forms scheme):
    both are N_b sum_rB c_rB f2(a, b, rB), a = min and b = max of ry, rx,
    whose f2 terms are f1 entries u >= v, as in h_r.  Rank is a metric, so
    f2 is 0 unless b - a <= rB <= a + b: only those rB are summed.
    """
    q, n, m, k = params.q, params.n, params.m, params.rank_count
    _hold_shape(q, n, m)
    joint: List[List[Optional[int]]] = [[None] * k for _ in range(k)]
    for rx in ranks:
        col = joint[rx]
        for ry in range(k):
            if col[ry] is None:
                a, b = (ry, rx) if ry < rx else (rx, ry)
                total = 0
                for rB, c in params.support:
                    if b - a <= rB <= a + b:
                        total += c * f2(a, b, rB, n, m, q)
                col[ry] = joint[ry][rx] = params.sizes[b] * total
    return joint


def rho_avg(params: ChannelParams) -> Kernel:
    """The rank transition kernel T(ry | rx) = P(rank(X+B) = ry | rank X = rx),
    averaged over error ranks, exactly: per input rank rx the column
    (numerators, denominator), T(ry | rx) = numerators[ry] / denominator
    and denominator = params.denominator * N_rx, N = params.sizes.  Exact
    for every error law, as ``params.support`` is.  The numerators are
    _joint's, every column, formed by this call; each pair ry <= rx is
    formed once.
    """
    joint, sizes = _joint(params, range(params.rank_count)), params.sizes
    return tuple((tuple(col), params.denominator * size) for col, size in zip(joint, sizes))


def output_rank_distribution(
    input_ranks: RankDistribution, params: ChannelParams
) -> RankDistribution:
    """Rank distribution of the channel output A(X+B).

    A is invertible so rank(Y) = rank(X+B); the output law is the input law
    pushed through rho_avg's kernel, whose numerators _joint forms, each
    pair once per call, only for the input ranks of positive probability
    (exact zeros otherwise).  For an exact law and input,
    P(rx) / N_rx = a_rx / b_rx, not reduced, is the integer
    w_rx = a_rx L / b_rx over the lcm L of the b_rx, and output rank ry is
    the one Fraction
    sum_rx w_rx J[ry][rx] / (L * params.denominator).
    Otherwise each kernel entry is one correctly rounded float division
    before it is weighted.
    """
    if len(input_ranks) != params.rank_count:
        raise ValueError(
            f"input distribution has {len(input_ranks)} entries, "
            f"need {params.rank_count}"
        )
    k, sizes, den, probs = params.rank_count, params.sizes, params.denominator, input_ranks.probs
    ranks = [rx for rx, p in enumerate(probs) if p]
    joint = _joint(params, ranks)
    if params.error_dist.is_exact and input_ranks.is_exact:
        weights = [
            (joint[rx], probs[rx].numerator, probs[rx].denominator * sizes[rx]) for rx in ranks
        ]
        lcm = math.lcm(*(b for _, _, b in weights))
        scaled = [(col, a * (lcm // b)) for col, a, b in weights]
        return RankDistribution(
            Fraction(sum(c * col[ry] for col, c in scaled), lcm * den) for ry in range(k)
        )
    columns = [(probs[rx], [num / (den * sizes[rx]) for num in joint[rx]]) for rx in ranks]
    return RankDistribution(ordered_sum(p * col[r] for p, col in columns) for r in range(k))


def h_r(params: ChannelParams) -> Tuple[float, ...]:
    """Output entropies H(A(M+B)) in bits for a fixed input M of each rank
    r = 0..min(n, m): the vector (h_0, ..., h_min(n, m)).

    The sum for rank r runs over row-space classes of the output, labelled by
    (v, h) = (dim V, dim((U+V)/V)) against U = row(M).  Class (v, h) holds
    the spaces V that meet U in dimension r - h, q^(j h) [m - r, j]_q
    [r, r - h]_q of them with j = v - r + h: its weight, read from
    matrixfn._meet_count(m, r, v, r - h), whose entries f2 reads again.
    Each V is reached with the same probability p(v, h), and conditioned on
    row(A(M+B)) = V the output is uniform over the f0(v) matrices with that
    row space.  A class is reached only by error ranks
    max(h, v + h - r) <= rB <= v + h: row B lies in U + V, while
    U <= V + row B and V <= U + row B; f1 is 0 for every other rB.

    Classes come in mirror pairs, f0(u) f1(u, v, h) = f0(v) f1(v, u,
    v - u + h), whose bands are the same.  So the walk visits each key
    (u, v, h) with u >= v once, by u, then v, then h, and forms its
    numerator sum_rB c_rB f1(u, v, h; rB) once, over the band
    h <= rB <= v + h.  The key is class (v, h) of input rank u; for v < u
    its mirror, class (u, h - u + v) of input rank v, gets the numerator
    times the integer f0(u) / f0(v) = prod_{v <= i < u} (q^n - q^i).
    Entry r gets its own classes at step r and then its mirror classes at
    the steps u > r, in the order of a rank-by-rank walk, so its float sum
    keeps its bits.  Only the keys whose band
    meets [lo, hi], the least and greatest supported error ranks, are
    walked: max(u - v, lo - v) <= h <= min(u, m - v, hi), since
    dim(U cap V) <= v and v + h <= m; one whose band falls in a gap of the
    support is skipped as an exact zero.
    """
    q, n, m, k = params.q, params.n, params.m, params.rank_count
    _hold_shape(q, n, m)
    support, denominator = params.support, params.denominator
    lo, hi, qn = support[0][0], support[-1][0], q**n
    log_f0 = [math.log2(f0(v, n, m, q)) for v in range(k)]
    h_vec = [0.0] * k
    factors: List[int] = []

    def add(r: int, v: int, h: int, numerator: int) -> None:
        # log2 p(v, h) from its numerator and denominator in lowest terms;
        # the Fraction is never built.  The class mass weight * p(v, h) by
        # one correctly rounded integer division: weight alone can pass the
        # float range.
        g = math.gcd(numerator, denominator)
        log_p_vh = math.log2(numerator // g) - math.log2(denominator // g)
        mass = meet_count(m, r, v, r - h, q) * numerator / denominator
        h_vec[r] += mass * (log_f0[v] - log_p_vh)

    for u in range(k):
        # factors[v] = f0(u) / f0(v).
        factors = [f * (qn - q ** (u - 1)) for f in factors] + [1]
        for v in range(u + 1):
            for h in range(max(u - v, lo - v), min(u, m - v, hi) + 1):
                numerator = 0
                for rB, c in support:
                    if h <= rB <= v + h:
                        numerator += c * f1(u, v, h, rB, n, m, q)
                if numerator:
                    add(u, v, h, numerator)
                    if v < u:
                        add(v, u, h - u + v, numerator * factors[v])
    return tuple(h_vec)


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
    R(r) = sum_t C(T, t) p^t (1-p)^(T-t) N_r(t x m) / q^(mt), summed as
    integer numerators over b^T q^(mT) for p = a / b.  p is an int (not a
    bool), a Fraction or a finite float, read as the decimal its str gives.
    """
    _check_args(q, "num_packets n m", num_packets, n, m)
    if isinstance(p, float) and math.isfinite(p):
        p = Fraction(str(p))
    elif not _is_exact(p):
        raise ValueError(
            f"packet corruption probability must be an int, a Fraction or a finite "
            f"float, got {_excerpt(p)}"
        )
    if not 0 <= p <= 1:
        raise ValueError(f"packet corruption probability {_short_str(p)} not in [0, 1]")
    if num_packets > n:
        raise ValueError(
            f"num_packets = {num_packets} exceeds n = {n}; the error matrix "
            f"has only n rows"
        )
    a, b = p.numerator, p.denominator
    numerators = [0] * (min(n, m) + 1)
    for t in range(num_packets + 1):
        left = num_packets - t
        weight = math.comb(num_packets, t) * a**t * (b - a) ** left * q ** (m * left)
        if weight == 0:
            continue
        for r in range(min(t, m) + 1):
            numerators[r] += weight * count_rank_matrices(t, m, r, q)
    denominator = b**num_packets * q ** (m * num_packets)
    return RankDistribution(Fraction(c, denominator) for c in numerators)


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


#: The one grammar of a spec's numbers, alike on every CPython: a sign, then
#: a/b with b > 0 or a decimal, in ASCII digits.  Fraction() alone also takes
#: non-ASCII digits, 1_0 from 3.11 on and 1 / 2 from 3.12 on.  The decimals
#: alone are the CLI's --tol, where float() would take 1_0 and inf as well.
#: _exact_numbers checks it and _MAX_DIGITS before a token reaches Fraction.
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_EXACT_NUMBER = re.compile(r"[+-]?\d+/0*[1-9]\d*|" + _DECIMAL.pattern, re.ASCII)

#: The size rule: one outside text's numbers (an error spec, ranks --input)
#: hold at most this many digits in all, and an integer token at most this
#: many.  It is the interpreter's int-to-str limit, 4 300, so every number
#: parsed, and the lcm of a law's denominators, prints back in a moment.
_MAX_DIGITS = sys.int_info.default_max_str_digits


def _exact_numbers(text: str, source: str) -> List[Fraction]:
    """The comma-separated tokens of ``text``, trimmed at their ends, as exact
    Fractions (0.1 is 1/10); each must match :data:`_EXACT_NUMBER`.  Together
    they hold at most :data:`_MAX_DIGITS` digits, a decimal adding the
    magnitude of its exponent, read to one digit more than the bound has.
    A refusal names the text by ``source``, as the caller quotes it."""
    tokens = [token.strip() for token in text.split(",")]
    size = 0
    for token in tokens:
        if not _EXACT_NUMBER.fullmatch(token):
            raise ValueError(f"malformed number {_excerpt(token)} in {source}")
        digits, _, exponent = token.lower().partition("e")
        exponent = exponent.lstrip("+-0")[: len(str(_MAX_DIGITS)) + 1] or 0
        size += sum(map(str.isdigit, digits)) + int(exponent)
    if size > _MAX_DIGITS:
        raise ValueError(f"numbers in {source} hold more than {_MAX_DIGITS} digits in all")
    return [Fraction(token) for token in tokens]


def _int_token(text: str) -> int:
    """t=, T= or a CLI integer flag: ASCII digits only, where int() would also
    take 1_6 and non-ASCII digits, and at most :data:`_MAX_DIGITS` of them."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"takes ASCII digits only, got {_excerpt(text)}")
    if len(text) > _MAX_DIGITS:
        raise ValueError(f"takes at most {_MAX_DIGITS} digits, got {len(text)}")
    return int(text)


def parse_error_model(spec: str, q: int, n: int, m: int) -> RankDistribution:
    """Build an error model from its compact text form.

    Grammar: ``kind`` optionally followed by ``:`` and arguments.

    - ``constant:t=2`` point mass at rank 2
    - ``iid:t=3`` three uniform i.i.d. error vectors
    - ``binomial:T=5,p=0.1`` Binomial(5, 0.1) corrupted packets
    - ``empirical:0.5,0.3,0.2`` explicit rank probabilities

    Decimal arguments are parsed exactly (0.1 means 1/10).
    """
    source = _excerpt(spec)
    kind, _, argpart = spec.partition(":")
    kind = kind.strip()
    if kind == "empirical":
        return empirical_model(_exact_numbers(argpart, source), n, m)
    kwargs = {}
    if argpart:
        for tok in argpart.split(","):
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"malformed argument {_excerpt(tok)} in {source}")
            key = key.strip()
            if key in kwargs:
                raise ValueError(f"duplicate argument {_excerpt(key)} in {source}")
            kwargs[key] = val.strip()

    def _take_int(key: str) -> int:
        if key not in kwargs:
            raise ValueError(f"{kind} model needs {key}= in {source}")
        try:
            return _int_token(kwargs.pop(key))
        except ValueError as refused:
            raise ValueError(f"{key} {refused} in {source}") from None

    if kind == "constant":
        result = constant_rank_model(_take_int("t"), n, m)
    elif kind == "iid":
        result = iid_vectors_model(_take_int("t"), q, n, m)
    elif kind == "binomial":
        big_t = _take_int("T")
        if "p" not in kwargs:
            raise ValueError(f"binomial model needs p= in {source}")
        (p,) = _exact_numbers(kwargs.pop("p"), source)
        result = binomial_packets_model(big_t, p, q, n, m)
    else:
        raise ValueError(
            f"unknown error model kind {_excerpt(kind)}; expected constant, iid, "
            f"binomial or empirical"
        )
    if kwargs:
        raise ValueError(f"unknown arguments {_excerpt(sorted(kwargs))} in {source}")
    return result

