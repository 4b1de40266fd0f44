"""Exact big-integer subspace combinatorics over a finite field.

All counts are plain Python ints (arbitrary precision, never rounded).
Conventions:

- Public functions raise ``ValueError`` on malformed input (negative
  dimensions, non-prime-power q, dimensions beyond :data:`MAX_DIMENSION`)
  and on a q whose prime root cannot be certified (at least
  :data:`_MR_EXACT_BELOW`, about 3.3e24).
- Combinatorially impossible but well-formed requests return 0, because the
  higher-level summations rely on out-of-range terms vanishing.
- The kernels qbinom_ext (filled by the q-Pascal rule, with no division)
  and _count_rank_matrices check nothing; the public functions check first.
"""

from __future__ import annotations

from functools import lru_cache

#: Dimensions above this are refused so exponents like q**(n*m) stay tractable.
MAX_DIMENSION = 64

#: Miller-Rabin on the primes up to 41 as bases decides primality exactly
#: below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by integer Newton steps from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(r: int) -> bool:
    """Whether r >= 2 is prime: Miller-Rabin on :data:`_MR_BASES`, whose
    "composite" is always right and whose "prime" is exact below
    :data:`_MR_EXACT_BELOW`.  A larger probable prime cannot be certified
    here and is refused with ValueError."""
    for p in _MR_BASES:
        if r % p == 0:
            return r == p
    d, s = r - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, r)
        if x == 1 or x == r - 1:
            continue
        for _ in range(s - 1):
            x = x * x % r
            if x == r - 1:
                break
        else:
            return False
    if r >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify that {r} is prime: Miller-Rabin is exact only below {_MR_EXACT_BELOW}"
        )
    return True


@lru_cache(maxsize=256)
def is_prime_power(q: int) -> bool:
    """True iff q = p**k for a prime p and k >= 1.

    q = p**k exactly when the root r of the largest k for which q is an
    exact k-th power is prime (r = p); any other q has a root with two
    prime factors.  So the cost is polynomial in log q: one integer root
    per k <= log2 q and one primality test, which refuses a probable prime
    root it cannot certify (:func:`_is_prime`).  Memoized: every exact count
    validates its field order on entry."""
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 1, -1):
        r = _iroot(q, k)
        if r**k == q:
            return _is_prime(r)
    return _is_prime(q)


def validate_field_order(q: int) -> int:
    """Return q unchanged if it is a prime power, else raise ValueError."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"field order must be an int, got {q!r}")
    if not is_prime_power(q):
        raise ValueError(f"field order must be a prime power >= 2, got {q}")
    return q


#: The field order of a :func:`_check_args` call that checks dimensions only;
#: not None, which a caller may pass as a bad field order.
_NO_FIELD = object()


def _check_args(q: int, names: str, *values: int) -> None:
    """Check a field order and dimensions, the one argument check of every
    exact count.

    ``names`` names the values in order, separated by spaces.  Returns at
    once when q is a plain-int prime power (or :data:`_NO_FIELD`) and every
    value a plain int in [0, MAX_DIMENSION].  Otherwise raises ValueError
    naming the first value that is not an int in that range, and then
    checks q by :func:`validate_field_order`."""
    if type(q) is int and is_prime_power(q) or q is _NO_FIELD:
        for value in values:
            if type(value) is not int or not 0 <= value <= MAX_DIMENSION:
                break
        else:
            return
    for name, value in zip(names.split(), values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if value > MAX_DIMENSION:
            raise ValueError(f"{name} = {value} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
    if q is not _NO_FIELD:
        validate_field_order(q)


def _falling(a: int, k: int, q: int, start: int = 0) -> int:
    """prod_{start <= i < start + k} (q^a - q^i); 1 when k = 0."""
    qa = q**a
    out = 1
    for i in range(start, start + k):
        out *= qa - q**i
    return out


def qbinom(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an m-dimensional F_q-space.

    Checks its arguments, then reads :func:`qbinom_ext`; 0 when d > m.
    """
    _check_args(q, "m d", m, d)
    return qbinom_ext(m, d, q)


@lru_cache(maxsize=None)
def qbinom_ext(m: int, d: int, q: int) -> int:
    """The Gaussian binomial [m, d]_q, extended by 0 to every out-of-range
    argument, and cached.  It checks no argument: qbinom and
    count_rank_matrices check theirs before they read it.

    Interior summations index over wide ranges and rely on impossible
    configurations contributing nothing, so negative or oversized arguments
    give 0 instead of raising.  In range it fills its cache by the q-Pascal
    rule [m, d] = [m-1, d-1] + q^d [m-1, d], with no division.
    """
    if d < 0 or d > m:
        return 0
    if d == 0 or d == m:
        return 1
    return qbinom_ext(m - 1, d - 1, q) + q**d * qbinom_ext(m - 1, d, q)


def count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices of rank exactly r over F_q."""
    _check_args(q, "n m r", n, m, r)
    return _count_rank_matrices(n, m, r, q)


def _count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    # Past min(n, m) one of the two factors is 0.
    return qbinom_ext(m, r, q) * _falling(n, r, q)
