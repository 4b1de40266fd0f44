"""Exact big-integer subspace combinatorics over a finite field.

All counts are plain Python ints (arbitrary precision, never rounded).
Conventions:

- Public functions raise ``ValueError`` on malformed input (negative
  dimensions, non-prime-power q, dimensions beyond :data:`MAX_DIMENSION`).
- Combinatorially impossible but well-formed requests return 0, because the
  higher-level summations rely on out-of-range terms vanishing.
"""

from __future__ import annotations

from functools import lru_cache

#: Dimensions above this are refused so exponents like q**(n*m) stay tractable.
#: Reassign the module attribute to raise the bound.
MAX_DIMENSION = 64


@lru_cache(maxsize=256)
def is_prime_power(q: int) -> bool:
    """True iff q = p**k for a prime p and k >= 1, by trial division.

    Memoized: every exact count validates its field order on entry."""
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            while q % d == 0:
                q //= d
            return q == 1
        d += 1
    return True  # q itself is prime


def validate_field_order(q: int) -> int:
    """Return q unchanged if it is a prime power, else raise ValueError."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"field order must be an int, got {q!r}")
    if not is_prime_power(q):
        raise ValueError(f"field order must be a prime power >= 2, got {q}")
    return q


def _check_dims(**dims: int) -> None:
    """Raise ValueError naming the first dimension that is not an int in
    [0, MAX_DIMENSION].  Hot callers try :func:`_plain_args` first and come
    here only when it fails, for the message."""
    for name, value in dims.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if value > MAX_DIMENSION:
            raise ValueError(
                f"{name} = {value} exceeds MAX_DIMENSION = {MAX_DIMENSION}"
            )


def _plain_args(q: int, *dims: int) -> bool:
    """Whether q is a plain-int prime power and every dimension a plain int
    in [0, MAX_DIMENSION]: a positional fast path for hot callers, which run
    _check_dims and validate_field_order (and their messages) only when it
    fails."""
    if type(q) is not int or not is_prime_power(q):
        return False
    for value in dims:
        if type(value) is not int or not 0 <= value <= MAX_DIMENSION:
            return False
    return True


def _falling(a: int, k: int, q: int, start: int = 0) -> int:
    """prod_{start <= i < start + k} (q^a - q^i); 1 when k = 0."""
    qa = q**a
    out = 1
    for i in range(start, start + k):
        out *= qa - q**i
    return out


@lru_cache(maxsize=None)
def _qbinom_checked(m: int, d: int, q: int) -> int:
    if d > m:
        return 0
    d = min(d, m - d)
    quotient, remainder = divmod(_falling(m, d, q), _falling(d, d, q))
    if remainder:
        raise AssertionError("Gaussian binomial division must be exact")
    return quotient


def qbinom(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an m-dimensional F_q-space.

    Evaluates the telescoping product prod_{i<d} (q^m - q^i)/(q^d - q^i)
    with a single exact final division; 0 when d > m.
    """
    if not _plain_args(q, m, d):
        _check_dims(m=m, d=d)
        validate_field_order(q)
    return _qbinom_checked(m, d, q)


def qbinom_ext(m: int, d: int, q: int) -> int:
    """qbinom extended by 0 to every out-of-range argument.

    Interior summations index over wide ranges and rely on impossible
    configurations contributing nothing; this variant absorbs negative or
    oversized arguments instead of raising.
    """
    if d < 0 or m < 0 or d > m:
        return 0
    return _qbinom_checked(m, d, q)


def count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices of rank exactly r over F_q."""
    if not _plain_args(q, n, m, r):
        _check_dims(n=n, m=m, r=r)
        validate_field_order(q)
    if r > min(n, m):
        return 0
    return _qbinom_checked(m, r, q) * _falling(n, r, q)
