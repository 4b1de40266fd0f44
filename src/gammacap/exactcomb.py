"""Exact big-integer subspace combinatorics over a finite field.

All counts are plain Python ints (arbitrary precision, never rounded).
Conventions:

- Public functions raise ``ValueError`` on malformed input (negative
  dimensions, non-prime-power q, dimensions beyond :data:`MAX_DIMENSION`)
  and on a q whose root is not certified prime or composite (one at
  least :data:`_MR_EXACT_BELOW`, about 3.3e24, with no prime factor up
  to 41).  Every refusal of the package quotes the value it names
  through :func:`_excerpt`, which cuts at 60 characters and formats only
  the leading digits of an int of any size, or of a Fraction's numerator
  and denominator.
- Combinatorially impossible but well-formed requests return 0, because the
  higher-level summations rely on out-of-range terms vanishing.
- The kernels qbinom_ext (the q-Pascal rule, with no division, each
  [m, d]_q formed once and kept only in the dict _PASCAL) and
  _count_rank_matrices check nothing; the public functions check first.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

#: Dimensions above this are refused so exponents like q**(n*m) stay tractable.
MAX_DIMENSION = 64

#: Miller-Rabin on the primes up to 41 as bases decides primality exactly
#: below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


#: How many characters of a value a refusal quotes.
_QUOTED_CHARS = 60

#: log10(2), by which an int's bit length sizes its decimal text.
_LOG10_2 = math.log10(2)


def _digits(k: int) -> str:
    """``k`` in decimal digits, through Decimal, which lacks str()'s 4 300-digit limit."""
    return str(decimal.Decimal(k))


def _leading_digits(k: int) -> Tuple[str, int]:
    """The start of ``k``'s decimal text, whole for a k of up to about 120
    digits and else its first 120 or so characters, and the length of the
    whole text.  Only the leading digits are formatted: k // 10**s drops
    exactly s digits, for an s sized from k's bit length."""
    shift = max(0, int(k.bit_length() * _LOG10_2) - 2 * _QUOTED_CHARS)
    head = str(abs(k) // 10**shift)
    sign = "-" if k < 0 else ""
    return sign + head, len(sign) + len(head) + shift


def _excerpt(value: object) -> str:
    """``value`` as a refusal quotes it, an int (not a bool) by its decimal
    digits and anything else by its repr: whole up to :data:`_QUOTED_CHARS`
    characters, else its first _QUOTED_CHARS and then its length.  A
    Fraction whose repr raises ValueError (one of its ints is past the
    interpreter's 4 300-digit limit) is quoted as its repr would read, from
    the digits of its numerator and denominator, and any other such value,
    such as a list holding that int, by its type name."""
    if type(value) is not bool and isinstance(value, int):
        text, size = _leading_digits(value)
    else:
        try:
            text = repr(value)
        except ValueError:
            if isinstance(value, Fraction):
                (num, num_size), (den, den_size) = map(
                    _leading_digits, (value.numerator, value.denominator)
                )
                text, size = f"Fraction({num}, {den})", 12 + num_size + den_size
            else:
                text = f"<{type(value).__name__} object>"
                size = len(text)
        else:
            # A short repr, such as every error model spec that a query
            # parses, returns here.
            if len(text) <= _QUOTED_CHARS:
                return text
            size = len(text)
    if size <= _QUOTED_CHARS:
        return text
    return f"{text[:_QUOTED_CHARS]}... ({size} characters)"


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by integer Newton steps from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(r: int) -> bool:
    """Whether r >= 2 is prime: Miller-Rabin on :data:`_MR_BASES`, which
    decides exactly below :data:`_MR_EXACT_BELOW`.  From that bound on no
    outcome could be accepted: a composite is no prime power's root, and a
    probable prime cannot be certified.  So an r there that no base divides
    is refused with ValueError before any round, which for an r of
    thousands of digits would take seconds each."""
    for p in _MR_BASES:
        if r % p == 0:
            return r == p
    if r >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify whether {_excerpt(r)} is prime: "
            f"Miller-Rabin is exact only below {_MR_EXACT_BELOW}"
        )
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
    return True


#: The least prime not in :data:`_MR_BASES`: every root of a q that no base
#: divides is at least this.
_LEAST_ROOT = 43


def _exact_root(q: int, k: int) -> Optional[int]:
    """The k-th root of q when q is an exact k-th power, else None, for a
    prime k.  A k-th power is a k-th power residue modulo every prime
    p = 1 (mod k), so three such p screen q first, each by one pow modulo
    p; only a q that passes all three pays for the integer root."""
    found, p = 0, 1
    while found < 3:
        p += 2 * k
        if _is_prime(p):
            found += 1
            if pow(q % p, (p - 1) // k, p) > 1:
                return None
    r = _iroot(q, k)
    return r if r**k == q else None


@lru_cache(maxsize=256)
def is_prime_power(q: int) -> bool:
    """True iff q = p**k for a prime p and k >= 1.

    If a prime p of :data:`_MR_BASES` divides q, q is a prime power exactly
    when it is a power of p.  Otherwise every root of q is at least
    :data:`_LEAST_ROOT`, and q is replaced by its k-th root while it is an
    exact k-th power for a prime k with _LEAST_ROOT**k <= q
    (:func:`_exact_root`).  What is left is the root of q that is no exact
    power, and q = p**k exactly when that root is prime.  So the cost is
    polynomial in log q: a residue screen per prime exponent, an integer
    root only where the screen passes, and one primality test, which
    refuses a root past what it certifies before any Miller-Rabin round
    (:func:`_is_prime`).
    Memoized: every exact count validates its field order on entry."""
    if q < 2:
        return False
    for p in _MR_BASES:
        if q % p == 0:
            # A power of p is p**e with e the rounded log; floats are off by
            # far less than 1/2 for every e that fits in memory.
            return p ** round(math.log(q, p)) == q
    k = 2
    while _LEAST_ROOT**k <= q:
        root = _exact_root(q, k)
        if root is not None:
            q = root
            continue
        k += 1
        while not _is_prime(k):
            k += 1
    return _is_prime(q)


def validate_field_order(q: int) -> int:
    """Return q unchanged if it is a prime power, else raise ValueError."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"field order must be an int, got {_excerpt(q)}")
    if not is_prime_power(q):
        raise ValueError(f"field order must be a prime power >= 2, got {_excerpt(q)}")
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
        shown = _excerpt(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {shown}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {shown}")
        if value > MAX_DIMENSION:
            raise ValueError(f"{name} = {shown} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
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


#: Every [m, d]_q that qbinom_ext has formed, keyed by (m, d, q): the one
#: cache of the Gaussian binomials.
_PASCAL: Dict[Tuple[int, int, int], int] = {}


def qbinom_ext(m: int, d: int, q: int) -> int:
    """The Gaussian binomial [m, d]_q, extended by 0 to every out-of-range
    argument.  It checks no argument: qbinom and count_rank_matrices check
    theirs before they read it.

    Interior summations index over wide ranges and rely on impossible
    configurations contributing nothing, so negative or oversized arguments
    give 0 instead of raising.  In range it reads [m, d] from
    :data:`_PASCAL`, and on a miss fills it by the q-Pascal rule
    [m, d] = [m-1, d-1] + q^d [m-1, d], with no division.  A stack of the
    entries still to form stands in for recursion: it goes down a row only
    to an entry not yet in _PASCAL, so a cold call of any m forms each
    missing entry once and recurses not at all.
    """
    if d < 0 or d > m:
        return 0
    value = _PASCAL.get((m, d, q))
    if value is not None:
        return value
    todo = [(m, d)]
    while todo:
        k, j = todo[-1]
        if 0 < j < k:
            low, high = _PASCAL.get((k - 1, j - 1, q)), _PASCAL.get((k - 1, j, q))
            if low is None:
                todo.append((k - 1, j - 1))
                continue
            if high is None:
                todo.append((k - 1, j))
                continue
            _PASCAL[k, j, q] = low + q**j * high
        else:
            _PASCAL[k, j, q] = 1
        todo.pop()
    return _PASCAL[m, d, q]


def count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices of rank exactly r over F_q."""
    _check_args(q, "n m r", n, m, r)
    return _count_rank_matrices(n, m, r, q)


def _count_rank_matrices(n: int, m: int, r: int, q: int) -> int:
    # Past min(n, m) one of the two factors is 0.
    return qbinom_ext(m, r, q) * _falling(n, r, q)
